"""Systolic invariants of piecewise-flat manifolds and Euclidean lattices.

Subpackages by topic: `lattice` (shortest vectors, dual-critical search),
`simplicial` (complexes, PL metrics, covers, products), `homology`
(integral and Z2 homology from one presentation engine), `systole`
(shortest loops and stable norms), `hodge` (harmonic forms and level-set
sweeps), `hypersurface` (codimension-1 Z2 minimizers), `generators`
(reference meshes), `verify` (the end-to-end inequality harness).
"""

from .generators import gen_circle, gen_flat_torus, gen_rp2, perturb_metric
from .hodge import circle_map, harmonic_representative, period_gram, sweep
from .homology import h1_dual_bases, homology, z2_homology
from .hypersurface import min_hypersurface, sys_codim1_z2, witness_verify
from .lattice import (
    GAMMA_PRIME,
    LatticeBasis,
    berge_martinet_product,
    dual_critical_search,
    dual_lattice,
    hermite_invariant,
    lambda1,
    lll_reduce,
    read_lattice,
    shortest_vector,
)
from .simplicial import (
    PLMetric,
    SimplicialComplex,
    build_cover,
    product_complex,
    pullback_metric,
    read_cover,
    read_mesh,
    validate,
    volume,
)
from .systole import pisys1_upper, stable_norm, stsys1, sys1_aggregate, sysh1
from .verify import (
    VerificationReport,
    pullback_monotonicity_test,
    syscat_bounds,
    verify_inequality12,
)

__version__ = "0.1.0"
