"""Outside-in tracing of the sysgeo layers.

`Tracer.install` replaces every public function of each layer module, in
every `sysgeo` module namespace that binds it (`verify` and `hodge` import
names directly), with a wrapper that records a span.  The LP and MILP
calls into scipy are wrapped the same way.  Spans are kept in memory as
`[name, start, end, parent, attrs]` and written out when the run ends.
Nothing inside the package is changed on disk.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.optimize

# module -> layer; linalg_z is the exact-algebra half of the homology layer
LAYERS = {
    "simplicial": "simplicial",
    "homology": "homology",
    "linalg_z": "homology",
    "systole": "systole",
    "hodge": "hodge",
    "hypersurface": "hypersurface",
    "lattice": "lattice",
    "verify": "verify",
}
ROOT = "bench.input"  # one root span per verified input: the request id


def _class_result(args, kwargs, res):
    return {k: (v if isinstance(v, (int, float)) else str(v))
            for k, v in res.info.items()}


def _codim1_result(args, kwargs, sv):
    prov = sv.provenance if isinstance(sv.provenance, dict) else {}
    return {"value": sv.value, "exactness": sv.exactness,
            "lower_bound": prov.get("lower_bound", sv.value),
            "classes": [{**c, "class": list(c["class"])}
                        for c in prov.get("classes", [])]}


def _milp_result(args, kwargs, res):
    return {"status": int(res.status),
            "nodes": int(getattr(res, "mip_node_count", 0) or 0),
            "dual_bound": getattr(res, "mip_dual_bound", None)}


ON_RESULT = {
    "hypersurface.min_hypersurface": _class_result,
    "hypersurface.sys_codim1_z2": _codim1_result,
    "hypersurface.milp": _milp_result,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, on_result = self.spans, self._stack, ON_RESULT.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                span[4] = on_result(args, kwargs, out)
            return out

        return traced

    def _public_functions(self):
        """original function -> span name, for every layer module loaded."""
        names = {}
        for mod_name, layer in LAYERS.items():
            mod = sys.modules.get(f"sysgeo.{mod_name}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[obj] = f"{layer}.{attr}"
        names[scipy.optimize.linprog] = "systole.lp"
        names[scipy.optimize.milp] = "hypersurface.milp"
        return names

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for fn, name in self._public_functions().items()}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "sysgeo" or n.startswith("sysgeo.")]
        namespaces.append(scipy.optimize)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                fn, w = wrappers.get(id(obj), (None, None))
                if fn is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def root(self, input_name):
        span = [ROOT, 0.0, 0.0, -1, {"input": input_name}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans) -> dict:
    """Per-layer self time plus per-function calls and inclusive time.

    The root spans belong to no layer; their self time is the benchmark's
    own bookkeeping around each `verify_inequality12` call.
    """
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        if name != ROOT:
            by_layer[name.split(".")[0]] += own
        calls[name] += 1
        total[name] += span[2] - span[1]
    return {"self_s": dict(by_layer), "calls": dict(calls), "total_s": dict(total)}


def codim1_records(spans) -> list[dict]:
    """Per input, the codim-1 classes with their solver info and seconds."""
    out = []
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)

    def descendants(i, name):
        for j in children[i]:
            if spans[j][0] == name:
                yield j
            else:
                yield from descendants(j, name)

    for r in children[-1]:
        if spans[r][0] != ROOT:
            continue
        for c in descendants(r, "hypersurface.sys_codim1_z2"):
            rec = {"input": spans[r][4]["input"], **(spans[c][4] or {})}
            rec["classes"] = [dict(cls) for cls in rec.get("classes", [])]
            # sys_codim1_z2 solves its classes in order, one call each
            solves = descendants(c, "hypersurface.min_hypersurface")
            for cls, m in zip(rec["classes"], solves):
                cls["info"] = spans[m][4]
                cls["seconds"] = spans[m][2] - spans[m][1]
                cls["milp"] = [{**spans[k][4], "seconds": spans[k][2] - spans[k][1]}
                               for k in descendants(m, "hypersurface.milp")]
            out.append(rec)
    return out
