"""Per-layer tracing from outside the program.

The public functions at multireg's layer boundaries are wrapped while a
``Tracer`` is active.  A timed layer records a span per call (calls,
inclusive and self time) plus the counters its hook derives from the
call's arguments and result; a counted layer only counts calls, because
timing functions that run once per monomial costs more than it tells.

Every multireg module that binds a wrapped object (``from .x import y``
copies the binding) is patched, and everything is restored on exit, so
untraced passes run the program exactly as shipped.
"""

import importlib
import sys
import time
import types
import weakref
from collections import defaultdict

import numpy as np

TIMED = "timed"
COUNTED = "counted"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _matrix_hook(tr, st, out, args, kwargs):
    A = np.asarray(_arg(args, kwargs, 0, "A"))
    p = _arg(args, kwargs, 1, "p")
    st["cells"] += A.size
    st["nnz"] += int(np.count_nonzero(np.mod(A, p)))
    st["rank_sum"] += out if isinstance(out, int) else len(out[1])


def _buchberger_hook(tr, st, out, args, kwargs):
    gens = _arg(args, kwargs, 0, "gens")
    cols = getattr(gens, "columns", gens)
    st["gens_in"] += sum(1 for v in cols if v)
    st["basis_out"] += len(out.elements)


def _kernel_projection_hook(tr, st, out, args, kwargs):
    st["cols_in"] += len(_arg(args, kwargs, 0, "M").columns)
    st["kept_out"] += len(out)


def _schreyer_frame_hook(tr, st, out, args, kwargs):
    st["frame_rank"] += sum(m.source.rank for m in out)


def _minimalize_hook(tr, st, out, args, kwargs):
    C = _arg(args, kwargs, 0, "C")
    st["rank_in"] += sum(F.rank for F in C.terms)
    st["rank_out"] += sum(F.rank for F in out.terms)


def _truncation_region_hook(tr, st, out, args, kwargs):
    lo, hi = _arg(args, kwargs, 2, "box")
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    st["points_box"] += size


def _truncate_module_hook(tr, st, out, args, kwargs):
    # one truncation built inside a region sweep is one evaluated point
    if tr.depth["regularity.truncation_region"]:
        tr.stats["regularity.truncation_region"]["points_evaluated"] += 1


def _mult_matrix_hook(tr, st, out, args, kwargs):
    f, d = _arg(args, kwargs, 1, "f"), _arg(args, kwargs, 2, "d")
    keys = tr.mult_keys.setdefault(args[0], set())
    n = len(keys)
    keys.add((f.terms, tuple(d)))
    st["distinct"] += len(keys) - n


def _local_cohomology_hook(tr, st, out, args, kwargs):
    st["t_used"] += out.t_used


def _bracket_power_hook(tr, st, out, args, kwargs):
    # one Ext table per t tried
    if tr.depth["cohomology.local_cohomology_box"]:
        tr.stats["cohomology.local_cohomology_box"]["t_steps"] += 1


def _ratio(num, den):
    return lambda st: st[num] / st[den] if st[den] else 0.0


# (defining module, attribute, layer name, kind, hook, exported stats,
#  derived stats).  Timed layers export calls, self_s and incl_s too.
LAYERS = (
    ("modp", "rank", "modp.rank", TIMED, _matrix_hook,
     ("cells", "nnz", "rank_sum"), {}),
    ("modp", "rref", "modp.rref", TIMED, _matrix_hook,
     ("cells", "nnz", "rank_sum"), {}),
    ("pieces", "GradedPieces.__init__", "pieces.GradedPieces", TIMED, None,
     (), {}),
    ("pieces", "GradedPieces.mult_matrix", "pieces.mult_matrix", TIMED,
     _mult_matrix_hook, (), {"distinct_frac": _ratio("distinct", "calls")}),
    ("pieces", "GradedPieces.basis", "pieces.basis", COUNTED, None, (), {}),
    ("groebner", "normal_form", "groebner.normal_form", COUNTED, None,
     (), {}),
    ("groebner", "buchberger", "groebner.buchberger", TIMED,
     _buchberger_hook, ("gens_in", "basis_out"), {}),
    ("groebner", "kernel_projection", "groebner.kernel_projection", TIMED,
     _kernel_projection_hook, ("cols_in", "kept_out"), {}),
    ("groebner", "colon_by_ideal", "groebner.colon_by_ideal", TIMED, None,
     (), {}),
    ("groebner", "schreyer_frame", "groebner.schreyer_frame", TIMED,
     _schreyer_frame_hook, ("frame_rank",), {}),
    ("resolution", "minimalize", "resolution.minimalize", TIMED,
     _minimalize_hook, ("rank_in", "rank_out"),
     {"kept_frac": _ratio("rank_out", "rank_in")}),
    ("truncation", "truncate_module", "truncation.truncate_module", TIMED,
     _truncate_module_hook, (), {}),
    ("regularity", "truncation_region", "regularity.truncation_region",
     TIMED, _truncation_region_hook, ("points_box", "points_evaluated"),
     {"eval_frac": _ratio("points_evaluated", "points_box")}),
    ("regularity", "module_is_saturated_at_zero",
     "regularity.module_is_saturated_at_zero", TIMED, None, (), {}),
    ("cohomology", "local_cohomology_box", "cohomology.local_cohomology_box",
     TIMED, _local_cohomology_hook, ("t_used", "t_steps", "errors"), {}),
    # not exported: only feeds t_steps above
    ("cohomology", "bracket_power_complex", None, COUNTED,
     _bracket_power_hook, (), {}),
)

# metrics of the traced run that are not tied to one layer
RUN_METRICS = (
    ("bench.traced_wall_s", "s"),
    ("bench.overhead_s", "s"),
    ("bench.uncovered_s", "s"),
)


def _unit(stat):
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_frac"):
        return "ratio"
    return "count"


def _exported():
    """(layer, recorded stats, derived stats) of every exported layer."""
    for _, _, layer, kind, _, extra, derived in LAYERS:
        if layer is not None:
            timed = ("self_s", "incl_s") if kind == TIMED else ()
            yield layer, ("calls",) + timed + extra, derived


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    return [(f"{layer}.{s}", _unit(s)) for layer, stats, derived in _exported()
            for s in stats + tuple(derived)] + list(RUN_METRICS)


def _resolve(module, attr):
    mod = importlib.import_module(f"multireg.{module}")
    owner, _, name = attr.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    return holder, name, getattr(holder, name)


class Tracer:
    """Context manager that wraps every layer in LAYERS and accumulates
    spans and counters into ``stats`` (layer name -> stat -> value)."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))
        self.depth = defaultdict(int)
        self.mult_keys = weakref.WeakKeyDictionary()
        self.covered_s = 0.0
        self._child_s = []
        self._restore = []

    def _timed(self, layer, fn, hook):
        stats, depth, child = self.stats[layer], self.depth, self._child_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            depth[layer] += 1
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats["errors"] += 1
                raise
            finally:
                dt = clock() - t0
                stats["self_s"] += dt - child.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    stats["incl_s"] += dt
                if child:
                    child[-1] += dt
                else:
                    self.covered_s += dt
            if hook is not None:
                hook(self, stats, out, args, kwargs)
            return out

        return wrapper

    def _counted(self, layer, fn, hook):
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, stats, out, args, kwargs)
            return out

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "multireg" or n.startswith("multireg.")]
        for module, attr, layer, kind, hook, _, _ in LAYERS:
            holder, name, orig = _resolve(module, attr)
            make = self._timed if kind == TIMED else self._counted
            wrapper = make(layer or f"{module}.{attr}", orig, hook)
            targets = [(holder, name)]
            if isinstance(holder, types.ModuleType):
                # every module-level binding of the same object
                targets = [(m, n) for m in modules
                           for n, v in list(vars(m).items()) if v is orig]
            for obj, n in targets:
                setattr(obj, n, wrapper)
                self._restore.append((obj, n, orig))
        return self

    def __exit__(self, *exc):
        for obj, n, orig in reversed(self._restore):
            setattr(obj, n, orig)
        self._restore.clear()
        return False

    def metrics(self):
        """Per-layer metrics as {name: value} (run metrics excluded)."""
        out = {}
        for layer, stats, derived in _exported():
            st = self.stats[layer]
            out.update((f"{layer}.{s}", st[s]) for s in stats)
            out.update((f"{layer}.{s}", fn(st)) for s, fn in derived.items())
        return out
