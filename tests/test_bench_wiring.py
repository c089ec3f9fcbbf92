"""The benchmark's tracer (bench/layers.py) wraps package functions by
name and reads some of their arguments by position.  Resolving its
layer table here makes a rename or a signature change fail in the fast
suite instead of only in the slow benchmark tests, and a small traced
run checks that the oracle and the region sweeps still call every layer
the benchmark's self-test (bench/test_bench.py) expects of them."""

import ast
import importlib.util
import inspect
import warnings
from pathlib import Path

from multireg import cohomology, parse_input, regularity

ROOT = Path(__file__).resolve().parent.parent
LAYERS_PY = ROOT / "bench" / "layers.py"

# (layer, position, parameter name) for each argument a hook reads
HOOK_ARGUMENTS = [
    ("modp.rank", 0, "A"), ("modp.rank", 1, "p"),
    ("modp.rref", 0, "A"), ("modp.rref", 1, "p"),
    ("pieces.mult_matrix", 1, "f"), ("pieces.mult_matrix", 2, "d"),
    ("groebner.buchberger", 0, "gens"),
    ("groebner.kernel_projection", 0, "M"),
    ("resolution.minimalize", 0, "C"),
    ("regularity.truncation_region", 2, "box"),
]


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _exercised():
    """EXERCISED of bench/test_bench.py, read without importing it (the
    import would put bench/ on sys.path for the rest of the test run)."""
    tree = ast.parse((ROOT / "bench" / "test_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "EXERCISED":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/test_bench.py defines no EXERCISED")


def test_bench_layers_resolve():
    layers = _load_layers()
    functions = {}
    for module, attr, layer, *_ in layers.LAYERS:
        _, _, fn = layers._resolve(module, attr)
        assert callable(fn), (module, attr)
        functions[layer] = fn
    for layer, pos, name in HOOK_ARGUMENTS:
        params = list(inspect.signature(functions[layer]).parameters)
        assert params[pos] == name, (layer, params)


def test_small_traced_runs_call_the_exercised_layers():
    """The oracle on a small box, traced, calls every layer
    bench/test_bench.py requires of the oracle workload, and with one
    region sweep added every layer it requires of crosscheck.  A
    regularity sweep alone calls every layer it requires of sweep.
    Each run takes a fresh module, so nothing is cached."""
    layers = _load_layers()
    exercised = _exercised()
    text = (ROOT / "data" / "not_linear.mr").read_text()
    for workload in ("oracle", "crosscheck", "sweep"):
        M = parse_input(text).module()
        with layers.Tracer() as tr, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if workload == "sweep":
                regularity.multigraded_regularity(M, ((0, 0), (1, 1)))
            else:
                cohomology.local_cohomology_box(M, ((-1, -1), (1, 1)))
            if workload == "crosscheck":
                regularity.truncation_region(M, "Q", ((0, 0), (1, 1)))
        for layer in exercised[workload]:
            assert tr.stats[layer]["calls"] > 0, (workload, layer)
