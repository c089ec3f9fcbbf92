"""The benchmark's tracer (bench/layers.py) wraps package functions by
name and reads some of their arguments by position.  Resolving its
layer table here makes a rename or a signature change fail in the fast
suite instead of only in the slow benchmark tests."""

import importlib.util
import inspect
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

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
