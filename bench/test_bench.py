"""Self-test of the benchmark: every layer is wired and exercised, the
traced counters repeat exactly, BENCHMARK.json agrees with the code,
and a checkout without the program is refused.

    python3 -m pytest -q bench/test_bench.py

Two traced runs per workload at --seconds 1; about three minutes on a
2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYERS, metric_names  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The layers each workload is meant to exercise (README.md gives the
# reasons); every exported layer appears at least once.
EXERCISED = {
    "sweep": (
        "modp.rref", "pieces.GradedPieces", "pieces.mult_matrix",
        "pieces.basis", "groebner.normal_form", "groebner.buchberger",
        "groebner.kernel_projection", "groebner.colon_by_ideal",
        "groebner.schreyer_frame", "resolution.minimalize",
        "truncation.truncate_module", "regularity.truncation_region",
        "regularity.module_is_saturated_at_zero"),
    "saturate": (
        "groebner.buchberger", "groebner.kernel_projection",
        "groebner.colon_by_ideal"),
    "oracle": (
        "modp.rank", "modp.rref", "pieces.GradedPieces",
        "pieces.mult_matrix", "pieces.basis", "groebner.normal_form",
        "groebner.buchberger", "cohomology.local_cohomology_box"),
    "crosscheck": (
        "modp.rank", "modp.rref", "pieces.GradedPieces",
        "pieces.mult_matrix", "pieces.basis", "groebner.normal_form",
        "groebner.buchberger", "groebner.kernel_projection",
        "groebner.schreyer_frame", "resolution.minimalize",
        "truncation.truncate_module", "regularity.truncation_region",
        "cohomology.local_cohomology_box"),
}

# saturate is the no-change check for work outside the Groebner core
UNTOUCHED = {
    "saturate": ("modp.rank", "modp.rref", "pieces.GradedPieces",
                 "pieces.mult_matrix", "groebner.schreyer_frame",
                 "resolution.minimalize"),
}


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] and record["failed"] == 0
    return {k: v["value"] for k, v in record["metrics"].items()}


@pytest.fixture(scope="module", params=list(WORKLOADS))
def two_traced_runs(request):
    return request.param, _traced_run(request.param), \
        _traced_run(request.param)


def test_every_layer_has_a_workload():
    layers = {layer for _, _, layer, *_ in LAYERS if layer}
    assert layers == set().union(*EXERCISED.values())


def test_layers_are_called(two_traced_runs):
    workload, metrics, _ = two_traced_runs
    for layer in EXERCISED[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    for layer in UNTOUCHED.get(workload, ()):
        assert metrics[f"{layer}.calls"] == 0, layer


def test_counters_repeat(two_traced_runs):
    _, first, second = two_traced_runs
    counters = sorted(k for k in first if not k.endswith("_s"))
    assert counters
    assert {k: first[k] for k in counters} == \
        {k: second[k] for k in counters}


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: why for name, (_, why) in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        metric_names()


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
