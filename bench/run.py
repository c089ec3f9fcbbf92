"""multireg benchmark: run one named workload, check its answers, and
print its end-to-end metrics (or, with --trace 1, its per-layer
metrics) as the last line of standard output.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

The program is imported from ``src/`` of the checkout this file sits
in, never from an installed copy.  Workloads are in workloads.py, the
tracer in layers.py, and what they measure and why in README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _bootstrap():
    """Import multireg from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    needed = [src / "multireg" / "__init__.py", ROOT / "data",
              ROOT / "tests" / "conftest.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.exit(f"error: checkout lacks {', '.join(missing)}")
    sys.path[:0] = [str(src), str(ROOT)]
    import multireg
    if Path(multireg.__file__).resolve().parent != src / "multireg":
        sys.exit(f"error: multireg imported from {multireg.__file__}")


def environment():
    """Where a result was measured."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _prepare(args):
    from workloads import WORKLOADS, prepare_crosscheck
    if args.workload == "crosscheck":
        return prepare_crosscheck(ROOT, args.seed, args.corpus_seed)
    return WORKLOADS[args.workload][0](ROOT, args.seed)


def measure_setup(args):
    """Median time, over fresh processes, from process start until
    multireg is imported and the workload's inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--corpus-seed", str(args.corpus_seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return statistics.median(times)


def run_pass(ops):
    """One pass over the operations.  Returns the wall and CPU seconds
    each call into the program took, and each call's result (or the
    exception it raised); answers are checked afterwards, untimed."""
    gc.collect()
    walls, cpus, results = [], [], []
    for _, run, _ in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            results.append((True, run()))
        except Exception as exc:
            results.append((False, f"raised {type(exc).__name__}: {exc}"))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return walls, cpus, results


def check_pass(ops, results, failures):
    for (label, _, check), (ok, result) in zip(ops, results):
        err = check(result) if ok else result
        if err:
            failures.append(f"{label}: {err}")


def _fits(start, seconds, passes, more=1):
    """Whether ``more`` passes, at the mean pace so far, end in time."""
    elapsed = time.perf_counter() - start
    return elapsed + more * elapsed / passes <= seconds


def _median_pass(per_pass):
    """Sum over operations of each operation's median over passes: one
    pass's time, with a slow moment in any pass outvoted by the others."""
    return sum(statistics.median(op) for op in zip(*per_pass))


def run_untraced(ops, seconds, failures):
    """Passes while time allows.  Returns the end-to-end metrics and
    the number of passes.

    The first pass warms the process up (first calls into numpy and
    OpenBLAS, fresh memory) and runs measurably slower, so times are
    taken from the later passes whenever there are any; otherwise the
    number of passes that fit would shift the result."""
    start = time.perf_counter()
    walls, cpus = [], []
    while True:
        wall, cpu, results = run_pass(ops)
        check_pass(ops, results, failures)
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 1:
            # what one invocation needs; later passes add what the
            # program keeps between calls in one process
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not _fits(start, seconds, len(walls)):
            break
    warm = slice(1 if len(walls) > 1 else 0, None)
    return {"wall_s": _median_pass(walls[warm]),
            "cpu_s": _median_pass(cpus[warm]),
            "peak_rss_mb": peak_kb / 1024}, len(walls)


def run_traced(ops, seconds, failures):
    """A warm-up pass, traced passes while time allows, and one last
    untraced pass to measure the tracing overhead against.  The first
    traced pass gives the metrics; later ones must repeat its counters
    exactly."""
    from layers import RUN_METRICS, Tracer
    start = time.perf_counter()
    _, _, results = run_pass(ops)
    check_pass(ops, results, failures)
    traced = []
    while not traced or _fits(start, seconds, len(traced) + 1, more=2):
        with Tracer() as tr:
            walls, _, results = run_pass(ops)
        check_pass(ops, results, failures)
        traced.append((sum(walls), tr))
    plain_walls, _, results = run_pass(ops)
    check_pass(ops, results, failures)
    wall, tr = traced[0]
    metrics = tr.metrics()
    counters = {k: v for k, v in metrics.items() if not k.endswith("_s")}
    for _, again in traced[1:]:
        diff = sorted(k for k, v in again.metrics().items()
                      if k in counters and v != counters[k])
        if diff:
            failures.append(f"counters differ between passes: {diff}")
    run_values = (wall, wall - sum(plain_walls), wall - tr.covered_s)
    metrics.update(zip((n for n, _ in RUN_METRICS), run_values))
    return metrics, len(traced) + 2


def run_workload(args):
    from layers import metric_names
    setup_s = None if args.trace else measure_setup(args)
    ops = _prepare(args)
    failures = []
    if args.trace:
        values, passes = run_traced(ops, args.seconds, failures)
        units = dict(metric_names())
    else:
        values, passes = run_untraced(ops, args.seconds, failures)
        values["setup_s"] = setup_s
        units = dict(END_TO_END)
    attempted = passes * len(ops)
    failed = len(failures)
    print("env:", json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes "
          f"of {len(ops)} operations")
    for msg in failures:
        print("FAILED", msg)
    for name in units:
        print(f"  {name:48s} {values[name]:.6g} {units[name]}")
    print(f"  {'fail_frac':48s} {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }))
    return 0 if not failures else 1


def run_all(args):
    """Each workload in a fresh process, untraced (and traced with
    --trace 1); prints a summary table and a JSON record."""
    from workloads import WORKLOADS
    results = {}
    code = 0
    for name in WORKLOADS:
        for trace in range(args.trace + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--corpus-seed", str(args.corpus_seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            sys.stderr.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not record.get("correct"):
                code = 1
            results.setdefault(name, {})[f"trace{trace}"] = record
    print(f"{'workload':12s}" + "".join(f"{n + ' (' + u + ')':>18s}"
                                        for n, u in END_TO_END)
          + f"{'fail_frac':>12s}")
    for name, runs in results.items():
        rec = runs.get("trace0", {})
        vals = rec.get("metrics", {})
        cells = "".join(f"{vals[n]['value']:18.4f}" if n in vals
                        else f"{'-':>18s}" for n, _ in END_TO_END)
        frac = (rec["failed"] / rec["attempted"]
                if rec.get("attempted") else float("nan"))
        print(f"{name:12s}{cells}{frac:12.4f}")
    print(json.dumps({"env": environment(), "seed": args.seed,
                      "seconds": args.seconds, "results": results},
                     sort_keys=True))
    return code


def main(argv=None):
    from workloads import CORPUS_SEED, WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders each pass's operations")
    ap.add_argument("--seconds", type=int, default=30,
                    help="measuring time; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=CORPUS_SEED,
                    help="draws the crosscheck corpus (criterion 7's seed)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _bootstrap()
    if args.setup_probe:
        _prepare(args)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
