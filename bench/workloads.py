"""The benchmark's workloads: what each pass runs and how its answers
are checked.

A workload's ``prepare(root, seed)`` builds the inputs (this is the
measured set-up) and returns a list of operations.  An operation is a
``(label, run, check)`` triple: ``run()`` is the timed call into the
program, and ``check(result)`` runs outside the timed region and
returns None for a right answer or a message for a wrong one.  Why each
workload exists, and which ROADMAP item it pairs with, is in README.md.
"""

import contextlib
import io
import itertools
import json
import random
import warnings

# Golden regions, as in tests/test_acceptance.py (criteria 3, 4, 5).  The
# not_linear region is the seed commit's answer; it agrees with criterion
# 1, where (1,0) is regular and (0,1) is not.
HYPERELLIPTIC_Q = [[1, 5], [2, 2], [4, 1]]
HYPERELLIPTIC_L = [[1, 5], [2, 2], [5, 1]]
NOT_LINEAR_Q = [[1, 0]]
TWO_POINTS_Q = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
CI_SURFACE_Q = [[0, 2], [1, 1]]

# `cohomology --box=-1,-2:2,2 data/hyperelliptic.mr` entries at the seed
# commit.  t_used is not part of the snapshot: a stronger stabilization
# test may legitimately change it.
ORACLE_ENTRIES = [
    {"i": 1, "degree": [-1, 1], "dim": 3},
    {"i": 1, "degree": [-1, 2], "dim": 11},
    {"i": 1, "degree": [0, 1], "dim": 2},
    {"i": 1, "degree": [0, 2], "dim": 7},
    {"i": 1, "degree": [1, 1], "dim": 1},
    {"i": 1, "degree": [1, 2], "dim": 3},
    {"i": 2, "degree": [-1, -2], "dim": 21},
    {"i": 2, "degree": [-1, -1], "dim": 13},
    {"i": 2, "degree": [-1, 0], "dim": 5},
    {"i": 2, "degree": [0, -2], "dim": 19},
    {"i": 2, "degree": [0, -1], "dim": 11},
    {"i": 2, "degree": [0, 0], "dim": 4},
    {"i": 2, "degree": [1, -2], "dim": 17},
    {"i": 2, "degree": [1, -1], "dim": 9},
    {"i": 2, "degree": [1, 0], "dim": 3},
    {"i": 2, "degree": [2, -2], "dim": 15},
    {"i": 2, "degree": [2, -1], "dim": 7},
    {"i": 2, "degree": [2, 0], "dim": 2},
]

# Criterion 7's P1xP1 corpus: its seed and size.
CORPUS_SEED = 20240601
CORPUS_SIZE = 38


def _cli(argv):
    """Run the CLI in-process; returns (exit code, stdout)."""
    from multireg import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _expect_region(golden):
    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        got = json.loads(out)["minimal_generators"]
        return None if got == golden else f"region {got} != {golden}"
    return check


def prepare_sweep(root, seed):
    data = root / "data"
    hyper = str(data / "hyperelliptic.mr")
    calls = [
        (["regularity", "--box", "0,0:9,9", hyper], HYPERELLIPTIC_Q),
        (["linear-truncations", "--box", "0,0:9,9", hyper], HYPERELLIPTIC_L),
        (["regularity", "--box", "0,0:3,3", str(data / "not_linear.mr")],
         NOT_LINEAR_Q),
        (["regularity", "--box", "0,0,0:3,3,3", str(data / "two_points.mr")],
         TWO_POINTS_Q),
        (["regularity", "--box", "0,0:4,4", str(data / "ci_surface.mr")],
         CI_SURFACE_Q),
    ]
    ops = [(" ".join(argv[:1] + argv[-1:]),
            lambda argv=argv: _cli(argv + ["--format", "json"]),
            _expect_region(golden))
           for argv, golden in calls]
    random.Random(seed).shuffle(ops)
    return ops


def prepare_saturate(root, seed):
    from multireg import ideal_matrix, parse_input, poly_from_string
    from multireg import submodules_equal
    data = root / "data"
    expected = parse_input((data / "hyperelliptic.mr").read_text())
    ring = expected.ring
    want = ideal_matrix(ring, expected.ideal_gens)

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        gens = [poly_from_string(ring, g)
                for g in json.loads(out)["generators"]]
        if submodules_equal(ideal_matrix(ring, gens), want):
            return None
        return "saturation differs from data/hyperelliptic.mr"

    argv = ["saturate", str(data / "hyperelliptic_raw.mr"), "--format", "json"]
    return [("saturate hyperelliptic_raw.mr", lambda: _cli(argv), check)]


def prepare_oracle(root, seed):
    argv = ["cohomology", "--box=-1,-2:2,2", str(root / "data" /
                                                 "hyperelliptic.mr"),
            "--format", "json"]

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        got = json.loads(out)["entries"]
        return None if got == ORACLE_ENTRIES else f"entries {got}"

    return [("cohomology hyperelliptic.mr", lambda: _cli(argv), check)]


def crosscheck_box(ring):
    """Criterion 7's degree box for the definition check on [0,3]^r."""
    from multireg.cohomology import required_corners
    r = ring.r
    dbox = list(itertools.product(range(4), repeat=r))
    corners = set()
    for d in dbox:
        corners.update(required_corners(ring, d))
    lo = tuple(min(c[j] for c in corners) for j in range(r))
    hi = tuple(max(max(c[j] for c in corners), 3 + ring.n[j] + 1)
               for j in range(r))
    return dbox, (lo, hi)


def prepare_crosscheck(root, seed, corpus_seed=CORPUS_SEED):
    import multireg
    from multireg import Presentation, RingSpec
    from multireg.regularity import BoxBoundaryWarning
    from tests.conftest import random_saturated_quotient

    ring = RingSpec((1, 1))
    dbox, box = crosscheck_box(ring)
    rng = random.Random(corpus_seed)
    corpus = []
    while len(corpus) < CORPUS_SIZE:
        M = random_saturated_quotient(ring, rng, maxdeg=2)
        if M is not None:
            corpus.append(M)

    def run(M):
        # A fresh presentation, so no pass reuses the graded-piece cache
        # of an earlier one.  Functions are looked up on the package at
        # call time, so that a traced pass sees the wrapped ones.
        M = Presentation(M.F0, M.relations)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxBoundaryWarning)
            region = multireg.truncation_region(M, "Q", (dbox[0], dbox[-1]))
        table = multireg.local_cohomology_box(M, box)
        return [d for d in dbox if region.contains(d)
                != multireg.check_regularity_by_definition(M, d, table=table)]

    def check(disagree):
        return (None if not disagree
                else f"routes disagree at {disagree}")

    ops = [(f"module {k}", lambda M=M: run(M), check)
           for k, M in enumerate(corpus)]
    random.Random(seed).shuffle(ops)
    return ops


# name -> (prepare, one-line reason, as in BENCHMARK.json)
WORKLOADS = {
    "sweep": (prepare_sweep,
              "truncation route: region sweeps on the data files "
              "(Buchberger, tracked kernels, Schreyer frames, minimalize)"),
    "saturate": (prepare_saturate,
                 "Groebner core alone: colon kernels of one saturation, "
                 "no pieces, modp or resolutions"),
    "oracle": (prepare_oracle,
               "local-cohomology route on one module: large sparse F_p "
               "ranks and multiplication matrices"),
    "crosscheck": (prepare_crosscheck,
                   "both routes on criterion 7's 38 P1xP1 modules: many "
                   "small matrices, answers cross-checked"),
}
