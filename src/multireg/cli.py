"""Command-line front end.

Subcommands operate on job files (see parser) or on literal degree
arguments, print text by default, and emit versioned JSON with
--format=json; the subcommands whose answer is a region can also write
a rank-2 one as an SVG staircase (--format svg, --output).
Exit codes: 0 on success, 1 on a computation error (for example a
module with irrelevant torsion where the truncation criterion was
requested), 2 on a parse error, 141 (128 + SIGPIPE, as a shell reports
a process killed by a broken pipe) when the reader of the output closes
it early.
"""

import argparse
import json
import os
import re
import sys
import warnings

from .cohomology import local_cohomology_box
from .errors import MultiregError, ParseError
from .groebner import ideal_matrix, irrelevant_ideal, saturate
from .parser import parse_input
from .regions import (
    betti_bound_L,
    betti_bound_Q,
    region_L,
    region_Q,
    staircase_svg,
    staircase_text,
)
from .regularity import (
    BoxBoundaryWarning,
    ci_regularity,
    classify_resolution,
    multigraded_regularity,
    truncation_region,
    verify_ci_hypotheses,
)
from .resolution import betti, free_resolution
from .ringcore import checked_prime
from .truncation import truncate_module


def _parse_degree(text, rank=None, what="degree"):
    text = text.strip()
    try:
        d = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad {what} {text!r}; expected d1,d2,...") from None
    if rank is not None and len(d) != rank:
        raise ParseError(f"{what} {text!r} needs {rank} coordinates, "
                         f"got {len(d)}")
    return d


def _parse_box(text, rank):
    if ":" not in text:
        raise ParseError(f"bad --box {text!r}; expected a,b:c,d")
    lo, hi = (_parse_degree(c, rank, "--box corner")
              for c in text.split(":", 1))
    if any(a > b for a, b in zip(lo, hi)):
        raise ParseError(f"--box {text!r}: the lower corner must be <= "
                         "the upper corner")
    return lo, hi


def _load_job(args):
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    return parse_input(text, prime_override=args.prime)


def _emit(args, payload, text_renderer):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_renderer())


def _render_region(args, region, warnings_seen=()):
    if args.format == "svg":
        if region.rank != 2:
            raise ParseError(f"--format svg draws rank-2 regions; this "
                             f"region has rank {region.rank}")
        svg = staircase_svg(region)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {args.output}")
        else:
            print(svg)
        return
    if args.format == "json":
        data = region.to_json()
        if warnings_seen:
            data["warnings"] = [str(w.message) for w in warnings_seen]
        print(json.dumps(data, indent=2, sort_keys=True))
        return
    gens = ", ".join(str(list(g)) for g in region.minimal_generators)
    print(f"minimal generators: {gens if gens else '(empty region)'}")
    if region.rank == 2 and not region.is_empty():
        print(staircase_text(region))
    for w in warnings_seen:
        print(f"warning: {w.message}")


def _module_of(args):
    job = _load_job(args)
    M = job.module()
    if getattr(args, "truncate_at", None) is not None:
        M = truncate_module(
            M, _parse_degree(args.truncate_at, job.ring.r, "--truncate-at"))
    return job, M


def cmd_betti(args):
    job, M = _module_of(args)
    table = betti(free_resolution(M))
    _emit(args, table.to_json(), table.pretty)
    return 0


def cmd_truncate(args):
    job, M = _module_of(args)
    def render():
        lines = [f"generators: {[list(t) for t in M.F0.twists]}",
                 f"relations: {M.relations.source.rank}"]
        for l in range(M.relations.source.rank):
            col = [str(M.relations.entry(k, l))
                   for k in range(M.F0.rank)]
            lines.append("  [" + ", ".join(col) + "]")
        return "\n".join(lines)
    payload = {
        "schema": "multireg/presentation/v1",
        "generator_degrees": [list(t) for t in M.F0.twists],
        "relation_degrees": [list(t)
                             for t in M.relations.source.twists],
        "relations": [[str(M.relations.entry(k, l))
                       for l in range(M.relations.source.rank)]
                      for k in range(M.F0.rank)],
    }
    _emit(args, payload, render)
    return 0


def cmd_classify(args):
    job, M = _module_of(args)
    verdict = classify_resolution(betti(free_resolution(M)))
    def render():
        lines = [f"verdict: {verdict.kind}"]
        if verdict.gen_degree:
            lines.append(f"generated in degree {list(verdict.gen_degree)}")
        for i, b, kind in verdict.witnesses:
            lines.append(f"  violation at index {i}, twist "
                         f"{list(b) if b else b}, region {kind}")
        return "\n".join(lines)
    _emit(args, verdict.to_json(), render)
    return 0


def _default_box(M):
    table = betti(free_resolution(M))
    r = M.ring.r
    hi = tuple(max((b[j] for (_, b) in table.data), default=0) + 1
               for j in range(r))
    return (0,) * r, hi


def cmd_region_search(args):
    """regularity and linear-truncations: a truncation-region search
    over the box, by the subcommand's ``search(args, M, box)``."""
    job, M = _module_of(args)
    box = _parse_box(args.box, job.ring.r) if args.box else _default_box(M)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", BoxBoundaryWarning)
        region = args.search(args, M, box)
    _render_region(args, region, seen)
    return 0


def cmd_betti_bounds(args):
    job, M = _module_of(args)
    table = betti(free_resolution(M))
    L = betti_bound_L(table)
    Q = betti_bound_Q(table)
    payload = {
        "schema": "multireg/betti-bounds/v1",
        "linear_bound": L.to_json(),
        "quasilinear_bound": Q.to_json(),
    }
    def render():
        return ("linear bound minimal generators: "
                f"{[list(g) for g in L.minimal_generators]}\n"
                "quasilinear bound minimal generators: "
                f"{[list(g) for g in Q.minimal_generators]}")
    _emit(args, payload, render)
    return 0


def cmd_ci_regularity(args):
    if args.degrees:
        # nargs="*" also takes a file written after the degrees
        files = [t for t in args.degrees if re.search(r"[^\d,\s-]", t)]
        degrees = [_parse_degree(t, what="--degrees entry")
                   for t in args.degrees if t not in files]
        for d in degrees:
            if len(d) != len(degrees[0]) or min(d) <= 0:
                raise ParseError(f"--degrees entry {list(d)}: expected "
                                 "strictly positive degrees of one rank")
        if args.file:
            files.append(args.file)
        if files:
            raise ParseError(f"{files[0]} given with --degrees: "
                             "ci-regularity takes a file or --degrees, "
                             "not both")
        region = ci_regularity(degrees)
        _render_region(args, region)
        return 0
    job = _load_job(args)
    if job.kind != "ideal":
        raise MultiregError("ci-regularity needs an ideal input")
    gens = job.ideal_gens
    try:
        ok = verify_ci_hypotheses(gens)
    except ValueError as exc:
        # a zero form or one of non-positive degree: the closed form's
        # precondition fails, as for torsion below
        raise MultiregError(str(exc)) from None
    if not ok:
        raise MultiregError(
            "generators are not a saturated complete intersection; "
            "the closed form does not apply")
    region = ci_regularity([g.degree() for g in gens])
    _render_region(args, region)
    return 0


def cmd_region(args):
    if args.level < 0:
        raise ParseError(f"level {args.level} must be >= 0")
    d = _parse_degree(args.degree)
    fn = region_L if args.kind == "L" else region_Q
    region = fn(args.level, d)
    _render_region(args, region)
    return 0


def cmd_cohomology(args):
    job, M = _module_of(args)
    if args.box:
        box = _parse_box(args.box, job.ring.r)
    else:
        r = M.ring.r
        box = (tuple(-n - 1 for n in M.ring.n), (2,) * r)
    table = local_cohomology_box(M, box)
    _emit(args, table.to_json(), table.pretty)
    return 0


def cmd_saturate(args):
    job = _load_job(args)
    if job.kind != "ideal":
        raise MultiregError("saturate needs an ideal input")
    ring = job.ring
    I = saturate(ideal_matrix(ring, job.ideal_gens), irrelevant_ideal(ring))
    gens = [str(I.entry(0, l)) for l in range(I.source.rank)]
    payload = {"schema": "multireg/ideal/v1", "generators": gens}

    def render():
        # a valid job file, so the output can be fed straight back in
        head = f"ring p={ring.p} n=[{','.join(map(str, ring.n))}]"
        if not gens:
            return head + "\nideal 0"
        return head + "\nideal " + ";\n      ".join(gens)

    _emit(args, payload, render)
    return 0


def _add_common(sub, file_arg=True, truncate=False, region=False):
    if file_arg:
        sub.add_argument("file", help="job file (.mr)")
        sub.add_argument("--prime", type=int, default=None,
                         help="override the ring characteristic")
    if truncate:
        sub.add_argument("--truncate-at", default=None, metavar="d1,d2",
                         help="work with the truncation at this degree")
    # only a subcommand whose answer is a region draws it
    sub.add_argument("--format", default="text",
                     choices=("text", "json", "svg") if region
                     else ("text", "json"))
    if region:
        sub.add_argument("--output", default=None,
                         help="path for svg output")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="multireg",
        description="Betti tables, truncation regions and multigraded "
                    "regularity over products of projective spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("betti", help="Betti table of the minimal resolution")
    _add_common(s, truncate=True)
    s.set_defaults(fn=cmd_betti)

    s = sub.add_parser("truncate", help="presentation of a truncation")
    _add_common(s)
    s.add_argument("--truncate-at", required=True, metavar="d1,d2")
    s.set_defaults(fn=cmd_truncate)

    s = sub.add_parser("classify",
                       help="linear / quasilinear / neither verdict")
    _add_common(s, truncate=True)
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("regularity",
                       help="minimal elements of the regularity region")
    _add_common(s, region=True)
    s.add_argument("--box", default=None, metavar="a,b:c,d")
    s.set_defaults(fn=cmd_region_search,
                   search=lambda args, M, box: multigraded_regularity(M, box))

    s = sub.add_parser("linear-truncations",
                       help="degrees with linear (or quasilinear) "
                            "truncations")
    _add_common(s, region=True)
    s.add_argument("--box", default=None, metavar="a,b:c,d")
    s.add_argument("--mode", choices=("L", "Q"), default="L")
    s.set_defaults(fn=cmd_region_search,
                   search=lambda args, M, box:
                   truncation_region(M, args.mode, box))

    s = sub.add_parser("betti-bounds",
                       help="inner bounds for the truncation regions "
                            "from the Betti table")
    _add_common(s, truncate=True)
    s.set_defaults(fn=cmd_betti_bounds)

    s = sub.add_parser("ci-regularity",
                       help="closed-form regularity of a complete "
                            "intersection")
    s.add_argument("file", nargs="?", default=None)
    s.add_argument("--prime", type=int, default=None)
    s.add_argument("--degrees", nargs="*", default=None, metavar="d1,d2",
                   help="skip the file and give generator degrees directly")
    _add_common(s, file_arg=False, region=True)
    s.set_defaults(fn=cmd_ci_regularity)

    s = sub.add_parser("region", help="print a staircase region L or Q")
    s.add_argument("kind", choices=("L", "Q"))
    s.add_argument("level", type=int)
    s.add_argument("degree", metavar="d1,d2")
    _add_common(s, file_arg=False, region=True)
    s.set_defaults(fn=cmd_region)

    s = sub.add_parser("cohomology",
                       help="local cohomology table over a degree box")
    _add_common(s, truncate=True)
    s.add_argument("--box", default=None, metavar="a,b:c,d")
    s.set_defaults(fn=cmd_cohomology)

    s = sub.add_parser("saturate",
                       help="saturate an ideal by the irrelevant ideal")
    _add_common(s)
    s.set_defaults(fn=cmd_saturate)
    return ap


# options whose value is a degree or a box, which may start with '-'
_DEGREE_OPTIONS = ("--box", "--truncate-at")


def _attach_degree_values(argv):
    """Keep degree values that start with '-' from being read as
    options: argparse takes such a token, unless it is a plain number,
    for an option, and stops with 'expected one argument' or
    'unrecognized arguments'.  ``--box -2,-2:2,2`` is written as
    ``--box=-2,-2:2,2``.  The positionals of ``region`` and the values
    of ``--degrees`` get a leading space instead, which argparse does
    not read as an option prefix and int() skips."""
    out = []
    degrees = False
    for tok in argv:
        negative = re.match(r"-\d", tok)
        if out and out[-1] in _DEGREE_OPTIONS and negative:
            out[-1] += "=" + tok
            continue
        if tok.startswith("-") and not negative:
            degrees = tok == "--degrees"
        elif negative and (degrees or argv[:1] == ["region"]):
            tok = " " + tok
        out.append(tok)
    return out


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(_attach_degree_values(
        sys.argv[1:] if argv is None else argv))
    if args.command == "ci-regularity" and not args.degrees \
            and not args.file:
        ap.error("ci-regularity needs a file or --degrees")
    try:
        prime = getattr(args, "prime", None)
        if prime is not None:
            # the value is not in a file, so the error names the option
            try:
                checked_prime(prime)
            except ValueError as exc:
                raise ParseError(f"--prime {prime}: {exc}") from None
        if getattr(args, "output", None) and args.format != "svg":
            # before the computation: only an svg staircase is written
            raise ParseError("--output writes an svg staircase; it needs "
                             "--format svg")
        return args.fn(args)
    except ParseError as exc:
        _report_error(args, exc)
        return 2
    except MultiregError as exc:
        _report_error(args, exc)
        return 1
    except BrokenPipeError:
        # nobody reads the rest: point stdout at devnull so that the
        # flush at exit has somewhere to go, and stop without a report
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        _report_error(args, exc)
        return 1


def _report_error(args, exc):
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"schema": "multireg/error/v1",
                          "error": type(exc).__name__,
                          "message": str(exc)}, indent=2, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
