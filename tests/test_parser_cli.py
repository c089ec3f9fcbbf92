import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multireg import ParseError, parse_input, poly_from_string, region_Q
from multireg.cli import main
from multireg.parser import MAX_POWER_PRODUCTS

DATA = Path(__file__).resolve().parent.parent / "data"


def test_parse_hypersurface_job():
    job = parse_input("ring p=32003 n=[1,1]\nideal x0*y1 - x1*y0")
    assert job.kind == "ideal"
    assert job.ring.n == (1, 1)
    assert len(job.ideal_gens) == 1
    M = job.module()
    assert M.F0.twists == ((0, 0),)
    assert M.relations.source.twists == ((1, 1),)


def test_parse_module_job():
    text = (
        "ring p=32003 n=[1,1]\n"
        "module rows=[(1,0),(1,0),(0,1),(0,1)] matrix [\n"
        "  [-y0, 0, -y0, 0],\n"
        "  [0, -y1, 0, -y1],\n"
        "  [x0, x1, 0, 0],\n"
        "  [0, 0, x1, x0]]\n"
    )
    job = parse_input(text)
    assert job.kind == "module"
    M = job.presentation
    assert M.F0.twists == ((1, 0), (1, 0), (0, 1), (0, 1))
    assert set(M.relations.source.twists) == {(1, 1)}


def test_parse_rejects_bad_dimension():
    with pytest.raises(ParseError) as err:
        parse_input("ring p=32003 n=[0]\nideal x0")
    assert err.value.line == 1


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_input("ring p=32003 n=[1,1]\nideal q3 + x0")
    assert "unknown variable" in str(err.value)


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ParseError) as err:
        parse_input("ring p=32003 n=[1,1]\nideal x0 + y0*y1")
    assert "inhomogeneous" in str(err.value)


@pytest.mark.parametrize("module", [
    # column 2 holds y0 in degree (0,1) and x1 in degree (1,0) + (1,0)
    "module rows=[(0,0),(1,0)] matrix [[x0, y0],[1, x1]]",
    # the entry x1 + y1 of column 2 is inhomogeneous by itself
    "module rows=[(0,0)] matrix [[x0, x1 + y1]]",
], ids=["mixed-column", "inhomogeneous-entry"])
def test_parse_matrix_homogeneity_error_names_its_column(module, tmp_path,
                                                         capsys):
    """An inhomogeneous relation column is refused at the matrix
    keyword, naming the column, and the CLI exits 2 on it."""
    text = f"ring p=32003 n=[1,1]\n{module}\n"
    with pytest.raises(ParseError, match="column 2: ") as err:
        parse_input(text)
    assert (err.value.line, err.value.col) == (2, module.index("matrix") + 1)
    bad = tmp_path / "bad.mr"
    bad.write_text(text)
    code, out, stderr = _run(["betti", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert "column 2: " in stderr


@pytest.mark.parametrize("text, message, col", [
    ("ring p=4 n=[1,1]\nideal x0", "not prime", 6),
    ("ring n=[1,0] p=7\nideal x0", "factor dimensions", 6),
    # listing the irrelevant ideal would take gigabytes
    ("ring n=[20000] p=7\nideal x0", "factor dimensions", 6),
    # a second value would silently replace the first
    ("ring p=7 p=11 n=[1,1]\nideal x0", "p= given twice", 10),
    ("ring n=[1,1] p=7 n=[1]\nideal x0", "n= given twice", 18),
], ids=["p", "n", "n-large", "p-twice", "n-twice"])
def test_parse_ring_error_cites_its_key(text, message, col):
    # the key at fault, not the last key read
    with pytest.raises(ParseError, match=message) as err:
        parse_input(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_input("ring p=32003 n=[1,1]\nideal x0 + @")
    assert err.value.line == 2


def test_parse_empty_input_reports_line_one():
    for text in ("", "# nothing but a comment\n"):
        with pytest.raises(ParseError, match="end of input") as err:
            parse_input(text)
        assert (err.value.line, err.value.col) == (1, 1)


@pytest.mark.parametrize("ideal, col", [
    ("x0^" + "9" * 4301, 10),
    ("9" * 4301 + "*x0", 7),
], ids=["exponent", "coefficient"])
def test_parse_rejects_overlong_integer(ideal, col):
    # Python refuses to read more than 4,300 digits as an int
    with pytest.raises(ParseError, match="4301 digits") as err:
        parse_input(f"ring p=32003 n=[1,1]\nideal {ideal}")
    assert (err.value.line, err.value.col) == (2, col)


def test_poly_parser_precedence(P11):
    f = poly_from_string(P11, "x0^2 - 2*x0*x1 + x1^2")
    g = poly_from_string(P11, "(x0 - x1)^2")
    assert f == g


def test_poly_roundtrip(P12):
    texts = ["x0^2*y0^2 + x0*x1*y2^2 + x1^2*y1^2",
             "x0^3*y2 + x1^3*y0 + x1^3*y1",
             "y0^2 - 7*y1*y2"]
    for text in texts:
        f = poly_from_string(P12, text)
        assert poly_from_string(P12, str(f)) == f


def test_prime_override():
    job = parse_input("ring p=32003 n=[1,1]\nideal x0*y0 + 3*x1*y1",
                      prime_override=7)
    assert job.ring.p == 7


def _run(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_region(capsys):
    code, out, _ = _run(["region", "Q", "2", "1,2"], capsys)
    assert code == 0
    assert "[-1, 1], [0, 0]" in out


def test_cli_region_json(capsys):
    code, out, _ = _run(["region", "L", "1", "1,2", "--format", "json"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["minimal_generators"] == [[0, 2], [1, 1]]


def test_cli_region_negative_degree(capsys):
    # a positional degree that starts with '-' is the degree, not an
    # unknown option
    code, out, _ = _run(["region", "Q", "1", "-1,2", "--format", "json"],
                        capsys)
    assert code == 0
    want = region_Q(1, (-1, 2)).minimal_generators
    assert json.loads(out)["minimal_generators"] == [list(g) for g in want]


@pytest.mark.parametrize("argv, cause", [
    (["region", "L", "30", "1,1,1,1,1,1,1,1"],
     "level 30: region_L(30, [1, 1, 1, 1, 1, 1, 1, 1]), with 10,295,472 "
     "minimal generators, would hold 82,363,776 entries"),
    (["region", "L", "5000", "1,1"],
     "--format text: a staircase plot of this region (--format json "
     "prints its generators without one) would hold 25,050,025 entries"),
], ids=["generators", "plot"])
def test_cli_region_too_large_is_refused_quickly(argv, cause, capsys):
    """A region with more generators than the listing budget, or a plot
    of more cells, is a parse error reported at once, not a run until
    memory runs out; the same region in JSON has no plot."""
    start = time.perf_counter()
    code, out, err = _run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cause}")


def test_cli_region_json_of_a_region_too_large_to_plot(capsys):
    code, out, _ = _run(["region", "L", "5000", "1,1", "--format", "json"],
                        capsys)
    assert code == 0
    assert len(json.loads(out)["minimal_generators"]) == 5001


def test_cli_betti_truncated(capsys):
    code, out, _ = _run(
        ["betti", str(DATA / "hyperelliptic.mr"), "--truncate-at", "2,1",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    entries = {(e["index"], tuple(e["degree"])): e["multiplicity"]
               for e in data["entries"]}
    assert entries[(0, (2, 1))] == 9
    assert entries[(1, (2, 2))] == 10
    assert entries[(3, (3, 3))] == 2


def test_cli_betti_truncated_full_frame(capsys):
    """The Schreyer frame of this truncation has six differentials on
    five variables; its last one cancels in the minimal resolution and
    leaves no Betti number at index 5."""
    code, out, _ = _run(
        ["betti", str(DATA / "hyperelliptic.mr"), "--truncate-at", "0,1",
         "--format", "json"], capsys)
    assert code == 0
    indices = {e["index"] for e in json.loads(out)["entries"]}
    assert indices == {0, 1, 2, 3, 4}


def test_cli_regularity_hyperelliptic(capsys):
    code, out, _ = _run(
        ["regularity", "--box", "0,0:9,9", str(DATA / "hyperelliptic.mr"),
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["minimal_generators"] == [[1, 5], [2, 2], [4, 1]]


def test_cli_classify(capsys):
    code, out, _ = _run(
        ["classify", str(DATA / "not_linear.mr"), "--truncate-at", "1,0"],
        capsys)
    assert code == 0
    assert "quasilinear" in out


def test_cli_saturate_roundtrip(tmp_path, capsys):
    code, out, _ = _run(["saturate", str(DATA / "hyperelliptic_raw.mr")],
                        capsys)
    assert code == 0
    job = parse_input(out)
    assert len(job.ideal_gens) >= 8


def test_cli_saturate_by_every_factor(tmp_path, capsys):
    """(x0*y0, x0*y1, x1*y0) keeps torsion after a saturation by either
    factor alone, (y0, x0*y1) by m_1 and (x0, x1*y0) by m_2; by B it is
    the point (x0, y0)."""
    job = tmp_path / "torsion.mr"
    job.write_text("ring p=32003 n=[1,1]\nideal x0*y0; x0*y1; x1*y0\n")
    code, out, _ = _run(["saturate", str(job), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["generators"] == ["y0", "x0"]


def test_cli_ci_regularity_degrees(capsys):
    code, out, _ = _run(["ci-regularity", "--degrees", "1,1", "1,2",
                         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["minimal_generators"] == [[0, 2], [1, 1]]


def test_cli_ci_regularity_needs_a_file_or_degrees(capsys):
    code, out, err = _run(["ci-regularity"], capsys)
    assert code == 2
    assert "ci-regularity needs a file or --degrees" in err


def test_cli_ci_regularity_file_as_the_only_degrees_entry(capsys):
    # --degrees took the file and left no degree: the file is named
    code, _, err = _run(["ci-regularity", "--degrees",
                         "data/ci_surface.mr"], capsys)
    assert code == 2
    assert "data/ci_surface.mr given with --degrees" in err


def test_cli_truncate_presentation(capsys):
    """hyperelliptic truncated at (2,1) is generated by its nine forms
    of that degree; each relation column has one degree, and the text
    form lists the same generators and relation columns."""
    argv = ["truncate", "--truncate-at", "2,1",
            str(DATA / "hyperelliptic.mr")]
    code, out, _ = _run(argv + ["--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "multireg/presentation/v1"
    assert data["generator_degrees"] == [[2, 1]] * 9
    ncols = len(data["relation_degrees"])
    assert ncols > 0
    assert len(data["relations"]) == 9
    assert all(len(row) == ncols for row in data["relations"])
    code, out, _ = _run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"generators: {[[2, 1]] * 9}"
    assert lines[1] == f"relations: {ncols}"
    assert lines[2:] == ["  [" + ", ".join(col) + "]"
                         for col in zip(*data["relations"])]


@pytest.mark.parametrize("argv, want", [
    (["region", "Q", "1", "-3,-12"], [
        "minimal generators: [-4, -13]",
        " -10  .  #  #  #  #",
        " -11  .  #  #  #  #",
        " -12  .  #  #  #  #",
        " -13  .  o  #  #  #",
        " -14  .  .  .  .  .",
        "     -5 -4 -3 -2 -1",
    ]),
    (["ci-regularity", "--degrees", "1,1", "1,2"], [
        "minimal generators: [0, 2], [1, 1]",
        "   5  .  #  #  #  #  #",
        "   4  .  #  #  #  #  #",
        "   3  .  #  #  #  #  #",
        "   2  .  o  #  #  #  #",
        "   1  .  .  o  #  #  #",
        "   0  .  .  .  .  .  .",
        "     -1  0  1  2  3  4",
    ]),
], ids=["region", "ci-regularity"])
def test_cli_staircase_footer(argv, want, capsys):
    # the footer reads each column's coordinate, aligned with its cells
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert out.splitlines() == want


def test_cli_betti_bounds(capsys):
    code, out, _ = _run(
        ["betti-bounds", str(DATA / "hyperelliptic.mr"), "--format",
         "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["quasilinear_bound"]["minimal_generators"] == [[2, 7]]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("ideal, extra", [
    ("1", []), ("x0; x1", ["--truncate-at", "1,0"]),
], ids=["unit-ideal", "zero-truncation"])
def test_cli_betti_bounds_of_zero_module(tmp_path, capsys, ideal, extra,
                                         fmt):
    # an empty Betti table bounds nothing: a computation error, not a
    # traceback
    job = tmp_path / "zero.mr"
    job.write_text(f"ring n=[1,1]\nideal {ideal}\n")
    code, out, err = _run(["betti-bounds", str(job), *extra,
                           "--format", fmt], capsys)
    assert code == 1
    assert "Traceback" not in out + err
    if fmt == "json":
        data = json.loads(out)
        assert data["schema"] == "multireg/error/v1"
        assert data["error"] == "MultiregError"
        assert "is zero" in data["message"]
    else:
        assert err.startswith("error: ") and "is zero" in err


def test_cli_cohomology(capsys):
    code, out, _ = _run(
        ["cohomology", str(DATA / "not_linear.mr"), "--box", "0,0:2,2",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "multireg/cohomology/v1"


@pytest.mark.parametrize("name, heuristic, t_used, how", [
    ("not_linear", False, 2, "certified at t=2"),
    ("hyperelliptic", True, 3, "heuristically stabilized at t=3"),
], ids=["not_linear", "hyperelliptic"])
def test_cli_cohomology_says_if_certified(capsys, name, heuristic, t_used,
                                          how):
    # not_linear's certified power over [-1,1]^2 is 2; hyperelliptic's
    # is 27, so its table is the first of two agreeing ones
    argv = ["cohomology", str(DATA / f"{name}.mr"), "--box=-1,-1:1,1"]
    code, out, _ = _run(argv + ["--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["heuristic"], data["t_used"]) == (heuristic, t_used)
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert f"({how})" in out.splitlines()[0]


def test_cli_svg(tmp_path, capsys):
    target = tmp_path / "region.svg"
    code, out, _ = _run(["region", "Q", "2", "1,2", "--format", "svg",
                         "--output", str(target)], capsys)
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_cli_svg_only_where_a_region_is_drawn(tmp_path):
    """A subcommand whose answer is not a region has no svg format and
    no --output: argparse stops with exit 2 and writes no file."""
    target = tmp_path / "x.svg"
    for extra in (["--format", "svg"], ["--output", str(target)]):
        with pytest.raises(SystemExit) as exc:
            main(["betti", str(DATA / "not_linear.mr")] + extra)
        assert exc.value.code == 2
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["region", "Q", "1", "1,1,1"],
    ["regularity", "--box", "0,0,0:1,1,1", str(DATA / "two_points.mr")],
])
def test_cli_svg_of_a_region_not_of_rank_two(argv, capsys):
    code, out, err = _run(argv + ["--format", "svg"], capsys)
    assert code == 2
    assert out == ""
    assert "rank-2" in err and "rank 3" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_job_file_not_utf8(tmp_path, capsys, fmt):
    # a parse error naming the file and the offset of the first bad
    # byte, not a UnicodeDecodeError traceback
    job = tmp_path / "bin.mr"
    data = b"ring n=[1,1]\nideal x0*y0 \xff\xfe\n"
    job.write_bytes(data)
    code, out, err = _run(["betti", str(job), "--format", fmt], capsys)
    assert code == 2
    assert "Traceback" not in out + err
    if fmt == "json":
        report = json.loads(out)
        assert report["schema"] == "multireg/error/v1"
        assert report["error"] == "ParseError"
        message = report["message"]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        message = err
    assert str(job) in message
    assert f"position {data.index(0xff)}" in message


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mr"
    bad.write_text("ring p=32003 n=[0]\nideal x0\n")
    code, out, err = _run(["betti", str(bad)], capsys)
    assert code == 2


def test_cli_costly_power_is_a_parse_error(tmp_path, capsys, P11):
    """A power of a sum is refused before it is expanded, at the
    exponent; powers of one term and cheap powers still parse."""
    job = tmp_path / "power.mr"
    job.write_text("ring p=32003 n=[1,1]\nideal (x0+x1)^4000*y0\n")
    start = time.perf_counter()
    code, out, err = _run(["betti", str(job)], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err.startswith("error: line 2, col 15: this power of a 2-term")
    assert f"{MAX_POWER_PRODUCTS:,} coefficient products" in err
    assert len(poly_from_string(P11, "(x0+x1)^100").terms) == 101
    assert len(poly_from_string(P11, "x0^100000000*y1").terms) == 1


@pytest.mark.parametrize("ideal, at", [
    ("x0^2147483648*y0", "col 10"),
    ("x0^2147483647*x0", "col 20"),
], ids=["power", "product"])
def test_cli_degree_a_term_cannot_hold_is_a_parse_error(tmp_path, capsys,
                                                        P11, ideal, at):
    """A term holds exponents and total degrees below 2^31: a power or
    product that reaches it is refused at its exponent or its '*', not
    wrapped into the next variable."""
    job = tmp_path / "degree.mr"
    job.write_text(f"ring p=32003 n=[1,1]\nideal {ideal}\n")
    code, out, err = _run(["betti", str(job)], capsys)
    assert code == 2
    assert err.startswith(f"error: line 2, {at}: ") and err.count("\n") == 1
    assert "2^31 or more" in err
    assert len(poly_from_string(P11, "x0^2147483647").terms) == 1


@pytest.mark.parametrize("ideal", [
    "(" * 300 + "x0" + ")" * 300,
    "-" * 600 + "x0",
], ids=["parentheses", "minus-signs"])
def test_cli_deep_nesting_is_a_parse_error(tmp_path, capsys, P11, ideal):
    # deeper than the recursive descent can go: exit 2 with the
    # position where parsing stopped, not a RecursionError traceback
    job = tmp_path / "deep.mr"
    job.write_text(f"ring p=32003 n=[1,1]\nideal {ideal}\n")
    code, out, err = _run(["betti", str(job)], capsys)
    assert code == 2
    assert err.startswith("error: line 2, col ") and err.count("\n") == 1
    assert "nested too deeply" in err
    with pytest.raises(ParseError, match="nested too deeply"):
        poly_from_string(P11, ideal)


@pytest.mark.parametrize("n, name", [
    ("1,2", "x01"),
    ("1,2", "v01_0"),
    ("10,1", "x1_0"),
])
def test_cli_rejects_numeric_variable_spelling(tmp_path, capsys, n, name):
    job = tmp_path / "name.mr"
    job.write_text(f"ring p=32003 n=[{n}]\nideal {name}*y0\n")
    code, out, err = _run(["betti", str(job)], capsys)
    assert code == 2
    assert f"line 2, col 7: unknown variable {name!r}" in err


def test_cli_computation_error_exit_code(tmp_path, capsys):
    # S/B has irrelevant torsion: regularity must refuse with code 1
    job = tmp_path / "sb.mr"
    job.write_text("ring p=32003 n=[1,1]\n"
                   "ideal x0*y0; x0*y1; x1*y0; x1*y1\n")
    code, out, err = _run(["regularity", "--box", "0,0:2,2", str(job)],
                          capsys)
    assert code == 1
    code, out, err = _run(["regularity", "--box", "0,0:2,2", str(job),
                           "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "NotSaturatedError"


@pytest.mark.parametrize("ideal, named", [
    ("y0^2", "form y0^2 of degree (0, 2)"),
    ("x0*y0; 0", "form 0 of degree None"),
], ids=["nonpositive-degree", "zero-form"])
def test_cli_ci_regularity_rejects_form(tmp_path, capsys, ideal, named):
    # the closed form needs strictly positive degrees: a computation
    # error naming the form, not a traceback
    job = tmp_path / "ci.mr"
    job.write_text(f"ring p=32003 n=[1,1]\nideal {ideal}\n")
    code, out, err = _run(["ci-regularity", str(job)], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def _readme_commands():
    """The commands of the README's command-line block, as argv lists."""
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("multireg ")]


def test_cli_readme_commands_run(capsys, monkeypatch):
    # the README writes negative box corners as '--box -2,-2:2,2'
    monkeypatch.chdir(DATA.parent)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code, _, err = _run(argv, capsys)
        assert code == 0, (argv, err)


def test_cli_prime_range(tmp_path, capsys):
    # residues live in int64 matrices: 2^62 - 57 is the largest prime
    # accepted, and larger primes are parse errors, not overflows.  The
    # value comes from the command line, so the error names the option
    # and gives no position in the file
    job = tmp_path / "ci.mr"
    job.write_text("ring p=32003 n=[1,1]\nideal x0*y1 - x1*y0\n")
    code, _, _ = _run(["betti", str(job), "--prime",
                       "4611686018427387847"], capsys)
    assert code == 0
    for p, why in (("4", "is not prime"),
                   ("4611686018427388039", "is too large"),
                   ("18446744073709551557", "is too large")):
        code, out, err = _run(["betti", "--prime", p, str(job)], capsys)
        assert code == 2
        assert err.startswith(f"error: --prime {p}: characteristic {p} {why}")
        assert "line" not in err
    # ci-regularity with --degrees reads no file, and still checks --prime
    code, _, err = _run(["ci-regularity", "--degrees", "1,1", "1,2",
                         "--prime", "4"], capsys)
    assert code == 2
    assert err.startswith("error: --prime 4: characteristic 4 is not prime")


BAD_DEGREE_ARGUMENTS = [
    (["betti", "--truncate-at", "1,0,0"], "--truncate-at"),
    (["betti", "--truncate-at", "1,2,3"], "--truncate-at"),
    (["betti", "--truncate-at", "1"], "--truncate-at"),
    (["truncate", "--truncate-at", "1,0,0"], "--truncate-at"),
    (["regularity", "--box", "0,0,0:3,3,3"], "--box"),
    (["regularity", "--box", "3,3:0,0"], "--box"),
    (["linear-truncations", "--box", "0:3"], "--box"),
    # the oracle takes no power options
    (["cohomology", "--t-cap", "2"], "unrecognized arguments: --t-cap"),
    (["region", "L", "-1", "1,1"], "level"),
    (["ci-regularity", "--degrees", "1,1", "2"], "--degrees"),
    (["ci-regularity", "--degrees", "1,0"], "--degrees"),
    (["ci-regularity", "--degrees", "-1,1", "data/ci_surface.mr"],
     "--degrees entry"),
    (["ci-regularity", "--degrees", "1,1", "1,2", "data/ci_surface.mr"],
     "data/ci_surface.mr given with --degrees"),
    (["ci-regularity", "data/ci_surface.mr", "--degrees", "1,1", "1,2"],
     "data/ci_surface.mr given with --degrees"),
    # --output writes svg only
    (["region", "Q", "1", "1,1", "--output", "x.svg"], "--output"),
    (["regularity", "--output", "x.svg"], "--output"),
    (["linear-truncations", "--output", "x.svg"], "--output"),
    (["ci-regularity", "--degrees", "1,1", "1,2", "--output", "x.svg"],
     "--output"),
]


@pytest.mark.parametrize("argv, names", BAD_DEGREE_ARGUMENTS,
                         ids=[" ".join(a) for a, _ in BAD_DEGREE_ARGUMENTS])
def test_cli_rejects_degree_arguments(argv, names, capsys):
    # a degree or box of the wrong rank, a reversed box, a negative
    # level, an unknown option or an --output without svg is a parse
    # error naming the argument
    if argv[0] not in ("region", "ci-regularity"):
        argv = argv[:1] + [str(DATA / "not_linear.mr")] + argv[1:]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert names in err


def test_cli_error_json(tmp_path, capsys):
    bad = tmp_path / "bad.mr"
    bad.write_text("ring p=32003 n=[0]\nideal x0\n")
    code, out, _ = _run(["betti", str(bad), "--format", "json"], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["schema"] == "multireg/error/v1"


def test_cli_deterministic_output(capsys):
    args = ["betti", str(DATA / "not_linear.mr"), "--format", "json"]
    _, out1, _ = _run(args, capsys)
    _, out2, _ = _run(args, capsys)
    assert out1 == out2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "multireg.cli", "region", "L", "1", "1,2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[0, 2], [1, 1]" in proc.stdout


def test_cli_broken_pipe_is_quiet():
    """A reader that closes the output after one line gets exit 141 and
    an empty stderr.  The pipe is shrunk below the 12 KB of output, so
    the program is still writing when the read end closes."""
    fcntl = pytest.importorskip("fcntl")
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen(
            [sys.executable, "-m", "multireg.cli", "region", "L", "6",
             "1,2,3,4,5", "--format", "json"],
            stdout=w, stderr=subprocess.PIPE) as proc:
        os.close(w)
        with os.fdopen(r, "rb", buffering=0) as out:
            assert out.readline() == b"{\n"
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == ""  # no traceback, no error report
    assert code == 141
