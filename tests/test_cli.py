import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latpoly import cli
from latpoly.cli import main
from latpoly.oracle import NondistributiveWitness
from latpoly.terms import MAX_TERM_DEPTH, FunctionTable

from conftest import CHAIN3_LAT, N5_LAT

STEP_TBL = """\
table 1
0 -> 0
m -> 0
1 -> 1
"""


@pytest.fixture()
def step_file(tmp_path):
    path = tmp_path / "f.tbl"
    path.write_text(STEP_TBL)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines()


# -- check -------------------------------------------------------------------


def test_check_step_table_fails_with_witnesses(capsys, chain3_file, step_file):
    code, out = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(step_file),
        "--conditions", "ii,iv",
    )
    assert code == 1
    assert "ii: FAIL at x=(m) k=1" in out
    assert "iv: FAIL at x=(1) c=m eq=(3)" in out


def test_check_term_passes(capsys, chain3_file):
    code, out = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "2",
        "--term", "med(x1, 'm', x2)",
    )
    assert code == 0
    assert out[0] == "polynomial: PASS"
    assert all(line.endswith("PASS") for line in out)


def test_check_exit_zero_iff_no_fail_lines(capsys, chain3_file, step_file):
    code, out = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(step_file),
    )
    assert code == 1
    assert any(": FAIL" in line for line in out)


def test_check_reports_are_deterministic(capsys, chain3_file, step_file):
    args = (
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(step_file),
    )
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_check_unknown_condition(capsys, chain3_file, step_file):
    code, _ = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(step_file),
        "--conditions", "vii",
    )
    assert code == 2


def test_check_refuses_an_empty_condition_list(capsys, chain3_file, step_file):
    code = main([
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(step_file),
        "--conditions", ",",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --conditions must name at least one condition\n"


def test_check_scope_all_is_stronger(capsys, chain3_file):
    # x1 | 'm' is polynomial, so the interval-scope conditions hold, but
    # homogeneity over every threshold fails below f(bottom)
    args = (
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--term", "x1 | 'm'",
    )
    code, out = run(capsys, *args)
    assert code == 0 and "iv: PASS" in out
    code, out = run(capsys, *args, "--scope", "all")
    assert code == 1
    assert any(line.startswith("iv: FAIL") for line in out)


def test_check_budget_exceeded(capsys, chain3_file):
    code, _ = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "6",
        "--term", "x1",
        "--budget", "10",
    )
    assert code == 3


@pytest.mark.parametrize("arity, digits", [("2000", 954), ("20000", 9542)])
def test_check_huge_arity_is_a_one_line_budget_error(capsys, chain3_file, arity, digits):
    # 3^arity has more digits than int-to-str conversion allows
    code = main(["check", "--lattice", str(chain3_file), "--arity", arity, "--term", "x1"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: term tabulation needs about 10^{digits} point evaluations "
        f"but the budget allows 10000000\n"
    )


@pytest.mark.parametrize("depth, expected", [(MAX_TERM_DEPTH, 0), (5000, 2)])
def test_check_deeply_nested_term(capsys, chain3_file, depth, expected):
    term = "(" * depth + "x1" + ")" * depth
    code = main(["check", "--lattice", str(chain3_file), "--arity", "1", "--term", term])
    assert code == expected
    err = capsys.readouterr().err
    if expected == 2:
        assert err == (
            f"error: term nests deeper than {MAX_TERM_DEPTH} parentheses "
            f"at position {MAX_TERM_DEPTH}\n"
        )


# a digit string too long for int() under the interpreter's default limit
LONG_DIGITS = "1" * 5000


@pytest.mark.parametrize(
    "term, message",
    [
        *(
            (t, f"unexpected symbol {t!r} at position 0 (expected x<k>, 'name', or med(...))")
            for t in ("x\u00b2", "x\u2460", "x1\u00b2", "x\u0663")
        ),
        ("x" + LONG_DIGITS, "variable index longer than 100 digits at position 0"),
        ("x0", "x0 is out of range for arity 3"),
    ],
    ids=["superscript", "circled", "trailing-superscript", "arabic-indic", "5000-digits", "x0"],
)
def test_check_variable_indices_are_ascii_digits(capsys, chain3_file, term, message):
    code = main(["check", "--lattice", str(chain3_file), "--arity", "3", "--term", term])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "header, message",
    [
        ("table \u00b2", "expected 'table <n>'"),
        ("table " + LONG_DIGITS, "table arity exceeds the length of the text"),
        ("table 60000", "table arity exceeds the length of the text"),
    ],
    ids=["superscript", "5000-digits", "60000"],
)
def test_check_table_arity_is_ascii_digits_within_the_text(
    capsys, chain3_file, tmp_path, header, message
):
    tbl = tmp_path / "f.tbl"
    tbl.write_text(header + "\n", encoding="utf-8")
    code = main(["check", "--lattice", str(chain3_file), "--arity", "1", "--table", str(tbl)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {tbl}:1: {message}\n"


# -- normalize -----------------------------------------------------------------


def test_normalize_median(capsys, chain3_file):
    code, out = run(
        capsys,
        "normalize",
        "--lattice", str(chain3_file),
        "--arity", "2",
        "--term", "med(x1,'m',x2)",
    )
    assert code == 0
    assert out[:4] == ["{} -> 0", "{1} -> m", "{2} -> m", "{1,2} -> 1"]
    assert out[4].startswith("term: ")


def test_normalize_term_line_reads_back_with_a_quote_in_a_name(capsys, tmp_path):
    lat = tmp_path / "q.lat"
    lat.write_text("lattice q\nelements: 0 a' 1\ncovers:\n0 < a'\na' < 1\n")
    code, out = run(
        capsys, "normalize", "--lattice", str(lat), "--arity", "1", "--term", "'a''' | x1"
    )
    assert code == 0
    assert out == ["{} -> a'", "{1} -> 1", "term: x1 | 'a'''"]
    code, out = run(
        capsys,
        "equiv",
        "--lattice", str(lat),
        "--arity", "1",
        "--term", out[-1].removeprefix("term: "),
        "--term", "x1 | 'a'''",
    )
    assert (code, out) == (0, ["equivalent: true"])


def test_normalize_rejects_non_distributive(capsys, n5_file):
    code, _ = run(
        capsys,
        "normalize",
        "--lattice", str(n5_file),
        "--arity", "1",
        "--term", "x1",
    )
    assert code == 2


# -- equiv ---------------------------------------------------------------------


def test_equiv_distributive_law(capsys, chain3_file):
    code, out = run(
        capsys,
        "equiv",
        "--lattice", str(chain3_file),
        "--arity", "3",
        "--term", "x1 & (x2 | x3)",
        "--term", "x1 & x2 | x1 & x3",
    )
    assert code == 0
    assert out == ["equivalent: true"]


def test_equiv_witness(capsys, chain3_file):
    code, out = run(
        capsys,
        "equiv",
        "--lattice", str(chain3_file),
        "--arity", "2",
        "--term", "x1",
        "--term", "x2",
    )
    assert code == 1
    assert out[0] == "equivalent: false"
    assert out[1] == "witness: x=(1,0) lhs=1 rhs=0"


def test_equiv_budget_exceeded(capsys, chain3_file):
    code = main([
        "equiv",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--term", "x1",
        "--term", "x1",
        "--budget", "1",
    ])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: 0/1 term comparison needs 4 point evaluations but the budget allows 1\n"
    )


def test_equiv_needs_two_terms(capsys, chain3_file):
    code, _ = run(
        capsys,
        "equiv",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--term", "x1",
    )
    assert code == 2


# -- dnf-count -------------------------------------------------------------


def test_dnf_count_two(capsys, tmp_path):
    lat = tmp_path / "b2.lat"
    lat.write_text(
        "lattice B2\nelements: 0 a b 1\ncovers:\n0 < a\n0 < b\na < 1\nb < 1\n"
    )
    code, out = run(
        capsys,
        "dnf-count",
        "--lattice", str(lat),
        "--arity", "1",
        "--term", "x1 | 'a'",
    )
    assert code == 0
    assert out == ["count: 2"]


def test_dnf_count_limit_prints_lower_bound(capsys, tmp_path):
    lat = tmp_path / "b2.lat"
    lat.write_text(
        "lattice B2\nelements: 0 a b 1\ncovers:\n0 < a\n0 < b\na < 1\nb < 1\n"
    )
    code, out = run(
        capsys,
        "dnf-count",
        "--lattice", str(lat),
        "--arity", "1",
        "--term", "x1 | 'a'",
        "--limit", "1",
    )
    assert code == 0
    assert out == ["count: >=2"]


def test_dnf_count_non_polynomial(capsys, chain3_file, step_file):
    code, out = run(
        capsys,
        "dnf-count",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(step_file),
    )
    assert code == 1
    assert "not a polynomial function" in out[0]


# -- verify ---------------------------------------------------------------


def test_verify_chain3(capsys, chain3_file):
    code, out = run(
        capsys, "verify", "--lattice", str(chain3_file), "--arity", "1"
    )
    assert code == 0
    assert out[0] == "verify chain3 n=1 mode=exhaustive"
    assert out[1] == "checked=10 polynomial=6 inconsistent=0"


# -- witness -----------------------------------------------------------------


def test_witness_on_pentagon(capsys, n5_file):
    code, out = run(
        capsys,
        "witness",
        "--lattice", str(n5_file),
        "--arity", "1",
        "--condition", "iv",
    )
    assert code == 0
    assert out[0] == "witness condition=iv direction=polynomial-violates"
    assert out[1] == "table 1"
    assert any(line.startswith("detail: FAIL at") for line in out)


def test_witness_second_phase_lines(capsys, monkeypatch, n5_file):
    # the search's scan of non-polynomial tables, which no lattice file reaches
    argv = ("witness", "--lattice", str(n5_file), "--arity", "1", "--condition", "iv")
    monkeypatch.setattr(cli, "find_nondistributive_witness", lambda lat, n, cond, budget: None)
    assert run(capsys, *argv) == (1, ["no witness found for condition iv"])

    def satisfying(lat, n, cond, budget):
        table = FunctionTable(lat, n, (lat.bottom_id,) * lat.m**n)
        return NondistributiveWitness(cond, "nonpolynomial-satisfies", table)

    monkeypatch.setattr(cli, "find_nondistributive_witness", satisfying)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out[0] == "witness condition=iv direction=nonpolynomial-satisfies"
    assert out[-1] == "detail: satisfies the condition despite not being polynomial"


def test_witness_on_distributive_is_usage_error(capsys, chain3_file):
    code, _ = run(
        capsys,
        "witness",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--condition", "iv",
    )
    assert code == 2


# -- input errors -------------------------------------------------------------


def test_missing_lattice_file(capsys, tmp_path):
    code, _ = run(
        capsys,
        "verify",
        "--lattice", str(tmp_path / "nope.lat"),
        "--arity", "1",
    )
    assert code == 2


def test_table_missing_point_is_format_error(capsys, chain3_file, tmp_path):
    tbl = tmp_path / "partial.tbl"
    tbl.write_text("table 1\n0 -> 0\n1 -> 1\n")
    code, _ = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--table", str(tbl),
    )
    assert code == 2


def test_non_utf8_lattice_file(capsys, tmp_path):
    lat = tmp_path / "binary.lat"
    lat.write_bytes(bytes(range(256)))
    code = main(["check", "--lattice", str(lat), "--arity", "1", "--term", "x1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {lat}: not UTF-8 text (invalid start byte at byte 128)\n"
    )


def test_non_utf8_table_file(capsys, chain3_file, tmp_path):
    tbl = tmp_path / "latin1.tbl"
    tbl.write_bytes(b"table 1\n0 -> 0\nm -> \xff\n1 -> 1\n")
    code = main(["check", "--lattice", str(chain3_file), "--arity", "1", "--table", str(tbl)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {tbl}: not UTF-8 text (invalid start byte at byte 20)\n"
    )


def test_non_lattice_file(capsys, tmp_path):
    lat = tmp_path / "bowtie.lat"
    lat.write_text(
        "lattice bowtie\nelements: 0 a b c d 1\ncovers:\n"
        "0 < a\n0 < b\na < c\na < d\nb < c\nb < d\nc < 1\nd < 1\n"
    )
    code = main(["verify", "--lattice", str(lat), "--arity", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: elements 'a' and 'b' have no least upper bound\n"
    )


def test_term_with_unknown_element(capsys, chain3_file):
    code, _ = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "1",
        "--term", "x1 | 'q'",
    )
    assert code == 2


def test_table_arity_mismatch(capsys, chain3_file, step_file):
    code, _ = run(
        capsys,
        "check",
        "--lattice", str(chain3_file),
        "--arity", "2",
        "--table", str(step_file),
    )
    assert code == 2


def test_usage_error_without_command(capsys):
    assert main([]) == 2


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, chain3_file):
    def broken(ns):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    code = main(["verify", "--lattice", str(chain3_file), "--arity", "1"])
    assert code == 4
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


# -- fuzzing -------------------------------------------------------------------

FUZZ_LATTICES = [
    CHAIN3_LAT,
    N5_LAT,
    "lattice B2\nelements: 0 a b 1\ncovers:\n0 < a\n0 < b\na < 1\nb < 1\n",
    "lattice one\nelements: z\ncovers:\n",
]
FUZZ_TABLES = [
    STEP_TBL,
    "table 2\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n",
    "table 1\n0 -> a\na -> b\nb -> b\nc -> 1\n1 -> 1\n",
]
FUZZ_TERMS = ["x1", "med(x1, 'm', x2)", "(x1 ^ x2) v 'a'", "x2 | ('b' & x1)", "'1'"]
FUZZ_TOKENS = ["x1", "x0", "x3", "'m'", "'q'", "(", ")", "^", "v", "<", "->", "table", "#", ":", "-1"]
FUZZ_TOKENS += ["x\u00b2", "\u00b2", "x" + LONG_DIGITS]  # digits that int() rejects
COMMANDS = ("check", "normalize", "equiv", "dnf-count", "verify", "witness")


def pick(draw, good, bad):
    """A value from `good`, or one time in six from `bad`."""
    return draw(st.sampled_from(good if draw(st.integers(0, 5)) else bad))


@st.composite
def mangled(draw, valid, sep):
    """A valid text, or one with its pieces shuffled, dropped or salted with
    a stray token, or random text; pieces are lines (sep "\n") or tokens."""
    text = draw(st.sampled_from(valid))
    how = pick(draw, ["valid"], ["shuffle", "drop", "stray", "random"])
    if how == "random":
        return draw(st.text(max_size=40))
    pieces = text.splitlines() if sep == "\n" else re.findall(r"'[^']*'|\w+|\S", text)
    if how == "shuffle":
        pieces = draw(st.permutations(pieces))
    elif how == "drop":
        pieces = [p for p in pieces if draw(st.booleans())]
    elif how == "stray" and pieces:
        at = draw(st.integers(0, len(pieces) - 1))
        pieces = list(pieces)
        pieces[at] = f"{pieces[at]} {draw(st.sampled_from(FUZZ_TOKENS))}"
    return sep.join(pieces) + ("\n" if sep == "\n" else "")


@st.composite
def invocations(draw):
    """argv for one command, and the lattice and table texts it reads;
    options of other commands and malformed values are usage errors, so
    they are drawn less often."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--lattice", "LATTICE"]
    argv += ["--arity", pick(draw, ["1", "2"], ["0", "two", "99999"])]
    # the default budget is drawn rarely: a refused closure spends all of it
    budget = pick(draw, ["1", "1000", "100000"], ["0", "many", None])
    if budget is not None:
        argv += ["--budget", budget]
    if command == "check" or not draw(st.integers(0, 5)):
        if draw(st.booleans()):
            argv += ["--conditions", pick(draw, ["ii", "iv,vi", "iii,v"], ["", "vii", "ii,,iii"])]
        if draw(st.booleans()):
            argv += ["--scope", pick(draw, ["interval", "all"], ["none"])]
    if (command == "dnf-count" or not draw(st.integers(0, 5))) and draw(st.booleans()):
        argv += ["--limit", pick(draw, ["1", "3"], ["0", "x"])]
    if command in ("check", "dnf-count") and draw(st.booleans()):
        argv += ["--table", "TABLE"]
    else:
        terms = {"equiv": 2, "verify": 0, "witness": 0}.get(command, 1)
        for _ in range(pick(draw, [terms], [0, terms + 1])):
            argv += ["--term", draw(mangled(FUZZ_TERMS, " "))]
    lattice = draw(mangled(FUZZ_LATTICES, "\n"))
    table = draw(mangled(FUZZ_TABLES, "\n"))
    return argv, lattice, table


@given(invocations())
@settings(max_examples=200, deadline=None)
def test_fuzzed_invocations_end_in_a_documented_exit_code(invocation):
    argv, lattice, table = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"LATTICE": Path(tmp, "l.lat"), "TABLE": Path(tmp, "f.tbl")}
        paths["LATTICE"].write_text(lattice, encoding="utf-8")
        paths["TABLE"].write_text(table, encoding="utf-8")
        argv = [str(paths.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in out + err
    if code in (2, 3) and "usage:" not in err:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_one_element_lattice_at_huge_arity(capsys, tmp_path):
    # its |L|^n is 1, so only the arity bounds the work; the closure's
    # projections are built in O(n), not from n-tuples of points, and the
    # diagonal scan applies the arity rule before its budget charge
    lat = tmp_path / "one.lat"
    lat.write_text(FUZZ_LATTICES[-1])
    assert main(["verify", "--lattice", str(lat), "--arity", "99999"]) == 2
    err = capsys.readouterr().err
    assert err == "error: subset enumeration supports 0..20 positions, got 99999\n"


@pytest.mark.parametrize("command", ["check", "dnf-count", "verify"])
@pytest.mark.parametrize("arity", ["21", "24"])
def test_subset_mask_width_is_checked_before_the_budget(capsys, tmp_path, command, arity):
    # on a one-element lattice only the 2^n subset masks grow with the arity;
    # at 24 the diagonal scan (2^24 evaluations) would be over the budget
    lat = tmp_path / "one.lat"
    lat.write_text(FUZZ_LATTICES[-1])
    term = [] if command == "verify" else ["--term", "x1"]  # verify takes no term
    assert main([command, "--lattice", str(lat), "--arity", arity, *term]) == 2
    err = capsys.readouterr().err
    assert err == f"error: subset enumeration supports 0..20 positions, got {arity}\n"


CHAIN2_LAT = "lattice chain2\nelements: 0 1\ncovers:\n0 < 1\n"


@pytest.mark.parametrize(
    "lattice_text, arity, code, message",
    [
        pytest.param(
            FUZZ_LATTICES[-1], "21", 2, "subset enumeration supports 0..20 positions, got 21",
            id="one-21",
        ),
        pytest.param(
            CHAIN2_LAT, "21", 2, "subset enumeration supports 0..20 positions, got 21",
            id="chain2-21",
        ),
        pytest.param(
            CHAIN3_LAT, "21", 3,
            "term tabulation needs 10460353203 point evaluations but the budget allows 10000000",
            id="chain3-21",
        ),
        pytest.param(
            CHAIN2_LAT, "24", 3,
            "term tabulation needs 16777216 point evaluations but the budget allows 10000000",
            id="chain2-24",
        ),
    ],
)
def test_term_is_tabulated_before_the_subset_rule(
    capsys, tmp_path, lattice_text, arity, code, message
):
    # a --term costs |L|^n evaluations before the 2^n subset masks are
    # touched, so the budget refusal comes first once |L|^n is past it
    lat = tmp_path / "l.lat"
    lat.write_text(lattice_text)
    assert main(["dnf-count", "--lattice", str(lat), "--arity", arity, "--term", "x1"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_at_the_subset_mask_width(capsys, tmp_path):
    lat = tmp_path / "one.lat"
    lat.write_text(FUZZ_LATTICES[-1])
    assert main(["check", "--lattice", str(lat), "--arity", "20", "--term", "x1"]) == 0
    assert capsys.readouterr().out.startswith("polynomial: PASS\n")


@pytest.mark.parametrize(
    "lattice_text, table_text, message",
    [
        pytest.param(
            "lattice c3\nelements: 0 m 1\ncover:\n",
            None,
            "{lat}:3: expected 'covers:'",
            id="lattice-covers-header",
        ),
        pytest.param(
            CHAIN3_LAT + "m < top\n",
            None,
            "{lat}: cover pair references undeclared name 'top'",
            id="lattice-undeclared-name",
        ),
        pytest.param(
            CHAIN3_LAT, "table 0\n", "{tbl}:1: table arity must be >= 1", id="table-arity-0"
        ),
        pytest.param(
            CHAIN3_LAT,
            "table 1\n0 -> 0\nm 0\n",
            "{tbl}:3: expected 1 point coordinates, '->', and a value",
            id="table-entry-line",
        ),
        pytest.param(
            CHAIN3_LAT, "# no header\n", "{tbl}: missing 'table <n>' header", id="table-no-header"
        ),
    ],
)
def test_text_file_errors_exit_two(capsys, tmp_path, lattice_text, table_text, message):
    lat, tbl = tmp_path / "l.lat", tmp_path / "f.tbl"
    lat.write_text(lattice_text)
    tbl.write_text(table_text or STEP_TBL)
    code = main(["check", "--lattice", str(lat), "--arity", "1", "--table", str(tbl)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(lat=lat, tbl=tbl)}\n"
