"""Script language and CLI driver.

Frozen oracles: over GF(101)[x,y]/(x^2,y^2) the residue field has Betti
numbers 1,2,3,...; over the quadric w*x-y*z the column module
coker(w,x,y,z)^T has projective dimension 1.  Exit codes follow the
documented lattice: parse 5 > violation 3 > resource 4 > hypothesis 2 > 0.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import extlab
import extlab.script as scr
from extlab.cli import main
from extlab.errors import (
    DegreeCapError,
    ExtlabError,
    HypothesisNotMet,
    InvariantViolation,
    ParseError,
    ResourceCapError,
)
from extlab.script import (
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
    RunFlags,
    _worse,
    parse_script,
    render_report_text,
    report_json,
    run_script,
)
from extlab.vanishing import CheckReport

NILSQUARES = "ring A = GF(101)[x, y] / (x^2, y^2);\n"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_text(text, **kw):
    return run_script(parse_script(text), RunFlags(**kw))


# -- parsing ------------------------------------------------------------------


def test_parse_example_shapes():
    s = parse_script(
        "ring Q = GF(101)[w, x, y, z] / (w*x - y*z);\n"
        "module N = coker Q [[w], [x], [y], [z]];\n"
        "let M1 = syzygy(N, 1);\n"
        "scan ext(k, dual(N), 1..10);\n"
        "check theorem21(M1, N, 10);\n"
        'emit json "out.json";\n'
    )
    kinds = [st.kind for st in s.statements]
    assert kinds == ["ring", "module", "let", "scan", "check", "emit"]
    assert s.statements[0].relations == ("w*x-y*z",)
    assert s.statements[1].rows == (("w",), ("x",), ("y",), ("z",))
    assert s.statements[3].hi == 10
    assert s.statements[4].args[-1] == 10
    assert s.statements[5].path == "out.json"


def test_parse_empty_and_comments():
    assert parse_script("").statements == []
    assert parse_script("# just a comment\n").statements == []


def test_statement_source_is_recorded():
    s = parse_script(NILSQUARES + "betti k, 3;\n")
    assert s.statements[0].source == NILSQUARES.strip()
    assert s.statements[1].source == "betti k, 3;"
    assert s.statements[1].line == 2


def test_use_before_define_names_the_identifier():
    with pytest.raises(ParseError, match="undefined identifier 'Q'"):
        parse_script(NILSQUARES + "scan ext(k, Q, 1..5);")


def test_builtins_cannot_be_rebound():
    with pytest.raises(ParseError, match="built-in"):
        parse_script("ring k = GF(101)[x];")


def test_builtins_undefined_before_any_ring():
    with pytest.raises(ParseError, match="undefined identifier 'k'"):
        parse_script("betti k, 3;")


def test_ring_name_where_module_expected_is_allowed():
    s = parse_script(NILSQUARES + "scan ext(k, A, 1..5);")
    assert s.statements[1].right.ident == "A"


def test_module_requires_ring_name():
    text = NILSQUARES + "module M = coker A [[x]];\nmodule P = coker M [[x]];"
    with pytest.raises(ParseError, match="'M' is a module, expected ring"):
        parse_script(text)


def test_parse_error_positions():
    # missing semicolon: the complaint lands on the next statement's keyword
    with pytest.raises(ParseError) as e:
        parse_script("ring A = GF(101)[x]\nmodule M = coker A [[x]];")
    assert e.value.line == 2
    assert e.value.column >= 1


def test_scan_window_must_start_at_one():
    with pytest.raises(ParseError, match="start at 1"):
        parse_script(NILSQUARES + "scan ext(k, k, 2..8);")


def test_unknown_statement_check_and_search():
    with pytest.raises(ParseError, match="unknown statement"):
        parse_script("frobnicate x;")
    with pytest.raises(ParseError, match="unknown check"):
        parse_script(NILSQUARES + "check theorem99(k, k);")
    with pytest.raises(ParseError, match="unknown search"):
        parse_script(NILSQUARES + "search everything(5);")
    with pytest.raises(ParseError, match="unknown operation"):
        parse_script(NILSQUARES + "let M = kernel(k);")


def test_search_takes_at_most_two_integers(tmp_path, capsys):
    # search-stmt takes the trial count and an optional window: a third
    # integer is refused where it starts, and the CLI exits 5.
    text = NILSQUARES + "search lemma36(2, 6, 99, 7);\n"
    with pytest.raises(ParseError) as e:
        parse_script(text)
    assert (e.value.line, e.value.column) == (2, 20)
    assert main([write_script(tmp_path, text)]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err
    assert parse_script(NILSQUARES + "search harness(2, 5);").statements[1].args == (2, 5)


GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "script-grammar.ebnf"


def _grammar_keywords(text):
    """(expression functions, windowed checks, unwindowed checks,
    searches) named by the keyword alternatives of the EBNF rules."""
    text = re.sub(r"\(\*.*?\*\)", "", text, flags=re.S)
    rules = dict(re.findall(r"^([a-z][a-z-]*)\s*=(.*?);\s*$", text, flags=re.M | re.S))

    def words(rule):
        return set(re.findall(r'"([a-z][a-z0-9]*)"', rules[rule]))

    return (words("expr"), words("windowed-check"),
            words("plain-check") | words("check-call"), words("search-stmt") - {"search"})


def test_grammar_keywords_match_parser_tables():
    text = GRAMMAR.read_text()
    tables = (
        set(scr._EXPR_FUNCS),
        {name for name, (_, _, windowed) in scr._CHECKS.items() if windowed},
        {name for name, (_, _, windowed) in scr._CHECKS.items() if not windowed},
        set(scr._SEARCHES),
    )
    assert _grammar_keywords(text) == tables
    # A name on one side only must show, in each of the four lists.
    for old, new in (
        ('"stablehom", "("', '"lift", "(", expr, ")" | "stablehom", "("'),
        ('"prop43"', '"prop43" | "prop44"'),
        ('"stablesuite"', '"stablesuite" | "theorem60"'),
        ('"symmetry" )', '"symmetry" | "tor" )'),
    ):
        assert old in text
        assert _grammar_keywords(text.replace(old, new)) != tables


def test_ragged_matrix_rejected():
    with pytest.raises(ParseError, match="unequal"):
        parse_script(NILSQUARES + "module M = coker A [[x, y], [x]];")


def test_nested_parens_in_polynomials():
    s = parse_script("ring A = GF(101)[x, y] / (x*(x+y), y^2);")
    assert s.statements[0].relations == ("x*(x+y)", "y^2")


# -- execution ----------------------------------------------------------------


def test_run_ring_module_let():
    rep = run_text(
        NILSQUARES
        + "module M = coker A [[x], [y]];\n"
        + "let M1 = syzygy(M, 1);\n"
    )
    assert rep["exit_code"] == EXIT_OK
    ring_r, mod_r, let_r = (e["result"] for e in rep["statements"])
    assert ring_r == {"ring": "A", "dimension": 0, "artinian": True, "length": 4}
    assert mod_r["generators"] == 2
    assert let_r["generators"] >= 1


def test_run_scan_and_betti_oracle():
    rep = run_text(NILSQUARES + "scan tor(k, k, 1..5);\nbetti k, 4;\n")
    scan = rep["statements"][1]["result"]["scan"]
    assert scan["dims"] == {str(i): i + 1 for i in range(1, 6)}
    assert scan["tail_vanishing"] is False
    betti = rep["statements"][2]["result"]
    assert betti["betti"]["totals"] == [1, 2, 3, 4, 5]
    assert "total:" in betti["text"]


def test_run_quadric_column_module_pd_one():
    rep = run_text(
        "ring Q = GF(101)[w, x, y, z] / (w*x - y*z);\n"
        "module N = coker Q [[w], [x], [y], [z]];\n"
        "scan tor(k, N, 1..10);\n"
    )
    scan = rep["statements"][2]["result"]["scan"]
    assert scan["tail_vanishing"] is True
    assert scan["last_nonzero"] == 1


def test_check_consistent_and_hypothesis_exit():
    rep = run_text(NILSQUARES + "check symmetry(k, k, 8);\n")
    assert rep["exit_code"] == EXIT_OK
    assert rep["statements"][1]["result"]["report"]["verdict"] == "consistent"

    # non-MCM argument over the 3-dimensional quadric: hypotheses fail
    rep = run_text(
        "ring Q = GF(101)[w, x, y, z] / (w*x - y*z);\n"
        "module N = coker Q [[w], [x], [y], [z]];\n"
        "check theorem21(N, N, 8);\n"
    )
    assert rep["exit_code"] == EXIT_HYPOTHESIS
    assert rep["statements"][2]["status"] == "error"


def test_check_default_window_comes_from_flags():
    rep = run_text(NILSQUARES + "check symmetry(k, k);\n", window=7)
    assert rep["statements"][1]["result"]["report"]["window"] == 7


def test_runtime_error_recorded_and_run_continues():
    # mixed rings inside one scan: a runtime precondition failure
    rep = run_text(
        NILSQUARES
        + "ring B = GF(101)[s] / (s^2);\n"
        + "scan ext(A, k, 1..5);\n"
        + "betti k, 2;\n"
    )
    entries = rep["statements"]
    assert entries[2]["status"] == "error"
    assert "different contexts" in entries[2]["error"]
    assert entries[3]["status"] == "ok"
    assert rep["exit_code"] == EXIT_HYPOTHESIS


def test_name_left_unbound_by_a_failed_statement_is_reported():
    # GF(4) is not a prime field: the ring statement fails at run time and
    # binds nothing, so later uses of Q and of the built-in k name it.
    rep = run_text(
        "ring Q = GF(4)[x];\n"
        "module N = coker Q [[x]];\n"
        "scan ext(k, N, 1..4);\n"
    )
    errors = [st.get("error") for st in rep["statements"]]
    assert errors[1:] == [
        "unknown name 'Q': no ring, module or let binds it",
        "unknown name 'k': no ring, module or let binds it",
    ]
    assert rep["exit_code"] == EXIT_HYPOTHESIS


@pytest.mark.parametrize(
    "table, name",
    [("_CHECKS", n) for n in scr._CHECKS] + [("_EXPR_FUNCS", n) for n in scr._EXPR_FUNCS],
)
def test_dispatch_tables_name_callables(table, name):
    # the runner resolves these names only when a statement runs
    fname = getattr(scr, table)[name][0]
    assert callable(getattr(scr, fname, None))


def test_violation_verdict_sets_exit_three(monkeypatch):
    import extlab.script as scr

    def fake_check(M, N, H):
        return CheckReport(name="symmetry-dims", verdict="VIOLATION", window=H)

    monkeypatch.setattr(scr, "symmetry_check", fake_check)
    rep = run_text(NILSQUARES + "check symmetry(k, k, 8);\n")
    assert rep["exit_code"] == EXIT_VIOLATION


@pytest.mark.parametrize(
    "error, code",
    [
        (ResourceCapError, EXIT_RESOURCE),
        (DegreeCapError, EXIT_RESOURCE),
        (InvariantViolation, EXIT_VIOLATION),
        (HypothesisNotMet, EXIT_HYPOTHESIS),
        (ExtlabError, EXIT_HYPOTHESIS),
        (ValueError, EXIT_HYPOTHESIS),
    ],
)
def test_raised_error_sets_exit_code_by_class(monkeypatch, error, code):
    # A statement that raises is recorded as an error with the message,
    # the run goes on, and the exit code follows the error's class.
    def failing_check(M, N, H):
        raise error("check gave up")

    monkeypatch.setattr(scr, "symmetry_check", failing_check)
    rep = run_text(NILSQUARES + "check symmetry(k, k, 8);\nbetti k, 2;\n")
    entry = rep["statements"][1]
    assert entry["status"] == "error"
    assert entry["error"] == "check gave up"
    assert rep["statements"][2]["status"] == "ok"
    assert rep["exit_code"] == code


def test_timeout_stops_the_run():
    rep = run_text(NILSQUARES + "betti k, 3;\n", timeout_secs=1e-9)
    assert rep["exit_code"] == EXIT_RESOURCE
    assert rep["statements"][0]["status"] == "error"
    assert "time budget" in rep["statements"][0]["error"]
    assert len(rep["statements"]) == 1


def test_severity_lattice():
    assert _worse(EXIT_OK, EXIT_HYPOTHESIS) == EXIT_HYPOTHESIS
    assert _worse(EXIT_HYPOTHESIS, EXIT_RESOURCE) == EXIT_RESOURCE
    assert _worse(EXIT_VIOLATION, EXIT_RESOURCE) == EXIT_VIOLATION
    assert _worse(EXIT_PARSE, EXIT_VIOLATION) == EXIT_PARSE
    assert _worse(EXIT_VIOLATION, EXIT_OK) == EXIT_VIOLATION


def test_search_lemma36_counts_hypothesis_skips():
    rep = run_text(NILSQUARES + "search lemma36(3);\n")
    result = rep["statements"][1]["result"]
    # embedding dimension 2 fails the short-Gorenstein gate on every trial
    assert result == {"search": "lemma36", "trials": 3, "ran": 0,
                      "hypothesis_skipped": 3, "violations": 0}
    assert rep["exit_code"] == EXIT_OK


def test_search_needs_a_ring_first():
    rep = run_text("search harness(2);\n")
    assert rep["statements"][0]["error"] == "search requires a ring statement first"
    assert rep["exit_code"] == EXIT_HYPOTHESIS


def test_search_harness_runs_and_logs_structure():
    rep = run_text(NILSQUARES + "search harness(2);\n", seed=5)
    out = rep["statements"][1]["result"]["report"]
    assert len(out["trials"]) == 2
    assert out["candidates"] == []
    assert out["config"]["seed"] == 5


def test_expression_operations_evaluate():
    rep = run_text(
        "ring G = GF(101)[x, y, z] / (x*y, x*z, y*z, x^2 - y^2, x^2 - z^2);\n"
        "let H = hom(k, R);\n"
        "let T = tensor(k, k);\n"
        "let S = stablehom(k, k);\n"
        "let D = matlis(k);\n"
        "check theorem59(k, k);\n"
    )
    assert rep["exit_code"] == EXIT_OK
    for entry in rep["statements"]:
        assert entry["status"] == "ok"
    # Hom(k, R) over this Gorenstein ring is the one-dimensional socle
    assert rep["statements"][1]["result"]["generators"] == 1


# -- report rendering ---------------------------------------------------------


STRIP = re.compile(r'"elapsed_ms": [0-9.]+')


def test_reports_deterministic_apart_from_timing():
    text = (
        NILSQUARES
        + "module M = coker A [[x], [y]];\n"
        + "scan ext(k, M, 1..6);\n"
        + "check theorem21(k, M, 8);\n"
        + "search harness(2);\n"
    )
    a = report_json(run_text(text, seed=3))
    b = report_json(run_text(text, seed=3))
    assert STRIP.sub("X", a) == STRIP.sub("X", b)
    assert json.loads(a)["seed"] == 3
    assert json.loads(a)["engine_version"]


def test_emit_json_and_table(tmp_path):
    out = tmp_path / "report.json"
    tbl = tmp_path / "report.txt"
    rep = run_text(
        NILSQUARES
        + f'emit json "{out}";\n'
        + f'emit table "{tbl}";\n'
    )
    assert rep["exit_code"] == EXIT_OK
    data = json.loads(out.read_text())
    assert data["statements"][0]["kind"] == "ring"
    assert "exit code" in tbl.read_text()


def test_render_report_text_shows_verdicts():
    rep = run_text(NILSQUARES + "check symmetry(k, k, 6);\nbetti k, 2;\n")
    text = render_report_text(rep)
    assert "verdict consistent" in text
    assert "total:" in text
    assert text.endswith("exit code 0\n")


GOLDEN_SCRIPT = (
    NILSQUARES
    + "module M = coker A [[x]];\n"
    + "let D = dual(M);\n"
    + "scan tor(k, M, 1..4);\n"
    + "check symmetry(M, D, 5);\n"
    + "search harness(2, 5);\n"
    + "betti k, 3;\n"
    + "ring G = GF(101)[x, y, z] / (x*y, x*z, y*z, x^2 - y^2, x^2 - z^2);\n"
    + "search lemma36(2);\n"
    + 'emit table "report.txt";\n'
)

GOLDEN_TEXT = """\
engine 0.1.0, seed 1, window 10
[  1] ring    ring A, dimension 0
[  2] module  module M, 1 generators
[  3] let     module D, 1 generators
[  4] scan    nonvanishing tail, last nonzero 4
[  5] check   verdict consistent
[  6] search  2 trials, 0 candidates
[  7] betti   betti table below
              0 1 2 3
       total: 1 2 3 4
           0: 1 2 3 4
[  8] ring    ring G, dimension 0
[  9] search  2 ran, 0 skipped, 0 violations
[ 10] emit    wrote report.txt
exit code 0
"""


def test_render_report_text_golden(tmp_path, monkeypatch):
    # one statement of every kind, rendered line for line
    monkeypatch.chdir(tmp_path)
    rep = run_text(GOLDEN_SCRIPT, seed=1)
    assert render_report_text(rep) == GOLDEN_TEXT
    # the emitted table is the report as it stood before the emit statement
    emitted = GOLDEN_TEXT.replace("[ 10] emit    wrote report.txt\n", "")
    assert (tmp_path / "report.txt").read_text() == emitted


EVERY_KIND = (
    "ring G = GF(101)[x, y, z] / (x*y, x*z, y*z, x^2 - y^2, x^2 - z^2);\n"
    "module M = coker G [[x]];\n"
    + "".join(f"let L{i} = {expr};\n" for i, expr in enumerate(
        ["syzygy(M, 1)", "dual(M)", "matlis(M)", "hom(M, k)", "tensor(M, k)", "stablehom(M, M)"]))
    + "scan ext(k, M, 1..4);\n"
    "scan tor(M, k, 1..4);\n"
    "betti M, 3;\n"
    "check theorem21(M, M, 4);\n"
    "check symmetry(M, k, 4);\n"
    "check corollary42(M, k, 4);\n"
    "check lescot(M);\n"
    "check lemma36(M, k);\n"
    "check theorem59(M, k);\n"
    "check stablesuite(M, k);\n"
    "check prop43(M, k, 4);\n"
    "search harness(1, 4);\n"
    "search lemma36(1);\n"
    "search symmetry(1, 4);\n"
)


def test_reports_match_the_documented_schema(tmp_path, capsys):
    # The canned scripts' reports, and a report with a statement of every
    # kind (every let function, check and search, an emit, and a ring
    # statement that fails), validate against docs/report-schema.json.
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCRIPTS.parent / "docs" / "report-schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    emitted = tmp_path / "emitted.json"
    path = write_script(tmp_path, EVERY_KIND + f'emit json "{emitted}";\nring F = GF(4)[x];\n')
    runs = [[str(SCRIPTS / "koszul.gor")], [str(SCRIPTS / "example-2-3.gor")],
            [str(SCRIPTS / "lemma-3-6-search.gor"), "--seed", "7"], [path]]
    reports = []
    for args in runs:
        main(args)
        reports.append(json.loads(capsys.readouterr().out))
    reports.append(json.loads(emitted.read_text()))
    for report in reports:
        assert [e.message for e in validator.iter_errors(report)] == []
    every = reports[3]["statements"]
    assert [e["status"] for e in every[:-1]] == ["ok"] * (len(every) - 1)
    assert {e["result"]["check"] for e in every if e["kind"] == "check"} == set(scr._CHECKS)
    assert {e["result"]["search"] for e in every if e["kind"] == "search"} == set(scr._SEARCHES)
    assert [e["kind"] for e in every].count("let") == len(scr._EXPR_FUNCS)
    assert every[-1]["status"] == "error" and reports[3]["exit_code"] == EXIT_HYPOTHESIS


# -- CLI ----------------------------------------------------------------------


def write_script(tmp_path, body):
    p = tmp_path / "script.gor"
    p.write_text(body)
    return str(p)


def test_cli_json_run(tmp_path, capsys):
    path = write_script(tmp_path, NILSQUARES + "betti k, 3;\n")
    code = main([path, "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exit_code"] == 0
    assert [e["kind"] for e in data["statements"]] == ["ring", "betti"]


def test_cli_table_run(tmp_path, capsys):
    path = write_script(tmp_path, NILSQUARES + "scan ext(k, k, 1..5);\n")
    code = main([path, "--format", "table", "--window", "6"])
    assert code == 0
    assert "nonvanishing tail" in capsys.readouterr().out


def test_cli_parse_error_exit_five(tmp_path, capsys):
    path = write_script(tmp_path, "ring A = GF(101)[x];\nscan ext(k, Q, 1..5);\n")
    assert main([path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "'Q'" in err and "line 2" in err


def test_cli_missing_file_exit_five(capsys):
    assert main(["/nonexistent/script.gor"]) == EXIT_PARSE
    assert "extlab:" in capsys.readouterr().err


def test_cli_emit_to_missing_directory_is_a_statement_error(tmp_path, capsys):
    # A path that cannot be opened is input rejected at run time (exit 2),
    # and the statements after it still run.
    out = tmp_path / "missing" / "out.json"
    path = write_script(tmp_path, NILSQUARES + f'emit json "{out}";\nbetti k, 2;\n')
    assert main([path]) == EXIT_HYPOTHESIS
    data = json.loads(capsys.readouterr().out)
    emit, betti = data["statements"][1:]
    assert emit["status"] == "error" and str(out) in emit["error"]
    assert betti["status"] == "ok"
    assert data["exit_code"] == EXIT_HYPOTHESIS


def test_cli_matlis_off_the_artinian_locus_is_refused(tmp_path, capsys):
    # A realization needs an artinian context, so the Matlis dual over the
    # quadric is refused by `from_module` itself, before any Groebner work,
    # as a statement error (exit 2); the statements after it still run.
    quadric = "ring Q = GF(101)[w,x,y,z] / (w*x - y*z);\n"
    path = write_script(tmp_path, quadric + "let D = matlis(k);\nbetti k, 1;\n")
    assert main([path]) == EXIT_HYPOTHESIS
    data = json.loads(capsys.readouterr().out)
    matlis, betti = data["statements"][1:]
    assert matlis["status"] == "error"
    assert matlis["error"] == "realizations need an artinian context"
    assert betti["status"] == "ok"


def test_cli_seed_flag_reaches_harness(tmp_path, capsys):
    path = write_script(tmp_path, NILSQUARES + "search harness(1);\n")
    assert main([path, "--seed", "9"]) == 0
    data = json.loads(capsys.readouterr().out)
    report = data["statements"][1]["result"]["report"]
    assert report["config"]["seed"] == 9


# -- work counts ----------------------------------------------------------------


def test_example_2_3_groebner_work_is_pinned(buchberger_runs):
    # Buchberger runs are deterministic, so the canned quadric script's
    # Groebner work is pinned as an exact count: 37 with module numerators
    # read off the span cache the cokernels fill, so two modules whose span
    # was presented before, up to a twist, build no basis of their own.
    # It was 39 with the periodic tails
    # of its resolutions served (k's from step 4, dual(N)'s from 2 and
    # M's from 1), which take 15 fewer syzygy runs, and with the scan's
    # indices past k's seam read off the two before them, which build 4
    # fewer cokernel bases.  It was 58 with every step computed and
    # cokernel numerators shared by span (63 with one basis per cokernel:
    # the matrix factorization M of the theorem21 check resolves
    # periodically, so 7 of the script's 32 cokernels repeat an earlier
    # span up to a twist; 232
    # when every scan index built its homology module, 1886 when every
    # minimal-generator candidate had its own leave-one-out basis).  It
    # was 56 while the 26 tagged runs used the Gebauer-Moeller body: the
    # signature runs' syzygies hold generators beyond the minimal ones, in
    # higher degrees, so pruning them takes 4 bases, and 2 fewer distinct
    # cokernel spans are left to build.  The answers must not move with
    # the count.
    rep = run_script(parse_script((SCRIPTS / "example-2-3.gor").read_text()), RunFlags())
    assert rep["exit_code"] == EXIT_OK
    by_kind = {st["kind"]: st["result"] for st in rep["statements"]}
    dims = by_kind["scan"]["scan"]["dims"]
    assert [dims[str(i)] for i in range(1, 11)] == [0, 1] + [8] * 8
    assert by_kind["betti"]["betti"]["entries"] == [
        {"homological": i, "internal": i + 1, "rank": 8 if i else 7} for i in range(9)
    ]
    assert buchberger_runs.count == 37


def test_example_2_3_groebner_reductions_are_pinned(buchberger_reductions):
    # The reductions inside those 37 runs, one per input and one per S-pair
    # the criteria keep, pinned the same way: 2630, every run
    # signature-based.  It was 2638 in 39 runs while module numerators
    # built private bases.  It was 4625 in 58 runs before the periodic tails
    # were served (26 tagged runs, now 11, and 23 cokernel bases, now 19).
    # It was 4694 while the 26 tagged runs used the
    # Gebauer-Moeller body: they now reduce 564 (320 before), since the
    # signature body finds each syzygy once by a reduction, and the 32
    # plain runs reduce 4061 (4374 in 30 runs before), on the cokernels
    # those syzygies give.  It was 3310 when the plain runs used the
    # Gebauer-Moeller criteria too (3434 in the 63 runs before cokernels
    # were shared by span): the cokernels of the Ext scan are wide and
    # linear, and the signature criteria find each of their syzygies by a
    # reduction, mostly to zero, where the chain criterion skips it.  The
    # count leaves out the reduced bases built on demand after a run.
    rep = run_script(parse_script((SCRIPTS / "example-2-3.gor").read_text()), RunFlags())
    assert rep["exit_code"] == EXIT_OK
    assert buchberger_reductions.count == 2630


def test_lemma_3_6_search_row_work_is_pinned(axpy_calls):
    # The canned artinian search, pinned by its row work: the multiples of
    # stored rows added to other rows in all of its eliminations.  The
    # Tor check resolves the argument with the smaller resolution, A, and
    # reads Tor_3..Tor_5 as Tor_2..Tor_4 of A and the other side's first
    # syzygy, so A is resolved to F_4 and its top cokernel C_4 is read off
    # d_4: F_5 is never built (2519 while Tor_5 read C_5 off d_5).  A
    # syzygy module is its own minimal presentation, so it is not pruned
    # again (1626 with the shift alone).  Before the shift, C_5 was read as
    # Omega_5 (x) N off d_5, so F_6 was never built (14392 when the check
    # always resolved the left one, 8898 when C_5 was the image of d_6 (x)
    # N).  Resolution steps the context took
    # before, up to a twist shift, are served from its step table, and
    # Omega_5 (x) N ranks the images of N's relation echelon rows instead
    # of the columns of d_5 (x) del_N (2713 before both, 2706 with the
    # second alone).  The ring's socle is eliminated once, by the cached
    # `gorenstein_check`, not again on every trial's gate (2650 before).
    # The step table keeps 1024 steps, so 15 more repeated steps run no
    # kernel walk (2552 while it kept 32).
    rep = run_script(parse_script((SCRIPTS / "lemma-3-6-search.gor").read_text()), RunFlags(seed=7))
    assert rep["exit_code"] == EXIT_OK
    assert axpy_calls.count == 1509


def test_lemma_3_6_search_kernel_steps_are_pinned(kernel_steps):
    # The same search, pinned by the resolution steps that ran the kernel
    # walk: 149 while the Tor check built F_5 of its resolved side, now
    # F_4 (see the row work pin).  183 steps before the step table, of
    # which 34 repeated a step the context took before, up to a twist
    # shift (164 while the table kept only 32 steps, as many as the "res"
    # cache keeps resolutions).
    rep = run_script(parse_script((SCRIPTS / "lemma-3-6-search.gor").read_text()), RunFlags(seed=7))
    assert rep["exit_code"] == EXIT_OK
    assert kernel_steps.count == 123


def test_lemma_3_6_search_resolution_work_is_pinned(resolution_rank):
    # The same search, pinned by the ranks of the resolution terms it
    # builds: a wrong choice of side in the Tor check, or a resolution
    # extended past F_4 for Tor_5, read as Tor_4 of the resolved side and
    # the other side's first syzygy, shows up here as an exact number
    # (2703 when Tor_5 built F_5, 9120 when the check also always resolved
    # the left one, 6674 when Tor_5 built F_6 for its top cokernel).  A
    # term served from the step table counts as built.
    rep = run_script(parse_script((SCRIPTS / "lemma-3-6-search.gor").read_text()), RunFlags(seed=7))
    assert rep["exit_code"] == EXIT_OK
    assert resolution_rank.count == 1186


def test_cli_imports_no_numpy():
    # Eliminations and realizations run on sparse rows of Python ints, so
    # loading the command line loads no numpy.
    src = str(Path(extlab.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import extlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
