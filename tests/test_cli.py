import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from systemt import cli

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus(name):
    return str(CORPUS_DIR / f"{name}.t")


def test_check_prints_type(capsys):
    code, out, _ = run(capsys, "check", corpus("a4"))
    assert code == 0
    assert out == "(nat -> nat) -> nat\n"


def test_check_type_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.t"
    bad.write_text("succ (fun (x : nat) -> x)")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "expected nat" in err


def test_check_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.t"
    bad.write_text("fun (a : nat) ->")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "expected" in err


def test_check_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    # "²" is a digit to str.isdigit but no numeral: it must not reach int()
    bad = tmp_path / "bad.t"
    bad.write_text("fun (a : nat -> nat) -> \u00b2", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert out == ""
    assert err == "error: 1:25: expected a token (got '\u00b2')\n"


def test_check_accepts_a_name_mixing_ascii_and_unicode_letters(tmp_path, capsys):
    good = tmp_path / "good.t"
    good.write_text("fun (\u00e9a : nat) -> \u00e9a", encoding="utf-8")
    code, out, err = run(capsys, "check", str(good))
    assert (code, out, err) == (0, "nat -> nat\n", "")


def test_a_term_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    f = tmp_path / "a4.t"
    f.write_bytes(b"\xef\xbb\xbf" + Path(corpus("a4")).read_bytes())
    assert run(capsys, "check", str(f)) == (0, "(nat -> nat) -> nat\n", "")
    assert run(capsys, "eval", str(f), "--oracle", "0,1,2,3,9;default=0") == (0, "9\n", "")


def test_check_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "check", "no-such-file.t")
    assert code == 1


def test_eval_applies_oracle(capsys):
    code, out, _ = run(capsys, "eval", corpus("aa2"), "--oracle", "5,6,7;default=1")
    assert code == 0
    assert out == "1\n"  # a(a 2) = a(7) = default 1


@pytest.mark.parametrize(
    "text, out",
    [
        # call-by-value asks 9 for the discarded argument; the tree path asks nothing
        ("fun (a : nat -> nat) -> (fun (b : nat) -> 7) (a 9)", "7\nasked: 9 (dead)\npath: none\n"),
        ("fun (a : nat -> nat) -> a (a 2)", "1\nasked: 2, 7\npath: 2, 7\n"),
    ],
)
def test_eval_trace_prints_asked_indices_and_tree_path(tmp_path, capsys, text, out):
    f = tmp_path / "term.t"
    f.write_text(text)
    assert run(capsys, "eval", str(f), "--oracle", "5,6,7;default=1", "--trace") == (0, out, "")
    assert run(capsys, "eval", str(f), "--oracle", "5,6,7;default=1") == (0, out.split("\n")[0] + "\n", "")


def test_eval_requires_baire_functional(tmp_path, capsys):
    f = tmp_path / "id.t"
    f.write_text("fun (x : nat) -> x")
    code, _, err = run(capsys, "eval", str(f), "--oracle", "default=0")
    assert code == 1
    assert "(nat -> nat) -> nat" in err


def test_eval_bad_oracle_spec(capsys):
    code, _, err = run(capsys, "eval", corpus("aa2"), "--oracle", "1,2,3")
    assert code == 1


@pytest.mark.parametrize("spec", ["1,,2;default=0", ",7;default=0"])
def test_eval_empty_oracle_entry_exits_1(tmp_path, capsys, spec):
    # an empty entry must be refused, not dropped: dropping shifts the later entries
    f = tmp_path / "a1.t"
    f.write_text("fun (a : nat -> nat) -> a 1")
    code, out, err = run(capsys, "eval", str(f), "--oracle", spec)
    assert code == 1
    assert out == ""
    assert "bad oracle spec" in err


@pytest.mark.parametrize(
    "spec", ["1_0;default=2", "+5;default=1", "\u0663;default=1", "1;default=1_0", "default=+1", "default=\u0663"]
)
def test_eval_oracle_entries_are_ascii_decimal_digits(tmp_path, capsys, spec):
    # int() reads all of these; the term syntax reads none, so neither may an oracle
    f = tmp_path / "a0.t"
    f.write_text("fun (a : nat -> nat) -> a 0")
    code, out, err = run(capsys, "eval", str(f), "--oracle", spec)
    assert (code, out) == (1, "")
    assert "bad oracle spec" in err


def test_eval_negative_oracle_exits_1(capsys):
    code, out, err = run(capsys, "eval", corpus("a4"), "--oracle", "default=-1")
    assert code == 1
    assert out == ""
    assert "natural" in err


@pytest.mark.parametrize("spec", ["9" * 5000 + ";default=0", "default=" + "9" * 5000])
def test_an_oracle_entry_past_the_int_digit_limit_is_a_bad_spec(capsys, spec):
    # int() refused it with CPython's own advice to call sys.set_int_max_str_digits()
    code, out, err = run(capsys, "eval", corpus("a4"), "--oracle", spec)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad oracle spec")
    assert err.endswith(f": entries must have at most {sys.get_int_max_str_digits()} digits\n")
    assert len(err.encode()) < 200  # a cut of the spec, not all 5000 digits


#: Arguments after the term file of each command that loads one.
COMMAND_ARGS = {
    "check": [],
    "eval": ["--oracle", "default=0"],
    "tree": [],
    "translate": ["--motive", "nat"],
    "modulus": ["--oracle", "default=0"],
    "umodulus": [],
}


@pytest.mark.parametrize(
    "argv",
    [[command, *extra] for command, extra in COMMAND_ARGS.items()] + [["eval", "--oracle", "default=0", "--trace"]],
    ids=[*COMMAND_ARGS, "eval-trace"],
)
def test_each_command_walks_the_loaded_terms_types_once(capsys, monkeypatch, argv):
    # loading only parses; the command's own entry typechecks, and the tree that
    # eval --trace also builds finds the type its entry checks recorded on the term
    from systemt import syntax

    loaded, roots = [], []
    parse, infer = cli.parse, syntax._infer
    monkeypatch.setattr(cli, "parse", lambda text: loaded.append(parse(text)) or loaded[0])
    monkeypatch.setattr(syntax, "_infer", lambda t, ctx: roots.append(t is loaded[0]) or infer(t, ctx))
    code, _, _ = run(capsys, argv[0], corpus("aa2"), *argv[1:])
    assert code == 0
    assert len(loaded) == 1
    assert roots.count(True) == 1


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_every_command_reports_a_type_error_at_its_position(tmp_path, capsys, command):
    bad = tmp_path / "bad.t"
    bad.write_text("fun (a : nat -> nat) ->\n  succ a")
    code, out, err = run(capsys, command, str(bad), *COMMAND_ARGS[command])
    assert (code, out) == (1, "")
    assert err.startswith("error: 2:8: expected nat")


#: Output on the literal 1000, which the translation recurses through once
#: per succ.
DEEP_LITERAL_OUT = {
    "check": "(nat -> nat) -> nat\n",
    "eval": "1000\n",
    "tree": "(leaf 1000)\n",
    "modulus": "1\n",
    "umodulus": "1\n",
}


@pytest.mark.parametrize("command", list(DEEP_LITERAL_OUT))
def test_deep_literal(tmp_path, capsys, command):
    f = tmp_path / "deep.t"
    f.write_text("fun (a : nat -> nat) -> 1000")
    extra = ["--oracle", "default=0"] if command in ("eval", "modulus") else []
    code, got, _ = run(capsys, command, str(f), *extra)
    assert (code, got) == (0, DEEP_LITERAL_OUT[command])


@pytest.mark.parametrize("literal", ["100001", "9" * 5000])
def test_a_literal_above_the_cap_is_a_parse_error(tmp_path, capsys, literal):
    # literal n is a chain of n successors, so a 20-digit one never returned;
    # without the cap these fail fast: 100001 answers, and 5000 digits made
    # int() raise a ValueError with no position
    f = tmp_path / "big.t"
    f.write_text("fun (a : nat -> nat) -> " + literal)
    assert run(capsys, "check", str(f)) == (1, "", "error: 1:25: expected a numeral of at most 100000\n")
    # leading zeros do not count, in any script: \u0660 is the Arabic-Indic zero
    for zeros in ("0" * 5000, "\u0660" * 7, "0\u0660" * 2500):
        f.write_text("fun (a : nat -> nat) -> " + zeros + "7")
        assert run(capsys, "eval", str(f), "--oracle", "default=0") == (0, "7\n", "")
    # but a nonzero one does: \u0661 is the Arabic-Indic one, so this is 10**6
    f.write_text("fun (a : nat -> nat) -> " + "\u0661" + "\u0660" * 6)
    assert run(capsys, "check", str(f)) == (1, "", "error: 1:25: expected a numeral of at most 100000\n")


#: Deep terms, and the answers of eval and modulus at the all-zero oracle.
DEEP_TERMS = {
    "succ": ("succ (" * 2000 + "a 0" + ")" * 2000, "2000\n", "1\n"),
    "app": ("a (" * 1000 + "0" + ")" * 1000, "0\n", "1\n"),
}


@pytest.mark.parametrize("kind", list(DEEP_TERMS))
def test_deep_terms_answer_in_a_fresh_interpreter(tmp_path, kind):
    # in a subprocess, so that a stack overflow shows as a signal, not a dead test run
    from systemt.church import church_type
    from systemt.syntax import NAT, format_ty

    def cli_out(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "systemt.cli", *argv],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert (done.returncode, done.stderr) == (0, ""), argv
        return done.stdout

    body, value, modulus = DEEP_TERMS[kind]
    f, translated = tmp_path / "deep.t", tmp_path / "translated.t"
    f.write_text("fun (a : nat -> nat) -> " + body)
    assert cli_out("check", str(f)) == "(nat -> nat) -> nat\n"
    assert cli_out("eval", str(f), "--oracle", "default=0") == value
    assert cli_out("modulus", str(f), "--oracle", "default=0") == modulus
    translated.write_text(cli_out("translate", str(f), "--motive", "nat"))
    assert cli_out("check", str(translated)) == format_ty(church_type(NAT, NAT)) + "\n"


def test_eval_trace_and_tree_answer_on_a_deep_query_chain(tmp_path, capsys):
    # 1600 nested queries, each grafted onto the tree of the ones inside it
    depth = 1600
    f = tmp_path / "chain.t"
    f.write_text("fun (a : nat -> nat) -> " + "a (" * depth + "0" + ")" * depth)
    zeros = ", ".join(["0"] * depth)
    trace = f"0\nasked: {zeros}\npath: {zeros}\n"
    assert run(capsys, "eval", str(f), "--oracle", "default=0", "--trace") == (0, trace, "")
    code, out, err = run(capsys, "tree", str(f), "--depth", "3")
    cut = "(branch 0 (0 (...)) (1 (...)))"
    level2 = f"(branch 0 (0 {cut}) (1 (branch 1 (0 (...)) (1 (...)))))"
    assert (code, err) == (0, "") and out.startswith(f"(branch 0 (0 {level2}) (1 ")


def test_translate_prints_a_deep_successor_chain_in_linear_time(tmp_path, capsys):
    def translated(n):
        f = tmp_path / f"succ{n}.t"
        f.write_text("fun (a : nat -> nat) -> " + "succ (" * n + "a 0" + ")" * n)
        code, out, err = run(capsys, "translate", str(f), "--motive", "nat")
        assert (code, err) == (0, "")
        return out

    # every succ adds one piece at one binder depth, before the translation of
    # a 0, and one parenthesis to the run closing it
    one, two = translated(1), translated(2)
    start = one.index(" (a (")
    piece, close = two[start:two.index(" (a (")], one.index(") (", start)

    def expected(n):
        return one[:start] + piece * (n - 1) + one[start:close] + ")" * (n - 1) + one[close:]

    assert (expected(2), expected(3)) == (two, translated(3))
    started = time.perf_counter()
    deep = translated(20000)
    assert time.perf_counter() - started < 10
    assert deep == expected(20000)


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "a4", "--answers", "-3"],
        ["tree", "a4", "--answers", "0"],
        ["tree", "a4", "--depth", "-1"],
        ["modulus", "aa2", "--oracle", "default=0", "--verify", "-5"],
    ],
)
def test_bad_count_flags_are_usage_errors(capsys, argv):
    command, name, *flags = argv
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, corpus(name), *flags])
    assert exit_info.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--suite", "thm16", "--terms", "2", "--oracles", "-3"],
        ["--suite", "lem36", "--terms", "-5"],
    ],
)
def test_negative_selftest_scales_are_usage_errors(capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["selftest", *flags])
    assert exit_info.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


def test_tree_golden_example(capsys):
    code, out, _ = run(capsys, "tree", corpus("a4"), "--answers", "2")
    assert code == 0
    assert out == "(branch 4 (0 (leaf 0)) (1 (leaf 1)))\n"


def test_tree_of_more_nodes_than_its_budget_exits_1(tmp_path, capsys):
    # 100 nested queries print a full binary tree of depth 64: 2^65 - 1 nodes
    f = tmp_path / "chain.t"
    f.write_text("fun (a : nat -> nat) -> " + "a (" * 100 + "0" + ")" * 100)
    assert run(capsys, "tree", str(f)) == (1, "", "error: the tree has more than 65536 nodes to print\n")


def test_tree_depth_truncation(capsys):
    code, out, _ = run(capsys, "tree", corpus("aa2"), "--answers", "2", "--depth", "1")
    assert code == 0
    assert out == "(branch 2 (0 (...)) (1 (...)))\n"


def test_modulus_at_constant_zero_oracle(capsys):
    code, out, _ = run(capsys, "modulus", corpus("aa2"), "--oracle", "default=0")
    assert code == 0
    assert out == "3\n"  # queries {2, 0}, max 2, successor 3


def test_modulus_verify_reports_agreement(capsys):
    code, out, _ = run(
        capsys, "modulus", corpus("aa2"), "--oracle", "0,1,2,3;default=0", "--verify", "10"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    assert "verified: 10 sampled points" in lines[1]


def test_modulus_verify_reports_a_disagreement_and_exits_2(capsys, monkeypatch):
    from systemt import moduli
    from systemt.church import closed

    # a modulus of 0 claims the value reads no index, so an agreeing point differs
    monkeypatch.setattr(moduli, "modulus_int", lambda: closed("fun (d : {T}) -> fun (a : nat -> nat) -> zero"))
    code, out, _ = run(capsys, "modulus", corpus("aa2"), "--oracle", "0,1,2,3;default=0", "--verify", "50")
    assert code == 2
    assert out.splitlines() == ["0", "disagreement at 9,5,3,8,6;default=2: 8 != 2"]


def test_umodulus_anchor(capsys):
    code, out, _ = run(capsys, "umodulus", corpus("a4"))
    assert code == 0
    assert out == "5\n"
    code, out, _ = run(capsys, "umodulus", corpus("const7"))
    assert out == "1\n"


@pytest.mark.parametrize(
    "name, motive",
    [
        pytest.param(p.stem, motive, id=p.stem if motive == "nat" else f"{p.stem}-{motive}")
        for motive in ("nat", "baire")
        for p in sorted(CORPUS_DIR.glob("*.t"))
    ],
)
def test_translate_matches_golden(capsys, name, motive):
    code, out, _ = run(capsys, "translate", corpus(name), "--motive", motive)
    assert code == 0
    golden = (GOLDEN_DIR / f"{name}.translate.{motive}.golden").read_text()
    assert out == golden


def test_translate_baire_motive_typechecks(capsys):
    from systemt.church import church_type
    from systemt.dialogue import BAIRE_FN
    from systemt.syntax import NAT, infer, parse, typecheck

    code, out, _ = run(capsys, "translate", corpus("chase"), "--motive", "baire")
    assert code == 0
    assert infer(typecheck(parse(out))) == church_type(NAT, BAIRE_FN)


def test_selftest_single_suite_small(capsys):
    code, out, _ = run(
        capsys, "selftest", "--suite", "thm16", "--terms", "10", "--oracles", "3"
    )
    assert code == 0
    assert out.startswith("thm16:")
    assert "[ok]" in out


def test_selftest_runs_all_suites_small(capsys):
    code, out, _ = run(capsys, "selftest", "--terms", "5", "--oracles", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all("[ok]" in line for line in lines)


@pytest.mark.parametrize(
    "flags",
    [
        ["--suite", "thm16", "--terms", "3", "--oracles", "0"],
        ["--suite", "lem36", "--terms", "0"],
    ],
)
def test_selftest_suite_with_no_case_exits_2(capsys, flags):
    code, out, _ = run(capsys, "selftest", *flags)
    assert code == 2
    assert out == f"{flags[1]}: 0 cases [FAILED: no case ran]\n"


def test_selftest_answers_a_term_lem44_recurses_deep_through(capsys):
    # generated term 140 at seed 101 nests rec[nat] in rec[nat -> nat -> nat]:
    # its internal modulus runs about 990 frames of compiled closures deep
    code, out, err = run(capsys, "selftest", "--seed", "101", "--suite", "lem44", "--terms", "141")
    assert (code, err) == (0, "")
    assert out.startswith("lem44: 3020 cases,") and out.endswith("[ok]\n")


def test_an_unexpected_error_is_raised_not_turned_into_an_exit_code(monkeypatch):
    def broken(args):
        raise AssertionError("broken command")

    monkeypatch.setattr(cli, "cmd_check", broken)
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    with pytest.raises(AssertionError, match="broken command"):
        cli.main(["check", corpus("a4")])
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, stack)


def test_selftest_failure_exits_2(capsys, monkeypatch):
    from systemt import dialogue
    from systemt.dialogue import Branch, Graft, gkleisli
    from systemt.syntax import NAT

    # the oracle argument asks index 0, whatever index it was given
    monkeypatch.setattr(
        dialogue, "generic", lambda tree: gkleisli(NAT, lambda n: Graft(lambda k: Branch(0, k)), tree)
    )
    code, out, _ = run(capsys, "selftest", "--suite", "thm16", "--terms", "5", "--oracles", "2")
    assert code == 2
    assert "FAIL" in out


def test_selftest_reports_a_check_that_raises_as_a_failed_case(capsys, monkeypatch):
    from systemt import church
    from systemt.syntax import pretty

    original = church.translate

    def planted(term, motive):
        if "rec[" in pretty(term):
            raise IndexError("planted")
        return original(term, motive)

    monkeypatch.setattr(church, "translate", planted)
    argv = ("selftest", "--suite", "thm37", "--terms", "20", "--oracles", "5")
    code, out, err = run(capsys, *argv)
    summary, *fails = out.splitlines()
    assert (code, err) == (2, "") and "Traceback" not in out
    assert fails and summary.endswith(f"[{len(fails)} FAILED]")
    assert all(line.startswith("  FAIL term ") and line.endswith(": raised IndexError: planted") for line in fails)
    code, out, _ = run(capsys, *argv, "--json")
    [suite] = json.loads(out)["suites"]
    assert code == 2 and len(suite["failures"]) == len(fails)
    assert {failure["detail"] for failure in suite["failures"]} == {"raised IndexError: planted"}



def test_selftest_reports_a_lem36_check_that_raises_as_a_failed_case(capsys, monkeypatch):
    from systemt import church

    def planted(tree, motive):
        raise IndexError("planted")

    monkeypatch.setattr(church, "encode", planted)
    code, out, err = run(capsys, "selftest", "--suite", "lem36", "--terms", "3", "--oracles", "2")
    summary, *fails = out.splitlines()
    assert (code, err) == (2, "") and "Traceback" not in out
    assert summary.endswith("[6 FAILED]") and len(fails) == 6
    assert all(line.startswith("  FAIL oracle ") and line.endswith(": raised IndexError: planted") for line in fails)

def test_selftest_json_reports_each_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "thm16", "--terms", "3", "--oracles", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    [suite] = report["suites"]
    assert suite["suite"] == "thm16" and suite["cases"] == 26  # 10 corpus + 3 generated terms, 2 oracles
    assert suite["replayed"] == 0
    assert suite["passed"] is True and suite["failures"] == []
    assert suite["seconds"] >= 0


def test_selftest_counts_thm45_cases_decided_by_replay(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "thm45", "--terms", "3", "--oracles", "2")
    assert code == 0
    assert out.startswith("thm45: 26 cases (26 by replay), ") and out.endswith("[ok]\n")
    code, out, _ = run(capsys, "selftest", "--suite", "thm45", "--terms", "3", "--oracles", "2", "--json")
    [suite] = json.loads(out)["suites"]
    assert (code, suite["cases"], suite["replayed"]) == (0, 26, 26)


def test_selftest_json_lists_failures_and_exits_2(capsys, monkeypatch):
    from systemt import dialogue
    from systemt.dialogue import Branch, Graft, gkleisli
    from systemt.syntax import NAT

    # the oracle argument asks index 0, whatever index it was given
    monkeypatch.setattr(
        dialogue, "generic", lambda tree: gkleisli(NAT, lambda n: Graft(lambda k: Branch(0, k)), tree)
    )
    code, out, _ = run(capsys, "selftest", "--suite", "thm16", "--terms", "5", "--oracles", "2", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    [suite] = report["suites"]
    assert suite["passed"] is False and suite["failures"]
    for failure in suite["failures"]:
        assert set(failure) == {"term", "oracle", "detail"}
        assert failure["term"] and failure["oracle"] and failure["detail"]


def test_selftest_json_counts_a_suite_with_no_case_as_failed(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "lem36", "--terms", "0", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert [(s["suite"], s["cases"], s["passed"]) for s in report["suites"]] == [("lem36", 0, False)]
