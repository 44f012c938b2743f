import inspect
import traceback
from collections import Counter
from pathlib import Path

import pytest

from systemt import church, dialogue, harness, moduli
from systemt.dialogue import BAIRE_FN, Branch, Leaf, tree_sexpr
from systemt.harness import (
    CORPUS,
    GenConfig,
    SUITE_IDS,
    _shrink_candidates,
    agreeing_oracle,
    canonical,
    corpus_terms,
    gen_oracle,
    gen_term,
    gen_tree,
    run_suite,
    run_suites,
    shrink_term,
)
from systemt.set_model import NatV, eval_set
from systemt.syntax import NAT, App, Arrow, Lam, Succ, Var, Zero, format_ty, infer, numeral, parse, pretty, typecheck

from extensional import hee_check
from test_church import on_a_fresh_thread_at_the_default_limit


# -- generation -----------------------------------------------------------------


def test_gen_term_budget_zero_falls_back_to_canonical():
    t = gen_term(GenConfig(seed=1, size_budget=0), NAT)
    assert t == numeral(0)
    f = gen_term(GenConfig(seed=1, size_budget=0), BAIRE_FN)
    assert f == Lam(Arrow(NAT, NAT), Zero())


def test_gen_term_well_typed_at_target():
    for seed in range(40):
        t = gen_term(GenConfig(seed=seed), BAIRE_FN)
        assert infer(t, ()) == BAIRE_FN


def test_gen_term_deterministic_in_seed():
    cfg = GenConfig(seed=42)
    assert gen_term(cfg, BAIRE_FN) == gen_term(cfg, BAIRE_FN)
    assert gen_term(GenConfig(seed=1), BAIRE_FN) != gen_term(GenConfig(seed=2), BAIRE_FN)


def test_gen_term_stays_near_budget():
    def size(t):
        if isinstance(t, (Var, Zero)):
            return 1
        if isinstance(t, Succ):
            return 1 + size(t.arg)
        if isinstance(t, Lam):
            return 1 + size(t.body)
        if isinstance(t, App):
            return 1 + size(t.fn) + size(t.arg)
        return 1 + size(t.step) + size(t.base) + size(t.arg)

    # fallbacks may add a small constant of canonical nodes past the budget
    for seed in range(30):
        cfg = GenConfig(seed=seed, size_budget=25)
        assert size(gen_term(cfg, BAIRE_FN)) <= 25 + 40


def test_gen_oracle_reproducible_and_bounded():
    cfg = GenConfig(seed=9)
    assert gen_oracle(cfg) == gen_oracle(cfg)
    for seed in range(50):
        alpha = gen_oracle(GenConfig(seed=seed))
        assert len(alpha.prefix) <= 16
        assert all(0 <= v <= 10 for v in alpha.prefix)
        assert 0 <= alpha.default <= 10


def test_gen_oracle_mostly_distinct_across_seeds():
    specs = {gen_oracle(GenConfig(seed=s)).spec() for s in range(100)}
    assert len(specs) >= 95


def test_corpus_is_ten_closed_baire_functionals():
    assert len(CORPUS) == 10
    for t in corpus_terms():
        assert infer(t, ()) == BAIRE_FN


def test_corpus_files_hold_the_harness_corpus():
    # corpus/*.t feeds the CLI tests and the translate goldens; CORPUS feeds selftest
    files = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.t"))
    assert {f.stem: f.read_text(encoding="utf-8").rstrip("\n") for f in files} == dict(CORPUS)


def test_agreeing_oracle_agrees_on_prefix():
    import random

    alpha = gen_oracle(GenConfig(seed=3))
    rng = random.Random(0)
    for m in [0, 1, 5, 9, len(alpha.prefix) + 7, 40]:  # also past alpha's prefix
        beta = agreeing_oracle(alpha, m, rng)
        assert all(alpha(i) == beta(i) for i in range(m))
    # after the prefix: at most 8 entries, then a default, all in [0, 10]
    tails, defaults = set(), set()
    for _ in range(2000):
        beta = agreeing_oracle(alpha, 3, rng)
        tails.add(len(beta.prefix) - 3)
        defaults.add(beta.default)
        assert all(0 <= n <= 10 for n in beta.prefix[3:])
    assert max(tails) <= 8 and defaults == set(range(11))


# -- suites ---------------------------------------------------------------------


def test_run_suite_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_suite("thm99")


def test_run_suite_zero_cases_is_a_failure():
    # no failure among no cases shows nothing, so such a suite has not passed
    report = run_suite("thm16", GenConfig(seed=0), n_terms=0, n_oracles=5)
    assert (report.cases, report.failures, report.passed) == (0, [], False)
    assert report.summary() == "thm16: 0 cases [FAILED: no case ran]"


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_all_suites_pass_at_small_scale(suite):
    report = run_suite(suite, GenConfig(seed=11), n_terms=15, n_oracles=4, extra_terms=corpus_terms())
    assert report.passed, report.failures[:3]
    assert report.cases > 0


ORIGINAL_TREE_INT = church.dialogue_tree_int
ORIGINAL_ENCODE = church.encode
ORACLE = Arrow(NAT, NAT)
TREE_NAT = church.church_type(NAT, NAT)
TREE_BAIRE = church.church_type(NAT, BAIRE_FN)


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


def _constant(ty, body):
    return lambda: Lam(ty, body)


def _constant_tree_int(term, motive):
    return ORIGINAL_TREE_INT(corpus_terms()[0], motive)  # always the constant term's tree


#: Per suite, a fault in one function that the suite checks: (module, name, replacement).
FAULTS = {
    "thm16": (dialogue, "dieval", _off_by_one(dialogue.dieval)),
    "lem36": (church, "dialogue_f_int", _constant(TREE_BAIRE, Lam(ORACLE, Zero()))),
    "thm37": (church, "dialogue_tree_int", _constant_tree_int),
    "lem40": (moduli, "max_question", _off_by_one(moduli.max_question)),
    "lem44": (church, "dialogue_tree_int", _constant_tree_int),
    "thm45": (moduli, "modulus_int", _constant(TREE_NAT, Lam(ORACLE, Zero()))),
    "lem50": (church, "encode", lambda tree, motive: ORIGINAL_ENCODE(Leaf(0), motive)),
    "lem54": (moduli, "max_bool_question", _off_by_one(moduli.max_bool_question)),
    "thm55": (moduli, "modulus_uni_int", _constant(TREE_NAT, Zero())),
}


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_suite_catches_a_fault(monkeypatch, suite):
    # the fault reaches one side of the suite's comparison only, so a check that
    # compared a view with itself would pass here and fail this test
    module, name, faulty = FAULTS[suite]
    monkeypatch.setattr(module, name, faulty)
    report = run_suite(suite, GenConfig(seed=5), n_terms=5, n_oracles=4, extra_terms=corpus_terms())
    assert not report.passed
    for failure in report.failures:
        assert failure.detail
        if suite != "lem36":
            assert infer(typecheck(parse(failure.term)), ()) == BAIRE_FN


def test_thm55_catches_a_modulus_its_sampled_prefixes_refute(monkeypatch):
    # the modulus is one short and the tree max one short to match, so the
    # first comparison passes and only the prefixes can catch the fault
    max_bool_question = moduli.max_bool_question
    monkeypatch.setattr(moduli, "modulus_uni_int", moduli.max_bool_question_int)
    monkeypatch.setattr(moduli, "max_bool_question", lambda tree: max_bool_question(tree) - 1)
    report = run_suite("thm55", GenConfig(seed=0), 30, 0, corpus_terms())
    assert report.failures
    assert all("not respected" in failure.detail for failure in report.failures)


def test_corrupted_translation_is_caught_with_shrunk_witness(monkeypatch):
    original = church.translate

    def corrupted(term, motive):
        if isinstance(term, Succ):
            return corrupted(term.arg, motive)  # drop successors
        if isinstance(term, App):
            return App(corrupted(term.fn, motive), corrupted(term.arg, motive))
        if isinstance(term, Lam):
            return Lam(church.translate_type(term.domain, motive), corrupted(term.body, motive))
        return original(term, motive)

    monkeypatch.setattr(church, "translate", corrupted)
    report = run_suite("thm37", GenConfig(seed=5), n_terms=20, n_oracles=5, extra_terms=corpus_terms())
    assert not report.passed
    witness = report.failures[0]
    assert witness.term is not None
    # the witness still fails and is small enough to read
    assert len(witness.term) < 200
    shrunk = typecheck(parse(witness.term))
    assert infer(shrunk, ()) == BAIRE_FN


def test_a_check_that_raises_fails_its_case_with_a_shrunk_witness(monkeypatch):
    original = church.translate

    def planted(term, motive):
        if "rec[" in pretty(term):
            raise IndexError("planted")
        return original(term, motive)

    monkeypatch.setattr(church, "translate", planted)
    report = run_suite("thm37", GenConfig(seed=5), n_terms=20, n_oracles=5, extra_terms=corpus_terms())
    assert not report.passed
    for failure in report.failures:
        assert failure.detail == "raised IndexError: planted"
        witness = typecheck(parse(failure.term))
        assert infer(witness, ()) == BAIRE_FN
        # each witness keeps the rec the raise needs, and no smaller candidate does
        assert "rec[" in failure.term
        assert all("rec[" not in pretty(c) for c in _shrink_candidates(witness))


def _plant_a_rec_step_fault(monkeypatch):
    """A fault in church._translate: each outer binder a rec step reads is off by one."""
    source = inspect.getsource(church._translate)
    assert source.count("depth + 2") == 1
    namespace = dict(vars(church))
    exec(source.replace("depth + 2", "depth + 3"), namespace)
    monkeypatch.setattr(church, "_translate", namespace["_translate"])


@pytest.mark.parametrize("seed", [0, 101])
def test_a_rec_step_translated_under_a_binder_too_many_fails_its_typecheck(monkeypatch, seed):
    # the set model runs such a translation without a complaint and often to
    # the right value: these 20 terms pass every value comparison
    _plant_a_rec_step_fault(monkeypatch)
    reports = run_suites({suite: (20, 2) for suite in SUITE_IDS}, GenConfig(seed=seed))
    assert {r.suite for r in reports if r.failures} == {"thm37", "lem44", "thm45", "lem54", "thm55"}
    for failure in (failure for r in reports for failure in r.failures):
        assert failure.detail.startswith("raised TypeCheckError: ")
        assert "rec[" in failure.term  # the shrunk witness keeps a rec


def test_an_internal_tree_of_the_other_motive_fails_its_typecheck(monkeypatch):
    # well typed, at the wrong type: the check compares types, not only infers one
    other = {NAT: BAIRE_FN, BAIRE_FN: NAT}
    monkeypatch.setattr(church, "dialogue_tree_int", lambda term, motive: ORIGINAL_TREE_INT(term, other[motive]))
    (report,) = run_suites({"thm37": (0, 1)}, GenConfig(seed=0), corpus_terms()[:1])
    assert [failure.detail.split(",")[0] for failure in report.failures] == [
        f"raised TypeCheckError: expected {format_ty(church.church_type(NAT, BAIRE_FN))}"
    ]


@pytest.mark.parametrize(
    "whole, smaller, shrinks",
    [
        (ValueError, KeyError, False),  # a raise of another class is another fault
        (ValueError, ValueError, True),
        (ValueError, "a mismatch", False),
        ("a mismatch", KeyError, False),
        ("a mismatch", "another mismatch", True),
    ],
)
def test_a_witness_shrinks_only_while_it_fails_the_same_way(monkeypatch, whole, smaller, shrinks):
    term = corpus_terms()[7]  # addrec

    def check(v, alpha):
        outcome = whole if v.term == term else smaller
        if isinstance(outcome, str):
            return outcome
        raise outcome("planted")

    monkeypatch.setitem(harness.SUITES, "thm16", (check, 500, 20))
    [failure] = run_suite("thm16", n_terms=0, n_oracles=1, extra_terms=[term]).failures
    assert failure.detail == (whole if isinstance(whole, str) else f"raised {whole.__name__}: planted")
    assert failure.term == pretty(canonical(BAIRE_FN) if shrinks else term)


def _counting_shrinks(monkeypatch) -> list:
    """The terms harness.shrink_term is called on, from now on."""
    shrunk = []
    monkeypatch.setattr(harness, "shrink_term", lambda term, fails: shrunk.append(term) or shrink_term(term, fails))
    return shrunk


def test_a_term_shrinks_once_per_suite_and_way_of_failing(monkeypatch):
    # the planted fault fails a term's internal tree at every oracle alike, so
    # its witness is shrunk at the first oracle and reported again at the others
    _plant_a_rec_step_fault(monkeypatch)
    shrunk = _counting_shrinks(monkeypatch)
    (report,) = run_suites({"thm37": (20, 5)}, GenConfig(seed=0))
    assert shrunk and len(report.failures) == 5 * len(shrunk)


def test_a_witness_is_reused_only_where_it_fails_the_same_way(monkeypatch):
    # the whole term fails at every oracle, by a raise at oracle 2; a smaller
    # term fails only at oracle 0
    term, oracles = corpus_terms()[7], harness._oracles(GenConfig(), 4)
    assert len(set(oracles)) == 4

    def check(v, alpha):
        k = oracles.index(alpha)
        if v.term == term and k == 2:
            raise ValueError("planted")
        return "a mismatch" if v.term == term or k == 0 else None

    monkeypatch.setitem(harness.SUITES, "thm16", (check, 500, 20))
    shrunk = _counting_shrinks(monkeypatch)
    failures = run_suite("thm16", n_terms=0, n_oracles=4, extra_terms=[term]).failures
    small, whole = pretty(canonical(BAIRE_FN)), pretty(term)
    assert [failure.term for failure in failures] == [small, whole, whole, whole]
    # at oracle 0; at 1, where oracle 0's witness passes; at 2, which raises; not at 3
    assert len(shrunk) == 3


def test_a_view_whose_build_raises_is_built_once_per_term_and_motive(monkeypatch):
    # every suite reading the internal tree fails at every oracle, yet each
    # input's two internal views are built once and their raise kept
    builds = Counter()

    def raising(term, motive):
        builds[id(term), motive] += 1
        raise ValueError("planted")

    monkeypatch.setattr(church, "dialogue_tree_int", raising)
    terms = corpus_terms()[:3]
    reports = run_suites({suite: (0, 3) for suite in SUITE_IDS}, GenConfig(seed=0), terms)
    assert {r.suite for r in reports if r.failures} == {"thm37", "lem44", "thm45", "lem54", "thm55"}
    inputs = {key: n for key, n in builds.items() if key[0] in map(id, terms)}
    assert inputs == {(id(t), motive): 1 for t in terms for motive in (NAT, BAIRE_FN)}


def test_a_kept_raise_is_raised_again_with_its_build_traceback(monkeypatch):
    monkeypatch.setattr(church, "dialogue_tree_int", lambda term, motive: [][0])
    views = harness._Views(corpus_terms()[0], 0)
    depths = []
    for _ in range(3):
        with pytest.raises(IndexError) as raised:
            views.internal
        depths.append(len(list(traceback.walk_tb(raised.value.__traceback__))))
    # a raise again adds only the frame that raises it again
    assert depths[2] == depths[1] == depths[0] + 1
    assert raised.value is views.raised["internal"][0]


def test_a_name_that_is_no_view_raises_attribute_error_and_is_not_kept(monkeypatch):
    views = harness._Views(corpus_terms()[0], 0)
    assert not hasattr(views, "valeu")
    with pytest.raises(AttributeError, match="no view 'valeu'"):
        views.valeu
    assert views.raised == {}
    # so a check that misspells a view fails every case it reads it in
    monkeypatch.setitem(harness.SUITES, "thm16", (lambda v, alpha: v.valeu(alpha), 500, 20))
    report = run_suite("thm16", n_terms=0, n_oracles=3, extra_terms=corpus_terms()[:2])
    assert [f.detail for f in report.failures] == ["raised AttributeError: no view 'valeu'"] * 6


def test_the_suites_shrinking_one_input_build_each_candidates_views_once(monkeypatch):
    # the five suites reading the internal tree fail a term whose translation
    # raises while it keeps a rec; each shrinks it, trying the same candidates
    builds = Counter()

    def planted(term, motive):
        builds[term, motive] += 1
        if "rec[" in pretty(term):
            raise ValueError("planted")
        return ORIGINAL_TREE_INT(term, motive)

    monkeypatch.setattr(church, "dialogue_tree_int", planted)
    shrunk = _counting_shrinks(monkeypatch)
    suites = ("thm37", "lem44", "thm45", "lem54", "thm55")
    reports = run_suites({suite: (0, 2) for suite in suites}, GenConfig(seed=0), corpus_terms()[7:8])
    assert [r.suite for r in reports if r.failures] == list(suites) and len(shrunk) == 5
    # more than the input's two views and one candidate's, and each built once
    assert len(builds) > 4 and set(builds.values()) == {1}


@pytest.mark.parametrize("whole", [RecursionError, ValueError])
def test_a_recursion_error_in_a_check_or_its_shrinking_propagates(monkeypatch, whole):
    # RecursionError measures the caller's stack, not the term, so it is no verdict
    term = corpus_terms()[7]

    def check(v, alpha):
        raise (whole if v.term == term else RecursionError)("planted")

    monkeypatch.setitem(harness.SUITES, "thm16", (check, 500, 20))
    with pytest.raises(RecursionError, match="planted"):
        run_suite("thm16", n_terms=0, n_oracles=1, extra_terms=[term])



@pytest.mark.parametrize("raised", [None, IndexError, RecursionError])
def test_lem36_encodes_each_tree_once_and_reports_what_its_check_raises(monkeypatch, raised):
    encoded = []

    def encode(tree, motive):
        encoded.append(tree)
        if raised is not None:
            raise raised("planted")
        return ORIGINAL_ENCODE(tree, motive)

    monkeypatch.setattr(church, "encode", encode)
    if raised is RecursionError:  # a limit of the caller's stack, so no verdict
        with pytest.raises(RecursionError, match="planted"):
            run_suite("lem36", GenConfig(seed=3), n_terms=4, n_oracles=5)
        return
    report = run_suite("lem36", GenConfig(seed=3), n_terms=4, n_oracles=5)
    assert report.cases == 20 and len(encoded) == 4
    if raised is None:
        assert report.passed
    else:  # a raise is kept, so each case raises it again, and fails
        assert [f.detail for f in report.failures] == ["raised IndexError: planted"] * 20
        assert all(f.term is None for f in report.failures)

def _planted_generic_fault(monkeypatch):
    from systemt.dialogue import Graft, gkleisli

    # the oracle argument asks index 0, whatever index it was given
    monkeypatch.setattr(
        dialogue, "generic", lambda tree: gkleisli(NAT, lambda n: Graft(lambda k: Branch(0, k)), tree)
    )


def test_corrupted_generic_is_caught(monkeypatch):
    _planted_generic_fault(monkeypatch)
    report = run_suite("thm16", GenConfig(seed=5), n_terms=20, n_oracles=5, extra_terms=corpus_terms())
    assert not report.passed


def test_corrupted_uniform_modulus_is_caught(monkeypatch):
    original = church.dialogue_tree_int

    def wrong(term, motive):
        return original(corpus_terms()[0], motive)  # always the constant term's tree

    monkeypatch.setattr(church, "dialogue_tree_int", wrong)
    report = run_suite("lem54", GenConfig(seed=5), n_terms=10, n_oracles=0, extra_terms=corpus_terms())
    assert not report.passed


def test_thm55_probes_each_term_at_its_own_points(monkeypatch):
    seen = {}
    original = harness._VIEWS["value"]  # compiles the term, once per input

    def recording(views):
        value = original(views)

        def at(alpha):
            seen.setdefault(views.term, []).append(alpha.spec())
            return value(alpha)

        return at

    monkeypatch.setitem(harness._VIEWS, "value", recording)
    report = run_suite("thm55", GenConfig(seed=5), n_terms=0, extra_terms=corpus_terms())
    assert report.passed
    terms = dict(zip((name for name, _ in CORPUS), corpus_terms()))
    const7, a0 = seen[terms["const7"]], seen[terms["a0"]]
    assert len(const7) == len(a0)  # the same uniform modulus, so as many probes
    assert const7 != a0


def _thm45_draws(monkeypatch, term):
    """Run thm45 on one term at 10 oracles; return the report and the agreeing oracles drawn."""
    draws = []
    original = harness.agreeing_oracle
    monkeypatch.setattr(harness, "agreeing_oracle", lambda *args: draws.append(args) or original(*args))
    return run_suite("thm45", GenConfig(seed=0), n_terms=0, n_oracles=10, extra_terms=[term]), draws


def test_thm45_decides_a_corpus_term_by_replay(monkeypatch):
    terms = dict(zip((name for name, _ in CORPUS), corpus_terms()))
    report, draws = _thm45_draws(monkeypatch, terms["a4"])
    assert (report.cases, report.replayed, report.failures, draws) == (10, 10, [], [])


def test_thm45_samples_a_dead_query(monkeypatch):
    # the set model asks index 9 for the discarded argument; the tree path asks
    # nothing and the modulus is 1, so the record cannot decide the case
    term = typecheck(parse("fun (a : nat -> nat) -> (fun (b : nat) -> 7) (a 9)"))
    report, draws = _thm45_draws(monkeypatch, term)
    assert (report.cases, report.replayed, report.failures) == (10, 0, [])
    assert len(draws) == 10 * 50 and {m for _, m, _ in draws} == {1}
    assert report.summary().startswith("thm45: 10 cases, ")


def test_thm45_catches_a_modulus_one_too_small(monkeypatch):
    # max question = modulus - 1: its runs ask an index at m, so they are sampled
    monkeypatch.setattr(moduli, "modulus_int", moduli.max_question_int)
    report = run_suite("thm45", GenConfig(seed=0), n_terms=30, n_oracles=5, extra_terms=corpus_terms())
    assert (report.cases, len(report.failures), report.replayed) == (200, 75, 125)
    assert all("not respected" in failure.detail for failure in report.failures)


def _one_pass_as_separate_runs():
    """The reports of one run_suites pass over all nine suites, each checked
    against a separate run_suite call at the same scale."""
    cfg = GenConfig(seed=7)
    scales = {suite: (3 + i % 3, 1 + i % 4) for i, suite in enumerate(SUITE_IDS)}
    together = run_suites(scales, cfg, corpus_terms())
    apart = [run_suite(suite, cfg, *scales[suite], extra_terms=corpus_terms()) for suite in SUITE_IDS]
    assert [r.suite for r in together] == list(SUITE_IDS)
    for one, alone in zip(together, apart):
        assert (one.suite, one.cases, one.replayed, one.failures) == (
            alone.suite, alone.cases, alone.replayed, alone.failures
        )
    return together


@pytest.mark.parametrize("faulty", [False, True])
def test_one_pass_reports_what_separate_runs_report(monkeypatch, faulty):
    if faulty:
        _planted_generic_fault(monkeypatch)
    assert any(r.failures for r in _one_pass_as_separate_runs()) == faulty


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_one_pass_reports_what_separate_runs_report_under_each_planted_fault(monkeypatch, suite):
    monkeypatch.setattr(*FAULTS[suite])
    failed = {r.suite: r.failures for r in _one_pass_as_separate_runs() if r.failures}
    assert suite in failed
    assert all(failure.term is None for failure in failed.get("lem36", ()))  # a tree has no term


def test_run_suites_takes_a_deep_generated_term_at_the_default_recursion_limit():
    # generated term 140 of seed 101 is among the deepest the default run
    # draws: its internal modulus needed a limit of 1004 while the shared
    # constants ran as closures, so run_suites raised outside cli's worker
    term = gen_term(GenConfig(seed=harness._mix(101, 140)), BAIRE_FN)
    scales = {suite: (0, oracles) for suite, (_, _, oracles) in harness.SUITES.items() if suite != "lem36"}
    reports = on_a_fresh_thread_at_the_default_limit(lambda: run_suites(scales, GenConfig(seed=101), [term]))
    assert [r.suite for r in reports] == list(scales)
    assert all(r.passed and r.cases == max(1, scales[r.suite][1]) for r in reports)


def test_one_pass_builds_each_view_once_per_term(monkeypatch):
    calls = Counter()
    tree, tree_int = dialogue.dialogue_tree, church.dialogue_tree_int
    monkeypatch.setattr(dialogue, "dialogue_tree", lambda t: calls.update([("tree", id(t))]) or tree(t))
    monkeypatch.setattr(
        church, "dialogue_tree_int", lambda t, m: calls.update([(m, id(t))]) or tree_int(t, m)
    )
    run_suites({suite: (4, 2) for suite in SUITE_IDS}, GenConfig(seed=3), corpus_terms())
    n = len(corpus_terms()) + 4
    assert set(calls.values()) == {1}
    assert Counter(kind for kind, _ in calls) == {"tree": n, NAT: n, BAIRE_FN: n}


def test_one_terms_three_tree_views_walk_its_types_once(monkeypatch):
    # the tree, internal and internal_dialogue views each check the term's type;
    # the first records it on the term, and the other two find it there
    from systemt import syntax

    term, roots = parse(CORPUS[-1][1]), []
    infer = syntax._infer
    monkeypatch.setattr(syntax, "_infer", lambda t, ctx: roots.append(t is term) or infer(t, ctx))
    reports = run_suites({"thm16": (0, 1), "thm37": (0, 1), "lem44": (0, 1)}, GenConfig(seed=3), [term])
    assert all(r.passed and r.cases == 1 for r in reports)
    assert roots.count(True) == 1


def test_one_pass_gives_each_suite_its_own_scale(monkeypatch):
    encoded = []  # lem36 encodes each of its trees once, at motive BAIRE_FN
    monkeypatch.setattr(
        church, "encode", lambda tree, m: (m == BAIRE_FN and encoded.append(tree)) or ORIGINAL_ENCODE(tree, m)
    )
    scales = {"thm45": (0, 1), "lem36": (4, 3), "thm16": (3, 2), "lem50": (5, 0)}
    reports = run_suites(scales, GenConfig(seed=2), corpus_terms())
    n = len(corpus_terms())
    assert [(r.suite, r.cases) for r in reports] == [
        ("thm45", n), ("lem36", 12), ("thm16", (n + 3) * 2), ("lem50", n + 5)
    ]
    assert all(r.passed for r in reports)
    # lem36's input i is the tree drawn from input i's seed, not term i's tree
    drawn = [gen_tree(GenConfig(seed=harness._mix(2, i))) for i in range(4)]
    assert [tree_sexpr(t, 4, 8) for t in encoded] == [tree_sexpr(t, 4, 8) for t in drawn]


@pytest.mark.parametrize("suite", ["lem50", "lem54", "thm55"])
def test_a_whole_tree_suite_runs_one_case_per_term_whatever_its_oracle_count(monkeypatch, suite):
    # the rule is the default's: an override of 4 oracles still checks each tree
    # once, and draws no oracle it would not use
    drawn = []
    monkeypatch.setattr(harness, "gen_oracle", drawn.append)
    (report,) = run_suites({suite: (3, 4)}, GenConfig(seed=5))
    assert (report.cases, report.passed, drawn) == (3, True, [])


def test_a_seeds_oracles_are_drawn_once_per_process(monkeypatch):
    seen, drawn = [], []
    monkeypatch.setitem(harness.SUITES, "thm16", (lambda v, alpha: seen.append(alpha), 500, 20))
    monkeypatch.setattr(harness, "gen_oracle", lambda cfg: drawn.append(cfg) or gen_oracle(cfg))
    harness._oracles.cache_clear()
    first = run_suite("thm16", GenConfig(seed=7), n_terms=1, n_oracles=3)
    assert (first.cases, len(drawn)) == (3, 3)
    second = run_suite("thm16", GenConfig(seed=7), n_terms=1, n_oracles=3)
    assert (second.cases, len(drawn)) == (3, 3)  # the second call draws none
    assert seen == [gen_oracle(GenConfig(seed=harness._mix(7, 7919 + i))) for i in range(3)] * 2


def test_run_suites_rejects_unknown_id():
    with pytest.raises(ValueError, match="thm99"):
        run_suites({"thm16": (1, 1), "thm99": (1, 1)})


# -- shrinking --------------------------------------------------------------------


def test_shrink_reaches_a_locally_minimal_witness():
    big = typecheck(
        parse(
            "fun (a : nat -> nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r)"
            " (a (succ (a 3))) (a 2)"
        )
    )

    def fails_if_queries(t):  # pretend any term whose tree queries something fails
        d = dialogue.dialogue_tree(t)
        return isinstance(d, Branch)

    small = shrink_term(big, fails_if_queries)
    assert fails_if_queries(small)
    # no single canonical replacement keeps the failure: the greedy loop is done
    candidates = list(_shrink_candidates(small))
    assert candidates
    for candidate in candidates:
        assert infer(candidate) == BAIRE_FN
        assert not fails_if_queries(candidate)
    # one candidate per non-canonical subterm, outermost first, in pre-order
    t = typecheck(parse("fun (a : nat -> nat) -> a (succ 1)"))
    assert [pretty(c) for c in _shrink_candidates(t)] == [
        "fun (a : nat -> nat) -> zero",  # the whole term
        "fun (a : nat -> nat) -> zero",  # the body
        "fun (a : nat -> nat) -> (fun (b : nat) -> zero) 2",  # the head a
        "fun (a : nat -> nat) -> a zero",  # succ 1
        "fun (a : nat -> nat) -> a 1",  # 1; its zero is canonical already
    ]


def test_shrink_keeps_term_well_typed():
    t = corpus_terms()[5]
    small = shrink_term(t, lambda _: True)  # everything "fails": shrinks to canonical
    assert infer(small, ()) == BAIRE_FN
    assert small == canonical(BAIRE_FN)


# -- hee_check --------------------------------------------------------------------


def test_hee_check_ground():
    assert hee_check(NAT, NatV(3), NatV(3))
    assert not hee_check(NAT, NatV(3), NatV(4))


def test_hee_check_first_order_functions():
    ident = eval_set(typecheck(parse("fun (x : nat) -> x")))
    via_rec = eval_set(
        typecheck(parse("fun (x : nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r) x zero"))
    )
    succ = eval_set(typecheck(parse("fun (x : nat) -> succ x")))
    assert hee_check(Arrow(NAT, NAT), ident, via_rec, samples=50, seed=3)
    assert not hee_check(Arrow(NAT, NAT), ident, succ, samples=50, seed=3)


def test_hee_check_symmetric_with_same_seed():
    f = eval_set(typecheck(parse("fun (x : nat) -> succ x")))
    g = eval_set(typecheck(parse("fun (x : nat) -> succ (succ x)")))
    assert hee_check(Arrow(NAT, NAT), f, g, seed=9) == hee_check(Arrow(NAT, NAT), g, f, seed=9)


def test_hee_check_rejects_other_shapes():
    v = eval_set(typecheck(parse("fun (g : nat -> nat) -> g 1")))
    with pytest.raises(ValueError):
        hee_check(Arrow(Arrow(NAT, NAT), NAT), v, v)
