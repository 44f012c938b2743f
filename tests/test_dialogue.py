import gc
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cost import count
from extensional import as_tree, functor_map, generic as reference_generic, graft_of, kleisli
from systemt.dialogue import (
    BAIRE_FN,
    Branch,
    Graft,
    Leaf,
    Oracle,
    TypeMismatch,
    dialogue_tree,
    TREE_MODEL,
    dieval,
    generic,
    gkleisli,
    tree_sexpr,
)
from systemt.harness import GenConfig, gen_oracle, gen_term, gen_tree
from systemt.set_model import SET_MODEL, apply_set, compile_term, eval_set, lift_oracle
from systemt.syntax import NAT, App, Arrow, Lam, Rec, Succ, Var, Zero, numeral, parse, typecheck

identity = lambda i: i


def term(src):
    return typecheck(parse(src))


ORACLES = [Oracle((), 0), Oracle((5, 6, 7), 1), Oracle((0, 2, 4, 6), 3), Oracle((9,), 2)]

# hypothesis strategy for finite trees with total children functions
_leaves = st.integers(0, 20).map(Leaf)


def _branch(children):
    def build(args):
        query, kids = args

        def child(a, kids=kids):
            return kids[a] if isinstance(a, int) and a < len(kids) - 1 else kids[-1]

        return Branch(query, child)

    return st.tuples(st.integers(0, 20), st.lists(children, min_size=2, max_size=3)).map(build)


trees = st.recursive(_leaves, _branch, max_leaves=8)


# -- oracles ------------------------------------------------------------------


def test_oracle_lookup_and_equality():
    alpha = Oracle((5, 6, 7), 1)
    assert [alpha(i) for i in range(5)] == [5, 6, 7, 1, 1]
    # trailing defaults are canonicalized away, so equality is extensional
    assert Oracle((5, 1, 1), 1) == Oracle((5,), 1)
    assert Oracle((5,), 1) != Oracle((5,), 2)


@given(st.lists(st.integers(0, 10), max_size=6), st.integers(0, 10))
def test_oracle_spec_roundtrip(prefix, default):
    alpha = Oracle(tuple(prefix), default)
    assert Oracle.from_spec(alpha.spec()) == alpha


def test_oracle_spec_errors():
    with pytest.raises(ValueError):
        Oracle.from_spec("1,2,3")
    with pytest.raises(ValueError):
        Oracle.from_spec("a;default=0")
    # an empty entry is an error, not dropped: later entries must not shift
    for text in ["1,,2;default=0", ",7;default=0"]:
        with pytest.raises(ValueError, match="bad oracle spec"):
            Oracle.from_spec(text)


def test_oracle_rejects_negative_values():
    with pytest.raises(ValueError):
        Oracle((1, -2), 0)
    with pytest.raises(ValueError):
        Oracle((), -1)
    with pytest.raises(ValueError):
        Oracle.from_spec("default=-1")


def test_oracle_strips_a_long_run_of_defaults_in_linear_time():
    # one copy per entry dropped would take about 20 minutes here; an --oracle
    # spec of 100,000 entries fits one command-line argument
    code = (
        "from systemt.dialogue import Oracle\n"
        "assert Oracle((5,) * 10**6, 5).prefix == ()\n"
        "assert Oracle.from_spec(','.join(['5'] * 100_000) + ';default=5').prefix == ()\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stderr) == (0, "")


# -- dieval ---------------------------------------------------------------


def test_dieval_leaf():
    for alpha in ORACLES:
        assert dieval(Leaf(7), alpha) == 7


def test_dieval_single_branch():
    assert dieval(Branch(3, lambda y: Leaf(y)), identity) == 3


def test_dieval_two_branches():
    d = Branch(2, lambda y: Branch(y, lambda z: Leaf(z)))
    assert dieval(d, identity) == 2
    assert dieval(d, Oracle((0, 0, 5), 1)) == 1  # alpha(2)=5 then alpha(5)=1


# -- kleisli / functor laws, observed through dieval ---------------------------


@settings(max_examples=60)
@given(trees, st.integers(0, 3))
def test_kleisli_dieval_decomposition(d, salt):
    fn = lambda n: Branch(n + salt, lambda y: Leaf(y + n))
    for alpha in ORACLES:
        assert dieval(kleisli(fn, d), alpha) == dieval(fn(dieval(d, alpha)), alpha)


@settings(max_examples=40)
@given(trees)
def test_kleisli_units(d):
    for alpha in ORACLES:
        assert dieval(kleisli(Leaf, d), alpha) == dieval(d, alpha)
        assert dieval(kleisli(lambda n: Leaf(n + 2), Leaf(4)), alpha) == 6


@settings(max_examples=40)
@given(trees)
def test_kleisli_associativity(d):
    f = lambda n: Branch(n, lambda y: Leaf(y + 1))
    g = lambda n: Leaf(2 * n)
    lhs = kleisli(g, kleisli(f, d))
    rhs = kleisli(lambda n: kleisli(g, f(n)), d)
    for alpha in ORACLES:
        assert dieval(lhs, alpha) == dieval(rhs, alpha)


@settings(max_examples=40)
@given(trees)
def test_functor_map_dieval(d):
    g = lambda n: 3 * n + 1
    for alpha in ORACLES:
        assert dieval(functor_map(g, d), alpha) == g(dieval(d, alpha))
        assert dieval(functor_map(identity, d), alpha) == dieval(d, alpha)


def test_functor_map_leaf():
    assert functor_map(lambda n: n + 1, Leaf(0)) == Leaf(1)


# -- generalized kleisli on the tree model's Church-encoded naturals ------------


def test_gkleisli_ground_delegates_to_kleisli():
    fn = lambda n: n + 3
    assert as_tree(gkleisli(NAT, fn, 5)) == Leaf(8)


def test_gkleisli_unit_at_ground():
    assert as_tree(gkleisli(NAT, lambda n: n, 5)) == Leaf(5)


def test_gkleisli_arrow_applies_pointwise():
    # at nat -> nat over a leaf, grafting just applies the function at the leaf
    fn = lambda n: lambda s: gkleisli(NAT, lambda m: m + n, s)
    out = gkleisli(Arrow(NAT, NAT), fn, 5)
    probe = 10
    assert dieval(as_tree(out(probe)), identity) == dieval(as_tree(fn(5)(probe)), identity) == 15


def test_gkleisli_applies_fn_once_to_an_int_at_a_function_type():
    # KE f (eta n) = f n: no graft, so fn runs once however often its result is applied
    calls = []
    fn = lambda n: calls.append(n) or (lambda s: gkleisli(NAT, lambda m: m + n, s))
    out = gkleisli(Arrow(NAT, NAT), fn, 5)
    assert [out(s) for s in range(4)] == [5, 6, 7, 8]
    assert calls == [5]


def test_gkleisli_grafts_as_the_reference_kleisli_on_generated_trees():
    graft = lambda n: Branch(n % 4, lambda y: Leaf(y + n))
    for seed in range(20):
        d = gen_tree(GenConfig(seed=seed))
        got = as_tree(gkleisli(NAT, lambda n: graft_of(graft(n)), graft_of(d)))
        want = kleisli(graft, d)
        for alpha in ORACLES + [gen_oracle(GenConfig(seed=seed + 1))]:
            assert dieval(got, alpha) == dieval(want, alpha), f"seed {seed} oracle {alpha.spec()}"


def test_adding_to_a_graft_maps_the_reference_functor_on_generated_trees():
    for seed in range(20):
        d = gen_tree(GenConfig(seed=seed))
        for k in (1, 3):
            got = as_tree(graft_of(d) + k)
            want = functor_map(lambda n: n + k, d)
            for alpha in ORACLES + [gen_oracle(GenConfig(seed=seed + 1))]:
                assert dieval(got, alpha) == dieval(want, alpha), f"seed {seed} k {k} oracle {alpha.spec()}"


# -- term evaluation ------------------------------------------------------------


def test_eval_dial_zero_and_numerals():
    assert as_tree(compile_term(term("zero"), TREE_MODEL)(())) == Leaf(0)
    assert as_tree(compile_term(numeral(3), TREE_MODEL)(())) == Leaf(3)


def test_a_natural_that_asks_nothing_is_a_plain_int():
    assert type(compile_term(numeral(3), TREE_MODEL)(())) is int
    pure_rec = term("rec[nat] (fun (n : nat) -> fun (m : nat) -> succ m) zero 2")
    assert type(compile_term(pure_rec, TREE_MODEL)(())) is int
    assert Graft.__slots__ == ("run",)
    # a model is one plain function, the recursor's bind
    assert all(inspect.isfunction(model) for model in (SET_MODEL, TREE_MODEL))
    # a natural that asks adds with +, and is still not callable
    asks = generic(0)
    assert isinstance(asks + 2, Graft) and not callable(asks) and not callable(asks + 2)


def test_eval_dial_pure_rec():
    out = compile_term(term("rec[nat] (fun (n : nat) -> fun (m : nat) -> succ m) zero 2"), TREE_MODEL)(())
    assert as_tree(out) == Leaf(2)


def test_eval_dial_deep_numeral():
    assert as_tree(compile_term(numeral(3000), TREE_MODEL)(())) == Leaf(3000)


# -- differential check of the staged tree model -------------------------------


def reference_dial(term, env=()):
    """Plain structural interpreter of the tree model on inductive trees: no
    compilation, no recursor shortcuts, no Church encoding."""
    if isinstance(term, Var):
        return env[term.index]
    if isinstance(term, Zero):
        return Leaf(0)
    if isinstance(term, Succ):
        return functor_map(lambda n: n + 1, reference_dial(term.arg, env))
    if isinstance(term, Lam):
        return lambda v: reference_dial(term.body, (v,) + env)
    if isinstance(term, App):
        return reference_dial(term.fn, env)(reference_dial(term.arg, env))
    if isinstance(term, Rec):
        stepv = reference_dial(term.step, env)
        basev = reference_dial(term.base, env)
        argv = reference_dial(term.arg, env)

        def iterate(n):
            acc = basev
            for k in range(n):
                acc = stepv(Leaf(k))(acc)
            return acc

        return _reference_gkleisli(term.motive, iterate, argv)
    raise TypeError(term)


def _reference_gkleisli(ty, fn, tree):
    if ty == NAT:
        return kleisli(fn, tree)
    return lambda s: _reference_gkleisli(ty.codomain, lambda n: fn(n)(s), tree)


def _reference_tree(t):
    return reference_dial(t)(reference_generic)


def test_tree_model_matches_reference_on_generated_terms():
    for seed in range(60):
        t = gen_term(GenConfig(seed=seed), BAIRE_FN)
        got, want = dialogue_tree(t), _reference_tree(t)
        for alpha in ORACLES + [gen_oracle(GenConfig(seed=seed + 1))]:
            assert dieval(got, alpha) == dieval(want, alpha), f"seed {seed} oracle {alpha.spec()}"


@pytest.mark.parametrize(
    "src, expect",
    [
        # the step ignores the recursive result, so the staged model skips to the last step
        ("fun (n : nat) -> rec[nat] (fun (p : nat) -> fun (q : nat) -> p) zero n", lambda n: max(0, n - 1)),
        # the step reads both the index and the result: the uncurried loop
        (
            "fun (n : nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) ->"
            " rec[nat] (fun (j : nat) -> fun (s : nat) -> succ s) r i) zero n",
            lambda n: n * (n - 1) // 2,
        ),
    ],
    ids=["drops-result", "reads-result"],
)
def test_tree_model_recursor_fast_paths_match_reference(src, expect):
    fn = term(src)
    staged, ref = compile_term(fn, TREE_MODEL)(()), reference_dial(fn)
    args = [Leaf(n) for n in [0, 1, 2, 17, 400]] + [reference_generic(Leaf(3))]
    for arg in args:
        got, want = as_tree(staged(graft_of(arg))), ref(arg)
        for alpha in ORACLES:
            assert dieval(got, alpha) == dieval(want, alpha) == expect(dieval(arg, alpha))


# -- generic sequence ------------------------------------------------------------


def test_generic_on_leaf():
    g = as_tree(generic(2))
    assert isinstance(g, Branch) and g.query == 2
    assert g.children(9) == Leaf(9)
    assert dieval(g, identity) == 2


@settings(max_examples=100)
@given(trees, st.integers(0, 3))
def test_generic_commuting_square(d, idx):
    alpha = ORACLES[idx]
    assert dieval(as_tree(generic(graft_of(d))), alpha) == alpha(dieval(d, alpha))


# -- dialogue_tree -----------------------------------------------------------------


def test_dialogue_tree_constant():
    assert dialogue_tree(term("fun (a : nat -> nat) -> 7")) == Leaf(7)


def test_dialogue_tree_single_query():
    d = dialogue_tree(term("fun (a : nat -> nat) -> a 2"))
    assert isinstance(d, Branch) and d.query == 2
    assert d.children(5) == Leaf(5)


def test_dialogue_tree_nested_queries():
    d = dialogue_tree(term("fun (a : nat -> nat) -> a (a 2)"))
    assert d.query == 2
    inner = d.children(6)
    assert isinstance(inner, Branch) and inner.query == 6
    assert inner.children(1) == Leaf(1)
    assert dieval(d, identity) == 2


def test_dialogue_tree_rejects_other_types():
    with pytest.raises(TypeMismatch):
        dialogue_tree(term("fun (x : nat) -> x"))


def test_correctness_on_sampled_oracles():
    for src in [
        "fun (a : nat -> nat) -> a (a 2)",
        "fun (a : nat -> nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> a r) 3 (a 0)",
    ]:
        t = term(src)
        tv = eval_set(t)
        d = dialogue_tree(t)
        for seed in range(10):
            alpha = gen_oracle(GenConfig(seed=seed))
            assert apply_set(tv, lift_oracle(alpha)).value == dieval(d, alpha)


# -- nested queries cost linear time -----------------------------------------------


def _query_chain(depth):
    """fun (a : nat -> nat) -> a (a (... a 0)), built as a term, not parsed."""
    body = Zero()
    for _ in range(depth):
        body = App(Var(0), body)
    return Lam(Arrow(NAT, NAT), body)


def _calls_to_run(term):
    """Python calls made by dialogue_tree and dieval on term: deterministic, unlike a clock."""
    return count(lambda: dieval(dialogue_tree(term), Oracle((), 0)))[0]["calls"]


def test_nested_queries_cost_linear_calls():
    # a bind that re-walks the tree it grafts onto makes this ratio about 4
    small, large = _calls_to_run(_query_chain(200)), _calls_to_run(_query_chain(400))
    assert large / small <= 2.2


# -- well-foundedness and printing ------------------------------------------------


def test_generated_trees_reach_leaves():
    for seed in range(20):
        d = gen_tree(GenConfig(seed=seed))
        stack = [(d, 0)]
        while stack:
            t, depth = stack.pop()
            assert depth <= 16
            if isinstance(t, Branch):
                stack.extend((t.children(a), depth + 1) for a in range(3))


def test_tree_sexpr_shapes():
    assert tree_sexpr(Leaf(5), answers=2, depth=64) == "(leaf 5)"
    d = Branch(4, lambda y: Leaf(y))
    assert tree_sexpr(d, answers=2, depth=64) == "(branch 4 (0 (leaf 0)) (1 (leaf 1)))"
    assert tree_sexpr(d, answers=2, depth=0) == "(...)"
    deep = Branch(1, lambda y: Branch(2, lambda z: Leaf(z)))
    assert tree_sexpr(deep, answers=1, depth=1) == "(branch 1 (0 (...)))"


def test_tree_sexpr_leaves_no_reference_cycle():
    tree = Branch(4, lambda y: Branch(y, Leaf))
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            tree_sexpr(tree, answers=2, depth=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_sexpr_refuses_a_print_past_its_node_budget(monkeypatch):
    from systemt import dialogue

    endless = Branch(0, lambda a: endless)
    monkeypatch.setattr(dialogue, "PRINT_NODES", 3)
    # depth 2 over one answer prints two branches and the (...) marker
    assert tree_sexpr(endless, answers=1, depth=2) == "(branch 0 (0 (branch 0 (0 (...)))))"
    with pytest.raises(ValueError, match="more than 3 nodes to print"):
        tree_sexpr(endless, answers=1, depth=3)
    monkeypatch.undo()
    # a full binary tree cut at depth 15 prints 2^16 - 1 nodes, at depth 16 twice as many
    assert tree_sexpr(endless, answers=2, depth=15).count("(branch 0") == 2**15 - 1
    with pytest.raises(ValueError, match=f"more than {2**16} nodes to print"):
        tree_sexpr(endless, answers=2, depth=16)
