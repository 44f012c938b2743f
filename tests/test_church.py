import random
import sys
import threading
from pathlib import Path

import pytest

from systemt.church import (
    branch_int,
    church_type,
    closed,
    dialogue_f_int,
    dialogue_tree_int,
    encode,
    functor_int,
    generic_int,
    gkleisli_int,
    kleisli_int,
    leaf_int,
    translate,
    translate_type,
)
from systemt.dialogue import (
    BAIRE_FN,
    Branch,
    Leaf,
    Oracle,
    TypeMismatch,
    dialogue_tree,
    dieval,
    gkleisli,
)
from systemt.harness import GenConfig, gen_oracle, gen_term, gen_tree
from systemt.moduli import max_bool_question_int, max_question_int, max_term, modulus_int, modulus_uni_int
from systemt.set_model import NatV, apply_set, eval_set, lift_oracle, natv
from systemt.syntax import (
    NAT,
    App,
    Arrow,
    Lam,
    Rec,
    Succ,
    TypeCheckError,
    UnboundVariable,
    Var,
    Zero,
    arrow,
    format_ty,
    infer,
    numeral,
    parse,
    pretty,
    typecheck,
)

from extensional import as_tree, functor_map, graft_of, handler_battery, kleisli, values_agree
from test_syntax import shift

MOTIVES = [NAT, Arrow(NAT, NAT), BAIRE_FN]
CONSTANTS_GOLDEN = Path(__file__).resolve().parent / "golden" / "constants.golden"


def term(src):
    return typecheck(parse(src))


def ev(src):
    return eval_set(term(src))


# -- types ---------------------------------------------------------------------


def test_church_type_at_nat_motive():
    want = term_ty("(nat -> nat) -> ((nat -> nat) -> nat -> nat) -> nat")
    assert church_type(NAT, NAT) == want


def test_church_type_substitutes_motive():
    got = church_type(NAT, BAIRE_FN)
    a = BAIRE_FN
    assert got == arrow(Arrow(NAT, a), Arrow(arrow(Arrow(NAT, a), NAT, a), a))


def test_church_type_substitutes_leaf_type():
    got = church_type(Arrow(NAT, NAT), NAT)
    assert got == arrow(
        Arrow(Arrow(NAT, NAT), NAT),
        Arrow(arrow(Arrow(NAT, NAT), NAT, NAT), NAT),
    )


def term_ty(src):
    # parse a type by typechecking a lambda with that domain
    return typecheck(parse(f"fun (x : {src}) -> zero")).domain


# -- constructors and monad terms ------------------------------------------------


@pytest.mark.parametrize("motive", MOTIVES)
def test_constructor_types(motive):
    tree = church_type(NAT, motive)
    assert infer(leaf_int(motive)) == Arrow(NAT, tree)
    assert infer(branch_int(motive)) == arrow(Arrow(NAT, tree), NAT, tree)
    assert infer(kleisli_int(motive)) == arrow(Arrow(NAT, tree), tree, tree)
    assert infer(functor_int(motive)) == arrow(Arrow(NAT, NAT), tree, tree)
    assert infer(generic_int(motive)) == Arrow(tree, tree)


def test_leaf_fold_applies_leaf_handler():
    folded = apply_set(eval_set(leaf_int(NAT)), natv(4))
    idh = ev("fun (z : nat) -> z")
    bh = ev("fun (g : nat -> nat) -> fun (x : nat) -> g x")
    assert apply_set(apply_set(folded, idh), bh) == NatV(4)


@pytest.mark.parametrize("motive", MOTIVES)
def test_gkleisli_base_is_kleisli(motive):
    assert gkleisli_int(NAT, motive) == kleisli_int(motive)


def test_gkleisli_arrow_type():
    got = infer(gkleisli_int(Arrow(NAT, NAT), NAT))
    want = arrow(
        Arrow(NAT, translate_type(Arrow(NAT, NAT), NAT)),
        church_type(NAT, NAT),
        translate_type(Arrow(NAT, NAT), NAT),
    )
    assert got == want


def test_gkleisli_int_matches_external_through_encode():
    # graft n |-> (\x. x + n) over a small tree, then probe both routes
    rng = random.Random(0)
    d = Branch(1, lambda y: Leaf(y + 2))
    g = gkleisli_int(Arrow(NAT, NAT), NAT)
    fn_term = term(
        "fun (n : nat) -> fun (d : (nat -> nat) -> ((nat -> nat) -> nat -> nat) -> nat) ->"
        " fun (e : nat -> nat) -> fun (b : (nat -> nat) -> nat -> nat) -> d (fun (x : nat) ->"
        " e (rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r) x n)) b"
    )
    internal = apply_set(apply_set(eval_set(g), eval_set(fn_term)), encode(d, NAT))

    external = gkleisli(
        Arrow(NAT, NAT),
        lambda n: lambda s: gkleisli(NAT, lambda x: x + n, s),
        graft_of(d),
    )
    probe_tree = Branch(0, lambda y: Leaf(y))
    ext_tree = as_tree(external(graft_of(probe_tree)))
    int_val = apply_set(internal, encode(probe_tree, NAT))
    for alpha in [Oracle((3, 1), 0), Oracle((), 2)]:
        want = dieval(ext_tree, alpha)
        got = _observe_nat_tree(int_val, alpha)
        assert want == got


def _observe_nat_tree(value, alpha):
    """Fold an encoded nat-motive tree with handlers that run the dialogue."""
    idh = lambda v: v
    run = lambda g: lambda x: g(alpha(x))
    return apply_set(apply_set(value, idh), run).value


# -- the term translation -----------------------------------------------------


def test_translate_zero_shape():
    assert translate(term("zero"), NAT) == App(leaf_int(NAT), term("zero"))
    assert infer(translate(term("zero"), NAT)) == church_type(NAT, NAT)


def test_translate_numeral_folds_to_its_value():
    folded = eval_set(translate(numeral(2), NAT))
    idh = ev("fun (z : nat) -> z")
    bh = ev("fun (g : nat -> nat) -> fun (x : nat) -> g x")
    assert apply_set(apply_set(folded, idh), bh) == NatV(2)


def on_a_fresh_thread_at_the_default_limit(fn):
    """fn's outcome, run on a new thread at Python's default recursion limit."""
    out, limit = [], sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        thread = threading.Thread(target=lambda: out.append(fn()))
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setrecursionlimit(limit)
    assert len(out) == 1  # the thread raised if it is empty
    return out[0]


def test_translate_takes_a_deep_numeral_at_the_default_recursion_limit():
    t = term("fun (a : nat -> nat) -> 1500")
    translated = on_a_fresh_thread_at_the_default_limit(lambda: translate(t, NAT))
    zero, succ = translate(numeral(0), NAT), translate(numeral(1), NAT).fn
    body, n = translated.body, 0
    while isinstance(body, App) and body.fn == succ:
        body, n = body.arg, n + 1
    assert (n, body) == (1500, zero)


def successors_around_a_query(n):
    """fun (a : nat -> nat) -> succ^n (a 0), built directly: parse stops at 330 nested succ."""
    body = App(Var(0), Zero())
    for _ in range(n):
        body = Succ(body)
    return Lam(Arrow(NAT, NAT), body)


@pytest.mark.parametrize(
    "build, want",
    [
        # asks 0, 1, ..., 239 of a i = i + 1
        (lambda: term("fun (a : nat -> nat) -> " + "a (" * 240 + "0" + ")" * 240), 240),
        (lambda: successors_around_a_query(480), 1),
    ],
    ids=["240 nested queries", "480 successors"],
)
def test_internal_modulus_takes_deep_terms_at_the_default_recursion_limit(build, want):
    # the paper's route, through System T and the set model; the shared
    # constants run as native lambdas with their value redexes reduced, so a
    # nested query costs few frames
    def internal_modulus():
        t = build()  # here, as pytest's own frames would tip a deep parse over
        return apply_set(apply_set(eval_set(modulus_int()), eval_set(dialogue_tree_int(t, NAT))), lambda i: i + 1)

    assert on_a_fresh_thread_at_the_default_limit(internal_modulus) == NatV(want)


@pytest.mark.parametrize("motive", MOTIVES)
def test_translate_preserves_type_translation(motive):
    sources = [
        "fun (a : nat -> nat) -> a (a 2)",
        "fun (a : nat -> nat) -> rec[nat] (fun (n : nat) -> fun (m : nat) -> a m) (a 0) (a 1)",
        "fun (a : nat -> nat) -> rec[nat -> nat]"
        " (fun (n : nat) -> fun (g : nat -> nat) -> fun (x : nat) -> a (g x))"
        " (fun (x : nat) -> x) 2 7",
    ]
    for src in sources:
        t = term(src)
        assert infer(translate(t, motive)) == translate_type(infer(t), motive)
    for seed in range(25):
        t = gen_term(GenConfig(seed=seed), BAIRE_FN)
        assert infer(translate(t, motive)) == translate_type(BAIRE_FN, motive)


def reference_translate(t, motive):
    """The two-pass translation: translate the recursor's step and base, then
    shift them under the two and one binders the eta-expansion adds."""
    if isinstance(t, Var):
        return t
    if isinstance(t, Zero):
        return App(leaf_int(motive), Zero())
    if isinstance(t, Succ):
        return App(App(functor_int(motive), Lam(NAT, Succ(Var(0)))), reference_translate(t.arg, motive))
    if isinstance(t, Rec):
        step = Lam(NAT, App(shift(reference_translate(t.step, motive), 2), App(leaf_int(motive), Var(0))))
        rec_fn = Lam(
            NAT,
            Rec(
                translate_type(t.motive, motive),
                step,
                shift(reference_translate(t.base, motive), 1),
                Var(0),
            ),
        )
        return App(App(gkleisli_int(t.motive, motive), rec_fn), reference_translate(t.arg, motive))
    if isinstance(t, Lam):
        return Lam(translate_type(t.domain, motive), reference_translate(t.body, motive))
    return App(reference_translate(t.fn, motive), reference_translate(t.arg, motive))


OPEN_CONTEXTS = [(NAT, Arrow(NAT, NAT)), (Arrow(NAT, NAT), NAT, NAT)]


@pytest.mark.parametrize("motive", [NAT, BAIRE_FN])
def test_translate_matches_two_pass_reference(motive):
    """The one-pass renaming gives exactly the shifted two-pass output, on
    closed terms and on open terms whose free indices the shifts move."""
    cases = []
    for seed in range(300):
        cfg = GenConfig(seed=seed, size_budget=40)
        cases.append((gen_term(cfg, BAIRE_FN), ()))
        for ctx in OPEN_CONTEXTS:
            cases.append((gen_term(cfg, NAT, ctx), ctx))
    for t, ctx in cases:
        got = translate(t, motive)
        assert got == reference_translate(t, motive)
        assert infer(got, [translate_type(ty, motive) for ty in ctx]) == translate_type(infer(t, ctx), motive)


def test_translate_renames_inside_nested_rec_steps():
    # the inner step reads the free a and c, bumped by 2 twice, and the outer
    # step's n, bumped by 2 once
    # the recursor is open: c and a are bound outside it, c innermost
    ctx = (NAT, arrow(NAT, NAT, NAT))
    t = typecheck(
        parse(
            "fun (a : nat -> nat -> nat) -> fun (c : nat) ->"
            " rec[nat] (fun (n : nat) -> fun (m : nat) ->"
            " rec[nat] (fun (p : nat) -> fun (q : nat) -> a c (a n q)) (a n m) m)"
            " (a c c) c"
        )
    ).body.body
    inner_step = t.step.body.body.step.body.body
    assert inner_step == App(App(Var(5), Var(4)), App(App(Var(5), Var(3)), Var(0)))
    for motive in MOTIVES:
        got = translate(t, motive)
        assert got == reference_translate(t, motive)
        assert infer(got, [translate_type(ty, motive) for ty in ctx]) == church_type(NAT, motive)


@pytest.mark.parametrize("motive", MOTIVES)
def test_dialogue_tree_int_types(motive):
    for seed in range(10):
        t = gen_term(GenConfig(seed=seed), BAIRE_FN)
        assert infer(dialogue_tree_int(t, motive)) == church_type(NAT, motive)


def test_dialogue_tree_int_rejects_other_types():
    with pytest.raises(TypeMismatch):
        dialogue_tree_int(term("fun (x : nat) -> x"), NAT)


# -- internal dialogue operator --------------------------------------------------


def test_dialogue_f_int_type():
    assert infer(dialogue_f_int()) == Arrow(church_type(NAT, BAIRE_FN), BAIRE_FN)


def test_dialogue_f_int_on_leaf():
    df = eval_set(dialogue_f_int())
    out = apply_set(apply_set(df, encode(Leaf(9), BAIRE_FN)), lift_oracle(lambda i: i))
    assert out == NatV(9)


def test_dialogue_f_int_runs_internal_tree():
    t = term("fun (a : nat -> nat) -> a (a 2)")
    run = eval_set(App(dialogue_f_int(), dialogue_tree_int(t, BAIRE_FN)))
    assert apply_set(run, lift_oracle(lambda i: i)) == NatV(2)
    assert apply_set(eval_set(t), lift_oracle(lambda i: i)) == NatV(2)


# -- encode ----------------------------------------------------------------------


def test_encode_leaf_with_identity_handler():
    idh = lambda v: v
    bh = ev("fun (g : nat -> nat) -> fun (x : nat) -> g x")
    assert apply_set(apply_set(encode(Leaf(0), NAT), idh), bh) == NatV(0)


def test_encode_branch_unfolds_once():
    idh = lambda v: v
    bh = ev("fun (g : nat -> nat) -> fun (x : nat) -> g x")
    assert apply_set(apply_set(encode(Branch(3, lambda y: Leaf(y)), NAT), idh), bh) == NatV(3)


def test_encode_matches_dieval_through_internal_dialogue():
    df = eval_set(dialogue_f_int())
    cases = 0
    for seed in range(20):
        d = gen_tree(GenConfig(seed=seed))
        enc = encode(d, BAIRE_FN)
        for oseed in range(5):
            alpha = gen_oracle(GenConfig(seed=1000 + oseed))
            cases += 1
            assert dieval(d, alpha) == apply_set(apply_set(df, enc), lift_oracle(alpha)).value
    assert cases == 100


# -- commutation with the monad structure (observed at definable handlers) -------


@pytest.mark.parametrize("motive", MOTIVES)
def test_encode_commutes_with_kleisli(motive):
    graft = lambda n: Branch(n, lambda y: Leaf(y + n))
    graft_term = term(
        "fun (n : nat) -> fun (e : nat -> M) -> fun (b : (nat -> M) -> nat -> M) ->"
        " b (fun (y : nat) -> e (rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r) y n)) n".replace(
            "M", _motive_src(motive)
        )
    )
    kv = eval_set(kleisli_int(motive))
    rng = random.Random(7)
    for seed in range(8):
        d = gen_tree(GenConfig(seed=seed))
        lhs = encode(kleisli(graft, d), motive)
        rhs = apply_set(apply_set(kv, eval_set(graft_term)), encode(d, motive))
        _assert_trees_agree(lhs, rhs, motive, rng)


@pytest.mark.parametrize("motive", MOTIVES)
def test_encode_commutes_with_functor(motive):
    shiftfn = lambda n: n + 2
    shift_term = term("fun (x : nat) -> succ (succ x)")
    fv = eval_set(functor_int(motive))
    rng = random.Random(11)
    for seed in range(8):
        d = gen_tree(GenConfig(seed=seed))
        lhs = encode(functor_map(shiftfn, d), motive)
        rhs = apply_set(apply_set(fv, eval_set(shift_term)), encode(d, motive))
        _assert_trees_agree(lhs, rhs, motive, rng)


@pytest.mark.parametrize("motive", MOTIVES)
def test_internal_tree_agrees_with_encoded_external_tree(motive):
    rng = random.Random(13)
    terms = [t for t in (gen_term(GenConfig(seed=s), BAIRE_FN) for s in range(10))]
    terms.append(term("fun (a : nat -> nat) -> a (a 2)"))
    for t in terms:
        lhs = encode(dialogue_tree(t), motive)
        rhs = eval_set(dialogue_tree_int(t, motive))
        _assert_trees_agree(lhs, rhs, motive, rng)


def _motive_src(motive):
    return f"({format_ty(motive)})" if motive != NAT else "nat"


def _assert_trees_agree(a, b, motive, rng):
    for e, bh in handler_battery(motive):
        va = apply_set(apply_set(a, e), bh)
        vb = apply_set(apply_set(b, e), bh)
        assert values_agree(motive, va, vb, rng), f"disagree at motive {motive}"


# -- the closed constants, pinned by their printed syntax ------------------------


def constant_rows():
    """(name[args], term) for each closed constant at three motives."""
    rows = []
    for motive in MOTIVES:
        for fn in (leaf_int, branch_int, kleisli_int, functor_int, generic_int):
            rows.append((f"{fn.__name__}[{format_ty(motive)}]", fn(motive)))
        for sigma in MOTIVES:
            rows.append((f"gkleisli_int[{format_ty(sigma)}][{format_ty(motive)}]", gkleisli_int(sigma, motive)))
    for fn in (dialogue_f_int, max_term, max_question_int, modulus_int, max_bool_question_int, modulus_uni_int):
        rows.append((fn.__name__, fn()))
    return rows


def test_constants_match_golden():
    rows = constant_rows()
    lines = CONSTANTS_GOLDEN.read_text().splitlines()
    assert [f"{name}: {pretty(t)}" for name, t in rows] == lines
    # the printed text pins each term's structure: it parses back to the term
    assert [parse(line.split(": ", 1)[1]) for line in lines] == [t for _, t in rows]


# -- the closed-term helper --------------------------------------------------------


def test_closed_fills_the_motive_and_tree_type():
    motive = Arrow(NAT, NAT)
    t = closed("fun (d : {T}) -> fun (x : {A}) -> x", motive)
    assert t == Lam(church_type(NAT, motive), Lam(motive, Var(0)))
    assert closed("fun (s : {S}) -> s", S=BAIRE_FN) == Lam(BAIRE_FN, Var(0))


def test_closed_rejects_ill_typed_source():
    with pytest.raises(TypeCheckError):
        closed("fun (d : {T}) -> succ d")
    with pytest.raises(TypeCheckError):
        closed("leaf leaf", leaf=leaf_int(NAT))


def test_closed_rejects_a_name_neither_bound_nor_defined():
    with pytest.raises(UnboundVariable) as e:
        closed("fun (f : nat -> nat) -> kleisli f", leaf=leaf_int(NAT))
    assert e.value.name == "kleisli"
