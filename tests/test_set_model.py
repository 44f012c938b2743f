import ast
import random
import re
import sys
from dataclasses import replace

import pytest

from cost import count
from systemt import church, set_model
from systemt.church import (
    branch_int,
    church_type,
    dialogue_f_int,
    dialogue_tree_int,
    encode,
    functor_int,
    generic_int,
    gkleisli_int,
    kleisli_int,
    leaf_int,
)
from systemt.dialogue import TREE_MODEL, Leaf, Oracle, dialogue_tree, dieval, generic, tree_sexpr
from systemt.harness import GenConfig, canonical, corpus_terms, gen_oracle, gen_term, gen_tree, recording
from systemt.moduli import max_bool_question_int, max_question_int, max_term, modulus, modulus_int, modulus_uni_int
from systemt.set_model import (
    SET_MODEL,
    NatV,
    apply_set,
    compile_term,
    eval_set,
    lift_oracle,
    natv,
)
from systemt.syntax import (
    NAT,
    App,
    Arrow,
    Lam,
    Rec,
    Succ,
    Var,
    Zero,
    arrow,
    infer,
    numeral,
    parse,
    pretty,
    typecheck,
)

from extensional import probes

BAIRE_FN = arrow(Arrow(NAT, NAT), NAT)


def ev(src):
    return eval_set(typecheck(parse(src)))


# -- evaluation clauses -------------------------------------------------------


def test_numerals_evaluate_to_themselves():
    for n in range(1001):
        assert eval_set(numeral(n)) == NatV(n)


def test_eval_apply_to_successor_oracle():
    v = ev("fun (a : nat -> nat) -> a (a 2)")
    out = apply_set(v, lift_oracle(lambda i: i + 1))
    assert out == NatV(4)


def test_eval_rec_counts_steps():
    assert ev("rec[nat] (fun (n : nat) -> fun (m : nat) -> succ m) zero 5") == NatV(5)


def test_eval_rec_uses_index():
    # rec f zero 4 with f n m = n + m computes 0+1+2+3 = 6
    src = (
        "rec[nat] (fun (n : nat) -> fun (m : nat) ->"
        " rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r) m n) zero 4"
    )
    assert ev(src) == NatV(6)


def test_eval_rec_at_arrow_motive():
    src = (
        "rec[nat -> nat] (fun (n : nat) -> fun (g : nat -> nat) -> fun (x : nat) -> g (g x))"
        " (fun (x : nat) -> succ x) 3 0"
    )
    assert ev(src) == NatV(8)


def test_type_soundness_shapes():
    assert isinstance(ev("zero"), NatV)
    fn = ev("fun (x : nat) -> x")
    assert callable(fn)
    assert infer(typecheck(parse("fun (x : nat) -> x"))) == Arrow(NAT, NAT)


def test_weakening_closed_term_ignores_environment():
    t = typecheck(parse("fun (a : nat -> nat) -> a 3"))
    plain = apply_set(eval_set(t), lift_oracle(lambda i: 2 * i))
    noisy = apply_set(
        compile_term(t, SET_MODEL)((9, lift_oracle(lambda i: i))),
        lift_oracle(lambda i: 2 * i),
    )
    assert plain == noisy


def test_ground_values_cross_the_boundary_as_natv_or_int():
    succ = ev("fun (x : nat) -> succ x")
    for arg in [NatV(3), 3]:
        assert apply_set(succ, arg) == NatV(4)
    assert apply_set(succ, 5000) == NatV(5001)
    # a term in a context is closed under binders for it, then applied to its values
    t = typecheck(parse("fun (a : nat -> nat) -> a 3"))
    weakened = eval_set(Lam(Arrow(NAT, NAT), Lam(NAT, t)))
    for arg in [natv(9), 9]:
        out = apply_set(eval_set(Lam(NAT, Succ(Var(0)))), arg)
        assert isinstance(out, NatV) and out == NatV(10)
        within = apply_set(apply_set(weakened, lift_oracle(lambda i: i)), arg)
        assert apply_set(within, lift_oracle(lambda i: 2 * i)) == NatV(6)
    # a negative natural is refused at the boundary, boxed or not
    for bad in [-1, NatV(-1)]:
        with pytest.raises(ValueError):
            apply_set(succ, bad)


def test_caller_built_function_values_receive_plain_ints():
    seen = []

    def record(n):
        seen.append(n)
        return n + 1

    v = ev("fun (a : nat -> nat) -> a (a 2)")
    assert apply_set(v, record) == NatV(4)
    assert seen == [2, 3] and all(type(n) is int for n in seen)
    rec = ev("fun (f : nat -> nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> f i) zero 3")
    seen.clear()
    assert apply_set(rec, record) == NatV(3)
    assert seen == [2] and type(seen[0]) is int


def test_compositionality_at_ground_type():
    fn = typecheck(parse("fun (x : nat) -> succ (succ x)"))
    arg = numeral(40)
    assert eval_set(App(fn, arg)) == apply_set(eval_set(fn), eval_set(arg)) == NatV(42)


# -- apply_set ----------------------------------------------------------------


def test_apply_identity_and_succ():
    assert apply_set(ev("fun (x : nat) -> x"), NatV(3)) == NatV(3)
    assert apply_set(ev("fun (x : nat) -> succ x"), NatV(0)) == NatV(1)


def test_natv_rejects_negatives():
    assert natv(4095) == NatV(4095) and natv(4096) == NatV(4096)
    with pytest.raises(ValueError):
        natv(-1)


def test_apply_number_panics():
    with pytest.raises(TypeError):
        apply_set(NatV(3), NatV(0))
    with pytest.raises(TypeError):
        apply_set(3, 0)


def test_compiled_application_of_a_number_panics():
    # Python's own call in the compiled App, the only check a typechecker bug
    # reaches inside a term; App(Zero(), Zero()) is ill-typed, so no parse builds it
    with pytest.raises(TypeError):
        eval_set(App(Zero(), Zero()))
    with pytest.raises(TypeError):
        compile_term(App(Zero(), Zero()), TREE_MODEL)(())


# -- lift_oracle ----------------------------------------------------------------


def test_lift_oracle_constant_tail():
    assert apply_set(lift_oracle(Oracle((), 0)), NatV(9)) == NatV(0)


def test_lift_oracle_table_then_default():
    alpha = lift_oracle(Oracle((5, 6, 7), 1))
    assert apply_set(alpha, NatV(2)) == NatV(7)
    assert apply_set(alpha, NatV(3)) == NatV(1)


def test_lift_oracle_rejects_a_negative_answer():
    t = typecheck(parse("fun (a : nat -> nat) -> succ (a 2)"))
    with pytest.raises(ValueError):
        apply_set(eval_set(t), lift_oracle(lambda i: -1))


# -- differential check of the staged evaluator -------------------------------


def reference_eval(term, env=()):
    """Plain structural interpreter: no compilation, no recursor shortcuts."""
    if isinstance(term, Var):
        return env[term.index]
    if isinstance(term, Zero):
        return 0
    if isinstance(term, Succ):
        return reference_eval(term.arg, env) + 1
    if isinstance(term, Lam):
        return lambda v: reference_eval(term.body, (v,) + tuple(env))
    if isinstance(term, App):
        return reference_eval(term.fn, env)(reference_eval(term.arg, env))
    if isinstance(term, Rec):
        fn = reference_eval(term.step, env)
        acc = reference_eval(term.base, env)
        for k in range(reference_eval(term.arg, env)):
            acc = fn(k)(acc)
        return acc
    raise TypeError(term)


def test_evaluator_matches_reference_on_generated_terms():
    for seed in range(60):
        term = gen_term(GenConfig(seed=seed), BAIRE_FN)
        alpha = gen_oracle(GenConfig(seed=seed + 1))
        got = apply_set(eval_set(term), lift_oracle(alpha)).value
        want = apply_set(reference_eval(term), lift_oracle(alpha)).value
        assert got == want, f"seed {seed}"


def test_recursor_shortcut_matches_reference_on_dropping_steps():
    # steps that ignore the recursive result are exactly the shortcut cases
    pred = "fun (n : nat) -> rec[nat] (fun (p : nat) -> fun (q : nat) -> p) zero n"
    v = ev(pred)
    for n in [0, 1, 2, 17, 400]:
        assert apply_set(v, natv(n)).value == max(0, n - 1)
        assert apply_set(reference_eval(typecheck(parse(pred))), natv(n)).value == max(0, n - 1)


def adder(k: int, base: str = "zero") -> str:
    """n |-> rec[nat] (fun i r -> succ^k r) base n, a recursor whose step only adds k."""
    return f"fun (n : nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> {'succ (' * k}r{')' * k}) ({base}) n"


def test_a_step_that_only_adds_runs_as_one_addition():
    # k = 3 tells k * n from n, and from k + n, which k = 1 does not
    for k in [0, 1, 3]:
        for base in ["7", "succ n"]:  # a constant base, and one that reads the environment
            src = adder(k, base)
            v, ref = ev(src), reference_eval(typecheck(parse(src)))
            for n in [0, 1, 2, 17, 400]:
                assert apply_set(v, natv(n)) == apply_set(ref, natv(n)), (k, base, n)


def test_a_step_that_only_adds_gives_the_same_tree_as_the_loop():
    # succ (succ ((fun x -> x) r)) adds 2 as well, but is not the shape the
    # compiler adds up in one step, so it runs the loop, one graft per step
    added = "fun (a : nat -> nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> succ (succ r)) (a 0) (a 1)"
    looped = added.replace("succ (succ r)", "succ (succ ((fun (x : nat) -> x) r))")
    tree, loop_tree = (dialogue_tree(typecheck(parse(src))) for src in (added, looped))
    assert tree_sexpr(tree, 4, 3) == tree_sexpr(loop_tree, 4, 3)
    f = ev(added)
    for seed in range(20):
        alpha = gen_oracle(GenConfig(seed=seed))
        assert dieval(tree, alpha) == dieval(loop_tree, alpha) == apply_set(f, alpha).value == 2 * alpha(1) + alpha(0)


def test_an_identity_step_returns_the_base_at_a_function_motive():
    src = """fun (n : nat) ->
      rec[nat -> nat] (fun (i : nat) -> fun (g : nat -> nat) -> g) (fun (x : nat) -> succ x) n"""
    term = typecheck(parse(src))
    for n in [0, 1, 50]:
        assert apply_set(apply_set(eval_set(term), natv(n)), natv(4)) == NatV(5)
        assert compile_term(term, TREE_MODEL)(())(n)(4) == 5


def test_a_step_that_only_adds_costs_the_same_calls_at_any_count():
    # the compiled value itself, so no NatV box at the boundary counts
    v = compile_term(typecheck(parse(adder(1))), SET_MODEL)(())

    def calls_at(n):
        counts, out = count(lambda: v(n))
        assert out == n
        return counts["calls"]

    assert calls_at(10) == calls_at(100000)


def test_max_term_costs_a_bounded_number_of_calls_per_step():
    # max 0 y runs one loop of y steps, each running a predecessor recursor,
    # and adds y back in one addition; a Python frame put back into every step
    # (a box, an unbox, an index conversion) breaks the bound
    fx = apply_set(eval_set(max_term()), natv(0))
    y = 200
    counts, out = count(lambda: apply_set(fx, natv(y)))
    assert out == NatV(y)
    assert counts["calls"] <= 3 * y + 9


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="opcode counts are those of CPython 3.11's bytecode",
)
def test_max_term_executes_a_bounded_number_of_opcodes_per_step():
    # the call count above misses a call into C, such as int(k), put into a
    # step; every opcode counts here, and the count does not vary run to run
    fx = apply_set(eval_set(max_term()), natv(200))

    def opcodes_at(y):
        counts, out = count(lambda: apply_set(fx, natv(y)))
        assert out == NatV(200)
        return counts["opcodes"]

    assert (opcodes_at(200) - opcodes_at(100)) / 100 <= 40
    assert opcodes_at(0) <= 125


def test_internal_moduli_cost_a_bounded_number_of_calls():
    # the corpus' internal moduli at three oracles: the shared constants that
    # fold the encoded trees run as native lambdas, not as a closure per node
    m = eval_set(modulus_int())
    terms = corpus_terms()
    applied = [m(eval_set(dialogue_tree_int(t, NAT))) for t in terms]
    oracles = (Oracle((), 0), Oracle((), 1), Oracle((3, 1, 4, 1, 5), 2))
    counts, out = count(lambda: [f(alpha) for f in applied for alpha in oracles])
    assert out == [modulus(dialogue_tree(t), alpha) for t in terms for alpha in oracles]
    assert counts["calls"] <= 1600


# -- closed constants, compiled once per model --------------------------------


def value_of(term, model=SET_MODEL):
    return compile_term(term, model)(())


def test_a_constant_compiles_to_one_value_per_model():
    for constant in [leaf_int(NAT), generic_int(NAT), modulus_int(), max_term()]:
        assert value_of(constant) is value_of(constant)
        assert value_of(constant, TREE_MODEL) is value_of(constant, TREE_MODEL)
        assert value_of(constant) is not value_of(constant, TREE_MODEL)
        # an occurrence inside a larger term reuses the value too
        assert value_of(App(Lam(NAT, constant), Zero())) is value_of(constant)


def test_an_equal_term_that_is_another_object_compiles_on_its_own():
    constant = leaf_int(NAT)
    twin = replace(constant)
    assert twin == constant and twin is not constant
    assert value_of(twin) is not value_of(twin)
    assert value_of(twin) is not value_of(constant)
    assert value_of(twin)(5)(lambda z: z + 1)(None) == 6  # leaf 5 e b = e 5


def test_translated_terms_build_the_generic_value_once(monkeypatch):
    generic = generic_int(NAT)
    # a fresh entry, so the count does not depend on what ran before
    monkeypatch.setitem(set_model._SHARED, id(generic), (generic, {}))
    builds = 0
    original = set_model._native

    def counting(term, model):
        nonlocal builds
        builds += term is generic
        return original(term, model)

    monkeypatch.setattr(set_model, "_native", counting)
    for term in corpus_terms()[:2]:
        eval_set(dialogue_tree_int(term, NAT))
    assert builds == 1


# -- closed constants, built as native lambdas ------------------------------------


def shared_constants():
    """Every closed constant of `church` and `moduli`, the church ones at the
    motives nat and (nat -> nat) -> nat, as (motive, term)."""
    rows = []
    for motive in (NAT, BAIRE_FN):
        rows += [(motive, fn(motive)) for fn in (leaf_int, branch_int, kleisli_int, functor_int, generic_int)]
        rows += [(motive, gkleisli_int(sigma, motive)) for sigma in (NAT, Arrow(NAT, NAT), BAIRE_FN)]
        rows += [(motive, t) for t in church._numerals(motive)]
    rows.append((BAIRE_FN, dialogue_f_int()))
    rows += [(NAT, fn()) for fn in (max_term, max_question_int, modulus_int, max_bool_question_int, modulus_uni_int)]
    assert all(id(t) in set_model._SHARED for _, t in rows)
    return rows


def test_a_constant_prints_the_same_from_a_cold_memo_and_a_warm_one(monkeypatch):
    # a constant's text is kept per binder depth and position: under 0-30
    # binders, as a body, as a function and as an argument
    for _, constant in shared_constants():
        monkeypatch.setitem(set_model._SHARED, id(constant), (constant, {}))  # a cold memo
        ty = infer(constant)
        for depth in range(31):
            for place in (
                lambda c: c,
                lambda c: App(c, canonical(ty.domain)),
                lambda c: App(Lam(ty, Var(0)), c),
            ):
                term = place(constant)
                for _ in range(depth):
                    term = Lam(NAT, term)
                cold, warm = pretty(term), pretty(term)
                assert cold == warm == pretty(replace(term))  # replace keeps no type: no memo
                assert parse(cold) == term


def test_printing_fresh_terms_adds_no_memo_entry():
    def entries():
        return len(set_model._SHARED), sum(len(memo) for _, memo in set_model._SHARED.values())

    before = entries()
    for i in range(1000):
        pretty(typecheck(gen_term(GenConfig(seed=i), BAIRE_FN)))
    assert entries() == before


def agree_at_ground(ty, a, b, motive, rng, width=2):
    """a and b give the same naturals on probes of each argument type: encoded
    generated trees, generated oracles, and otherwise `extensional`'s probes."""
    if ty == NAT:
        return a == b
    if ty.domain == church_type(NAT, motive):
        points = [encode(gen_tree(GenConfig(seed=rng.randrange(2**32))), motive) for _ in range(width)]
    elif ty.domain == Arrow(NAT, NAT):
        points = [gen_oracle(GenConfig(seed=rng.randrange(2**32))) for _ in range(width)]
    else:
        points = probes(ty.domain, rng, width)
    return all(
        agree_at_ground(ty.codomain, apply_set(a, p), apply_set(b, p), motive, rng, width) for p in points
    )


def emitted_sources(monkeypatch, model):
    """The source and globals `eval` gets for each shared constant, every one
    built afresh at the model."""
    built = []
    monkeypatch.setattr(set_model, "eval", lambda src, env: built.append((src, env)) or eval(src, env), raising=False)
    rows = shared_constants()
    for _, constant in rows:  # fresh entries, so every constant builds here
        monkeypatch.setitem(set_model._SHARED, id(constant), (constant, {}))
    for _, constant in rows:
        value_of(constant, model)
    assert len(built) == len({id(t) for _, t in rows})
    return built


@pytest.mark.parametrize("model", [SET_MODEL, TREE_MODEL])
def test_native_constants_agree_with_their_closures(model):
    rng = random.Random(23)
    for motive, constant in shared_constants():
        native, closures = value_of(constant, model), value_of(replace(constant), model)
        assert native is not closures and callable(native)
        for _ in range(3):
            assert agree_at_ground(infer(constant), native, closures, motive, rng), pretty(constant)


def test_native_source_holds_only_generated_names_and_integers(monkeypatch):
    """Only `church.closed` calls `share`, on a typechecked term built from the
    library's own source texts, so no user text can reach `eval`; what does
    reach it is lambdas over generated names, integers, `+` and calls of the
    globals c<i>, with no builtins."""
    for src, env in emitted_sources(monkeypatch, SET_MODEL):
        assert re.fullmatch(r"(lambda|[vc]\d+|\d+|[ :+,()])*", src), src
        assert env.pop("__builtins__") == {}
        assert list(env) == [f"c{i}" for i in range(len(env))] and all(map(callable, env.values()))
        assert set(re.findall(r"c\d+", src)) == set(env)


# -- value redexes, reduced as a constant is emitted -------------------------------


def value_redexes(src):
    """The calls in an emitted source of a lambda on a value: a name, a lambda,
    an integer or a successor chain name + k."""
    def is_value(arg):
        return isinstance(arg, (ast.Name, ast.Lambda, ast.Constant)) or (
            isinstance(arg, ast.BinOp) and isinstance(arg.left, ast.Name)
        )

    return [
        ast.unparse(node) for node in ast.walk(ast.parse(src, mode="eval"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Lambda) and is_value(node.args[0])
    ]


@pytest.mark.parametrize("model", [SET_MODEL, TREE_MODEL])
def test_native_constants_hold_no_value_redex(model, monkeypatch):
    for src, _ in emitted_sources(monkeypatch, model):
        assert value_redexes(src) == [], src


def emitted_source(monkeypatch, term, model=SET_MODEL):
    """The source `_native` builds for term at the model."""
    built = []
    monkeypatch.setattr(set_model, "eval", lambda src, env: built.append(src) or eval(src, env), raising=False)
    set_model._native(term, model)
    return built[0]


def test_native_substitutes_values_and_keeps_other_arguments(monkeypatch):
    # g is a lambda, so it is bound as a value under y; then g y reduces, and
    # g (f y) stays a redex, as f y is an application
    got = emitted_source(monkeypatch, typecheck(parse(
        "fun (f : nat -> nat) -> (fun (g : nat -> nat) -> fun (y : nat) -> g (g y)) (fun (z : nat) -> f z)"
    )))
    assert got == "(lambda v0: (lambda v1: (lambda v2: v0(v2))(v0(v1))))"
    # succ^k of a variable and of zero are values too, and a successor of one
    # adds to its k; succ^k of an application is not a value
    got = emitted_source(monkeypatch, typecheck(parse(
        "fun (a : nat -> nat) -> fun (x : nat) -> (fun (p : nat) -> fun (q : nat) -> a (succ p)) (succ x) (succ (a 2))"
    )))
    assert got == "(lambda v0: (lambda v1: (lambda v2: v0((v1 + 2)))((v0(2) + 1))))"


@pytest.mark.parametrize("model", [SET_MODEL, TREE_MODEL])
@pytest.mark.parametrize("motive", [NAT, BAIRE_FN])
def test_generic_is_emitted_as_one_lambda_of_three_binders(monkeypatch, model, motive):
    # the source README quotes for `kleisli (branch leaf)`
    assert emitted_source(monkeypatch, generic_int(motive), model) == (
        "(lambda v0: (lambda v1: (lambda v2: v0((lambda v3: v2((lambda v4: v1(v4)))(v3)))(v2))))"
    )


@pytest.mark.parametrize("model", [SET_MODEL, TREE_MODEL])
def test_a_kept_redex_asks_its_argument_once(model):
    # a would be called twice, for the base and for the count, were a 0
    # substituted for x
    t = typecheck(parse(
        "fun (a : nat -> nat) -> (fun (x : nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r) x x) (a 0)"
    ))
    asked = []
    value = set_model._native(t, model)
    if model is SET_MODEL:
        got = value(recording(lambda i: i + 7, asked))
    else:  # the term asks through generic; the tree it builds runs on the oracle
        out = value(recording(generic, asked))
        got = dieval(Leaf(out) if type(out) is int else out.run(Leaf), lambda i: i + 7)
    assert (got, asked) == (reference_eval(t)(lambda i: i + 7), [0])
