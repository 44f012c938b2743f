import sys
from dataclasses import replace

import pytest

from systemt import set_model
from systemt.church import dialogue_tree_int, generic_int, leaf_int
from systemt.dialogue import TREE_MODEL, Oracle, dialogue_tree, dieval, tree_sexpr
from systemt.harness import GenConfig, corpus_terms, gen_oracle, gen_term
from systemt.moduli import max_term, modulus_int
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
    typecheck,
)

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
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            out = v(n)
        finally:
            sys.setprofile(None)
        assert out == n
        return calls

    assert calls_at(10) == calls_at(100000)


def test_max_term_costs_a_bounded_number_of_calls_per_step():
    # max 0 y runs one loop of y steps, each running a predecessor recursor,
    # and adds y back in one addition; a Python frame put back into every step
    # (a box, an unbox, an index conversion) breaks the bound
    fx = apply_set(eval_set(max_term()), natv(0))
    y = 200
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        out = apply_set(fx, natv(y))
    finally:
        sys.setprofile(None)
    assert out == NatV(y)
    assert calls <= 3 * y + 9


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="opcode counts are those of CPython 3.11's bytecode",
)
def test_max_term_executes_a_bounded_number_of_opcodes_per_step():
    # the call count above misses a call into C, such as int(k), put into a
    # step; every opcode counts here, and the count does not vary run to run
    fx = apply_set(eval_set(max_term()), natv(200))

    def opcodes_at(y):
        ops = 0

        def trace(frame, event, arg):
            nonlocal ops
            frame.f_trace_opcodes = True
            ops += event == "opcode"
            return trace

        sys.settrace(trace)
        try:
            out = apply_set(fx, natv(y))
        finally:
            sys.settrace(None)
        assert out == NatV(200)
        return ops

    assert (opcodes_at(200) - opcodes_at(100)) / 100 <= 40
    assert opcodes_at(0) <= 125


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
    original = compile_term

    def counting(term, model):
        nonlocal builds
        builds += term == generic and term is not generic  # a build compiles a copy
        return original(term, model)

    monkeypatch.setattr(set_model, "compile_term", counting)
    for term in corpus_terms()[:2]:
        eval_set(dialogue_tree_int(term, NAT))
    assert builds == 1
