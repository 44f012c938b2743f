import copy
import pickle
import re
import sys
import threading
import time
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from systemt.church import dialogue_tree_int, generic_int, translate
from systemt.dialogue import Branch, Leaf, Oracle
from systemt.harness import GenConfig, _mix, _shrink_candidates, gen_term
from systemt.set_model import SET_MODEL, compile_term
from systemt.syntax import (
    NAT,
    SUBTERMS,
    App,
    Arrow,
    Lam,
    Nat,
    ParseError,
    Rec,
    Succ,
    TypeCheckError,
    UnboundVariable,
    Var,
    Zero,
    _Parser,
    arrow,
    format_ty,
    infer,
    numeral,
    occurs_free,
    parse,
    pretty,
    successors,
    typecheck,
)

BAIRE_FN = arrow(arrow(NAT, NAT), NAT)


# -- parsing ----------------------------------------------------------------


def test_parse_zero_literal():
    assert parse("zero") == Zero()


def test_parse_lambda_application_chain():
    t = parse("fun (a : nat -> nat) -> a (a 2)")
    assert t == Lam(Arrow(NAT, NAT), App(Var(0), App(Var(0), numeral(2))))


def test_parse_application_left_associative():
    t = parse("fun (f : nat -> nat -> nat) -> fun (x : nat) -> fun (y : nat) -> f x y")
    assert t.body.body.body == App(App(Var(2), Var(1)), Var(0))


def test_parse_resolves_names_to_the_nearest_binder():
    t = parse("fun (x : nat) -> fun (y : nat) -> fun (x : nat -> nat) -> x y")
    assert t.body.body.body == App(Var(0), Var(1))
    # each node carries the position it was read from; an application, its head's
    app = t.body.body.body
    where = [t.pos, t.body.body.pos, app.pos, app.fn.pos, app.arg.pos]
    assert where == [(1, 1), (1, 35), (1, 59), (1, 59), (1, 61)]


def test_parse_reads_a_name_of_unicode_letters_as_one_token():
    t = typecheck(parse("fun (\u00e9a : nat) -> fun (a\u00e9 : nat) -> \u00e9a"))
    assert infer(t) == arrow(NAT, NAT, NAT)
    assert t.body.body == Var(1)
    # a non-decimal digit is no part of a name: the error is at the digit; nor
    # is "\u2118", though str.isidentifier takes it, for it is no word character
    for text, col, bad in [
        ("fun (a : nat -> nat) -> \u00b2", 25, "\u00b2"),
        ("fun (a\u00b2 : nat) -> a", 7, "\u00b2"),
        ("fun (\u2118 : nat) -> \u2118", 6, "\u2118"),
    ]:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.line, e.value.col) == (1, col)
        assert bad in str(e.value)


def test_parse_truncated_lambda():
    with pytest.raises(ParseError) as e:
        parse("fun (a : nat) ->")
    assert e.value.line == 1


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse("zero zero)")


def test_parse_type_arrow_right_associative():
    raw = parse("fun (f : nat -> nat -> nat) -> f")
    assert raw.domain == Arrow(NAT, Arrow(NAT, NAT))


def test_parse_succ_binds_one_atom():
    assert parse("succ zero") == Succ(Zero())
    # the argument of succ is a single atom; parens group larger terms
    t = parse("fun (a : nat -> nat) -> succ (a 1)")
    assert t.body == Succ(App(Var(0), numeral(1)))


def test_parse_rec_three_atoms():
    raw = parse("rec[nat] (fun (n : nat) -> fun (m : nat) -> succ m) zero 3")
    assert raw.motive == NAT
    assert raw.base == Zero()
    assert raw.arg == numeral(3)


def test_parse_error_carries_position():
    cases = [
        ("fun (a :\n) -> a", 2, 1),
        # many lines: the tokenizer must find each token's line quickly
        ("fun (a : nat -> nat) ->\n" + "succ\n" * 20000 + "  ?", 20002, 3),
        # a parse error wins over an unbound name earlier in the text
        ("fun (a : nat) -> b )", 1, 20),
        # a bad character wins over any parse error, even over a text too deep
        ("succ (" * 2000 + "zero" + ")" * 2000 + " @", 1, 14006),
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.line, e.value.col) == (line, col)


def test_parse_whitespace_insensitive():
    assert parse("succ\n  ( succ   zero )") == parse("succ (succ zero)")


def test_parse_trailing_blanks_in_linear_time():
    # a token pattern without the \Z alternative retried trailing blanks at each
    # of their offsets: 20000 of them took 20 s, linear time takes milliseconds
    started = time.perf_counter()
    assert parse("zero" + " " * 20_000) == Zero()
    with pytest.raises(ParseError) as e:
        parse("fun (a : nat) ->" + " \n" * 20_000)
    assert (e.value.line, e.value.col) == (20_001, 1)
    assert time.perf_counter() - started < 5


#: The deepest nesting of each kind that parse takes at the default recursion
#: limit, counted from the bottom of a fresh thread's stack.
PARSE_DEPTHS = {
    "succ": (330, lambda n: "fun (a : nat -> nat) -> " + "succ (" * n + "a 0" + ")" * n),
    "app": (495, lambda n: "fun (a : nat -> nat) -> " + "a (" * n + "0" + ")" * n),
    "fun": (989, lambda n: "fun (x : nat) -> " * n + "x"),
    "arrow": (991, lambda n: "fun (f : " + "nat -> " * n + "nat) -> f"),
    "type-parens": (993, lambda n: "fun (f : " + "(" * n + "nat" + ")" * n + ") -> f"),
    "term-parens": (495, lambda n: "fun (a : nat) -> " + "(" * n + "a" + ")" * n),
}


@pytest.mark.parametrize("kind", list(PARSE_DEPTHS))
def test_parse_takes_as_deep_a_text_at_the_default_recursion_limit(kind):
    depth, text = PARSE_DEPTHS[kind]
    parsed, limit = [], sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        thread = threading.Thread(target=lambda: parsed.append(parse(text(depth))))
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setrecursionlimit(limit)
    assert not thread.is_alive()
    assert len(parsed) == 1  # the thread raised if it is empty


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_parse_any_whitespace_between_tokens(seed, data):
    t = gen_term(GenConfig(seed=seed, size_budget=30), BAIRE_FN)
    toks = re.findall(r"->|[()\[\]:]|\w+", pretty(t))
    seps = data.draw(st.lists(st.text(" \t\n", min_size=1, max_size=3), min_size=len(toks), max_size=len(toks)))
    text = "".join(sep + tok for sep, tok in zip(seps, toks))
    assert typecheck(parse(text)) == t
    # each token is reported at its own line and column
    offset, where = 0, []
    for sep, tok in zip(seps, toks):
        offset += len(sep)
        where.append((tok, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)))
        offset += len(tok)
    p = _Parser(text, {})
    assert [(tok, *p.pos(i)) for i, tok in enumerate(p.toks[: len(toks)])] == where
    assert p.toks[len(toks)] == ""


# -- typechecking -----------------------------------------------------------


def test_typecheck_oracle_composition():
    t = typecheck(parse("fun (a : nat -> nat) -> a (a 2)"))
    assert infer(t) == BAIRE_FN
    assert t == Lam(Arrow(NAT, NAT), App(Var(0), App(Var(0), numeral(2))))


def test_typecheck_succ_of_function_rejected():
    with pytest.raises(TypeCheckError) as e:
        typecheck(parse("succ (fun (x : nat) -> x)"))
    assert e.value.expected == NAT
    assert e.value.found == Arrow(NAT, NAT)


def test_typecheck_rec_rule():
    t = typecheck(parse("rec[nat] (fun (n : nat) -> fun (m : nat) -> succ m) zero 3"))
    assert infer(t) == NAT
    assert isinstance(t, Rec)


def test_typecheck_rec_step_mismatch():
    with pytest.raises(TypeCheckError):
        typecheck(parse("rec[nat] (fun (n : nat) -> n) zero 3"))


def test_infer_refuses_an_index_past_the_context():
    # a TypeCheckError, not the IndexError of reading the context at index 1
    with pytest.raises(TypeCheckError, match="index 1 in context of length 1"):
        infer(Var(1), (NAT,))


def test_typecheck_unbound_variable():
    with pytest.raises(UnboundVariable) as e:
        typecheck(parse("fun (a : nat) -> b"))
    assert e.value.name == "b"


@pytest.mark.parametrize(
    "text, error, where",
    [
        ("fun (a : nat -> nat) ->\n  succ a", TypeCheckError, (2, 8)),
        ("fun (a : nat) ->\n\n   b", UnboundVariable, (3, 4)),
        (
            "fun (a : nat -> nat) ->\n"
            "  rec[nat] (fun (n : nat) -> fun (m : nat) -> m)\n"
            "    a\n"
            "    (a 0)",
            TypeCheckError,
            (3, 5),
        ),
        # the rec step, the rec argument, applying a nat, the argument type
        ("fun (a : nat -> nat) ->\n  rec[nat] a\n    0 (a 0)", TypeCheckError, (2, 12)),
        (
            "fun (a : nat -> nat) ->\n  rec[nat] (fun (n : nat) -> fun (m : nat) -> m) 0\n    a",
            TypeCheckError,
            (3, 5),
        ),
        ("fun (a : nat -> nat) ->\n  (a 0) 1", TypeCheckError, (2, 4)),
        ("fun (a : nat -> nat) ->\n  a\n   a", TypeCheckError, (3, 4)),
        # under a chain of succ, the position of what the chain ends in
        ("fun (a : nat -> nat) -> succ (succ a)", TypeCheckError, (1, 36)),
    ],
)
def test_type_errors_carry_position(text, error, where):
    with pytest.raises(error) as e:
        typecheck(parse(text))
    assert e.value.location == where
    assert str(e.value).startswith(f"{where[0]}:{where[1]}: ")


def test_parse_without_defs_leaves_a_constant_name_unbound():
    with pytest.raises(UnboundVariable) as e:
        parse("fun (a : nat) -> kleisli")
    assert e.value.name == "kleisli"
    assert e.value.location == (1, 18)


def test_parse_defs_stand_for_free_names_only():
    one = numeral(1)
    assert parse("fun (a : nat) -> succ c", {"c": one}) == Lam(NAT, Succ(one))
    # a binder of the same name shadows the definition
    assert parse("fun (c : nat) -> c", {"c": one}) == Lam(NAT, Var(0))
    # the definition takes the position of the name that stands for it
    assert parse("fun (a : nat) ->\n  c", {"c": one}).body.pos == (2, 3)


def test_typecheck_application_argument_mismatch():
    with pytest.raises(TypeCheckError):
        typecheck(parse("fun (a : nat -> nat) -> a a"))


def test_typecheck_open_term_with_scope():
    # files hold closed terms; an open term is a subterm, typed in its binders' context
    with pytest.raises(UnboundVariable):
        parse("a 3")
    t = typecheck(parse("fun (a : nat -> nat) -> a 3")).body
    assert t == App(Var(0), numeral(3))
    assert infer(t, (Arrow(NAT, NAT),)) == NAT


def test_typecheck_deterministic():
    src = "fun (a : nat -> nat) -> rec[nat] (fun (n : nat) -> fun (m : nat) -> a m) zero (a 0)"
    assert typecheck(parse(src)) == typecheck(parse(src))


# -- recorded types ---------------------------------------------------------

TYPE_SLOT_SEEDS = (0, 1, 2, 3, 101)


def fresh(t):
    """A structurally equal copy of t, node for node, with no type recorded."""
    kwargs = {f.name: getattr(t, f.name) for f in fields(t) if f.init}
    kwargs.update((name, fresh(getattr(t, name))) for name, _ in SUBTERMS[type(t)])
    return type(t)(**kwargs)


def nodes(t) -> list:
    out, stack = [], [t]
    while stack:
        out.append(node := stack.pop())
        stack.extend(getattr(node, name) for name, _ in SUBTERMS[type(node)])
    return out


def generated(seed: int, n: int = 25) -> list:
    return [gen_term(GenConfig(seed=_mix(seed, i)), BAIRE_FN) for i in range(n)]


@pytest.mark.parametrize("seed", TYPE_SLOT_SEEDS)
def test_a_recorded_type_is_the_type_of_a_fresh_copy(seed):
    for t in generated(seed):
        assert all(node.ty is None for node in nodes(t))
        assert typecheck(t).ty is BAIRE_FN
        # a translation holds the shared constants, each typed once when it was built
        for u in (t, typecheck(dialogue_tree_int(t, NAT)), typecheck(dialogue_tree_int(t, BAIRE_FN))):
            recorded = {id(node): node for node in nodes(u) if node.ty is not None}
            assert id(u) in recorded and (u is t or len(recorded) > 1)
            for node in recorded.values():
                copy = fresh(node)
                assert copy.ty is None and infer(copy) is node.ty


def test_infer_does_not_walk_into_a_node_with_a_recorded_type(monkeypatch):
    from systemt import syntax

    generic, walked, infer_ = generic_int(NAT), [], syntax._infer
    inside = {id(node) for node in nodes(generic)} - {id(generic)}
    monkeypatch.setattr(syntax, "_infer", lambda t, ctx: walked.append(id(t)) or infer_(t, ctx))
    typecheck(dialogue_tree_int(parse("fun (a : nat -> nat) -> a 4"), NAT))
    assert id(generic) in walked and inside.isdisjoint(walked)


@pytest.mark.parametrize("seed", TYPE_SLOT_SEEDS)
def test_replace_and_the_shrinker_copy_no_recorded_type(seed):
    for t in map(typecheck, generated(seed)):
        assert replace(t).ty is None and replace(t, pos=(1, 1)).ty is None
        candidates = list(_shrink_candidates(t))
        assert candidates and all(c.ty is None for c in candidates)


@pytest.mark.parametrize("seed", TYPE_SLOT_SEEDS)
def test_a_failed_or_open_typecheck_records_nothing(seed):
    for i, t in enumerate(generated(seed)):
        for bad in (App(t, t), Lam(NAT, App(Var(0), t))):
            with pytest.raises(TypeCheckError):
                typecheck(bad)
            assert all(node.ty is None for node in nodes(bad))
        # an open term, and a closed one, typed under a context
        ctx = (Arrow(NAT, NAT), NAT)
        for u in (gen_term(GenConfig(seed=_mix(seed, 10_000 + i)), NAT, ctx), t):
            assert infer(u, ctx) is not None
            assert all(node.ty is None for node in nodes(u))


@pytest.mark.parametrize("seed", TYPE_SLOT_SEEDS)
def test_equality_hash_and_repr_ignore_the_recorded_type(seed):
    for t in map(typecheck, generated(seed)):
        copy = fresh(t)
        assert copy.ty is None and t.ty is BAIRE_FN
        assert copy == t and hash(copy) == hash(t) and repr(copy) == repr(t)


# -- numerals ---------------------------------------------------------------


def test_numeral_zero_and_three():
    assert numeral(0) == Zero()
    assert numeral(3) == Succ(Succ(Succ(Zero())))


@given(st.integers(min_value=0, max_value=400))
def test_numeral_has_n_successors(n):
    t = numeral(n)
    count = 0
    while isinstance(t, Succ):
        count += 1
        t = t.arg
    assert isinstance(t, Zero)
    assert count == n
    assert successors(numeral(n)) == (n, Zero())
    assert pretty(numeral(n)) == (str(n) if n else "zero")


@pytest.mark.parametrize(
    "term, k, core",
    [
        (Var(0), 0, Var(0)),  # no successor: the term itself
        (App(Var(0), Succ(Zero())), 0, App(Var(0), Succ(Zero()))),
        (numeral(5), 5, Zero()),
        (Succ(Succ(App(Var(0), Zero()))), 2, App(Var(0), Zero())),
    ],
)
def test_successors_splits_a_chain_from_its_core(term, k, core):
    assert successors(term) == (k, core)


def test_successors_walks_a_deep_chain_at_the_default_recursion_limit():
    t = Var(0)
    for _ in range(200_000):
        t = Succ(t)
    k, core = successors(t)
    assert (k, core) == (200_000, Var(0))


def test_occurs_free_answers_on_a_deep_term_at_the_default_recursion_limit():
    # the compiler asks it of every rec step body, so it must not recurse per node
    t = Var(1)
    for _ in range(100_000):
        t = Succ(t)
    assert occurs_free(Lam(NAT, t), 0)
    assert not occurs_free(t, 0)


# -- substitution -----------------------------------------------------------


def shift(term, amount, cutoff=0):
    """Add amount to every free index >= cutoff."""
    if isinstance(term, Var):
        return Var(term.index + amount) if term.index >= cutoff else term
    if isinstance(term, Zero):
        return term
    if isinstance(term, Succ):
        return Succ(shift(term.arg, amount, cutoff))
    if isinstance(term, Rec):
        return Rec(
            term.motive,
            shift(term.step, amount, cutoff),
            shift(term.base, amount, cutoff),
            shift(term.arg, amount, cutoff),
        )
    if isinstance(term, Lam):
        return Lam(term.domain, shift(term.body, amount, cutoff + 1))
    return App(shift(term.fn, amount, cutoff), shift(term.arg, amount, cutoff))


class ArityError(Exception):
    """A substitution is missing an assignment for a free index."""


def substitute(term, subst):
    """Simultaneous capture-free substitution for the free variables of term.

    Every free index of term must be assigned a replacement; replacements are
    shifted as they cross binders, so closed replacements are used as-is.
    """

    def go(t, depth):
        if isinstance(t, Var):
            if t.index < depth:
                return t
            j = t.index - depth
            if j not in subst:
                raise ArityError(f"no substitute for free index {j}")
            return shift(subst[j], depth)
        if isinstance(t, Zero):
            return t
        if isinstance(t, Succ):
            return Succ(go(t.arg, depth))
        if isinstance(t, Rec):
            return Rec(t.motive, go(t.step, depth), go(t.base, depth), go(t.arg, depth))
        if isinstance(t, Lam):
            return Lam(t.domain, go(t.body, depth + 1))
        return App(go(t.fn, depth), go(t.arg, depth))

    return go(term, 0)


def test_substitute_variable_hit():
    assert substitute(Var(0), {0: numeral(5)}) == numeral(5)


def test_substitute_closed_term_fixed():
    assert substitute(Zero(), {}) == Zero()
    t = typecheck(parse("fun (a : nat -> nat) -> a 1"))
    assert substitute(t, {}) == t


def test_substitute_under_binder_shifts():
    # fun (x : nat) -> y  with y := 2 becomes a constant function
    t = Lam(NAT, Var(1))
    out = substitute(t, {0: numeral(2)})
    assert out == Lam(NAT, numeral(2))
    # cross-check by evaluating both sides at sampled arguments
    from systemt.set_model import SET_MODEL, apply_set, compile_term, eval_set, natv

    before = compile_term(t, SET_MODEL)((2,))
    after = eval_set(out)
    for arg in (0, 3, 11):
        assert apply_set(before, natv(arg)) == apply_set(after, natv(arg))
    # an open replacement is shifted across the binder it moves under
    assert substitute(t, {0: Var(0)}) == Lam(NAT, Var(1))


def test_substitute_missing_index():
    with pytest.raises(ArityError):
        substitute(App(Var(0), Var(1)), {0: Zero()})


def test_shift_respects_cutoff():
    t = Lam(NAT, App(Var(0), Var(1)))
    assert shift(t, 3) == Lam(NAT, App(Var(0), Var(4)))


# -- printing ---------------------------------------------------------------


def test_pretty_zero_and_numerals():
    assert pretty(Zero()) == "zero"
    assert pretty(numeral(2)) == "2"
    assert pretty(Lam(Arrow(NAT, NAT), Succ(App(Var(0), Zero())))) == "fun (a : nat -> nat) -> succ (a zero)"


def test_pretty_lambda_roundtrip_shape():
    t = typecheck(parse("fun (a : nat -> nat) -> a (a 2)"))
    assert pretty(t) == "fun (a : nat -> nat) -> a (a 2)"


def test_pretty_names_binders_past_the_alphabet():
    # names wrap after z: the 27th binder is a1, and the text parses back
    t = Var(1)
    for _ in range(28):
        t = Lam(NAT, t)
    text = pretty(t)
    assert text.endswith("fun (z : nat) -> fun (a1 : nat) -> fun (b1 : nat) -> a1")
    assert parse(text) == t


def test_pretty_refuses_a_free_index():
    with pytest.raises(ValueError, match="free index 1 has no name"):
        pretty(Lam(NAT, Var(1)))


def test_format_ty():
    assert format_ty(BAIRE_FN) == "(nat -> nat) -> nat"
    assert format_ty(arrow(NAT, NAT, NAT)) == "nat -> nat -> nat"


def test_format_ty_of_a_long_arrow_chain_in_linear_time():
    # formatting each codomain and pasting it into its arrow's text took quadratic
    # time, about 10 s here; the loop over the chain takes well under 0.1 s
    ty = arrow(*[NAT] * 200_001)
    started = time.perf_counter()
    text = format_ty(ty)
    assert time.perf_counter() - started < 2
    assert text == "nat -> " * 200_000 + "nat"
    assert format_ty(arrow(BAIRE_FN, BAIRE_FN, NAT)) == "((nat -> nat) -> nat) -> ((nat -> nat) -> nat) -> nat"


ROUNDTRIP_SOURCES = [
    "zero",
    "7",
    "fun (a : nat -> nat) -> a (a 2)",
    "fun (a : nat -> nat) -> rec[nat] (fun (n : nat) -> fun (m : nat) -> a m) (a 0) (succ (a 3))",
    "fun (a : nat -> nat) -> (fun (b : nat) -> succ (a b)) (a 5)",
    "fun (f : (nat -> nat) -> nat) -> f (fun (x : nat) -> succ x)",
    "rec[nat -> nat] (fun (n : nat) -> fun (g : nat -> nat) -> fun (x : nat) -> g (g x)) (fun (x : nat) -> succ x) 3 1",
]


@pytest.mark.parametrize("src", ROUNDTRIP_SOURCES)
def test_parse_pretty_roundtrip(src):
    t = typecheck(parse(src))
    again = typecheck(parse(pretty(t)))
    assert again == t


def test_parse_pretty_roundtrip_ends_at_the_literal_cap():
    # pretty prints any closed numeral as a literal, and parse refuses one above the cap
    # (a chain of successors this deep is compared by its text: == recurses)
    at_cap = parse("succ 99999")
    assert pretty(at_cap) == "100000" and pretty(parse(pretty(at_cap))) == "100000"
    above = parse("succ 100000")
    assert pretty(above) == "100001"
    with pytest.raises(ParseError, match="1:1: expected a numeral of at most 100000"):
        parse(pretty(above))


# -- node semantics ---------------------------------------------------------


class _LamSubclass(Lam):
    pass


class _RecSubclass(Rec):
    pass


@pytest.mark.parametrize(
    "non_term",
    [
        "fun (x : nat) -> x",
        _LamSubclass(NAT, Var(0)),
        Lam(NAT, "fun (x : nat) -> x"),
        Lam(NAT, _LamSubclass(NAT, Var(0))),
        Lam(NAT, _RecSubclass(NAT, Lam(NAT, Lam(NAT, Var(0))), Zero(), Var(0))),
    ],
    ids=["str", "Lam subclass", "str as a Lam body", "Lam subclass as a Lam body", "Rec subclass as a Lam body"],
)
@pytest.mark.parametrize(
    "entry",
    [infer, lambda t: translate(t, NAT), lambda t: compile_term(t, SET_MODEL), pretty],
    ids=["infer", "translate", "compile_term", "pretty"],
)
def test_the_term_walks_reject_a_non_term(entry, non_term):
    # each walk dispatches on the exact class of a node, and no term class has a
    # subclass; a non-term is refused wherever it sits, not only at the root
    with pytest.raises(TypeError, match="not a term"):
        entry(non_term)


def test_types_are_hash_consed():
    assert Arrow(NAT, NAT) is Arrow(NAT, NAT)
    assert Nat() is NAT
    assert arrow(Arrow(NAT, NAT), NAT) is BAIRE_FN
    assert Arrow(domain=NAT, codomain=Arrow(NAT, NAT)) is arrow(NAT, NAT, NAT)
    assert Arrow(NAT, NAT) != Arrow(NAT, BAIRE_FN) and NAT != Arrow(NAT, NAT)


@pytest.mark.parametrize("ty", [NAT, BAIRE_FN])
def test_copies_of_a_type_are_the_type(ty):
    assert copy.copy(ty) is ty
    assert copy.deepcopy(ty) is ty
    assert pickle.loads(pickle.dumps(ty)) is ty


def test_type_repr_is_unchanged():
    assert repr(NAT) == "Nat()"
    assert repr(BAIRE_FN) == "Arrow(domain=Arrow(domain=Nat(), codomain=Nat()), codomain=Nat())"


def test_terms_compare_and_hash_structurally_ignoring_positions():
    one = parse("fun (a : nat -> nat) -> rec[nat] (fun (n : nat) -> fun (m : nat) -> a m) 0 (a 1)")
    other = parse("fun (b : nat -> nat) ->\n  rec[nat] (fun (i : nat) -> fun (r : nat) -> b r) zero (b 1)")
    assert one is not other and one.body.pos != other.body.pos
    assert one == other and hash(one) == hash(other)
    assert one != parse("fun (a : nat -> nat) -> rec[nat] (fun (n : nat) -> fun (m : nat) -> a n) 0 (a 1)")
    assert {one: 1}[other] == 1


def test_replace_sets_a_terms_position():
    t = parse("succ zero")
    moved = replace(t, pos=(3, 4))
    assert (moved.pos, t.pos) == ((3, 4), (1, 1))
    assert moved == t and moved is not t


@pytest.mark.parametrize(
    "node",
    [NAT, BAIRE_FN, Var(0), Zero(), Succ(Zero()), Lam(NAT, Var(0)), App(Var(0), Zero()),
     Rec(NAT, Var(0), Zero(), Zero()), Leaf(0), Branch(0, Leaf), Oracle((1,), 0)],
    ids=lambda node: type(node).__name__,
)
def test_nodes_are_slotted(node):
    # frozen dataclasses keep a __dict__ and pay a setattr per field on construction
    assert not hasattr(node, "__dict__")
