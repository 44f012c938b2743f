"""Church-encoded dialogue trees inside System T.

A tree is represented as its own fold: a term consuming a leaf handler and a
branch handler.  Because System T is monomorphic, every construction here is
parameterized by the motive, the System T type the fold eliminates into.
The closed programs on encoded trees (leaf, branch, the Kleisli extension,
the generic sequence, the dialogue operator) are written in System T's own
surface syntax, typechecked when first built and compiled once per model;
see `closed`.
"""

from __future__ import annotations

from functools import lru_cache

from .dialogue import BAIRE_FN, DTree, Leaf, require_baire_fn
from .set_model import SetValue, eval_set, share
from .syntax import NAT, App, Arrow, Lam, Rec, Succ, Term, Ty, Var, Zero, format_ty, parse, successors, typecheck

#: The motive of a fold is just a System T type.
Motive = Ty


@lru_cache(maxsize=None)
def church_type(sigma: Ty, motive: Motive) -> Ty:
    """The type of encoded sigma-leaved trees folding into the motive:
    (sigma -> A) -> ((nat -> A) -> nat -> A) -> A."""
    leaf_h = Arrow(sigma, motive)
    branch_h = Arrow(Arrow(NAT, motive), Arrow(NAT, motive))
    return Arrow(leaf_h, Arrow(branch_h, motive))


@lru_cache(maxsize=None)
def translate_type(ty: Ty, motive: Motive) -> Ty:
    """Type translation: nat becomes the encoded-tree type, arrows are mapped
    structurally."""
    if ty == NAT:
        return church_type(NAT, motive)
    return Arrow(translate_type(ty.domain, motive), translate_type(ty.codomain, motive))


def closed(src: str, motive: Motive = NAT, **defs) -> Term:
    """The closed, typechecked term that the surface syntax src denotes.

    In src, `{A}` stands for the motive and `{T}` for church_type(nat,
    motive).  A keyword whose value is a type fills `{keyword}` the same
    way; one whose value is a closed term is what the free name keyword
    stands for.  Error positions are those of the text with types filled in.
    """
    types = {"A": motive, "T": church_type(NAT, motive)}
    types.update((name, ty) for name, ty in defs.items() if isinstance(ty, Ty))
    terms = {name: t for name, t in defs.items() if not isinstance(t, Ty)}
    text = src.format_map({name: f"({format_ty(ty)})" for name, ty in types.items()})
    return share(typecheck(parse(text, terms)))


# ---------------------------------------------------------------------------
# Constructors and monad structure, as closed terms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def leaf_int(motive: Motive) -> Term:
    src = "fun (z : nat) -> fun (e : nat -> {A}) -> fun (b : (nat -> {A}) -> nat -> {A}) -> e z"
    return closed(src, motive)


@lru_cache(maxsize=None)
def branch_int(motive: Motive) -> Term:
    src = """
    fun (phi : nat -> {T}) -> fun (x : nat) -> fun (e : nat -> {A}) -> fun (b : (nat -> {A}) -> nat -> {A}) ->
      b (fun (y : nat) -> phi y e b) x
    """
    return closed(src, motive)


@lru_cache(maxsize=None)
def kleisli_int(motive: Motive) -> Term:
    src = """
    fun (f : nat -> {T}) -> fun (d : {T}) -> fun (e : nat -> {A}) -> fun (b : (nat -> {A}) -> nat -> {A}) ->
      d (fun (x : nat) -> f x e b) b
    """
    return closed(src, motive)


@lru_cache(maxsize=None)
def functor_int(motive: Motive) -> Term:
    src = "fun (f : nat -> nat) -> kleisli (fun (x : nat) -> leaf (f x))"
    return closed(src, motive, kleisli=kleisli_int(motive), leaf=leaf_int(motive))


@lru_cache(maxsize=None)
def generic_int(motive: Motive) -> Term:
    defs = {"kleisli": kleisli_int(motive), "branch": branch_int(motive), "leaf": leaf_int(motive)}
    return closed("kleisli (branch leaf)", motive, **defs)


@lru_cache(maxsize=None)
def gkleisli_int(sigma: Ty, motive: Motive) -> Term:
    """Kleisli extension at type sigma, lifted pointwise through arrows."""
    if sigma == NAT:
        return kleisli_int(motive)
    return closed(
        "fun (f : nat -> {S}) -> fun (d : {T}) -> fun (s : {D}) -> gk (fun (x : nat) -> f x s) d",
        motive,
        S=translate_type(sigma, motive),
        D=translate_type(sigma.domain, motive),
        gk=gkleisli_int(sigma.codomain, motive),
    )


# ---------------------------------------------------------------------------
# The term translation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _numerals(motive: Motive) -> "tuple[Term, Term]":
    """The translations of zero and of succ."""
    succ = closed("functor (fun (n : nat) -> succ n)", motive, functor=functor_int(motive))
    return closed("leaf 0", motive, leaf=leaf_int(motive)), succ


def translate(term: Term, motive: Motive) -> Term:
    """Rewrite a term so every natural is an encoded tree of its computation.

    Variables keep their indices (the context is translated pointwise), and
    the saturated recursor is eta-expanded over its numeral argument before
    being grafted through the translated scrutinee, which puts its step
    under two new binders and its base under one.  Nothing is shifted: one
    pass names each binder by its output level.  `levels` holds those of the
    input's binders, innermost first, so under `depth` output binders a
    bound index i becomes depth - 1 - levels[i].
    """
    return _translate(term, motive, (), 0)


def _translate(t: Term, motive: Motive, levels: tuple, depth: int) -> Term:
    # not a closure over itself, which would leave a reference cycle per call
    cls = type(t)
    if cls is App:
        return App(_translate(t.fn, motive, levels, depth), _translate(t.arg, motive, levels, depth))
    if cls is Var:
        i = t.index
        j = depth - 1 - levels[i] if i < len(levels) else i - len(levels) + depth
        return t if i == j else Var(j)
    if cls is Lam:
        return Lam(translate_type(t.domain, motive), _translate(t.body, motive, (depth, *levels), depth + 1))
    if cls is Succ or cls is Zero:  # the chain in a loop: no frame per succ
        n, core = successors(t)
        zero, succ = _numerals(motive)
        out = zero if type(core) is Zero else _translate(core, motive, levels, depth)
        for _ in range(n):
            out = App(succ, out)
        return out
    if cls is Rec:  # the step under two new binders, the base under one
        step = _translate(t.step, motive, levels, depth + 2)
        base = _translate(t.base, motive, levels, depth + 1)
        rec_fn = Lam(
            NAT,
            Rec(
                translate_type(t.motive, motive),
                Lam(NAT, App(step, App(leaf_int(motive), Var(0)))),
                base,
                Var(0),
            ),
        )
        return App(App(gkleisli_int(t.motive, motive), rec_fn), _translate(t.arg, motive, levels, depth))
    raise TypeError(f"not a term: {t!r}")


def dialogue_tree_int(term: Term, motive: Motive) -> Term:
    """The closed encoded-tree term for a closed term of type (nat -> nat) -> nat."""
    require_baire_fn(term)
    return App(translate(term, motive), generic_int(motive))


@lru_cache(maxsize=None)
def dialogue_f_int() -> Term:
    """Runs an encoded tree against an oracle, as a closed term.

    The motive is fixed to (nat -> nat) -> nat: the fold result is itself the
    function consuming the oracle.
    """
    src = """
    fun (d : {T}) ->
      d (fun (z : nat) -> fun (a : nat -> nat) -> z)
        (fun (phi : nat -> {A}) -> fun (x : nat) -> fun (a : nat -> nat) -> phi (a x) a)
    """
    return closed(src, BAIRE_FN)


# ---------------------------------------------------------------------------
# Bridging inductive trees into the set model
# ---------------------------------------------------------------------------


def encode(tree: DTree, motive: Motive) -> SetValue:
    """The set-model value of an inductive tree at the encoded-tree type."""
    return _encode(tree, eval_set(leaf_int(motive)), eval_set(branch_int(motive)))


def _encode(tree: DTree, leaf_v, branch_v) -> SetValue:
    if isinstance(tree, Leaf):
        return leaf_v(tree.value)
    children = tree.children
    return branch_v(lambda n: _encode(children(n), leaf_v, branch_v))(tree.query)
