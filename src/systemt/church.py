"""Church-encoded dialogue trees inside System T.

A tree is represented as its own fold: a term consuming a leaf handler and a
branch handler.  Because System T is monomorphic, every construction here is
parameterized by the motive, the System T type the fold eliminates into.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .dialogue import BAIRE_FN, DTree, Leaf, require_baire_fn
from .set_model import FunV, SetValue, apply_value, eval_set
from .syntax import (
    NAT,
    App,
    Arrow,
    Lam,
    Rec,
    Succ,
    Term,
    Ty,
    Var,
    Zero,
)

#: The motive of a fold is just a System T type.
Motive = Ty


def _apps(fn: Term, *args: Term) -> Term:
    return reduce(App, args, fn)


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


# ---------------------------------------------------------------------------
# Constructors and monad structure, as closed terms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def leaf_int(motive: Motive) -> Term:
    # leaf = \z e b. e z
    leaf_h = Arrow(NAT, motive)
    branch_h = Arrow(leaf_h, leaf_h)
    return Lam(NAT, Lam(leaf_h, Lam(branch_h, App(Var(1), Var(2)))))


@lru_cache(maxsize=None)
def branch_int(motive: Motive) -> Term:
    # branch = \phi x e b. b (\y. phi y e b) x
    tree = church_type(NAT, motive)
    leaf_h = Arrow(NAT, motive)
    branch_h = Arrow(leaf_h, leaf_h)
    inner = Lam(NAT, _apps(Var(4), Var(0), Var(2), Var(1)))
    return Lam(
        Arrow(NAT, tree),
        Lam(NAT, Lam(leaf_h, Lam(branch_h, _apps(Var(0), inner, Var(2))))),
    )


@lru_cache(maxsize=None)
def kleisli_int(motive: Motive) -> Term:
    # kleisli = \f d e b. d (\x. f x e b) b
    tree = church_type(NAT, motive)
    leaf_h = Arrow(NAT, motive)
    branch_h = Arrow(leaf_h, leaf_h)
    inner = Lam(NAT, _apps(Var(4), Var(0), Var(2), Var(1)))
    return Lam(
        Arrow(NAT, tree),
        Lam(tree, Lam(leaf_h, Lam(branch_h, _apps(Var(2), inner, Var(0))))),
    )


@lru_cache(maxsize=None)
def functor_int(motive: Motive) -> Term:
    # functor = \f. kleisli (\x. leaf (f x))
    return Lam(
        Arrow(NAT, NAT),
        App(kleisli_int(motive), Lam(NAT, App(leaf_int(motive), App(Var(1), Var(0))))),
    )


@lru_cache(maxsize=None)
def generic_int(motive: Motive) -> Term:
    # generic = kleisli (branch leaf)
    return App(kleisli_int(motive), App(branch_int(motive), leaf_int(motive)))


@lru_cache(maxsize=None)
def gkleisli_int(sigma: Ty, motive: Motive) -> Term:
    """Kleisli extension at type sigma, lifted pointwise through arrows."""
    if sigma == NAT:
        return kleisli_int(motive)
    # \f d s. gkleisli[cod] (\x. f x s) d
    tree = church_type(NAT, motive)
    fn_ty = Arrow(NAT, translate_type(sigma, motive))
    arg_ty = translate_type(sigma.domain, motive)
    inner = Lam(NAT, _apps(Var(3), Var(0), Var(1)))
    return Lam(
        fn_ty,
        Lam(tree, Lam(arg_ty, _apps(gkleisli_int(sigma.codomain, motive), inner, Var(1)))),
    )


# ---------------------------------------------------------------------------
# The term translation
# ---------------------------------------------------------------------------

_SUCC_FN = Lam(NAT, Succ(Var(0)))


def translate(term: Term, motive: Motive) -> Term:
    """Rewrite a term so every natural is an encoded tree of its computation.

    Variables keep their indices (the context is translated pointwise), and
    the saturated recursor is eta-expanded over its numeral argument before
    being grafted through the translated scrutinee.  That puts the
    recursor's translated step under two new binders and its base under one,
    so their free indices move up by 2 and 1.  Rather than shift each
    translated step and base afterwards, one pass carries an index renaming
    (ren, k): free index i becomes ren[i], or i + k past the end of ren.
    A binder extends ren with its own index 0, and the step and base are
    translated with every target bumped by 2 and 1.
    """
    leaf = leaf_int(motive)
    zero = App(leaf, Zero())
    succ = App(functor_int(motive), _SUCC_FN)

    def go(t: Term, ren: tuple, k: int) -> Term:
        if isinstance(t, Var):
            i = t.index
            j = ren[i] if i < len(ren) else i + k
            return t if i == j else Var(j)
        if isinstance(t, App):
            return App(go(t.fn, ren, k), go(t.arg, ren, k))
        if isinstance(t, Lam):
            if ren or k:
                ren = (0, *[r + 1 for r in ren])
            return Lam(translate_type(t.domain, motive), go(t.body, ren, k))
        if isinstance(t, Zero):
            return zero
        if isinstance(t, Succ):
            return App(succ, go(t.arg, ren, k))
        if isinstance(t, Rec):
            step = go(t.step, tuple(r + 2 for r in ren), k + 2)
            base = go(t.base, tuple(r + 1 for r in ren), k + 1)
            rec_fn = Lam(
                NAT,
                Rec(
                    translate_type(t.motive, motive),
                    Lam(NAT, App(step, App(leaf, Var(0)))),
                    base,
                    Var(0),
                ),
            )
            return App(App(gkleisli_int(t.motive, motive), rec_fn), go(t.arg, ren, k))
        raise TypeError(f"not a term: {t!r}")

    return go(term, (), 0)


def dialogue_tree_int(term: Term, motive: Motive) -> Term:
    """The closed encoded-tree term for a closed term of type (nat -> nat) -> nat."""
    require_baire_fn(term)
    return App(translate(term, motive), generic_int(motive))


@lru_cache(maxsize=None)
def dialogue_f_int() -> Term:
    """Runs an encoded tree against an oracle, as a closed term.

    The motive is fixed to (nat -> nat) -> nat: the fold result is itself the
    function consuming the oracle.

    dialogue = \\d. d (\\z _. z) (\\phi x a. phi (a x) a)
    """
    oracle_ty = Arrow(NAT, NAT)
    leaf_h = Lam(NAT, Lam(oracle_ty, Var(1)))
    branch_h = Lam(
        Arrow(NAT, BAIRE_FN),
        Lam(NAT, Lam(oracle_ty, _apps(Var(2), App(Var(0), Var(1)), Var(0)))),
    )
    return Lam(church_type(NAT, BAIRE_FN), _apps(Var(0), leaf_h, branch_h))


# ---------------------------------------------------------------------------
# Bridging inductive trees into the set model
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _encode_constructors(motive: Motive):
    return eval_set(leaf_int(motive)), eval_set(branch_int(motive))


def encode(tree: DTree, motive: Motive) -> SetValue:
    """The set-model value of an inductive tree at the encoded-tree type."""
    leaf_v, branch_v = _encode_constructors(motive)

    def go(t: DTree) -> SetValue:
        if isinstance(t, Leaf):
            return apply_value(leaf_v, t.value)
        children = t.children
        return apply_value(branch_v, FunV(lambda n: go(children(n))), t.query)

    return go(tree)
