"""Dialogue trees and the tree-model semantics of System T.

A dialogue tree is a well-founded tree whose branch nodes carry an oracle
query and whose children are indexed by the possible answers.  Children are
represented as total functions, so trees over the full answer alphabet of
naturals stay finite objects; materialization happens only when printing.

The tree model is the record `TREE_MODEL` for the staged compiler in
`set_model`, which serves both models: only the ground type differs.  Its
ground values are bare trees, and its function values plain Python callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .set_model import Model, compile_term
from .syntax import NAT, Arrow, Term, Ty, arrow, format_ty, infer

BAIRE_FN = arrow(Arrow(NAT, NAT), NAT)


class TypeMismatch(Exception):
    """A term does not have the type an operation requires."""


# ---------------------------------------------------------------------------
# Trees and oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    value: int


@dataclass(frozen=True)
class Branch:
    query: int
    children: Callable[[object], "DTree"]


DTree = Union[Leaf, Branch]


@dataclass(frozen=True)
class Oracle:
    """A point of the Baire space: explicit finite prefix, constant tail.

    The prefix is canonicalized by dropping trailing entries equal to the
    default, so structural equality coincides with pointwise equality.
    """

    prefix: "tuple[int, ...]" = ()
    default: int = 0

    def __post_init__(self):
        prefix = tuple(self.prefix)
        if min((self.default, *prefix)) < 0:
            raise ValueError(f"oracle values must be naturals: {prefix} with default {self.default}")
        while prefix and prefix[-1] == self.default:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)

    def __call__(self, i: int) -> int:
        return self.prefix[i] if i < len(self.prefix) else self.default

    def spec(self) -> str:
        head = ",".join(str(n) for n in self.prefix)
        return f"{head};default={self.default}" if head else f"default={self.default}"

    @classmethod
    def from_spec(cls, text: str) -> "Oracle":
        head, default = _split_spec(text)
        try:
            prefix = tuple(int(part) for part in head)
            default = int(default)
        except ValueError:
            raise ValueError(f"bad oracle spec {text!r}") from None
        return cls(prefix, default)


def _split_spec(text: str):
    body = text.strip()
    if ";" in body:
        head, _, tail = body.partition(";")
    else:
        head, tail = ("", body) if "default=" in body else (body, "")
    tail = tail.strip()
    if not tail.startswith("default="):
        raise ValueError(f"bad oracle spec {text!r}: missing default=")
    # an empty entry stays, so int() refuses it: dropping it would shift the rest
    entries = [part.strip() for part in head.split(",")] if head.strip() else []
    return entries, tail[len("default="):].strip()


# ---------------------------------------------------------------------------
# The dialogue operator and monad structure
# ---------------------------------------------------------------------------


def dieval(tree: DTree, answers) -> int:
    """Run a tree against an answer source, following the answered branch."""
    while isinstance(tree, Branch):
        tree = tree.children(answers(tree.query))
    return tree.value


def kleisli(fn: Callable[[int], DTree], tree: DTree) -> DTree:
    """Graft fn onto every leaf, keeping branch nodes in place."""
    if isinstance(tree, Leaf):
        return fn(tree.value)
    children = tree.children
    return Branch(tree.query, lambda a: kleisli(fn, children(a)))


def functor_map(fn: Callable[[int], int], tree: DTree) -> DTree:
    return kleisli(lambda n: Leaf(fn(n)), tree)


def generic(tree: DTree) -> DTree:
    """Insert a query node at every leaf: the tree-model oracle argument."""
    return kleisli(lambda n: Branch(n, Leaf), tree)


# ---------------------------------------------------------------------------
# The tree model
# ---------------------------------------------------------------------------


DialValue = Union[DTree, Callable]


def gkleisli(ty: Ty, fn: Callable[[int], DialValue], tree: DTree) -> DialValue:
    """Kleisli extension lifted pointwise through arrow types."""
    if ty == NAT:
        return kleisli(fn, tree)
    cod = ty.codomain
    return lambda s: gkleisli(cod, lambda n: fn(n)(s), tree)


#: The tree model: a natural is the tree of queries that computes it, and the
#: recursor is grafted onto every leaf of its scrutinee's tree.
TREE_MODEL = Model(
    nat=Leaf,
    plus=lambda corec, k: lambda env: functor_map(lambda n: n + k, corec(env)),
    rec=lambda motive, argc, iterate: lambda env: gkleisli(motive, lambda n: iterate(env, n), argc(env)),
    indices=lambda n: map(Leaf, range(n)),
)


def eval_dial(term: Term) -> DialValue:
    """Evaluate a closed, well-typed term in the tree model."""
    return compile_term(term, TREE_MODEL)(())


def require_baire_fn(term: Term) -> None:
    """Raise TypeMismatch unless a closed term has type (nat -> nat) -> nat."""
    ty = infer(term, ())
    if ty != BAIRE_FN:
        raise TypeMismatch(f"expected {format_ty(BAIRE_FN)}, found {format_ty(ty)}")


def dialogue_tree(term: Term) -> DTree:
    """The tree of queries a closed term of type (nat -> nat) -> nat performs."""
    require_baire_fn(term)
    return eval_dial(term)(generic)


# ---------------------------------------------------------------------------
# Bounded materialization
# ---------------------------------------------------------------------------


def tree_sexpr(tree: DTree, answers: int = 2, depth: int = 64) -> str:
    """Render a tree over the answer alphabet {0..answers-1}, cutting at depth.

    Subtrees past the depth bound are replaced by the marker (...).
    """
    if isinstance(tree, Leaf):
        return f"(leaf {tree.value})"
    if depth <= 0:
        return "(...)"
    kids = " ".join(
        f"({a} {tree_sexpr(tree.children(a), answers, depth - 1)})"
        for a in range(answers)
    )
    return f"(branch {tree.query} {kids})"
