"""Dialogue trees and the tree-model semantics of System T.

A dialogue tree is a well-founded tree whose branch nodes carry an oracle
query and whose children are indexed by the possible answers.  Children are
represented as total functions, so trees over the full answer alphabet of
naturals stay finite objects; materialization happens only when printing.

The tree model is the function `TREE_MODEL` for the staged compiler in
`set_model`, which serves both models.  As in the set model, a natural that
asks nothing is a plain `int` and a function value a plain Python callable; a
natural that asks is a `Graft`, which adds with `+` as an `int` does.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Union

from .set_model import Compiled, compile_term
from .syntax import NAT, Arrow, Term, Ty, arrow, format_ty, infer

BAIRE_FN = arrow(Arrow(NAT, NAT), NAT)
#: The most nodes `tree_sexpr` prints; 64 nested queries at depth 64 would print 2^65 - 1.
PRINT_NODES = 1 << 16


class TypeMismatch(Exception):
    """A term does not have the type an operation requires."""


# ---------------------------------------------------------------------------
# Trees and oracles
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Leaf:
    value: int


@dataclass(slots=True, unsafe_hash=True)
class Branch:
    query: int
    children: Callable[[object], "DTree"]


DTree = Union[Leaf, Branch]


@dataclass(frozen=True, slots=True)
class Oracle:
    """A point of the Baire space: explicit finite prefix, constant tail.

    The prefix is canonicalized by dropping trailing entries equal to the
    default, so structural equality coincides with pointwise equality.
    """

    prefix: "tuple[int, ...]"
    default: int

    def __post_init__(self):
        prefix = tuple(self.prefix)
        if min((self.default, *prefix)) < 0:
            raise ValueError(f"oracle values must be naturals: {prefix} with default {self.default}")
        end = len(prefix)
        while end and prefix[end - 1] == self.default:  # one slice, not one copy per entry dropped
            end -= 1
        object.__setattr__(self, "prefix", prefix[:end])

    def __call__(self, i: int) -> int:
        return self.prefix[i] if i < len(self.prefix) else self.default

    def spec(self) -> str:
        head = ",".join(str(n) for n in self.prefix)
        return f"{head};default={self.default}" if head else f"default={self.default}"

    @classmethod
    def from_spec(cls, text: str) -> "Oracle":
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        body = text.strip()
        if ";" in body:
            head, _, tail = body.partition(";")
        else:
            head, tail = ("", body) if "default=" in body else (body, "")
        tail = tail.strip()
        if not tail.startswith("default="):
            raise ValueError(f"bad oracle spec {shown}: missing default=")
        # an empty entry stays, so it is refused: dropping it would shift the rest
        entries = [part.strip() for part in head.split(",")] if head.strip() else []
        parts = [*entries, tail[len("default="):].strip()]
        # int() also reads "1_0", "+5" and non-ASCII digits, which no term may spell
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"bad oracle spec {shown}: entries must be naturals in decimal digits")
        try:
            *prefix, default = map(int, parts)
        except ValueError:  # all digits, so int() refused only their number
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"bad oracle spec {shown}: entries must have at most {limit} digits") from None
        return cls(tuple(prefix), default)


# ---------------------------------------------------------------------------
# The dialogue operator and the tree model
# ---------------------------------------------------------------------------


def dieval(tree: DTree, answers) -> int:
    """Run a tree against an answer source, following the answered branch."""
    while isinstance(tree, Branch):
        tree = tree.children(answers(tree.query))
    return tree.value


class Graft:
    """A tree-model natural that asks the oracle: its Church-encoded query tree
    with the branch handler fixed to `Branch`; run(k) grafts k : int -> DTree
    onto every leaf.  Not callable, so compiled closures tell it from a
    function value."""

    __slots__ = ("run",)

    def __init__(self, run: Callable[[Callable[[int], DTree]], DTree]):
        self.run = run

    def __add__(self, k: int) -> "Graft":
        """The functor map of adding k: the same queries, k more at every leaf."""
        return Graft(lambda c: self.run(lambda n: c(n + k)))


def gkleisli(ty: Ty, fn: Callable[[int], "int | Graft | Callable"], tree: "int | Graft") -> "int | Graft | Callable":
    """Kleisli extension lifted pointwise through arrow types: O(1) at ground.
    On an int it is fn applied at once, at any type (KE f (eta n) = f n)."""
    if type(tree) is int:  # eager, so pure arithmetic nests no closures
        return fn(tree)
    if ty == NAT:
        # an int result feeds k at once, so running a chain of binds costs a frame per bind
        return Graft(lambda k: tree.run(lambda n: k(m) if type(m := fn(n)) is int else m.run(k)))
    cod = ty.codomain
    return lambda s: gkleisli(cod, lambda n: fn(n)(s), tree)


def generic(tree: "int | Graft") -> Graft:
    """Ask the oracle at every leaf: the tree-model oracle argument."""
    return gkleisli(NAT, lambda n: Graft(lambda k: Branch(n, k)), tree)


def TREE_MODEL(motive: Ty, argc: Compiled, iterate) -> Compiled:
    """The tree model: a natural that asks is the tree of queries that computes
    it, and the recursor is grafted onto every leaf of its tree."""
    return lambda env: gkleisli(motive, lambda n: iterate(env, n), argc(env))


def require_baire_fn(term: Term) -> None:
    """Raise TypeMismatch unless a closed term has type (nat -> nat) -> nat."""
    ty = infer(term, ())
    if ty != BAIRE_FN:
        raise TypeMismatch(f"expected {format_ty(BAIRE_FN)}, found {format_ty(ty)}")


def dialogue_tree(term: Term) -> DTree:
    """The tree of queries a closed term of type (nat -> nat) -> nat performs."""
    require_baire_fn(term)
    out = compile_term(term, TREE_MODEL)(())(generic)
    return Leaf(out) if type(out) is int else out.run(Leaf)


# ---------------------------------------------------------------------------
# Bounded materialization
# ---------------------------------------------------------------------------


def tree_sexpr(tree: DTree, answers: int, depth: int) -> str:
    """Render a tree over the answer alphabet {0..answers-1}, cutting at depth.

    Subtrees past the depth bound are replaced by the marker (...).  A print
    of more than PRINT_NODES nodes, markers included, raises ValueError.
    """
    allowed = iter(range(PRINT_NODES))  # one item for each node that may print
    return _sexpr(tree, answers, depth, allowed)


def _sexpr(tree: DTree, answers: int, depth: int, allowed) -> str:
    # not a closure over itself, which would leave a reference cycle per call
    if next(allowed, None) is None:
        raise ValueError(f"the tree has more than {PRINT_NODES} nodes to print")
    if isinstance(tree, Leaf):
        return f"(leaf {tree.value})"
    if depth <= 0:
        return "(...)"
    kids = " ".join(f"({a} {_sexpr(tree.children(a), answers, depth - 1, allowed)})" for a in range(answers))
    return f"(branch {tree.query} {kids})"
