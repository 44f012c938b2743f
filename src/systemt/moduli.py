"""Moduli of continuity and uniform continuity, externally and internally.

The external operators work on inductive trees; each has a closed System T
counterpart acting on the Church encoding, written in the surface syntax and
typechecked when first built.  Points of the Cantor space are the Baire
points whose values are all 0 or 1, and `prune` restricts a tree to those
answers.
"""

from __future__ import annotations

from functools import lru_cache

from .church import closed
from .dialogue import Branch, DTree, Leaf
from .syntax import Term


# ---------------------------------------------------------------------------
# Pointwise modulus
# ---------------------------------------------------------------------------


def max_question(tree: DTree, answers) -> int:
    """Largest query met along the path the answer source selects; 0 at a leaf."""
    best = 0
    while isinstance(tree, Branch):
        best = max(best, tree.query)
        tree = tree.children(answers(tree.query))
    return best


def modulus(tree: DTree, answers) -> int:
    """Successor of the path's max question, taken unconditionally."""
    return 1 + max_question(tree, answers)


@lru_cache(maxsize=None)
def max_term() -> Term:
    """Binary maximum as a closed term: max x y = y + (x - y), all by recursion."""
    src = """
    fun (x : nat) -> fun (y : nat) ->
      rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r)
        (rec[nat]
          (fun (i : nat) -> fun (r : nat) ->
            rec[nat] (fun (p : nat) -> fun (q : nat) -> p) zero r)
          x y)
        y
    """
    return closed(src)


@lru_cache(maxsize=None)
def max_question_int() -> Term:
    src = """
    fun (d : {T}) -> fun (a : nat -> nat) ->
      d (fun (z : nat) -> zero) (fun (g : nat -> nat) -> fun (x : nat) -> max x (g (a x)))
    """
    return closed(src, max=max_term())


@lru_cache(maxsize=None)
def modulus_int() -> Term:
    return closed("fun (d : {T}) -> fun (a : nat -> nat) -> succ (mq d a)", mq=max_question_int())


# ---------------------------------------------------------------------------
# Uniform modulus on the Cantor space
# ---------------------------------------------------------------------------


def prune(tree: DTree) -> DTree:
    """Restrict an arbitrary tree to the answers 0 and 1 (False and True also serve)."""
    if isinstance(tree, Leaf):
        return tree
    children = tree.children
    return Branch(tree.query, lambda b: prune(children(1 if b else 0)))


def max_bool_question(tree: DTree) -> int:
    """Largest query anywhere in a boolean-branching tree."""
    best = 0
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, Branch):
            best = max(best, t.query)
            stack += (t.children(False), t.children(True))
    return best


def modulus_uni(tree: DTree) -> int:
    """Successor of the tree-wide max question of a boolean-branching tree."""
    return 1 + max_bool_question(tree)


@lru_cache(maxsize=None)
def max_bool_question_int() -> Term:
    src = """
    fun (d : {T}) ->
      d (fun (z : nat) -> zero) (fun (g : nat -> nat) -> fun (x : nat) -> max x (max (g 0) (g 1)))
    """
    return closed(src, max=max_term())


@lru_cache(maxsize=None)
def modulus_uni_int() -> Term:
    return closed("fun (d : {T}) -> succ (mbq d)", mbq=max_bool_question_int())
