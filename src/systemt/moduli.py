"""Moduli of continuity and uniform continuity, externally and internally.

The external operators work on inductive trees; each has a closed System T
counterpart acting on the Church encoding.  Points of the Cantor space are
the Baire points whose values are all 0 or 1, and `prune` restricts a tree to
those answers.
"""

from __future__ import annotations

from functools import lru_cache

from .church import church_type
from .dialogue import Branch, DTree, Leaf
from .syntax import NAT, App, Arrow, Lam, Succ, Term, Var, Zero, numeral, parse, typecheck


# ---------------------------------------------------------------------------
# Pointwise modulus
# ---------------------------------------------------------------------------


def max_question(tree: DTree, answers) -> int:
    """Largest query met along the path the answer source selects; 0 at a leaf."""
    best = 0
    while isinstance(tree, Branch):
        q = tree.query
        if q > best:
            best = q
        tree = tree.children(answers(q))
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
    return typecheck(parse(src))


@lru_cache(maxsize=None)
def max_question_int() -> Term:
    # \d a. d (\_. zero) (\g x. max x (g (a x)))
    tree = church_type(NAT, NAT)
    oracle_ty = Arrow(NAT, NAT)
    leaf_h = Lam(NAT, Zero())
    branch_h = Lam(
        oracle_ty,
        Lam(
            NAT,
            App(
                App(max_term(), Var(0)),
                App(Var(1), App(Var(2), Var(0))),
            ),
        ),
    )
    return Lam(tree, Lam(oracle_ty, App(App(Var(1), leaf_h), branch_h)))


@lru_cache(maxsize=None)
def modulus_int() -> Term:
    # \d a. succ (max_question d a)
    tree = church_type(NAT, NAT)
    oracle_ty = Arrow(NAT, NAT)
    return Lam(tree, Lam(oracle_ty, Succ(App(App(max_question_int(), Var(1)), Var(0)))))


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
            if t.query > best:
                best = t.query
            stack.append(t.children(False))
            stack.append(t.children(True))
    return best


def modulus_uni(tree: DTree) -> int:
    """Successor of the tree-wide max question of a boolean-branching tree."""
    return 1 + max_bool_question(tree)


@lru_cache(maxsize=None)
def max_bool_question_int() -> Term:
    # \d. d (\_. zero) (\g x. max x (max (g 0) (g 1)))
    tree = church_type(NAT, NAT)
    leaf_h = Lam(NAT, Zero())
    branch_h = Lam(
        Arrow(NAT, NAT),
        Lam(
            NAT,
            App(
                App(max_term(), Var(0)),
                App(
                    App(max_term(), App(Var(1), numeral(0))),
                    App(Var(1), numeral(1)),
                ),
            ),
        ),
    )
    return Lam(tree, App(App(Var(0), leaf_h), branch_h))


@lru_cache(maxsize=None)
def modulus_uni_int() -> Term:
    # \d. succ (max_bool_question d)
    return Lam(church_type(NAT, NAT), Succ(App(max_bool_question_int(), Var(0))))
