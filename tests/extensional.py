"""Extensional comparison of higher-type set-model values, for the tests,
and the inductive tree monad they check the tree model against.

Equality at higher types is undecidable, so values are compared only at
definable observation points: sampled naturals (`hee_check`), definable
probes (`values_agree`), and leaf/branch handler pairs that fold encoded
trees (`handler_battery`).  `kleisli` and `functor_map` rebuild a `DTree`
branch by branch, the textbook free-monad bind; the tree model binds its
Church-encoded naturals instead, so these are its independent reference.
"""

import random
from typing import Callable

from systemt.dialogue import BAIRE_FN, Branch, DTree, Graft, Leaf, Oracle
from systemt.harness import GenConfig, gen_term
from systemt.set_model import SetValue, apply_set, eval_set, lift_oracle, natv
from systemt.syntax import NAT, Arrow, Ty, parse, typecheck

# ---------------------------------------------------------------------------
# The inductive tree monad
# ---------------------------------------------------------------------------


def kleisli(fn: Callable[[int], DTree], tree: DTree) -> DTree:
    """Graft fn onto every leaf, keeping branch nodes in place."""
    if isinstance(tree, Leaf):
        return fn(tree.value)
    children = tree.children
    return Branch(tree.query, lambda a: kleisli(fn, children(a)))


def functor_map(fn: Callable[[int], int], tree: DTree) -> DTree:
    return kleisli(lambda n: Leaf(fn(n)), tree)


def generic(tree: DTree) -> DTree:
    """Insert a query node at every leaf."""
    return kleisli(lambda n: Branch(n, Leaf), tree)


def graft_of(tree: DTree) -> "int | Graft":
    """The tree-model natural whose tree is `tree`: the int of a leaf, else a
    Graft grafting by `kleisli`."""
    return tree.value if isinstance(tree, Leaf) else Graft(lambda k: kleisli(k, tree))


def as_tree(value: "int | Graft") -> DTree:
    """The tree of a tree-model natural: one leaf for an int."""
    return Leaf(value) if type(value) is int else value.run(Leaf)


# ---------------------------------------------------------------------------
# Sampled hereditarily extensional equality
# ---------------------------------------------------------------------------


def hee_check(shape: Ty, a: SetValue, b: SetValue, samples: int = 50, seed: int = 0) -> bool:
    """Sampled extensional comparison at shapes nat | nat -> sigma.

    Exact at nat; at arrows it samples arguments in [0, 50] and recurses, so a
    False answer is a genuine refutation while True is only sampled evidence.
    """
    rng = random.Random(seed)
    return _hee(shape, a, b, samples, rng)


def _hee(shape, a, b, samples, rng):
    if shape == NAT:
        return a.value == b.value
    if not (isinstance(shape, Arrow) and shape.domain == NAT):
        raise ValueError(f"hee_check is restricted to shapes nat | nat -> sigma, got {shape}")
    for _ in range(samples):
        n = natv(rng.randint(0, 50))
        if not _hee(shape.codomain, apply_set(a, n), apply_set(b, n), samples, rng):
            return False
    return True


# ---------------------------------------------------------------------------
# Definable probes for comparing values at translated types
# ---------------------------------------------------------------------------


def handler_battery(motive: Ty):
    """Leaf/branch handler pairs of type (nat -> A) and ((nat -> A) -> nat -> A),
    all definable, for observing encoded-tree values at motive A."""
    leaf_srcs, branch_srcs = _battery_sources(motive)
    leafs = [eval_set(typecheck(parse(s))) for s in leaf_srcs]
    branches = [eval_set(typecheck(parse(s))) for s in branch_srcs]
    return [(e, b) for e in leafs for b in branches]


def _battery_sources(motive: Ty):
    if motive == NAT:
        return (
            ["fun (z : nat) -> z", "fun (z : nat) -> succ (succ z)"],
            [
                "fun (g : nat -> nat) -> fun (x : nat) -> g x",
                "fun (g : nat -> nat) -> fun (x : nat) -> g (succ x)",
                "fun (g : nat -> nat) -> fun (x : nat) -> succ (g (g x))",
            ],
        )
    if motive == Arrow(NAT, NAT):
        return (
            ["fun (z : nat) -> fun (w : nat) -> z", "fun (z : nat) -> fun (w : nat) -> succ z"],
            [
                "fun (g : nat -> nat -> nat) -> fun (x : nat) -> fun (w : nat) -> g x w",
                "fun (g : nat -> nat -> nat) -> fun (x : nat) -> fun (w : nat) -> g (g x w) x",
            ],
        )
    if motive == BAIRE_FN:
        return (
            [
                "fun (z : nat) -> fun (u : nat -> nat) -> z",
                "fun (z : nat) -> fun (u : nat -> nat) -> u z",
            ],
            [
                "fun (g : nat -> (nat -> nat) -> nat) -> fun (x : nat) -> fun (u : nat -> nat) -> g (u x) u",
                "fun (g : nat -> (nat -> nat) -> nat) -> fun (x : nat) -> fun (u : nat -> nat) -> g x u",
            ],
        )
    raise ValueError(f"no handler battery for motive {motive}")


def values_agree(ty: Ty, a: SetValue, b: SetValue, rng: random.Random, depth: int = 3) -> bool:
    """Compare two values extensionally at ty by probing with definable points."""
    if ty == NAT:
        return a.value == b.value
    for probe in probes(ty.domain, rng, depth):
        if not values_agree(ty.codomain, apply_set(a, probe), apply_set(b, probe), rng, depth):
            return False
    return True


def probes(ty: Ty, rng: random.Random, depth: int):
    if ty == NAT:
        return [natv(rng.randint(0, 20)) for _ in range(depth)]
    if ty == Arrow(NAT, NAT):
        specs = [Oracle((rng.randint(0, 9),), rng.randint(0, 9)) for _ in range(depth)]
        return [lift_oracle(o) for o in specs]
    cfg = GenConfig(seed=rng.randint(0, 2**32), size_budget=8)
    return [eval_set(gen_term(cfg, ty))]
