"""Differential test harness: generators, property suites, and shrinking.

Term generation is type-directed: at every site a constructor compatible with
the target type is drawn by weight, with a strictly decreasing node budget
guaranteeing termination; an exhausted budget falls back to the canonical
inhabitant of the target type.

Every suite observes one natural number two ways and checks that they agree;
its row in the table `SUITES` holds its check and default scale.  A check
takes an input's views and a point (an oracle, or None for the uniform suites,
which look at the whole tree once) to a failure detail or None.  The table
`_VIEWS` says how each view is built: the set-model value, the external dialogue
tree and its Church encoding, the compiled internal tree (its translation
typechecked first), the internal dialogue operator applied to the internal tree,
and the tree-wide max question over answers 0 and 1.  `_Views.__getattr__`
builds a view on first read and keeps it, or what its build raised, for all of
the input's points.  Inputs are closed terms of
type (nat -> nat) -> nat, except lem36's: the tree gen_tree draws from the
input's seed, whose views hold no term.  A check builds the closed constants it
applies, such as `moduli.modulus_int()`, at each use, so a test can swap in a
faulty one; set_model compiles each once.  `run_suites` runs any rows in one
pass over the input index i: term i's views are built once and shared by every
suite that checks it, lem36 checks tree i, and `run_suite` is the one-suite
case.  A suite's `seconds` is the time spent in its own checks, including the
views it was first to need.  A check that raises fails its case with the
detail "raised <Class>: <message>"; RecursionError, a limit of the caller's
stack, propagates.  A failing term is shrunk by re-running the same check on
the views of every candidate while it fails the same way: a mismatch, or a raise
of the same class.  An input keeps its candidates' views, so every suite's
shrink of it shares them.  A term and check shrink once per way of failing: a
later point where the witness fails the same way reports it again.  A failing
tree is reported by its oracle alone.

thm45 decides most cases by replay, reading Theorem 4.5 operationally as in
effectful forcing: the compiled set-model value is deterministic and sees the
oracle only through its answers, so if every index it asks at alpha is below
the internal modulus m, every oracle agreeing with alpha on [0, m) replays
the same run and gives the same value, and no sample could fail.  Only a case
whose run asks an index at or past m draws agreeing oracles; a fault that
makes m too small lands there.  A check returns `_REPLAYED` for a case it
passed by replay, and the suite's report counts those in `replayed`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

from . import church, dialogue, moduli
from .dialogue import BAIRE_FN, Branch, DTree, Leaf, Oracle
from .set_model import eval_set
from .syntax import (
    NAT,
    SUBTERMS,
    App,
    Arrow,
    Lam,
    Rec,
    Succ,
    Term,
    Ty,
    TypeCheckError,
    Var,
    Zero,
    arrow,
    infer,
    numeral,
    parse,
    pretty,
    typecheck,
)

# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    size_budget: int = 25


#: Relative weights of the constructors drawn at a site, and the largest
#: numeral drawn.
_VAR_WEIGHT = 4
_APP_WEIGHT = 5
_REC_WEIGHT = 2
_LAM_WEIGHT = 4
_NUMERAL_WEIGHT = 2
_SUCC_WEIGHT = 1
_NUMERAL_CAP = 4

#: Argument types synthesized for generated applications.
_ARG_POOL = (NAT, Arrow(NAT, NAT))


def canonical(ty: Ty) -> Term:
    """The fallback inhabitant: zero at nat, constant functions at arrows."""
    if ty == NAT:
        return Zero()
    return Lam(ty.domain, canonical(ty.codomain))


def _ty_size(ty: Ty) -> int:
    if ty == NAT:
        return 1
    return 1 + _ty_size(ty.domain) + _ty_size(ty.codomain)


def _mix(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) & 0x7FFFFFFFFFFFFFFF


def gen_term(cfg: GenConfig, target: Ty, ctx=()) -> Term:
    """A well-typed term of the target type, deterministic in the seed."""
    rng = random.Random(cfg.seed)
    budget = [cfg.size_budget]
    return _gen(rng, budget, target, tuple(ctx))


def _gen(rng, budget, target, ctx) -> Term:
    if budget[0] <= 0:
        return canonical(target)
    budget[0] -= 1

    choices = []
    var_sites = [i for i, ty in enumerate(ctx) if ty == target]
    if var_sites:
        choices.append(("var", _VAR_WEIGHT))
    if budget[0] >= 4 and _ty_size(target) <= 8:
        # app and rec fan out into children at larger types; unchecked, the
        # fallback inhabitants of those types would swamp the node budget
        choices.append(("app", _APP_WEIGHT))
        choices.append(("rec", _REC_WEIGHT))
    if target == NAT:
        choices.append(("num", _NUMERAL_WEIGHT))
        choices.append(("succ", _SUCC_WEIGHT))
    else:
        choices.append(("lam", _LAM_WEIGHT))

    kinds = [k for k, w in choices for _ in range(w)]
    kind = rng.choice(kinds)

    if kind == "var":
        return Var(rng.choice(var_sites))
    if kind == "num":
        n = rng.randint(0, max(0, min(_NUMERAL_CAP, budget[0])))
        budget[0] -= n
        return numeral(n)
    if kind == "succ":
        return Succ(_gen(rng, budget, NAT, ctx))
    if kind == "lam":
        body = _gen(rng, budget, target.codomain, (target.domain,) + ctx)
        return Lam(target.domain, body)
    if kind == "app":
        arg_ty = rng.choice(_ARG_POOL)
        # prefer a variable head when one fits: generated functionals should
        # mostly exercise what they bind rather than fresh constant functions
        heads = [
            (i, dom)
            for i, ty in enumerate(ctx)
            if isinstance(ty, Arrow) and ty.codomain == target
            for dom in [ty.domain]
            if dom in _ARG_POOL
        ]
        if heads and rng.random() < 0.75:
            i, arg_ty = rng.choice(heads)
            return App(Var(i), _gen(rng, budget, arg_ty, ctx))
        fn = _gen(rng, budget, Arrow(arg_ty, target), ctx)
        arg = _gen(rng, budget, arg_ty, ctx)
        return App(fn, arg)
    # rec at the target motive
    step = _gen(rng, budget, arrow(NAT, target, target), ctx)
    base = _gen(rng, budget, target, ctx)
    arg = _gen(rng, budget, NAT, ctx)
    return Rec(target, step, base, arg)


def gen_oracle(cfg: GenConfig) -> Oracle:
    """A Baire point with prefix length in [0, 16] and entries in [0, 10]."""
    rng = random.Random(cfg.seed)
    prefix = tuple(rng.randint(0, 10) for _ in range(rng.randint(0, 16)))
    return Oracle(prefix, rng.randint(0, 10))


def gen_tree(cfg: GenConfig) -> DTree:
    """A random tree of depth at most 4; children vary over a few answers, then repeat."""
    return _gen_tree(random.Random(cfg.seed), 4)


def _gen_tree(rng: random.Random, depth: int) -> DTree:
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.randint(0, 12))
    query = rng.randint(0, 12)
    width = rng.randint(1, 3)
    kids = tuple(_gen_tree(rng, depth - 1) for _ in range(width + 1))

    def children(a):
        return kids[a] if isinstance(a, int) and a < width else kids[width]

    return Branch(query, children)


# ---------------------------------------------------------------------------
# The fixed term corpus
# ---------------------------------------------------------------------------

CORPUS = (
    ("const7", "fun (a : nat -> nat) -> 7"),
    ("a4", "fun (a : nat -> nat) -> a 4"),
    ("aa2", "fun (a : nat -> nat) -> a (a 2)"),
    ("a0", "fun (a : nat -> nat) -> a 0"),
    ("aaa0", "fun (a : nat -> nat) -> a (a (a 0))"),
    ("succs", "fun (a : nat -> nat) -> succ (succ (a (succ (a 3))))"),
    ("letlike", "fun (a : nat -> nat) -> (fun (b : nat) -> succ (a b)) (a 5)"),
    (
        "addrec",
        "fun (a : nat -> nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> succ r) (a 1) (a 2)",
    ),
    (
        "chase",
        "fun (a : nat -> nat) -> rec[nat] (fun (i : nat) -> fun (r : nat) -> a r) 3 (a 0)",
    ),
    (
        "compose",
        "fun (a : nat -> nat) -> rec[nat -> nat]"
        " (fun (i : nat) -> fun (g : nat -> nat) -> fun (x : nat) -> a (g x))"
        " (fun (x : nat) -> x) 2 7",
    ),
)


@lru_cache(maxsize=None)
def corpus_terms() -> "tuple[Term, ...]":
    return tuple(typecheck(parse(src)) for _, src in CORPUS)


# ---------------------------------------------------------------------------
# Reports and shrinking
# ---------------------------------------------------------------------------


@dataclass
class Failure:
    term: Optional[str]
    oracle: Optional[str]
    detail: str


@dataclass
class Report:
    suite: str
    cases: int
    failures: "list[Failure]" = field(default_factory=list)
    seconds: float = 0.0
    #: cases decided by replaying a recorded run, without sampling
    replayed: int = 0

    @property
    def passed(self) -> bool:
        """No case failed, and at least one ran."""
        return self.cases > 0 and not self.failures

    def summary(self) -> str:
        if not self.cases:
            return f"{self.suite}: 0 cases [FAILED: no case ran]"
        state = "ok" if self.passed else f"{len(self.failures)} FAILED"
        replayed = f" ({self.replayed} by replay)" if self.replayed else ""
        return f"{self.suite}: {self.cases} cases{replayed}, {self.seconds:.1f}s [{state}]"


def _shrink_candidates(term: Term, ctx=()):
    """Yield term with one subterm replaced by the canonical inhabitant of its
    type, for each subterm not already canonical, outermost first in
    pre-order."""
    replacement = canonical(infer(term, ctx))
    if term != replacement:
        yield replacement
    for name, bound in SUBTERMS[type(term)]:
        inner = (term.domain,) + ctx if bound else ctx
        yield from (replace(term, **{name: sub}) for sub in _shrink_candidates(getattr(term, name), inner))


def shrink_term(term: Term, still_fails: Callable[[Term], bool]) -> Term:
    """Greedily replace subterms with canonical inhabitants while still_fails
    holds.  Candidates are well-typed by construction; still_fails decides what
    a candidate that raises means, and what it raises itself propagates."""
    improved = True
    while improved:
        improved = False
        for candidate in _shrink_candidates(term):
            if still_fails(candidate):
                term = candidate
                improved = True
                break
    return term


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

class _Views:
    """What the suites observe of one input, a closed term of type (nat -> nat) -> nat
    or, with term None, lem36's generated tree.  A view's first read stores
    `_VIEWS[name](self)` in the instance, or keeps what it raised in `raised`;
    candidates holds the views of the terms the input's shrinks tried."""

    def __init__(self, term: Term, seed: int):
        self.term, self.seed, self.raised, self.candidates = term, seed, {}, {}

    def __getattr__(self, name: str):  # only a name the instance does not hold
        build = _VIEWS.get(name)
        if build is None:
            raise AttributeError(f"no view {name!r}")
        raised = self.raised.get(name)
        if raised:
            raise raised[0].with_traceback(raised[1])
        try:
            value = self.__dict__[name] = build(self)
        except Exception as err:
            self.raised[name] = err, err.__traceback__
            raise
        return value


def _tree_int(term: Term, motive: Ty):
    """The compiled internal tree of term at motive.  Its translation must have type
    church_type(nat, motive), or TypeCheckError is raised before it compiles."""
    t = church.dialogue_tree_int(term, motive)
    ty, want = infer(t, ()), church.church_type(NAT, motive)
    if ty != want:
        raise TypeCheckError(None, want, ty)
    return eval_set(t)


def _differ(lhs: int, rhs: int, detail: str) -> Optional[str]:
    return None if lhs == rhs else detail.format(lhs, rhs)


def _thm16(v: _Views, alpha: Oracle) -> Optional[str]:
    return _differ(v.value(alpha), dialogue.dieval(v.tree, alpha), "set model {} != dialogue {}")


def _lem36(v: _Views, alpha: Oracle) -> Optional[str]:
    return _differ(dialogue.dieval(v.tree, alpha), v.encoded_dialogue(alpha), "dieval {} != internal dialogue {}")


def _thm37(v: _Views, alpha: Oracle) -> Optional[str]:
    rhs = v.internal_dialogue(alpha)
    return _differ(v.value(alpha), rhs, "set model {} != internal dialogue {}")


def _pointwise_moduli(tree_view: str):
    """lem40 and lem44: the external max question and modulus at alpha equal
    the internal ones, run on the encoded or on the internal tree."""

    def check(v: _Views, alpha: Oracle) -> Optional[str]:
        tree = getattr(v, tree_view)
        return _differ(
            moduli.max_question(v.tree, alpha),
            eval_set(moduli.max_question_int())(tree)(alpha),
            "max question: external {} != internal {}",
        ) or _differ(
            moduli.modulus(v.tree, alpha),
            eval_set(moduli.modulus_int())(tree)(alpha),
            "modulus: external {} != internal {}",
        )

    return check


def agreeing_oracle(alpha: Oracle, m: int, rng: random.Random) -> Oracle:
    """An oracle agreeing with alpha on [0, m), then a tail of 0 to 8 entries
    and a default, each uniform in [0, 10]."""
    prefix = alpha.prefix[:m]
    rand = rng.random
    tail = tuple([int(rand() * 11) for _ in range(int(rand() * 9))])
    return Oracle(prefix + (alpha.default,) * (m - len(prefix)) + tail, int(rand() * 11))


def recording(alpha: Callable[[int], int], asked: "list[int]") -> Callable[[int], int]:
    """alpha, appending each index it is asked to `asked`."""

    def answer(i: int) -> int:
        asked.append(i)
        return alpha(i)

    return answer


#: What a check returns for a case it passed by replaying a recorded run.
_REPLAYED = "replayed"


def _verdict(check, v: _Views, alpha: Optional[Oracle]) -> "tuple[Optional[str], Optional[str]]":
    """How check fails at alpha ("mismatch", "raised <Class>" or None) and its
    detail: None, _REPLAYED, or for a raise "raised <Class>: <message>".
    RecursionError measures the caller's stack, not the term: it propagates."""
    try:
        detail = check(v, alpha)
    except RecursionError:
        raise
    except Exception as err:
        raised = f"raised {type(err).__name__}"
        return raised, f"{raised}: {err}"
    return (None if detail in (None, _REPLAYED) else "mismatch"), detail


def _witness(check, v: _Views, alpha: Optional[Oracle], failing: str, earlier: dict) -> Term:
    """v's term shrunk while check fails at alpha as `failing`.  The witness
    earlier[failing], shrunk at another point of the same term and check, is
    kept if it fails that way here too; a new one is stored there."""

    def fails(t: Term) -> bool:
        return _verdict(check, v.candidates.setdefault(t, _Views(t, v.seed)), alpha)[0] == failing

    witness = earlier.get(failing)
    if witness is None or not fails(witness):
        witness = earlier[failing] = shrink_term(v.term, fails)
    return witness


def _thm45(v: _Views, alpha: Oracle) -> Optional[str]:
    """Oracles agreeing with alpha below the internal modulus m give its value.
    The set-model value is deterministic and reads the oracle only by calling
    it, so if its run at alpha asks only indices below m, every such oracle
    answers each question alike, replays the run and gives the same value: the
    case passes by replay.  Otherwise 50 agreeing oracles are sampled."""
    m = eval_set(moduli.modulus_int())(v.internal)(alpha)
    asked: "list[int]" = []
    want = v.value(recording(alpha, asked))
    if max(asked, default=-1) < m:
        return _REPLAYED
    rng = random.Random(_mix(v.seed, hash((alpha.prefix, alpha.default)) & 0xFFFF))
    for _ in range(50):
        beta = agreeing_oracle(alpha, m, rng)
        got = v.value(beta)
        if got != want:
            return (
                f"modulus {m} not respected: value {want} at {alpha.spec()}"
                f" but {got} at {beta.spec()}"
            )
    return None


def _uniform_max_question(tree_view: str):
    """lem50 and lem54: the external uniform max question equals the internal
    one, run on the encoded or on the internal tree."""

    def check(v: _Views, _: None) -> Optional[str]:
        rhs = eval_set(moduli.max_bool_question_int())(getattr(v, tree_view))
        return _differ(v.uniform_max, rhs, "uniform max question: external {} != internal {}")

    return check


def _thm55(v: _Views, _: None) -> Optional[str]:
    """The internal uniform modulus m is one past the tree's max question, and
    0/1 points agreeing on [0, m) give equal values: exhaustive over the 2^m
    prefixes when m <= 12, 200 sampled prefixes otherwise."""
    m = eval_set(moduli.modulus_uni_int())(v.internal)
    if m != 1 + v.uniform_max:
        return f"uniform modulus {m} != 1 + tree max {v.uniform_max}"
    rng = random.Random(_mix(v.seed, 104729))

    def bits(n: int) -> tuple:
        return tuple(int(rng.random() < 0.5) for _ in range(n))

    prefixes = product((0, 1), repeat=m) if m <= 12 else (bits(m) for _ in range(200))
    for prefix in prefixes:
        a, b = (Oracle(prefix + bits(rng.randint(0, 6)), bits(1)[0]) for _ in range(2))
        if v.value(a) != v.value(b):
            return (
                f"uniform modulus {m} not respected:"
                f" {v.value(a)} at {a.spec()} vs {v.value(b)} at {b.spec()}"
            )
    return None


#: Each suite as (check, inputs, oracles per input) of the default selftest
#: run.  A check maps an input's views and a point to a failure detail or None.
#: A suite whose default oracle count is 0 checks the whole tree, at the one
#: point None per term, whatever oracle count a run asks for.  lem36 checks
#: generated trees, not terms: its views hold a tree and no term.
SUITES = {
    "thm16": (_thm16, 500, 20),
    "lem36": (_lem36, 200, 20),
    "thm37": (_thm37, 500, 20),
    "lem40": (_pointwise_moduli("encoded"), 500, 20),
    "lem44": (_pointwise_moduli("internal"), 500, 20),
    "thm45": (_thm45, 500, 10),
    "lem50": (_uniform_max_question("encoded"), 500, 0),
    "lem54": (_uniform_max_question("internal"), 500, 0),
    "thm55": (_thm55, 500, 0),
}
SUITE_IDS = tuple(SUITES)

#: How each view of an input is built from its views (see `_Views`).
_VIEWS = {
    "value": lambda v: eval_set(v.term),
    # lem36's input has no term: its tree is the one drawn from the seed
    "tree": lambda v: gen_tree(GenConfig(seed=v.seed)) if v.term is None else dialogue.dialogue_tree(v.term),
    "encoded": lambda v: church.encode(v.tree, NAT),
    "internal": lambda v: _tree_int(v.term, NAT),
    "internal_dialogue": lambda v: eval_set(church.dialogue_f_int())(_tree_int(v.term, BAIRE_FN)),
    "encoded_dialogue": lambda v: eval_set(church.dialogue_f_int())(church.encode(v.tree, BAIRE_FN)),
    "uniform_max": lambda v: moduli.max_bool_question(moduli.prune(v.tree)),
}


@lru_cache(maxsize=256)
def _oracles(cfg: GenConfig, n: int) -> "tuple[Oracle, ...]":
    """The n oracles a run at cfg checks, kept for the latest 256 (cfg, n), under
    1 MB at 20 oracles each, and shared: an Oracle is immutable."""
    return tuple(gen_oracle(replace(cfg, seed=_mix(cfg.seed, 7919 + i))) for i in range(n))


def run_suites(scales, cfg: GenConfig = GenConfig(), extra_terms=()) -> "list[Report]":
    """Run the suites `scales` maps to (inputs, oracles per input) in one pass
    over the inputs and report in that order.  Each suite checks a prefix of
    one oracle list and of one term list, extra terms first; lem36 checks a
    prefix of the generated trees instead.  The oracle list depends only on cfg
    and its length, and calls at one cfg share one draw of it (`_oracles`)."""
    for which in scales:
        if which not in SUITES:
            raise ValueError(f"unknown suite {which!r}; pick one of {', '.join(SUITE_IDS)}")
    n_oracles = max((k for which, (_, k) in scales.items() if SUITES[which][2]), default=0)
    oracles = _oracles(cfg, n_oracles)
    terms = list(extra_terms)
    suites = [
        (Report(which, 0), check, n if which == "lem36" else len(terms) + n, oracles[:k] if default_k else [None])
        for which, (n, k) in scales.items()
        for check, _, default_k in [SUITES[which]]
    ]
    n_generated = max((n for which, (n, _) in scales.items() if which != "lem36"), default=0)
    terms += [gen_term(replace(cfg, seed=_mix(cfg.seed, i)), BAIRE_FN) for i in range(n_generated)]
    for i in range(max((n_inputs for _, _, n_inputs, _ in suites), default=0)):
        seed = _mix(cfg.seed, i)  # each input's probes draw from their own seed
        # lem36's input i is the tree drawn from the seed, and no term
        term_views, tree_views = _Views(terms[i] if i < len(terms) else None, seed), _Views(None, seed)
        for report, check, n_inputs, points in suites:
            views = tree_views if report.suite == "lem36" else term_views
            started, witnesses = time.perf_counter(), {}
            for alpha in points if i < n_inputs else ():
                report.cases += 1
                failing, detail = _verdict(check, views, alpha)
                if detail is _REPLAYED:
                    report.replayed += 1
                elif failing:  # a tree of lem36 has no term to shrink
                    term = views.term and pretty(_witness(check, views, alpha, failing, witnesses))
                    spec = None if alpha is None else alpha.spec()
                    report.failures.append(Failure(term, spec, detail))
            report.seconds += time.perf_counter() - started
    return [report for report, *_ in suites]


def run_suite(
    which: str,
    cfg: GenConfig = GenConfig(),
    n_terms: int = 100,
    n_oracles: int = 20,
    extra_terms=(),
) -> Report:
    """Run one property suite over generated inputs plus any extra terms."""
    return run_suites({which: (n_terms, n_oracles)}, cfg, extra_terms)[0]
