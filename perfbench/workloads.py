"""The benchmark's three workloads: selftest, query and apply.

A workload is a fixed list of inputs made from the seed.  `run(i, tracer)`
processes input i once and checks every answer against the other route to
the same number; all calls into the toolkit go through `tracer.call`, so a
traced run can split the time by layer.  `redraw(i)` replaces a generated
input with the next draw from the seed, for an input on which a call raised.

- selftest: chunks of terms through all nine `harness.run_suite` suites, in
  the order `systemt selftest` runs them.
- query: one source text per input, asked the six CLI questions (check, eval,
  tree, translate, modulus, umodulus), each compiling the term afresh as the
  CLI does.  Deep inputs, which hit the recursion-depth defect, are kept
  apart as a probe that is run once and not timed.
- apply: compile once, query many times: a pool of terms, each compiled to
  its set-model value, external tree and internal modulus and then applied to
  many oracles, plus the criterion-8 `max_term` grid over [0,200]^2.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field, replace

from systemt import church, harness, moduli
from systemt.cli import SELFTEST_SCALES
from systemt.dialogue import BAIRE_FN, Branch, Oracle, TypeMismatch, dialogue_tree, dieval, tree_sexpr
from systemt.harness import GenConfig
from systemt.set_model import apply_set, eval_set, lift_oracle, natv
from systemt.syntax import NAT, App, Lam, Rec, Succ, format_ty, infer, parse, pretty, typecheck


def _mix(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) & 0x7FFFFFFFFFFFFFFF


@dataclass
class Result:
    """What one input produced: checked cases, raised calls, wrong answers."""

    cases: int = 0
    #: (layer, exception class name) per call that raised
    errors: list = field(default_factory=list)
    #: (layer, detail) per answer that disagreed with the other route
    mismatches: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.mismatches)


def _guard(res: Result, tracer, fn, *args):
    """Run one question or check; a raised call is recorded, not propagated."""
    tracer.failed_layer = None
    try:
        return fn(*args)
    except Exception as err:
        layer = (tracer.failed_layer or "bench").split(".")[0]
        res.errors.append((layer, type(err).__name__))
        return None


def _term_nodes(term) -> int:
    n, stack = 0, [term]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, Succ):
            stack.append(t.arg)
        elif isinstance(t, Rec):
            stack += (t.step, t.base, t.arg)
        elif isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, App):
            stack += (t.fn, t.arg)
    return n


def _binary_nodes(tree, cap=math.inf) -> int:
    """Nodes of the tree restricted to answers 0 and 1, as `prune` keeps it;
    the count stops once it passes cap."""
    n, stack = 0, [tree]
    while stack and n <= cap:
        t = stack.pop()
        n += 1
        if isinstance(t, Branch):
            stack += (t.children(0), t.children(1))
    return n


def _baire_type(term) -> None:
    ty = infer(term, ())
    if ty != BAIRE_FN:
        raise TypeMismatch(f"expected {format_ty(BAIRE_FN)}, found {format_ty(ty)}")


def _type_text(term) -> str:
    return format_ty(infer(term, ()))


def _uniform_modulus(tree) -> int:
    return moduli.modulus_uni(moduli.prune(tree))


class Workload:
    name = ""
    #: name of the root span each input runs under
    root = ""
    inputs: list
    #: generated inputs drawn again, by reason
    redrawn: Counter

    def __init__(self):
        self.redrawn = Counter()

    @staticmethod
    def constant_terms() -> list:
        """The closed terms the workload compiles once, as part of set-up."""
        return []

    def prepare(self) -> None:
        """Compile the constant terms in this process."""
        for term in self.constant_terms():
            eval_set(term)

    def run(self, i: int, tracer) -> Result:
        raise NotImplementedError

    def redraw(self, i: int) -> bool:
        """Replace input i by the next draw from the seed; False when input i
        is not generated (a corpus term), so it cannot be drawn again."""
        return False

    def run_probe(self, tracer) -> "list[Result]":
        """Run, once, the inputs kept out of the timed list because every one
        of them fails (query's deep inputs)."""
        return []

    def latency_inputs(self) -> "list[int]":
        """The inputs whose times make up term_ms_p50 and term_ms_p90."""
        return list(range(len(self.inputs)))

    def terms_in(self, i: int) -> int:
        """How many terms input i stands for in the per-term latency."""
        return 1

    def sizes(self, i: int) -> Counter:
        """Size counts of input i, computed outside the timed region."""
        return Counter()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


class Selftest(Workload):
    """All nine suites over chunks of terms, each suite at its SELFTEST_SCALES
    oracle count, lem36 at its ratio of generated trees to terms."""

    name = "selftest"
    root = "selftest.chunk"

    #: terms per input: large enough that run_suite's per-call set-up (its
    #: oracles, compiled constants) stays near 1% of the work
    CHUNK = 5

    def __init__(self, seed: int, n_terms: int = 1000):
        super().__init__()
        self.cfg = GenConfig(seed=seed)
        corpus = list(harness.corpus_terms())
        self.n_corpus = len(corpus)
        generated = [harness.gen_term(GenConfig(seed=_mix(seed, i)), BAIRE_FN) for i in range(n_terms)]
        terms = corpus + generated
        self.inputs = []
        for k in range(0, len(terms), self.CHUNK):
            part = terms[k : k + self.CHUNK]
            n_trees = len(part) * SELFTEST_SCALES["lem36"][0] // SELFTEST_SCALES["thm16"][0]
            self.inputs.append((part, n_trees, GenConfig(seed=_mix(seed, 500_000 + k))))

    @staticmethod
    def constant_terms():
        return [
            church.dialogue_f_int(),
            moduli.max_question_int(),
            moduli.modulus_int(),
            moduli.max_bool_question_int(),
            moduli.modulus_uni_int(),
            *harness.corpus_terms(),
        ]

    def run(self, i, tracer):
        terms, n_trees, tree_cfg = self.inputs[i]
        res = Result()
        for suite in harness.SUITE_IDS:
            n_oracles = SELFTEST_SCALES[suite][1]
            if suite == "lem36":
                args = (suite, tree_cfg, n_trees, n_oracles)
            else:
                args = (suite, self.cfg, 0, n_oracles, terms)
            report = _guard(res, tracer, tracer.call, f"harness.{suite}", harness.run_suite, *args)
            if report is None:
                continue
            res.cases += report.cases
            res.counts[f"harness.{suite}_cases"] += report.cases
            for failure in report.failures:
                res.mismatches.append(("harness", f"{suite}: {failure.detail}"))
        return res

    def terms_in(self, i):
        return len(self.inputs[i][0])

    def redraw(self, i):
        part, n_trees, tree_cfg = self.inputs[i]
        kept = max(0, min(len(part), self.n_corpus - i * self.CHUNK))
        if kept == len(part):
            return False
        tree_cfg = GenConfig(seed=_mix(tree_cfg.seed, 1))
        fresh = [harness.gen_term(GenConfig(seed=_mix(tree_cfg.seed, 2 + j)), BAIRE_FN) for j in range(kept, len(part))]
        self.inputs[i] = (part[:kept] + fresh, n_trees, tree_cfg)
        self.redrawn["a call raised"] += len(fresh)
        return True


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

QUESTIONS = ("check", "eval", "tree", "translate", "modulus", "umodulus")
DEEP_EVERY = 20
#: A generated term whose dialogue tree, restricted to answers 0 and 1, has
#: more nodes than this is drawn again.  `tree --answers 2` prints every such
#: node down to depth 64 and `umodulus` visits them all; in 3000 terms at
#: budget 50 the largest tree had 3071 nodes, but one term in query seed 106
#: printed 238 MB and took minutes, which no time budget can absorb.
MAX_TREE_NODES = 1 << 14
_SEXPR_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _deep_source(j: int, n_deep: int, rng: random.Random) -> str:
    """The j-th of n_deep deep inputs.  Kinds take turns, and each kind's
    depths are stratified over its range, one seeded draw per stratum, so
    every seed covers the whole range; how far a deep input gets before it
    fails, and so its time and memory, depends on its depth."""
    kind, k = j % 3, j // 3
    strata = -(-(n_deep - kind) // 3)
    # Nested applications start at 400 levels: below about 340 the term still
    # parses, and `tree --answers 2` then prints a full binary tree of depth
    # 64, a run that never ends rather than a failure that can be counted.
    lo, hi = (400, 2000) if kind == 2 else (200, 2000)
    n = lo + int((k + rng.random()) * (hi - lo) / strata)
    if kind == 0:
        return f"fun (a : nat -> nat) -> {n}"
    if kind == 1:
        return "fun (a : nat -> nat) -> " + "succ (" * n + "a 0" + ")" * n
    return "fun (a : nat -> nat) -> " + "a (" * n + "0" + ")" * n


def _tree_fits(term) -> bool:
    try:
        return _binary_nodes(dialogue_tree(term), MAX_TREE_NODES) <= MAX_TREE_NODES
    except RecursionError:
        return True  # kept: the run draws it again when a question raises


class SexprReplay:
    """Follows a point through a printed tree (`systemt tree` output)."""

    def __init__(self, text: str):
        self.tokens = _SEXPR_TOKEN.findall(text)
        self.close = {}
        stack = []
        for i, tok in enumerate(self.tokens):
            if tok == "(":
                stack.append(i)
            elif tok == ")":
                self.close[stack.pop()] = i

    def leaf(self, point):
        """The leaf value the point reaches, or None where the print is cut."""
        toks, i = self.tokens, 0
        while True:
            head = toks[i + 1]
            if head == "leaf":
                return int(toks[i + 2])
            if head == "...":
                return None
            answer = point(int(toks[i + 2]))
            j = i + 3
            while toks[j] == "(" and int(toks[j + 1]) != answer:
                j = self.close[j] + 1
            if toks[j] != "(":
                raise ValueError(f"printed tree has no child for answer {answer}")
            i = j + 2


class Query(Workload):
    """Corpus, then generated terms at node budgets 25 and 50 alternately.
    Every 20th text drawn is deep; those go to the probe, not the inputs."""

    name = "query"
    root = "query.input"

    def __init__(self, seed: int, n_inputs: int = 2000):
        super().__init__()
        rng = random.Random(seed)
        corpus = [src for _, src in harness.CORPUS]
        self.inputs, self.deep = [], []
        #: input index -> config of its generated term
        self.cfgs = {}
        n_deep = n_inputs // DEEP_EVERY
        for i in range(n_inputs):
            deep = i % DEEP_EVERY == DEEP_EVERY - 1
            if deep:
                src = _deep_source(i // DEEP_EVERY, n_deep, rng)
            elif corpus:
                src = corpus.pop(0)
            else:
                src = self._draw(len(self.inputs), GenConfig(seed=_mix(seed, i), size_budget=25 if i % 2 else 50))
            alpha = harness.gen_oracle(GenConfig(seed=_mix(seed, 100_000 + i)))
            points = [Oracle((), 0), Oracle((), 1)] + [
                Oracle(tuple(rng.randint(0, 1) for _ in range(24)), rng.randint(0, 1)) for _ in range(2)
            ]
            (self.deep if deep else self.inputs).append((src, alpha, points))

    def _draw(self, k: int, cfg) -> str:
        """Source of a generated term for input k, drawn from cfg onwards."""
        term = harness.gen_term(cfg, BAIRE_FN)
        while not _tree_fits(term):
            self.redrawn["tree over MAX_TREE_NODES"] += 1
            cfg = replace(cfg, seed=_mix(cfg.seed, 1))
            term = harness.gen_term(cfg, BAIRE_FN)
        self.cfgs[k] = cfg
        return pretty(term)

    def redraw(self, i):
        if i not in self.cfgs:
            return False
        src = self._draw(i, replace(self.cfgs[i], seed=_mix(self.cfgs[i].seed, 1)))
        self.inputs[i] = (src,) + self.inputs[i][1:]
        self.redrawn["a call raised"] += 1
        return True

    @staticmethod
    def constant_terms():
        return [moduli.modulus_int(), moduli.modulus_uni_int(), church.generic_int(NAT)]

    # The six questions make the layer calls of cli.cmd_check ... cmd_umodulus.

    def _load(self, tr, src):
        return tr.call("syntax.typecheck", typecheck, tr.call("syntax.parse", parse, src))

    def _check(self, tr, src, alpha, kept):
        return tr.call("syntax.typecheck", _type_text, self._load(tr, src))

    def _eval(self, tr, src, alpha, kept):
        term = self._load(tr, src)
        tr.call("syntax.typecheck", _baire_type, term)
        kept["tv"] = tv = tr.call("set_model.eval_set", eval_set, term)
        return tr.call("set_model.apply_set", apply_set, tv, lift_oracle(alpha)).value

    def _tree(self, tr, src, alpha, kept):
        term = self._load(tr, src)
        kept["tree"] = tree = tr.call("dialogue.dialogue_tree", dialogue_tree, term)
        return tr.call("dialogue.tree_sexpr", tree_sexpr, tree, 2, 64)

    def _translate(self, tr, src, alpha, kept):
        term = self._load(tr, src)
        return tr.call("syntax.pretty", pretty, tr.call("church.dialogue_tree_int", church.dialogue_tree_int, term, NAT))

    def _modulus(self, tr, src, alpha, kept):
        term = self._load(tr, src)
        tr.call("syntax.typecheck", _baire_type, term)
        dti = tr.call("church.dialogue_tree_int", church.dialogue_tree_int, term, NAT)
        mod_v = tr.call("set_model.eval_set", eval_set, App(moduli.modulus_int(), dti))
        return tr.call("set_model.apply_set", apply_set, mod_v, lift_oracle(alpha)).value

    def _umodulus(self, tr, src, alpha, kept):
        term = self._load(tr, src)
        tr.call("syntax.typecheck", _baire_type, term)
        dti = tr.call("church.dialogue_tree_int", church.dialogue_tree_int, term, NAT)
        return tr.call("set_model.eval_set", eval_set, App(moduli.modulus_uni_int(), dti)).value

    def run(self, i, tracer):
        return self._ask(self.inputs[i], tracer)

    def run_probe(self, tracer):
        return [self._ask(inp, tracer) for inp in self.deep]

    def _ask(self, inp, tracer):
        src, alpha, points = inp
        res = Result(cases=1)
        kept = {}
        answers = {}
        for q in QUESTIONS:
            answer = _guard(res, tracer, getattr(self, "_" + q), tracer, src, alpha, kept)
            if answer is not None:
                answers[q] = answer
        self._check_answers(tracer, res, answers, kept, alpha, points)
        return res

    def _check_answers(self, tr, res, answers, kept, alpha, points):
        """Compare each answer with the other route to it."""

        def expect(layer, what, got, want):
            if got is not None and want is not None and got != want:
                res.mismatches.append((layer, f"{what}: {got} != {want}"))

        if "check" in answers:
            expect("syntax", "check", answers["check"], format_ty(BAIRE_FN))
        tree = kept.get("tree")
        if tree is None:
            return
        if "eval" in answers:
            d = _guard(res, tr, tr.call, "dialogue.dieval", dieval, tree, alpha)
            expect("set_model", "eval vs dieval of the tree", answers["eval"], d)
        if "modulus" in answers:
            m = _guard(res, tr, tr.call, "moduli.external", moduli.modulus, tree, alpha)
            expect("set_model", "internal vs external modulus", answers["modulus"], m)
        if "umodulus" in answers:
            m = _guard(res, tr, tr.call, "moduli.external", _uniform_modulus, tree)
            expect("set_model", "internal vs external uniform modulus", answers["umodulus"], m)
        tv = kept.get("tv")
        if "tree" in answers and tv is not None:
            try:
                replay = SexprReplay(answers["tree"])
                leaves = [replay.leaf(beta) for beta in points]
            except (ValueError, IndexError, KeyError) as err:
                res.mismatches.append(("dialogue", f"printed tree unreadable: {err!r}"))
                return
            for beta, leaf in zip(points, leaves):
                if leaf is not None:
                    got = _guard(res, tr, tr.call, "set_model.apply_set", apply_set, tv, lift_oracle(beta))
                    if got is not None:
                        expect("dialogue", f"printed tree at {beta.spec()} vs set model", leaf, got.value)

    def sizes(self, i):
        src = self.inputs[i][0]
        out = Counter({"syntax.source_bytes": len(src.encode())})
        try:
            term = typecheck(parse(src))
            out["church.translated_nodes"] = _term_nodes(church.dialogue_tree_int(term, NAT))
            out["dialogue.pruned_nodes"] = _binary_nodes(dialogue_tree(term))
        except RecursionError:
            pass
        return out


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

GRID = 201


class Apply(Workload):
    """A pool of corpus and generated terms, each compiled once and applied to
    many oracles, then the max_term grid, one input per row."""

    name = "apply"
    root = "apply.input"

    ORACLES_PER_TERM = 100

    def __init__(self, seed: int, n_generated: int = 600):
        super().__init__()
        terms = list(harness.corpus_terms())
        self.n_corpus = len(terms)
        #: input index -> config of its generated term
        self.cfgs = {self.n_corpus + i: GenConfig(seed=_mix(seed, i)) for i in range(n_generated)}
        terms += [harness.gen_term(self.cfgs[self.n_corpus + i], BAIRE_FN) for i in range(n_generated)]
        n = self.ORACLES_PER_TERM
        self.inputs = []
        for k, term in enumerate(terms):
            oracles = [harness.gen_oracle(GenConfig(seed=_mix(seed, 200_000 + k * n + j))) for j in range(n)]
            self.inputs.append(("term", term, oracles))
        self.inputs += [("grid", x, None) for x in range(GRID)]
        self.max_v = None

    @staticmethod
    def constant_terms():
        return [moduli.max_term(), moduli.modulus_int(), church.generic_int(NAT), *harness.corpus_terms()]

    def prepare(self):
        super().prepare()
        self.max_v = eval_set(moduli.max_term())

    def latency_inputs(self):
        return [i for i, inp in enumerate(self.inputs) if inp[0] == "term"]

    def redraw(self, i):
        if i not in self.cfgs:
            return False
        cfg = self.cfgs[i] = GenConfig(seed=_mix(self.cfgs[i].seed, 1))
        self.inputs[i] = ("term", harness.gen_term(cfg, BAIRE_FN), self.inputs[i][2])
        self.redrawn["a call raised"] += 1
        return True

    def run(self, i, tracer):
        kind, payload, oracles = self.inputs[i]
        res = Result()
        _guard(res, tracer, self._term if kind == "term" else self._grid_row, tracer, payload, oracles, res)
        return res

    def _term(self, tr, term, oracles, res):
        tv = tr.call("set_model.eval_set", eval_set, term)
        tree = tr.call("dialogue.dialogue_tree", dialogue_tree, term)
        dti = tr.call("church.dialogue_tree_int", church.dialogue_tree_int, term, NAT)
        mod_v = tr.call("set_model.eval_set", eval_set, App(moduli.modulus_int(), dti))
        for alpha in oracles:
            a = lift_oracle(alpha)
            v = tr.call("set_model.apply_set", apply_set, tv, a).value
            d = tr.call("dialogue.dieval", dieval, tree, alpha)
            m = tr.call("set_model.apply_set", apply_set, mod_v, a).value
            m_ext = tr.call("moduli.external", moduli.modulus, tree, alpha)
            res.cases += 1
            if v != d:
                res.mismatches.append(("set_model", f"value {v} != dieval {d} at {alpha.spec()}"))
            if m != m_ext:
                res.mismatches.append(("set_model", f"internal modulus {m} != external {m_ext} at {alpha.spec()}"))

    def _grid_row(self, tr, x, _, res):
        fx = tr.call("set_model.apply_set", apply_set, self.max_v, natv(x))
        for y in range(GRID):
            got = tr.call("set_model.apply_set", apply_set, fx, natv(y)).value
            res.cases += 1
            if got != max(x, y):
                res.mismatches.append(("set_model", f"max {x} {y} = {got}"))

    def sizes(self, i):
        kind, term, _ = self.inputs[i]
        if kind != "term":
            return Counter()
        return Counter({"church.translated_nodes": _term_nodes(church.dialogue_tree_int(term, NAT))})


WORKLOADS = {w.name: w for w in (Selftest, Query, Apply)}
