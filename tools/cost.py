"""Count the Python calls and opcodes that fixed probes of the program execute,
and find the deepest terms some of its entries take.

    python3 tools/cost.py [--probes modulus_int,translate,...,depth_parse_app,...] [--terms 50]

Each probe runs in a fresh interpreter (this script with --one NAME), so what
one probe builds or caches does not change another's counts.  Its set-up
(parsing, translating, building the shared constants, a warm-up run) is done
before counting starts.  The counts come from `sys.settrace` with opcode
events on, so they repeat exactly on one CPython version; they compare two
versions of the program, and say nothing of time.  The probes:

  modulus_int    the compiled internal modulus on `dialogue_tree_int` of the
                 corpus terms and --terms generated terms (seeds _mix(0, i)),
                 at the 5 oracles gen_oracle(_mix(0, 7919 + j)); every answer
                 is checked against the external modulus
  translate      `church.translate` of the same terms at the motives nat and
                 (nat -> nat) -> nat; every result's type is checked
  parse          `parse` of `pretty(t)` for each of the same terms t; every
                 result is checked to equal t
  pretty         `pretty` of `dialogue_tree_int(t, nat)` for each of the same
                 terms t, after a warm-up print; every text is checked to
                 parse to the term it prints
  infer          `typecheck`, then `dialogue_tree_int` at the motives nat and
                 (nat -> nat) -> nat, on one freshly parsed copy of each of
                 the same terms; every type is checked
  max_grid_x<x>  max x y of the compiled `max_term` for y in 0..200, at
                 x = 0, 100 and 200; every answer is checked
  run_suites     all nine suites over 20 terms with at most 5 oracles each,
                 seed 0, counted on the second of two runs
  run_suite_each the same nine suites on the same inputs, one `run_suite`
                 call per suite, counted on the second of two rounds

A depth probe prints the largest n up to MAX_DEPTH (4096) for which its entry
returns on a fresh thread at recursion limit 1000, found by binary search
after a warm-up at n = 1:

  depth_parse_app        `parse` of fun (a : nat -> nat) -> a (a (... a 0)),
                         n queries nested
  depth_parse_succ       `parse` of fun (a : nat -> nat) -> succ (... succ (a 0)),
                         n successors nested
  depth_modulus_int_app  the compiled internal modulus at the oracle i -> i + 1
                         on `dialogue_tree_int` of depth_parse_app's term,
                         built with App, not parsed; translating and
                         compiling included
  depth_modulus_int_succ the same on depth_parse_succ's term, built with Succ
  depth_infer_app/_succ  `infer` of the same two terms
  depth_translate_app/_succ
                         `church.translate` of them at the motive nat
  depth_eval_set_app/_succ
                         `eval_set` of them, compiling included, at the oracle
                         i -> i + 1
  depth_dialogue_tree_app/_succ
                         `dieval` at that oracle of their `dialogue_tree`

Prints one JSON object: the Python version, --terms and, per probe, its calls
and opcodes or its depth.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_DEPTH = 4096


def count(fn) -> "tuple[dict, object]":
    """The Python calls and opcodes that running fn() executes, and its result.
    fn's own frame is not counted, so count(lambda: expr) counts what
    evaluating expr runs."""
    calls = opcodes = 0
    here = sys._getframe()

    def trace(frame, event, arg):
        nonlocal calls, opcodes
        if event == "opcode":
            opcodes += 1
        elif event == "call":
            if frame.f_back is here:
                return None  # fn's own frame: no events of its own
            calls += 1
            frame.f_trace_opcodes = True
        return trace

    sys.settrace(trace)
    try:
        out = fn()
    finally:
        sys.settrace(None)
    return {"calls": calls, "opcodes": opcodes}, out


def probe_terms(n_terms: int) -> list:
    """The corpus terms and n_terms generated terms, at seeds _mix(0, i)."""
    from systemt.harness import GenConfig, _mix, corpus_terms, gen_term
    from systemt.syntax import NAT, Arrow, arrow

    return [*corpus_terms(), *(gen_term(GenConfig(_mix(0, i)), arrow(Arrow(NAT, NAT), NAT)) for i in range(n_terms))]


def modulus_int_probe(n_terms: int) -> dict:
    from systemt.church import dialogue_tree_int
    from systemt.dialogue import dialogue_tree
    from systemt.harness import GenConfig, _mix, gen_oracle
    from systemt.moduli import modulus, modulus_int
    from systemt.set_model import eval_set
    from systemt.syntax import NAT

    terms = probe_terms(n_terms)
    oracles = [gen_oracle(GenConfig(_mix(0, 7919 + j))) for j in range(5)]
    m = eval_set(modulus_int())
    applied = [m(eval_set(dialogue_tree_int(t, NAT))) for t in terms]
    counts, out = count(lambda: [f(alpha) for f in applied for alpha in oracles])
    if out != [modulus(dialogue_tree(t), alpha) for t in terms for alpha in oracles]:
        raise AssertionError("the internal modulus disagrees with the external one")
    return counts


def translate_probe(n_terms: int) -> dict:
    from systemt.church import translate, translate_type
    from systemt.dialogue import BAIRE_FN
    from systemt.syntax import NAT, infer

    jobs = [(t, motive) for motive in (NAT, BAIRE_FN) for t in probe_terms(n_terms)]
    [translate(t, motive) for t, motive in jobs]  # the warm-up builds the constants and the type caches
    counts, out = count(lambda: [translate(t, motive) for t, motive in jobs])
    if any(infer(u) != translate_type(infer(t), motive) for u, (t, motive) in zip(out, jobs)):
        raise AssertionError("a translated term has the wrong type")
    return counts


def parse_probe(n_terms: int) -> dict:
    from systemt.syntax import parse, pretty

    terms = probe_terms(n_terms)
    texts = [pretty(t) for t in terms]
    counts, out = count(lambda: [parse(text) for text in texts])
    if out != terms:
        raise AssertionError("a printed term parses to another term")
    return counts


def pretty_probe(n_terms: int) -> dict:
    from systemt.church import dialogue_tree_int
    from systemt.syntax import NAT, parse, pretty

    trees = [dialogue_tree_int(t, NAT) for t in probe_terms(n_terms)]
    [pretty(t) for t in trees]  # the warm-up writes the constants' texts
    counts, out = count(lambda: [pretty(t) for t in trees])
    if [parse(text) for text in out] != trees:
        raise AssertionError("a printed translation parses to another term")
    return counts


def infer_probe(n_terms: int) -> dict:
    from systemt.church import church_type, dialogue_tree_int
    from systemt.dialogue import BAIRE_FN
    from systemt.syntax import NAT, infer, parse, pretty, typecheck

    terms = probe_terms(n_terms)
    [dialogue_tree_int(t, motive) for t in terms for motive in (NAT, BAIRE_FN)]  # the warm-up builds the constants
    copies = [parse(pretty(t)) for t in terms]  # objects no type is recorded on yet
    counts, out = count(
        lambda: [(typecheck(t), dialogue_tree_int(t, NAT), dialogue_tree_int(t, BAIRE_FN)) for t in copies]
    )
    want = (BAIRE_FN, church_type(NAT, NAT), church_type(NAT, BAIRE_FN))
    if any(tuple(map(infer, row)) != want for row in out):
        raise AssertionError("a term or its translation has the wrong type")
    return counts


def max_grid_probe(x: int):
    """The probe of max x y for y in 0..200."""

    def probe(n_terms: int) -> dict:
        from systemt.moduli import max_term
        from systemt.set_model import apply_set, eval_set, natv

        fx = apply_set(eval_set(max_term()), natv(x))
        counts, out = count(lambda: [apply_set(fx, natv(y)).value for y in range(201)])
        if out != [max(x, y) for y in range(201)]:
            raise AssertionError(f"max {x} y is wrong")
        return counts

    return probe


def run_suites_probe(n_terms: int) -> dict:
    from systemt.harness import SUITES, GenConfig, run_suites

    scales = {which: (20, min(k, 5)) for which, (_, _, k) in SUITES.items()}
    run_suites(scales, GenConfig(0))  # the warm-up builds every constant and cache
    counts, reports = count(lambda: run_suites(scales, GenConfig(0)))
    if not all(r.passed for r in reports):
        raise AssertionError("a suite failed: " + "; ".join(map(str, reports)))
    return counts


def run_suite_each_probe(n_terms: int) -> dict:
    from systemt.harness import SUITES, GenConfig, run_suite

    def each():
        return [run_suite(which, GenConfig(0), 20, min(k, 5)) for which, (_, _, k) in SUITES.items()]

    each()  # the warm-up builds every constant and cache
    counts, reports = count(each)
    if not all(r.passed for r in reports):
        raise AssertionError("a suite failed: " + "; ".join(map(str, reports)))
    return counts


def deepest(run, build):
    """The depth probe of the entry run on the input build(n)."""

    def probe(n_terms: int) -> dict:
        import threading

        raised = []
        threading.excepthook = lambda hook: raised.append(hook.exc_type)
        sys.setrecursionlimit(1000)

        def returns(n: int) -> bool:
            thread = threading.Thread(target=run, args=(build(n),))  # no frame between the thread's and run's
            thread.start()
            thread.join()
            if not raised:
                return True
            if raised.pop() is RecursionError:
                return False
            raise AssertionError(f"the entry raised at depth {n}")

        returns(1)  # the warm-up builds the shared constants and fills the caches
        lo, hi = 0, MAX_DEPTH
        if returns(hi):
            return {"depth": hi}
        while hi - lo > 1:  # returns(lo) and not returns(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if returns(mid) else (lo, mid)
        return {"depth": lo}

    return probe


def nested_queries(n: int):
    """fun (a : nat -> nat) -> a (a (... a 0)), n queries, built with App."""
    from systemt.syntax import NAT, App, Arrow, Lam, Var, Zero

    body = Zero()
    for _ in range(n):
        body = App(Var(0), body)
    return Lam(Arrow(NAT, NAT), body)


def successors_of_a_query(n: int):
    """fun (a : nat -> nat) -> succ^n (a 0), built with Succ."""
    from systemt.syntax import NAT, App, Arrow, Lam, Succ, Var, Zero

    body = App(Var(0), Zero())
    for _ in range(n):
        body = Succ(body)
    return Lam(Arrow(NAT, NAT), body)


def parse_entry(text: str):
    from systemt.syntax import parse

    return parse(text)


def modulus_int_entry(term):
    from systemt.church import dialogue_tree_int
    from systemt.moduli import modulus_int
    from systemt.set_model import eval_set
    from systemt.syntax import NAT

    return eval_set(modulus_int())(eval_set(dialogue_tree_int(term, NAT)))(lambda i: i + 1)


def infer_entry(term):
    from systemt.syntax import infer

    return infer(term)


def translate_entry(term):
    from systemt.church import translate
    from systemt.syntax import NAT

    return translate(term, NAT)


def eval_set_entry(term):
    from systemt.set_model import eval_set

    return eval_set(term)(lambda i: i + 1)


def dialogue_tree_entry(term):
    from systemt.dialogue import dialogue_tree, dieval

    return dieval(dialogue_tree(term), lambda i: i + 1)


#: Each probe by name, in the order they print: a function of --terms to its JSON.
PROBES = {
    "modulus_int": modulus_int_probe,
    "translate": translate_probe,
    "parse": parse_probe,
    "pretty": pretty_probe,
    "infer": infer_probe,
    **{f"max_grid_x{x}": max_grid_probe(x) for x in (0, 100, 200)},
    "run_suites": run_suites_probe,
    "run_suite_each": run_suite_each_probe,
    "depth_parse_app": deepest(parse_entry, lambda n: "fun (a : nat -> nat) -> " + "a (" * n + "0" + ")" * n),
    "depth_parse_succ": deepest(parse_entry, lambda n: "fun (a : nat -> nat) -> " + "succ (" * n + "a 0" + ")" * n),
    **{
        f"depth_{name}_{shape}": deepest(entry, build)
        for name, entry in (
            ("modulus_int", modulus_int_entry),
            ("infer", infer_entry),
            ("translate", translate_entry),
            ("eval_set", eval_set_entry),
            ("dialogue_tree", dialogue_tree_entry),
        )
        for shape, build in (("app", nested_queries), ("succ", successors_of_a_query))
    },
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probes", default=",".join(PROBES), help="comma-separated, of: " + ", ".join(PROBES))
    ap.add_argument("--terms", type=int, default=50, help="generated terms of the probes that take terms")
    ap.add_argument("--one", choices=PROBES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(PROBES[args.one](args.terms)))
        return 0
    probes = args.probes.split(",")
    for name in probes:
        if name not in PROBES:
            ap.error(f"unknown probe {name!r}; pick from {', '.join(PROBES)}")
    out = {"python": platform.python_version(), "terms": args.terms}
    for name in probes:
        done = subprocess.run(
            [sys.executable, __file__, "--one", name, "--terms", str(args.terms)],
            capture_output=True, text=True, check=True,
        )
        out[name] = json.loads(done.stdout)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
