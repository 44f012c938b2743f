"""Command-line surface: check, eval, tree, translate, modulus, umodulus, selftest.

Exit codes: 0 on success, 1 on parse/type errors, bad oracles and terms too
deep for the 512 MiB stack a command runs on, 2 on a selftest or verification
failure or a usage error.

Each command but selftest names one term file.  `_run` reads and parses it
into `args.term` on the worker, before the command runs; the command's own
entry walks the term's types.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
from dataclasses import asdict

from . import church, harness, moduli
from .dialogue import BAIRE_FN, Oracle, TypeMismatch, dialogue_tree, dieval, require_baire_fn, tree_sexpr
from .set_model import eval_set
from .syntax import NAT, ParseError, TypeCheckError, UnboundVariable, format_ty, infer, parse, pretty

#: Per-suite (terms-or-trees, oracles) scales of the default selftest run.
SELFTEST_SCALES = {suite: (n, k) for suite, (_, n, k) in harness.SUITES.items()}

_MOTIVES = {"nat": NAT, "baire": BAIRE_FN}


def cmd_check(args) -> int:
    print(format_ty(infer(args.term, ())))
    return 0


def cmd_eval(args) -> int:
    term = args.term
    require_baire_fn(term)
    alpha = Oracle.from_spec(args.oracle)
    asked, path = [], []
    oracle = harness.recording(alpha, asked) if args.trace else alpha
    print(eval_set(term)(oracle))  # an Oracle answers only naturals
    if not args.trace:
        return 0
    dieval(dialogue_tree(term), harness.recording(alpha, path))
    # the set model is call-by-value, so it may ask an index whose answer the
    # tree path never needs, as in (fun (b : nat) -> 7) (a 9): a dead query
    on_path = set(path)
    print("asked:", ", ".join(str(i) if i in on_path else f"{i} (dead)" for i in asked) or "none")
    print("path:", ", ".join(map(str, path)) or "none")
    return 0


def cmd_tree(args) -> int:
    print(tree_sexpr(dialogue_tree(args.term), answers=args.answers, depth=args.depth))
    return 0


def cmd_translate(args) -> int:
    print(pretty(church.dialogue_tree_int(args.term, _MOTIVES[args.motive])))
    return 0


def cmd_modulus(args) -> int:
    mod_v = eval_set(moduli.modulus_int())(eval_set(church.dialogue_tree_int(args.term, NAT)))
    alpha = Oracle.from_spec(args.oracle)
    m = mod_v(alpha)
    print(m)
    if args.verify:
        tv = eval_set(args.term)
        want = tv(alpha)
        rng = random.Random(args.seed)
        for i in range(args.verify):
            beta = harness.agreeing_oracle(alpha, m, rng)
            got = tv(beta)
            if got != want:
                print(f"disagreement at {beta.spec()}: {got} != {want}")
                return 2
        print(f"verified: {args.verify} sampled points agreeing to {m} give {want}")
    return 0


def cmd_umodulus(args) -> int:
    print(eval_set(moduli.modulus_uni_int())(eval_set(church.dialogue_tree_int(args.term, NAT))))
    return 0


def cmd_selftest(args) -> int:
    scales = {
        suite: (n if args.terms is None else args.terms, k if args.oracles is None else args.oracles)
        for suite, (n, k) in SELFTEST_SCALES.items()
        if args.suite in (None, suite)
    }
    reports = harness.run_suites(scales, harness.GenConfig(seed=args.seed), harness.corpus_terms())
    passed = all(report.passed for report in reports)
    if args.json:
        import json  # loaded only here: importing it costs every command about 2 ms
        print(json.dumps({"passed": passed, "suites": [{**asdict(r), "passed": r.passed} for r in reports]}))
    else:
        for report in reports:
            print(report.summary())
            for failure in report.failures:
                where = f" oracle {failure.oracle}" if failure.oracle else ""
                term = f" term {failure.term}" if failure.term else ""
                print(f"  FAIL{term}{where}: {failure.detail}")
    return 0 if passed else 2


def _int_at_least(low: int):
    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return integer


def _build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph is about the code, not for --help
    top = argparse.ArgumentParser(prog="systemt", description=__doc__.rsplit("\n\n", 1)[0])
    sub = top.add_subparsers(dest="command", required=True)

    def term_command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("file")
        p.set_defaults(run=run)
        return p

    term_command("check", cmd_check, "typecheck a term and print its type")

    p = term_command("eval", cmd_eval, "apply a (nat -> nat) -> nat term to an oracle")
    p.add_argument("--oracle", required=True, help='e.g. "5,6,7;default=1"')
    p.add_argument("--trace", action="store_true", help="also print the indices asked and the tree path's queries")

    p = term_command("tree", cmd_tree, "print the dialogue tree as an s-expression")
    p.add_argument("--answers", type=_int_at_least(1), default=2, help="materialized answer alphabet {0..K-1}")
    p.add_argument("--depth", type=_int_at_least(0), default=64, help="depth bound; deeper subtrees print (...)")

    p = term_command("translate", cmd_translate, "print the encoded-tree term for a file")
    p.add_argument("--motive", choices=sorted(_MOTIVES), required=True)

    p = term_command("modulus", cmd_modulus, "internal modulus of continuity at an oracle")
    p.add_argument("--oracle", required=True)
    p.add_argument("--verify", type=_int_at_least(0), default=0, metavar="N", help="sample N agreeing points")
    p.add_argument("--seed", type=int, default=0)

    term_command("umodulus", cmd_umodulus, "internal uniform modulus over the Cantor space")

    p = sub.add_parser("selftest", help="run the differential property suites")
    p.add_argument("--suite", choices=harness.SUITE_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--terms", type=_int_at_least(0), default=None, help="override generated inputs per suite")
    p.add_argument("--oracles", type=_int_at_least(0), default=None, help="override oracles per input")
    p.add_argument("--json", action="store_true", help="print one JSON object instead of the text report")
    p.set_defaults(run=cmd_selftest)

    return top


def _run(args, outcome: list) -> None:
    try:
        if "file" in args:
            with open(args.file, encoding="utf-8-sig") as handle:  # a byte-order mark is not a token
                args.term = parse(handle.read())
        outcome.append(args.run(args))
    except BaseException as err:  # raised again on the calling thread
        outcome.append(err)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)  # on this thread, so usage errors exit 2
    outcome, limit, stack = [], sys.getrecursionlimit(), threading.stack_size(512 << 20)
    sys.setrecursionlimit(10**6)  # a term recurses a few frames per node, so give it a big stack
    try:
        worker = threading.Thread(target=_run, args=(args, outcome), daemon=True)
        worker.start()
        worker.join()
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
        return outcome[0]
    except (ParseError, TypeCheckError, UnboundVariable, TypeMismatch, ValueError, OSError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
