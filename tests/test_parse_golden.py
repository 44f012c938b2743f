"""The front end pinned: `parse` on a seeded set of texts, against a golden file.

Each text is a pretty-printed generated term, most of them mutated: blanks
turned into tabs, newlines or CRLF, and characters the tokenizer must place
or refuse (`²`, `a²`, `é`, `٣`, `@`, a lone `-`, brackets) inserted anywhere.
Each golden line is one text's outcome: `pretty` of the parsed term and
every node's position in pre-order, or the exception class and message.

Regenerate the golden, only on purpose, with

    PYTHONPATH=src python tests/test_parse_golden.py > tests/golden/parse.golden
"""

import random
import re
import sys
from itertools import accumulate
from pathlib import Path

from systemt.harness import GenConfig, gen_term
from systemt.syntax import NAT, SUBTERMS, _tokenize, arrow, parse, pretty

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse.golden"

BUDGETS = (10, 25, 40)
TEXTS = 2000
BLANKS = ("\t", "\n", "\r\n", " \n  ")
INSERTS = ("²", "a²", "é", "٣", "@", "-", "(", ")", "\n", "0")


def golden_texts() -> "list[str]":
    texts = []
    for i in range(TEXTS):
        text = pretty(gen_term(GenConfig(seed=i, size_budget=BUDGETS[i % 3]), arrow(arrow(NAT, NAT), NAT)))
        rng = random.Random(i)
        for _ in range(i % 5):  # a fifth of the texts stay as printed
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                blank = text.find(" ", at)
                if blank >= 0:
                    text = text[:blank] + rng.choice(BLANKS) + text[blank + 1:]
            else:
                text = text[:at] + rng.choice(INSERTS) + text[at:]
        texts.append(text)
    return texts


def _positions(term) -> str:
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        out.append(f"{t.pos[0]}:{t.pos[1]}" if t.pos else "-")
        stack.extend(getattr(t, name) for name, _ in reversed(SUBTERMS[type(t)]))
    return " ".join(out)


def outcome(text: str) -> str:
    try:
        term = parse(text)
    except Exception as e:  # the class and message are what is pinned
        return f"{type(e).__name__}: {e}"
    return f"{pretty(term)} @ {_positions(term)}"


def test_parse_outcomes_match_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = [outcome(text) for text in golden_texts()]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"text {i}: {golden_texts()[i]!r}"


#: The token pattern before its alternatives were ordered by frequency and its
#: quantifiers made possessive, kept as the reference the tokenizer must match.
REFERENCE_TOKEN_RE = re.compile(r"\s*(?:->|[()\[\]:]|\d+|[^\W\d]\w*|\S|\Z)")
#: Characters to place or refuse, and blanks of every kind, trailing blanks
#: and the empty text.
EDGE_TEXTS = (
    "éa", "²", "a²", "12ab", "a->b", "-", "fun\t(a\t:\tnat)\t->\ta", "a\r\nb", "a\r\n", "a  ", "a \t\n", "\t",
    " ", "",
)


def reference_tokenize(text: str) -> "tuple[list[str], list[int]]":
    chunks = REFERENCE_TOKEN_RE.findall(text)
    return [chunk.lstrip() for chunk in chunks], list(accumulate(map(len, chunks)))


def test_tokenizer_matches_the_reference_pattern():
    for text in [*golden_texts(), *EDGE_TEXTS]:
        assert _tokenize(text) == reference_tokenize(text), repr(text)


if __name__ == "__main__":
    sys.stdout.reconfigure(encoding="utf-8")
    for text in golden_texts():
        print(outcome(text))
