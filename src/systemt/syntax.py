"""System T syntax: types, de Bruijn terms, parsing, typechecking, printing.

Terms are intrinsically scoped with de Bruijn indices (index 0 is the most
recently bound variable) and carry the source position they were parsed
from.  Named variables exist only in the surface syntax: the parser resolves
each name to its index against the binders around it, and `infer` is the one
typechecker, reporting a type error at the position of the subterm at fault.

Types are hash-consed, so == and hash on them are identity checks.  Term nodes are slotted and
compare structurally, ignoring positions.  As `set_model.share` keys on identity, only `infer`
mutates a node, writing once into its slot ty the node's type as a closed term; `replace` never
copies ty, and `==`, `hash` and `repr` ignore it.  No term class has a subclass: each walk tests
type(t) with `is`, and rejects any other object with TypeError.

The registry of shared closed constants, `_SHARED`, lives here, so that printing sees it without
importing `set_model`: `set_model.share` records a typechecked root in it by id, and the entry's
memo holds the constant's value per model and its text per (binder depth, atom).  So `pretty`
writes a constant's text once per place and copies it after; no other term is kept.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, Optional, Union

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Nat:
    """The base type of natural numbers; Nat() is always NAT."""

    __slots__ = ()

    def __new__(cls):
        return NAT

    def __repr__(self):
        return "Nat()"

    def __reduce__(self):
        return Nat, ()


class Arrow:
    """A function type, hash-consed: Arrow(d, c) is the one object for (d, c)."""

    __slots__ = ("domain", "codomain")

    def __new__(cls, domain: "Ty", codomain: "Ty"):
        ty = _ARROWS.get((domain, codomain))
        if ty is None:
            ty = _ARROWS[domain, codomain] = object.__new__(cls)
            ty.domain, ty.codomain = domain, codomain
        return ty

    def __repr__(self):
        return f"Arrow(domain={self.domain!r}, codomain={self.codomain!r})"

    def __reduce__(self):
        return Arrow, (self.domain, self.codomain)


Ty = Union[Nat, Arrow]

NAT = object.__new__(Nat)
_ARROWS: "dict[tuple[Ty, Ty], Arrow]" = {}  # every Arrow built, by its children; never emptied


def arrow(*tys: Ty) -> Ty:
    """Right-nested function type: arrow(a, b, c) = a -> (b -> c)."""
    if not tys:
        raise ValueError("arrow() needs at least one type")
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = Arrow(ty, out)
    return out


@lru_cache(maxsize=None)  # bounded: _ARROWS keeps every type alive anyway
def format_ty(ty: Ty) -> str:
    """The text of ty; the codomain chain is walked in a loop, in linear time."""
    parts = []
    while type(ty) is Arrow:
        dom = format_ty(ty.domain)
        parts.append(f"({dom})" if type(ty.domain) is Arrow else dom)
        ty = ty.codomain
    parts.append("nat")
    return " -> ".join(parts)


# ---------------------------------------------------------------------------
# Core terms (de Bruijn)
# ---------------------------------------------------------------------------

#: A 1-based source position (line, col); None on terms not read from text.
Pos = Optional[tuple]


@dataclass(slots=True, eq=False, repr=False)
class _Typed:
    ty: Optional[Ty] = field(default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Var(_Typed):
    index: int
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Zero(_Typed):
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Succ(_Typed):
    arg: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Rec(_Typed):
    """Primitive recursion at the annotated motive type.

    step : nat -> motive -> motive, base : motive, arg : nat.
    """

    motive: Ty
    step: "Term"
    base: "Term"
    arg: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Lam(_Typed):
    domain: Ty
    body: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class App(_Typed):
    fn: "Term"
    arg: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


Term = Union[Var, Zero, Succ, Rec, Lam, App]

#: Each term class's subterm fields in order, with the number of binders
#: that the field sits under (a Lam's body sits under its own binder).
SUBTERMS = {
    Var: (),
    Zero: (),
    Succ: (("arg", 0),),
    Rec: (("step", 0), ("base", 0), ("arg", 0)),
    Lam: (("body", 1),),
    App: (("fn", 0), ("arg", 0)),
}

#: Closed constants by id, recorded by `set_model.share`: the term, which keeps its id its own,
#: and a memo holding its value per model and its printed text per (binder depth, atom).
_SHARED: "dict[int, tuple[Term, dict]]" = {}


def numeral(n: int) -> Term:
    """The closed term with exactly n successors applied to zero."""
    if n < 0:
        raise ValueError("numerals are nonnegative")
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def successors(term: Term) -> "tuple[int, Term]":
    """(k, core) for term = succ^k core, where core is not a successor; the
    chain is walked in a loop, so a deep numeral costs no frame per succ."""
    k = 0
    while type(term) is Succ:
        k, term = k + 1, term.arg
    return k, term


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


class TypeCheckError(Exception):
    def __init__(self, location, expected, found):
        self.location = location
        self.expected = expected
        self.found = found
        exp = format_ty(expected) if isinstance(expected, (Nat, Arrow)) else str(expected)
        fnd = format_ty(found) if isinstance(found, (Nat, Arrow)) else str(found)
        loc = f"{location[0]}:{location[1]}: " if location else ""
        super().__init__(f"{loc}expected {exp}, found {fnd}")


class UnboundVariable(Exception):
    def __init__(self, name: str, location=None):
        self.name = name
        self.location = location
        loc = f"{location[0]}:{location[1]}: " if location else ""
        super().__init__(f"{loc}unbound variable {name}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset({"zero", "succ", "rec", "fun", "nat"})
#: The tokens an application stops at: no argument starts with one.
_APP_ENDS = frozenset({"->", ")", "[", "]", ":", "fun", "nat", ""})

#: The largest numeral literal; literal n is a chain of n successors.
_LITERAL_CAP = 10**5
# one token with the blanks before it, the likeliest alternative first.  Names may hold any
# letters; an ASCII first letter is tested as a range, cheaper than [^\W\d].  The quantifiers
# are possessive, and the empty match at the end keeps trailing blanks from being retried.
_TOKEN_RE = re.compile(r"\s*+(?:[a-zA-Z_]\w*+|[()]|->|[^\W\d]\w*+|\d++|[\[\]:]|\S|\Z)")


def _tokenize(text: str) -> "tuple[list[str], list[int]]":
    """The token strings of text, the first "" at its end, and their end offsets."""
    chunks = _TOKEN_RE.findall(text)
    return list(map(str.lstrip, chunks)), list(accumulate(map(len, chunks)))


def _is_word(tok: str) -> bool:
    """Is tok a name or keyword: a letter or "_", then what str.isidentifier takes?"""
    return tok.isidentifier() and (tok[0].isalnum() or tok[0] == "_")


class _Parser:
    """Recursive descent, one method per production of the README grammar: ty,
    term, and atom for a term in argument position; self.i indexes the next token.

    self.scope holds the names bound around the next token, innermost first,
    so a name's de Bruijn index is its position there; a name outside it
    that self.defs holds is replaced by that closed term.  The first unbound
    name is kept in self.unbound and raised only once the whole text has
    parsed, so that any parse error takes precedence over it.
    """

    def __init__(self, text: str, defs):
        self.toks, self.ends = _tokenize(text)
        self.line_starts = "\n" in text and [0, *accumulate(len(line) + 1 for line in text.split("\n")[:-1])]
        self.defs = defs
        self.i = 0
        self.scope: "tuple[str, ...]" = ()
        self.unbound: Optional[UnboundVariable] = None

    def pos(self, i: int) -> tuple:
        """The 1-based (line, col) where token i starts."""
        start = self.ends[i] - len(self.toks[i])
        if not self.line_starts:  # one line: a token's column is its offset + 1
            return 1, start + 1
        line = bisect_right(self.line_starts, start)
        return line, start - self.line_starts[line - 1] + 1

    def raise_first_bad_token(self) -> None:
        """Raise a ParseError at the first character no token may hold, if any."""
        for i, tok in enumerate(self.toks):  # the ends of applications are symbols, keywords or ""
            if not (tok in _APP_ENDS or tok == "(" or tok.isdecimal() or _is_word(tok)):
                bad = next((k for k, c in enumerate(tok) if not ("_" + c).isidentifier()), 0)
                line, col = self.pos(i)
                raise ParseError(line, col + bad, f"a token (got {tok[bad]!r})")

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            raise ParseError(*self.pos(self.i), f"'{tok}'")
        self.i += 1

    # -- types ---------------------------------------------------------

    def ty(self) -> Ty:
        tok = self.toks[self.i]
        self.i += 1
        if tok == "nat":
            left = NAT
        elif tok == "(":
            left = self.ty()
            self.expect(")")
        else:
            raise ParseError(*self.pos(self.i - 1), "a type")
        if self.toks[self.i] == "->":
            self.i += 1
            return Arrow(left, self.ty())
        return left

    # -- terms ---------------------------------------------------------

    def term(self) -> Term:
        start, toks = self.i, self.toks
        if toks[start] != "fun":  # an application spine: an atom, then argument atoms
            head = self.atom()
            while toks[self.i] not in _APP_ENDS:
                head = App(head, self.atom(), head.pos)
            return head
        i = start + 1  # each token tested is followed by one more, if only ""
        if toks[i] != "(":
            raise ParseError(*self.pos(i), "'('")
        name = toks[i + 1]
        if name in _KEYWORDS or not _is_word(name):
            raise ParseError(*self.pos(i + 1), "a variable name")
        if toks[i + 2] != ":":
            raise ParseError(*self.pos(i + 2), "':'")
        self.i = i + 3
        dom = self.ty()
        i = self.i
        if toks[i] != ")":
            raise ParseError(*self.pos(i), "')'")
        if toks[i + 1] != "->":
            raise ParseError(*self.pos(i + 1), "'->'")
        self.i = i + 2
        outer = self.scope
        self.scope = (name,) + outer
        body = self.term()
        self.scope = outer
        return Lam(dom, body, self.pos(start))

    def atom(self) -> Term:
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if tok == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if tok in self.scope:  # only names are bound
            return Var(self.scope.index(tok), self.pos(i))
        if tok == "succ":
            return Succ(self.atom(), self.pos(i))
        if tok == "zero":
            return Zero(self.pos(i))
        if tok == "rec":
            self.expect("[")
            motive = self.ty()
            self.expect("]")
            step, base = self.atom(), self.atom()
            return Rec(motive, step, base, self.atom(), self.pos(i))
        if tok.isdecimal():
            n = int(tok[-6:])
            # any nonzero digit, of any script, before the last six tops the six-digit cap
            if n > _LITERAL_CAP or any(map(int, tok[:-6])):
                raise ParseError(*self.pos(i), f"a numeral of at most {_LITERAL_CAP}")
            return Succ(numeral(n - 1), self.pos(i)) if n else Zero(self.pos(i))
        if tok in _KEYWORDS or not _is_word(tok):
            raise ParseError(*self.pos(i), "a term")
        if tok in self.defs:
            return replace(self.defs[tok], pos=self.pos(i))
        if self.unbound is None:
            self.unbound = UnboundVariable(tok, self.pos(i))
        return Var(0, self.pos(i))


def parse(text: str, defs: "Mapping[str, Term]" = MappingProxyType({})) -> Term:
    """Parse one closed surface-syntax term; application is left-associative.

    A name that no binder around it declares stands for the closed term defs
    gives it.  Raises ParseError on malformed text, first at a character no
    token may hold, else UnboundVariable at the first name that neither a
    binder nor defs declares.  The result is not yet typechecked.
    """
    p = _Parser(text, defs)
    try:
        term = p.term()
        if p.toks[p.i]:
            raise ParseError(*p.pos(p.i), "end of input")
    except (ParseError, RecursionError):
        # a bad character anywhere in the text wins, even over text too deep
        p.raise_first_bad_token()
        raise
    if p.unbound is not None:
        raise p.unbound
    return term


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


def typecheck(term: Term) -> Term:
    """Check that a closed term is well typed, and return it."""
    infer(term)
    return term


def infer(term: Term, ctx=()) -> Ty:
    """Synthesize the type of a well-scoped de Bruijn term in ctx, a sequence of types, innermost
    binding first.  A TypeCheckError carries the position of the subterm at fault (None if it was
    not parsed).  A type found in the empty context is recorded in the term's slot ty: a closed
    term has it in every context, so no node holding one is walked again."""
    try:
        if term.ty is None and not ctx:
            term.ty = _infer(term, ())
        return term.ty or _infer(term, tuple(ctx))
    except AttributeError as err:  # a node with no slot ty, so of no term class
        raise TypeError(f"not a term: {err.obj!r}") from None


def _infer(term: Term, ctx: tuple) -> Ty:
    cls = type(term)
    if cls is Var:
        if term.index >= len(ctx):
            raise TypeCheckError(term.pos, "a bound variable", f"index {term.index} in context of length {len(ctx)}")
        return ctx[term.index]
    if term.ty is not None:
        return term.ty
    if cls is App:
        fty = _infer(term.fn, ctx)
        if type(fty) is not Arrow:
            raise TypeCheckError(term.fn.pos, "a function type", fty)
        aty = _infer(term.arg, ctx)
        if aty is not fty.domain:
            raise TypeCheckError(term.arg.pos, fty.domain, aty)
        return fty.codomain
    if cls is Lam:
        return Arrow(term.domain, _infer(term.body, (term.domain,) + ctx))
    if cls is Succ:
        core = successors(term)[1]
        ty = _infer(core, ctx)
        if ty is not NAT:
            raise TypeCheckError(core.pos, NAT, ty)
        return NAT
    if cls is Zero:
        return NAT
    if cls is Rec:
        want_step = arrow(NAT, term.motive, term.motive)
        sty = _infer(term.step, ctx)
        if sty is not want_step:
            raise TypeCheckError(term.step.pos, want_step, sty)
        bty = _infer(term.base, ctx)
        if bty is not term.motive:
            raise TypeCheckError(term.base.pos, term.motive, bty)
        aty = _infer(term.arg, ctx)
        if aty is not NAT:
            raise TypeCheckError(term.arg.pos, NAT, aty)
        return term.motive
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Free occurrences
# ---------------------------------------------------------------------------


def occurs_free(term: Term, index: int) -> bool:
    """Does de Bruijn index `index` occur free in term?"""
    # a loop over a stack, not recursion, so a deep term costs no frame per node
    stack = [(term, index)]
    while stack:
        term, index = stack.pop()
        if type(term) is Var:
            if term.index == index:
                return True
        else:
            stack.extend((getattr(term, name), index + bound) for name, bound in SUBTERMS[type(term)])
    return False


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=1 << 12)
def _binder(depth: int, domain: Ty) -> "tuple[str, str]":
    """The name of the binder at depth, and the text of its fun header."""
    name = _LETTERS[depth % 26] + (str(depth // 26) if depth >= 26 else "")
    return name, f"fun ({name} : {format_ty(domain)}) -> "


def pretty(term: Term) -> str:
    """Deterministic surface syntax of a closed term; parse(pretty(t)) == t
    unless t holds a numeral above _LITERAL_CAP.  Binder names are chosen by
    depth, numerals are re-sugared, and non-atoms are parenthesized in
    argument position.  A shared constant's text is reused (see `_pp`).
    """
    out: "list[str]" = []
    try:
        _pp(term, [], False, out)
    except AttributeError as err:  # a node with no slot ty, so of no term class
        raise TypeError(f"not a term: {err.obj!r}") from None
    return "".join(out)


def _pp(t: Term, names: "list[str]", atom: bool, out: "list[str]") -> None:
    """Append t's text to out, parenthesized if atom is set and t is no atom.
    names holds the binders around t, innermost last; each piece is written
    once, so printing takes time linear in the text.  A shared constant is closed, so its
    text depends only on (len(names), atom), the key it is kept by in its `_SHARED` memo."""
    cls = type(t)
    if cls is Var:
        if t.index >= len(names):
            raise ValueError(f"free index {t.index} has no name")
        out.append(names[-1 - t.index])
        return
    if cls is Succ or cls is Zero:
        k, core = successors(t)
        if type(core) is Zero:
            out.append(str(k) if k else "zero")
            return
    shared = t.ty is not None and _SHARED.get(id(t))  # only a typechecked root is shared
    text = shared and shared[1].get((len(names), atom))
    if text:
        out.append(text)
        return
    start = len(out)
    if atom:
        out.append("(")
    if cls is App:
        args = [t.arg]
        t = t.fn
        while type(t) is App and t.ty is None:  # the spine f a b ... in a loop, to a head that
            args.append(t.arg)  # is no App, or is typed and may be shared
            t = t.fn
        _pp(t, names, type(t) is not App, out)  # an App head's text goes on without parentheses
        for arg in reversed(args):
            out.append(" ")
            _pp(arg, names, True, out)
    elif cls is Lam:
        name, header = _binder(len(names), t.domain)
        out.append(header)
        names.append(name)
        _pp(t.body, names, False, out)
        names.pop()
    elif cls is Succ:
        out.append("succ " + "(succ " * (k - 1))
        _pp(core, names, True, out)
        out.append(")" * (k - 1))
    elif cls is Rec:
        out.append(f"rec[{format_ty(t.motive)}]")
        for sub in (t.step, t.base, t.arg):
            out.append(" ")
            _pp(sub, names, True, out)
    else:
        raise TypeError(f"not a term: {t!r}")
    if atom:
        out.append(")")
    if shared:
        shared[1][len(names), atom] = "".join(out[start:])
