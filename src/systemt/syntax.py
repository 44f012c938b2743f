"""System T syntax: types, de Bruijn terms, parsing, typechecking, printing.

Terms are intrinsically scoped with de Bruijn indices (index 0 is the most
recently bound variable) and carry the source position they were parsed
from.  Named variables exist only in the surface syntax: the parser resolves
each name to its index against the binders around it, and `infer` is the one
typechecker, reporting a type error at the position of the subterm at fault.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Optional, Union

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nat:
    """The base type of natural numbers."""


@dataclass(frozen=True)
class Arrow:
    domain: "Ty"
    codomain: "Ty"


Ty = Union[Nat, Arrow]

NAT = Nat()


def arrow(*tys: Ty) -> Ty:
    """Right-nested function type: arrow(a, b, c) = a -> (b -> c)."""
    if not tys:
        raise ValueError("arrow() needs at least one type")
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = Arrow(ty, out)
    return out


def format_ty(ty: Ty) -> str:
    if isinstance(ty, Nat):
        return "nat"
    dom = format_ty(ty.domain)
    if isinstance(ty.domain, Arrow):
        dom = f"({dom})"
    return f"{dom} -> {format_ty(ty.codomain)}"


# ---------------------------------------------------------------------------
# Core terms (de Bruijn)
# ---------------------------------------------------------------------------

#: A 1-based source position (line, col); None on terms not read from text.
Pos = Optional[tuple]


@dataclass(frozen=True)
class Var:
    index: int
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Zero:
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Succ:
    arg: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Rec:
    """Primitive recursion at the annotated motive type.

    step : nat -> motive -> motive, base : motive, arg : nat.
    """

    motive: Ty
    step: "Term"
    base: "Term"
    arg: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Lam:
    domain: Ty
    body: "Term"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class App:
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


def numeral(n: int) -> Term:
    """The closed term with exactly n successors applied to zero."""
    if n < 0:
        raise ValueError("numerals are nonnegative")
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


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

# one group per token class, so a match's `lastindex` classifies it; names may
# hold any letters
_TOKEN_RE = re.compile(r"(->|[()\[\]:])|(\d+)|([^\W\d]\w*)|(\S)")

_ATOM_STARTERS = frozenset({"zero", "succ", "rec", "(", "num", "ident"})


def _tokenize(text: str) -> "list[tuple]":
    """The tokens of text as tuples (kind, text, line, col), the last of kind
    "eof".  kind is "num", "ident", or the token text itself for keywords and
    symbols; line and col are 1-based."""
    tokens = []
    line, line_start = 1, 0
    nl = text.find("\n")
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        while 0 <= nl < start:
            line, line_start = line + 1, nl + 1
            nl = text.find("\n", line_start)
        tok, group = m.group(), m.lastindex
        if group == 3 and tok.isidentifier():
            kind = tok if tok in _KEYWORDS else "ident"
        elif group == 1:
            kind = tok
        elif group == 2:
            kind = "num"
        else:  # \w also matches non-decimal digits such as "²", which no name holds
            bad = next((i for i, c in enumerate(tok) if not ("_" + c).isidentifier()), 0)
            raise ParseError(line, start - line_start + 1 + bad, f"a token (got {tok[bad]!r})")
        tokens.append((kind, tok, line, start - line_start + 1))
    line += text.count("\n", line_start)
    tokens.append(("eof", "", line, len(text) - text.rfind("\n")))
    return tokens


class _Parser:
    """Recursive descent over the token tuples; self.i indexes the next one.

    self.scope holds the names bound around the next token, innermost first,
    so a name's de Bruijn index is its position there; a name outside it
    that self.defs holds is replaced by that closed term.  The first unbound
    name is kept in self.unbound and raised only once the whole text has
    parsed, so that any parse error takes precedence over it.
    """

    def __init__(self, text: str, defs):
        self.tokens = _tokenize(text)
        self.defs = defs
        self.i = 0
        self.scope: "tuple[str, ...]" = ()
        self.unbound: Optional[UnboundVariable] = None

    def expect(self, kind: str, what: Optional[str] = None) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(tok[2], tok[3], what or f"'{kind}'")
        self.i += 1
        return tok

    # -- types ---------------------------------------------------------

    def ty(self) -> Ty:
        left = self.ty_atom()
        if self.tokens[self.i][0] == "->":
            self.i += 1
            return Arrow(left, self.ty())
        return left

    def ty_atom(self) -> Ty:
        kind, _, line, col = self.tokens[self.i]
        self.i += 1
        if kind == "nat":
            return NAT
        if kind == "(":
            inner = self.ty()
            self.expect(")")
            return inner
        raise ParseError(line, col, "a type")

    # -- terms ---------------------------------------------------------

    def term(self) -> Term:
        kind, _, line, col = self.tokens[self.i]
        if kind == "fun":
            self.i += 1
            self.expect("(")
            name = self.expect("ident", "a variable name")[1]
            self.expect(":")
            dom = self.ty()
            self.expect(")")
            self.expect("->")
            outer = self.scope
            self.scope = (name,) + outer
            body = self.term()
            self.scope = outer
            return Lam(dom, body, (line, col))
        return self.app()

    def app(self) -> Term:
        head = self.atom()
        tokens = self.tokens
        while tokens[self.i][0] in _ATOM_STARTERS:
            head = App(head, self.atom(), head.pos)
        return head

    def atom(self) -> Term:
        kind, text, line, col = self.tokens[self.i]
        self.i += 1
        if kind == "ident":
            try:
                return Var(self.scope.index(text), (line, col))
            except ValueError:
                if text in self.defs:
                    return replace(self.defs[text], pos=(line, col))
                if self.unbound is None:
                    self.unbound = UnboundVariable(text, (line, col))
                return Var(0, (line, col))
        if kind == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "num":
            n = int(text)
            return Succ(numeral(n - 1), (line, col)) if n else Zero((line, col))
        if kind == "zero":
            return Zero((line, col))
        if kind == "succ":
            return Succ(self.atom(), (line, col))
        if kind == "rec":
            self.expect("[")
            motive = self.ty()
            self.expect("]")
            step = self.atom()
            base = self.atom()
            return Rec(motive, step, base, self.atom(), (line, col))
        raise ParseError(line, col, "a term")


def parse(text: str, defs: "Mapping[str, Term]" = MappingProxyType({})) -> Term:
    """Parse one closed surface-syntax term; application is left-associative.

    A name that no binder around it declares stands for the closed term defs
    gives it.  Raises ParseError on malformed text, else UnboundVariable at
    the first name that neither a binder nor defs declares.  The result is
    not yet typechecked.
    """
    p = _Parser(text, defs)
    term = p.term()
    kind, _, line, col = p.tokens[p.i]
    if kind != "eof":
        raise ParseError(line, col, "end of input")
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
    """Synthesize the type of a well-scoped de Bruijn term in ctx, a sequence
    of types, innermost binding first.  A TypeCheckError carries the
    position of the subterm at fault (None if it was not parsed)."""
    ctx = tuple(ctx)
    if isinstance(term, Var):
        if term.index >= len(ctx):
            raise TypeCheckError(term.pos, "a bound variable", f"index {term.index} in context of length {len(ctx)}")
        return ctx[term.index]
    if isinstance(term, Zero):
        return NAT
    if isinstance(term, Succ):
        # numerals are Succ chains: walk them in a loop, not one frame each
        while isinstance(term, Succ):
            term = term.arg
        ty = infer(term, ctx)
        if ty != NAT:
            raise TypeCheckError(term.pos, NAT, ty)
        return NAT
    if isinstance(term, Rec):
        want_step = arrow(NAT, term.motive, term.motive)
        sty = infer(term.step, ctx)
        if sty != want_step:
            raise TypeCheckError(term.step.pos, want_step, sty)
        bty = infer(term.base, ctx)
        if bty != term.motive:
            raise TypeCheckError(term.base.pos, term.motive, bty)
        aty = infer(term.arg, ctx)
        if aty != NAT:
            raise TypeCheckError(term.arg.pos, NAT, aty)
        return term.motive
    if isinstance(term, Lam):
        return Arrow(term.domain, infer(term.body, (term.domain,) + ctx))
    if isinstance(term, App):
        fty = infer(term.fn, ctx)
        if not isinstance(fty, Arrow):
            raise TypeCheckError(term.fn.pos, "a function type", fty)
        aty = infer(term.arg, ctx)
        if aty != fty.domain:
            raise TypeCheckError(term.arg.pos, fty.domain, aty)
        return fty.codomain
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
        if isinstance(term, Var):
            if term.index == index:
                return True
        else:
            stack.extend((getattr(term, name), index + bound) for name, bound in SUBTERMS[type(term)])
    return False


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _binder_name(depth: int) -> str:
    q, r = divmod(depth, 26)
    return _LETTERS[r] + (str(q) if q else "")


def pretty(term: Term) -> str:
    """Deterministic surface syntax of a closed term; parse(pretty(t)) == t.

    Binder names are chosen by depth, numerals are re-sugared, and anything
    that is not an atom is parenthesized in argument position.
    """
    out: "list[str]" = []
    _pp(term, [], False, out)
    return "".join(out)


def _pp(t: Term, names: "list[str]", atom: bool, out: "list[str]") -> None:
    """Append t's text to out, parenthesized if atom is set and t is no atom.
    names holds the binders around t, innermost last; each piece is written
    once, so printing takes time linear in the text."""
    if isinstance(t, Var):
        if t.index >= len(names):
            raise ValueError(f"free index {t.index} has no name")
        out.append(names[-1 - t.index])
        return
    k, core = 0, t
    while isinstance(core, Succ):  # one walk per successor chain
        k, core = k + 1, core.arg
    if isinstance(core, Zero):
        out.append(str(k) if k else "zero")
        return
    if atom:
        out.append("(")
    if k:
        out.append("succ " + "(succ " * (k - 1))
        _pp(core, names, True, out)
        out.append(")" * (k - 1))
    elif isinstance(t, Lam):
        name = _binder_name(len(names))
        out.append(f"fun ({name} : {format_ty(t.domain)}) -> ")
        names.append(name)
        _pp(t.body, names, False, out)
        names.pop()
    elif isinstance(t, App):
        args = []
        while isinstance(t, App):  # the spine f a b ... in a loop
            args.append(t.arg)
            t = t.fn
        _pp(t, names, True, out)
        for arg in reversed(args):
            out.append(" ")
            _pp(arg, names, True, out)
    else:
        out.append(f"rec[{format_ty(t.motive)}]")
        for sub in (t.step, t.base, t.arg):
            out.append(" ")
            _pp(sub, names, True, out)
    if atom:
        out.append(")")
