"""The staged evaluator of System T, and its set model.

`compile_term` compiles a term once into nested Python closures over
environments; the result is applied any number of times without walking the
term again.  A closed constant recorded with `share` is built once per model
as native lambdas, written in one walk that evaluates its value redexes under
an environment of values (`_native`).  The same compiler serves the set model
here, where terms evaluate to numbers and host functions, and the tree model
in `dialogue`, where a natural may ask the oracle.  Following effectful forcing,
both models keep a natural that asks nothing as a plain `int` and add to a
natural with Python's `+`, so a model is one function: how its recursor binds
the natural it runs on.  A function value is a plain Python callable, and no
ground value is callable (a natural that asks is a `Graft`), so compiled
closures pass ground values unboxed, and Python's own call raises `TypeError`
on one applied as a function.  `NatV` boxes naturals only at the public
boundary: `eval_set` returns one for a closed term of type nat, and
`apply_set` takes a `NatV` or an `int` and returns a `NatV` at ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Union

from .syntax import _SHARED, SUBTERMS, App, Lam, Rec, Succ, Term, Ty, Var, Zero, occurs_free, successors


@dataclass(frozen=True)
class NatV:
    value: int


#: A value of the set model inside compiled closures.
SetValue = Union[int, Callable]

#: A compiled term: a closure from an environment to a value of the model.
Compiled = Callable[[tuple], object]


#: A model of System T, model(motive, c, iterate): a compile-time combinator
#: building the closure that feeds the natural c computes to iterate(env, n),
#: which runs a recursor at the motive n times.
Model = Callable[[Ty, Compiled, Callable[[tuple, int], object]], Compiled]


_SMALL = tuple(NatV(i) for i in range(4096))


def _natural(n: int) -> int:
    """n, which must not be negative."""
    if n < 0:
        raise ValueError(f"naturals are nonnegative, got {n}")
    return n


def natv(n: int) -> NatV:
    """NatV with small values interned."""
    return _SMALL[n] if 0 <= n < 4096 else NatV(_natural(n))


def apply_set(fn: Callable, arg) -> Union[NatV, Callable]:
    """Apply a function value of the set model (not the tree model) to a NatV,
    an int or a function value; a negative natural raises ValueError."""
    if isinstance(arg, NatV):
        arg = arg.value
    if isinstance(arg, int) and arg < 0:  # inline, not _natural: no frame per call
        raise ValueError(f"naturals are nonnegative, got {arg}")
    out = fn(arg)
    return (_SMALL[out] if 0 <= out < 4096 else natv(out)) if isinstance(out, int) else out


def lift_oracle(alpha) -> Callable[[int], int]:
    """Wrap any function on the naturals as a value of type nat -> nat whose
    answers must be naturals; an Oracle, which holds only naturals, needs none."""
    return lambda n: _natural(alpha(n))


def SET_MODEL(motive: Ty, argc: Compiled, iterate) -> Compiled:
    """The set model: a natural is an int, and the recursor runs on its value."""
    return lambda env: iterate(env, argc(env))


def eval_set(term: Term) -> Union[NatV, Callable]:
    """Evaluate a closed, well-typed term (a NatV at ground)."""
    out = compile_term(term, SET_MODEL)(())
    return out if callable(out) else natv(out)


def share(term: Term) -> Term:
    """Record a closed, typechecked term, whose closure never reads its environment: every
    occurrence of this object, not of an equal one, compiles to one value per model."""
    _SHARED[id(term)] = (term, {})
    return term


def compile_term(term: Term, model: Model) -> Compiled:
    """Compile a well-typed term into a closure over environments of the model."""
    cls = type(term)
    if cls is Var:
        # a C-level getter: reading a variable costs no Python frame
        return itemgetter(term.index)
    if cls not in SUBTERMS:
        raise TypeError(f"not a term: {term!r}")
    shared = term.ty is not None and _SHARED.get(id(term))  # only a typechecked root is shared
    if shared:
        values = shared[1]
        if model not in values:
            values[model] = _native(term, model)
        value = values[model]
        return lambda env: value
    if cls is App:
        fnc = compile_term(term.fn, model)
        argc = compile_term(term.arg, model)
        return lambda env: fnc(env)(argc(env))  # the function first, then its argument
    if cls is Lam:
        bodyc = compile_term(term.body, model)
        return lambda env: lambda v: bodyc((v,) + env)
    if cls is Rec:
        return model(term.motive, compile_term(term.arg, model), _compile_iterate(term, model))
    # collapse successor chains so deep numerals cost one frame, not one each
    k, core = successors(term)
    if type(core) is Zero:
        return lambda env: k
    corec = compile_term(core, model)
    return lambda env: corec(env) + k


def _native(term: Term, model: Model):
    """A shared constant's value: one Python expression of lambdas, evaluated
    once.  Only `church.closed` calls `share`, so `eval` sees generated names
    and integers, never user text.  The parser writes each nested constant
    out in full, so one walk normalizes the constant as it writes it:
    `walk(t, env, depth)` gives t's value if it has one (a lambda, or succ^k
    of zero or of a binder), else its source.  A value asks the oracle
    nothing, so a redex on one walks the lambda's body with the value bound,
    and a redex on an application or a rec is kept, its argument run once.
    Per free index, `env` holds (Lam, its env) or (name, k), meaning name + k
    with None for zero.  Binder d is v<d>, and a `Rec` is the global c<i>,
    the closure `compile_term` builds for it, applied to env's values.
    System T is strongly normalizing, so the walk ends."""
    recs = []

    def source(v, depth: int) -> str:
        if type(v) is str:
            return v
        if type(v[0]) is Lam:
            lam, lam_env = v
            return f"(lambda v{depth}: {source(walk(lam.body, ((f'v{depth}', 0), *lam_env), depth + 1), depth + 1)})"
        name, k = v
        if name is None:
            return str(k)
        return f"({name} + {k})" if k else name

    def walk(t: Term, env: tuple, depth: int):
        cls = type(t)
        if cls is App:
            fn, arg = walk(t.fn, env, depth), walk(t.arg, env, depth)
            if type(fn) is tuple and type(fn[0]) is Lam and type(arg) is not str:
                return walk(fn[0].body, (arg, *fn[1]), depth)
            return f"{source(fn, depth)}({source(arg, depth)})"
        if cls is Var:
            return env[t.index]
        if cls is Lam:
            return t, env
        if cls is Succ or cls is Zero:
            k, core = successors(t)
            v = (None, 0) if type(core) is Zero else walk(core, env, depth)
            return f"({v} + {k})" if type(v) is str else (v[0], v[1] + k)
        if cls is Rec:  # the rec's indices point into the tuple of env's values
            recs.append(compile_term(t, model))
            return f"c{len(recs) - 1}(({''.join(f'{source(v, depth)}, ' for v in env)}))"
        raise TypeError(f"not a term: {t!r}")

    return eval(source(walk(term, (), 0), 0), {"__builtins__": {}, **{f"c{i}": rec for i, rec in enumerate(recs)}})


def _compile_iterate(term: Rec, model: Model):
    """The closure iterate(env, n) running the recursor of term n times."""
    basec = compile_term(term.base, model)
    step = term.step
    if type(step) is Lam and type(step.body) is Lam:
        # Uncurried fast path: a syntactic double lambda applied to the index
        # and the accumulator is its body evaluated under two extra bindings.
        body = step.body.body
        k, core = successors(body)
        if core == Var(0):
            # The step only adds k to its result: n steps add k * n at once, in
            # the tree model as one graft.  With k = 0 it is the identity at any motive.
            if k == 0:
                return lambda env, n: basec(env)
            return lambda env, n: basec(env) + k * n
        bodyc = compile_term(body, model)
        if not occurs_free(body, 0):
            # The step never reads the recursive result, so only the last
            # iteration matters; skipping the others is sound because
            # evaluation is pure and total.
            def iterate(env, n):
                if n == 0:
                    return basec(env)
                return bodyc((None, n - 1) + env)
        else:
            def iterate(env, n):
                acc = basec(env)
                for k in range(n):
                    acc = bodyc((acc, k) + env)
                return acc
        return iterate
    stepc = compile_term(step, model)

    def iterate(env, n):
        acc = basec(env)
        if n:
            fn = stepc(env)
            for k in range(n):
                acc = fn(k)(acc)
        return acc

    return iterate
