"""Core data model for scheduled integer pipelines.

A pipeline is a list of integer-valued functions defined over rectangular
domains, reading from input buffers and from each other.  Every value is a
64-bit signed integer internally; buffer cells are 32-bit, and the runtime
treats a store outside the int32 range as an error rather than wrapping.

Conventions that the rest of the package relies on:

* Intervals are half-open.  ``Interval(lo, hi)`` covers ``lo <= v < hi``.
  Loop dumps render the inclusive upper bound (``[0, 127]`` for extent 128)
  because that is how boundary states are reported.
* Division and modulo are Euclidean and total: ``hdiv(x, 0) == 0`` and
  ``0 <= hmod(x, y) < |y|`` for ``y != 0``.  The identity
  ``x == y * hdiv(x, y) + hmod(x, y)`` holds whenever ``y != 0``.
* A function is built from stages.  Stage 0 is pure (defines every point of
  the domain); later stages either update a slice of the domain or fold over
  a reduction domain.  Reduction variables iterate with the first-declared
  variable fastest.
* Update and reduction stages are restricted so that the loop over their
  left-hand points commutes: each left-hand argument is either the matching
  domain variable itself or an expression free of domain variables.  This is
  what makes the in-place imperative execution agree with the pointwise
  functional encoding.
* Each expression type has one row in the node-shape table ``_SHAPES``: its
  children, how to rebuild it from new ones, and its closure.  ``walk``,
  ``free_vars``, ``rewrite``, ``substitute`` and ``compiled`` dispatch
  through it.  What is computed from a node is cached in its ``__dict__``,
  never as a field, so equality, hashing and printing ignore it and
  ``dataclasses.replace`` starts without it: the closures (``_fn``,
  ``_checked_fn``) and ``_facts`` (free variables, whether it reads
  storage, whether it is folded).  A rewrite keeps an unchanged subtree,
  so its caches carry over.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


def wrap_int64(v):
    """An exact int beyond int64 wrapped into it, as int64 arrays wrap;
    None for anything else.  Fits a checked evaluation's ``ctx.check``."""
    if isinstance(v, int) and not -(2**63) <= v < 2**63:
        return (v + 2**63) % 2**64 - 2**63
    return None


def hdiv(x: int, y: int) -> int:
    """Euclidean quotient, total: ``hdiv(x, 0) == 0``.

    The remainder ``hmod`` is always non-negative, so the quotient rounds
    towards negative infinity for positive divisors and towards positive
    infinity for negative ones.
    """
    if y == 0:
        return 0
    return (x - x % abs(y)) // y


def hmod(x: int, y: int) -> int:
    """Euclidean remainder, total: ``hmod(x, 0) == x`` so that the
    decomposition ``x == y * hdiv(x, y) + hmod(x, y)`` degenerates sanely."""
    if y == 0:
        return x
    return x % abs(y)


# ---------------------------------------------------------------------------
# Source positions and diagnostics


@dataclass(frozen=True)
class Span:
    """1-based line/column of the token that introduced a node."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span(0, 0)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: Span = NO_SPAN

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span != NO_SPAN else ""
        return f"{self.code}{where}: {self.message}"


class PipelineError(Exception):
    """Base for all user-facing failures while building or checking."""


class ParseError(PipelineError):
    def __init__(self, message: str, span: Span = NO_SPAN, code: str = "ParseError"):
        super().__init__(f"{code} at {span}: {message}" if span != NO_SPAN else f"{code}: {message}")
        self.code = code
        self.span = span
        self.detail = message


class ValidationError(PipelineError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class ScheduleError(PipelineError):
    def __init__(self, code: str, message: str, span: Span = NO_SPAN):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.span = span
        self.detail = message


class EncodeError(PipelineError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = message


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Expr:
    """Base class.  All subclasses are frozen, so trees hash and compare
    structurally; sharing subtrees is safe and encouraged."""

    def __add__(self, other: "Expr | int") -> "Expr":
        return _fold(BinOp("+", self, as_expr(other)))

    def __sub__(self, other: "Expr | int") -> "Expr":
        return _fold(BinOp("-", self, as_expr(other)))

    def __mul__(self, other: "Expr | int") -> "Expr":
        return _fold(BinOp("*", self, as_expr(other)))


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class FuncAccess(Expr):
    """Application of a pipeline function (or an encoder-introduced pure
    function such as ``p_i``) at a point."""

    func: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class BufAccess(Expr):
    buf: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class BinOp(Expr):
    """op is one of + - * hdiv hmod < <= == != && || ==>."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class Select(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class MinOf(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class MaxOf(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoundRef(Expr):
    """``entity.dim.min`` or ``entity.dim.max`` where entity is a buffer or a
    function.  Resolves to a constant once bounds are concrete; kept symbolic
    in pipeline contracts so the emitted artifacts can restate the relation."""

    entity: str
    dim: str
    end: str  # "min" | "max"


@dataclass(frozen=True)
class Result(Expr):
    """``\\result`` inside an encoded function contract."""


@dataclass(frozen=True)
class TableRead(Expr):
    """Read of flattened storage: an input buffer, an intermediate
    allocation, or the output buffer.  Appears only after lowering; the
    front-end never produces it."""

    target: "MemTarget"
    index: Expr


@dataclass(frozen=True)
class Frac(Expr):
    """A permission fraction ``num \\ (den * par1 * par2 * ...)``.

    The parallel factors are kept separate from ``den`` so the printed form
    shows where the division came from, e.g. ``1\\(2*128)`` for a half
    permission shared across 128 parallel iterations.
    """

    num: int = 1
    den: int = 1
    par: tuple[int, ...] = ()

    def value(self) -> Fraction:
        d = self.den
        for p in self.par:
            d *= p
        return Fraction(self.num, d)


@dataclass(frozen=True)
class PermAtom(Expr):
    """Access permission for one flattened storage cell.

    Inside annotation bodies this is the only non-arithmetic atom; the
    checker charges it to the permission ledger and treats its truth value
    as settled by that ledger rather than by evaluation.
    """

    target: "MemTarget"
    index: Expr
    frac: Frac


@dataclass(frozen=True)
class MemTarget:
    """Identity of a flattened storage region.

    kind is "buffer" for pipeline inputs, "output" for the caller-provided
    result buffer, and "alloc" for an intermediate realisation."""

    kind: str
    name: str

    def __str__(self) -> str:
        return self.name


def as_expr(x: "Expr | int") -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(int(x))


def _plus_const(e: Expr, k: int) -> Expr:
    """``e + k`` with any constant tail of ``e`` merged into ``k``."""
    if isinstance(e, Const):
        return Const(e.value + k)
    if isinstance(e, BinOp) and isinstance(e.right, Const):
        if e.op == "+":
            return _plus_const(e.left, e.right.value + k)
        if e.op == "-":
            return _plus_const(e.left, k - e.right.value)
    if k == 0:
        return e
    if k > 0:
        return BinOp("+", e, Const(k))
    return BinOp("-", e, Const(-k))


def _fold(e: BinOp) -> Expr:
    """Constant-fold the arithmetic operators used by lowering so generated
    indices stay readable (``x + 0`` never survives, constant tails merge).
    A node that folding leaves equal comes back as itself."""
    if e.op not in ("+", "-", "*"):
        return e
    l, r = e.left, e.right
    if isinstance(l, Const) and isinstance(r, Const):
        if e.op == "+":
            return Const(l.value + r.value)
        if e.op == "-":
            return Const(l.value - r.value)
        if e.op == "*":
            return Const(l.value * r.value)
    if e.op in ("+", "-") and isinstance(r, Const):
        if r.value > 0 and not (isinstance(l, BinOp) and l.op in ("+", "-") and isinstance(l.right, Const)):
            return e
        return _plus_const(l, r.value if e.op == "+" else -r.value)
    if e.op == "+" and isinstance(l, Const) and l.value == 0:
        return r
    if e.op == "*":
        if isinstance(l, Const) and l.value == 1:
            return r
        if isinstance(r, Const) and r.value == 1:
            return l
        if (isinstance(l, Const) and l.value == 0) or (isinstance(r, Const) and r.value == 0):
            return Const(0)
    return e


def lt(a: Expr | int, b: Expr | int) -> Expr:
    return BinOp("<", as_expr(a), as_expr(b))


def le(a: Expr | int, b: Expr | int) -> Expr:
    return BinOp("<=", as_expr(a), as_expr(b))


def eq(a: Expr | int, b: Expr | int) -> Expr:
    return BinOp("==", as_expr(a), as_expr(b))


def and_(*xs: Expr) -> Expr:
    parts = [x for x in xs if x is not None]
    if not parts:
        return Const(1)
    out = parts[0]
    for x in parts[1:]:
        out = BinOp("&&", out, x)
    return out


def walk(e: Expr) -> Iterator[Expr]:
    """Yield every node of the tree, parents before children."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack += _SHAPES[type(node)].kids(node)


def _reportable(e: Expr, scope: set[str]) -> Iterator[Expr]:
    """The nodes of ``e`` that read storage or have a free variable outside
    ``scope``, in :func:`walk` order; a node that is neither has no
    descendant that is, so its subtree is skipped."""
    stack = [e]
    while stack:
        node = stack.pop()
        free, reads, _ = _facts(node)
        if reads or not free <= scope:
            yield node
            stack += _SHAPES[type(node)].kids(node)


_NO_VARS = frozenset()
_READERS = frozenset((TableRead, FuncAccess, BufAccess, Result))


def _facts(e: Expr) -> tuple[frozenset[str], bool, bool]:
    """``e``'s free variables, whether it reads storage, and whether it is
    folded: every BinOp in it equals its own :func:`_fold`."""
    facts = getattr(e, "_facts", None)
    if facts is None:
        kind = type(e)
        free, reads, folded = frozenset((e.name,)) if kind is Var else _NO_VARS, kind in _READERS, True
        for k in _SHAPES[kind].kids(e):
            kfree, kreads, kfolded = _facts(k)
            if kfree and not kfree <= free:
                free = free | kfree if free else kfree
            reads, folded = reads or kreads, folded and kfolded
        facts = (free, reads, folded and (kind is not BinOp or _fold(e) is e))
        object.__setattr__(e, "_facts", facts)
    return facts


def free_vars(e: Expr) -> set[str]:
    return set(_facts(e)[0])


def _reads_storage(e: Expr) -> bool:
    return _facts(e)[1]


def _rebuilt(e: Expr, old: tuple, new: tuple) -> Expr:
    """``e`` with children ``new`` for ``old``, a BinOp folded."""
    if all(map(operator.is_, old, new)):
        return _fold(e) if type(e) is BinOp else e
    return _SHAPES[type(e)].make(e, new)


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace free variables by expressions, folding every BinOp rebuilt;
    a folded tree that no mapped variable occurs in comes back as itself.

    Expressions carry no binders (quantifiers live on annotations), so this
    is a plain structural rewrite.  Callers that substitute under a
    quantifier must first drop shadowed names from the mapping.
    """
    if not mapping:
        return e
    free, _, folded = _facts(e)
    if folded and free.isdisjoint(mapping):
        return e
    if type(e) is Var:
        return mapping.get(e.name, e)
    kids = _SHAPES[type(e)].kids(e)
    return _rebuilt(e, kids, tuple(substitute(k, mapping) for k in kids))


def rewrite(e: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite: ``fn`` sees each rebuilt node and may replace it
    (return None to keep it)."""
    kids = _SHAPES[type(e)].kids(e)
    if kids:
        e = _rebuilt(e, kids, tuple(rewrite(k, fn) for k in kids))
    out = fn(e)
    return e if out is None else out


def vhdiv(x, y):
    """:func:`hdiv` over ints or, elementwise, over int64 arrays."""
    if not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray):
        return hdiv(x, y)
    safe = np.where(y == 0, 1, y)
    return np.where(y == 0, 0, (x - np.mod(x, np.abs(safe))) // safe)


def vhmod(x, y):
    """:func:`hmod` over ints or, elementwise, over int64 arrays."""
    if not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray):
        return hmod(x, y)
    return np.where(y == 0, x, np.mod(x, np.abs(np.where(y == 0, 1, y))))


# Comparisons and connectives yield 0/1 through ``* 1``: scalars stay ints
# and arrays become int64, so a bool array never reaches ``+`` (logical OR
# in numpy).
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "hdiv": vhdiv,
    "hmod": vhmod,
    "<": lambda a, b: (a < b) * 1,
    "<=": lambda a, b: (a <= b) * 1,
    "==": lambda a, b: (a == b) * 1,
    "!=": lambda a, b: (a != b) * 1,
    "&&": lambda a, b: ((a != 0) & (b != 0)) * 1,
    "||": lambda a, b: ((a != 0) | (b != 0)) * 1,
    "==>": lambda a, b: ((a == 0) | (b != 0)) * 1,
}
# The operators whose results a checked evaluation keeps in 32-bit range.
_CHECKED_OPS = {"+", "-", "*", "hdiv"}


def compiled(e: Expr, checked: bool = False) -> Callable:
    """The one evaluator: ``e`` as a closure ``fn(env, ctx)``.

    ``env`` maps variable names to ints or int64 arrays; the closure
    broadcasts, so one tree evaluates at a point, over ``(points,)`` or over
    ``(lanes, points)``.  ``ctx`` supplies the leaves that need storage:
    ``ctx.load(target, index, env)`` for a :class:`TableRead`, and
    ``ctx.call(name, args)`` for function and buffer applications and bound
    references (``entity_dim_end``, no arguments).  With ``checked`` every
    ``+ - * hdiv`` result goes through ``ctx.check(v)``, and a value other
    than None that it returns replaces the result; indices of table reads
    never do.

    A read in ``c ? a : b`` or ``g ==> e`` need be well-defined only where
    it is taken, so an untaken operand is not evaluated.  A :class:`Select`
    with a scalar condition evaluates one branch.  One whose condition reads
    no storage and varies over the points evaluates each branch on the
    environment :func:`narrow`-ed to the points that take it, and scatters
    the results back; ``a ==> b`` with such an ``a`` is
    ``select(a, b != 0, 1)``.  A condition that reads storage, or varies by
    lane, has lanes that may disagree at a point, and takes both branches.
    """
    key = "_checked_fn" if checked else "_fn"
    fn = getattr(e, key, None)
    if fn is None:
        fn = _SHAPES[type(e)].compile(e, checked)
        object.__setattr__(e, key, fn)
    return fn


def _compile_const(e: Const, checked: bool) -> Callable:
    v = e.value
    return lambda env, ctx: v


def _compile_var(e: Var, checked: bool) -> Callable:
    name = e.name

    def var(env, ctx):
        try:
            return env[name]
        except KeyError:
            raise ValueError(f"variable {name!r} is not a compile-time constant") from None

    return var


def _compile_call(name: str, args: tuple[Expr, ...]) -> Callable:
    fns = [compiled(a) for a in args]
    return lambda env, ctx: ctx.call(name, tuple(f(env, ctx) for f in fns))


def _compile_read(e: TableRead, checked: bool) -> Callable:
    target, at = e.target, compiled(e.index)
    return lambda env, ctx: ctx.load(target, at(env, ctx), env)


def _compile_not(e: Not, checked: bool) -> Callable:
    xf = compiled(e.operand, checked)
    return lambda env, ctx: (xf(env, ctx) == 0) * 1


def _compile_binop(e: BinOp, checked: bool) -> Callable:
    op, l, r = e.op, e.left, e.right
    if op == "==>" and not _reads_storage(l):
        return _compile_select(Select(l, BinOp("!=", r, Const(0)), Const(1)), checked)
    if op not in _BINARY:
        raise ValueError(f"unknown operator {op!r}")
    apply = _BINARY[op]
    if op in ("hdiv", "hmod") and isinstance(r, Const) and r.value > 0:
        apply = operator.floordiv if op == "hdiv" else operator.mod
    lf, rf = compiled(l, checked), compiled(r, checked)
    if checked and op in _CHECKED_OPS:

        def checked_op(env, ctx):
            v = apply(lf(env, ctx), rf(env, ctx))
            w = ctx.check(v)
            return v if w is None else w

        return checked_op
    return lambda env, ctx: apply(lf(env, ctx), rf(env, ctx))


def _compile_select(e: Select, checked: bool) -> Callable:
    cf, tf, ff = (compiled(k, checked) for k in (e.cond, e.if_true, e.if_false))
    masked = not _reads_storage(e.cond)

    def select(env, ctx):
        cv = cf(env, ctx)
        if not isinstance(cv, np.ndarray):
            return tf(env, ctx) if cv else ff(env, ctx)
        if not masked or cv.ndim != 1:
            return np.where(cv != 0, tf(env, ctx), ff(env, ctx))
        keep = cv != 0
        if keep.all():
            return tf(env, ctx)
        if not keep.any():
            return ff(env, ctx)
        tv, fv = tf(narrow(env, keep), ctx), ff(narrow(env, ~keep), ctx)
        lanes = [np.shape(v)[0] for v in (tv, fv) if np.ndim(v) == 2]
        out = np.empty((max(lanes), *keep.shape) if lanes else keep.shape, dtype=np.int64)
        out[..., keep] = tv
        out[..., ~keep] = fv
        return out

    return select


def _compile_pick(e: MinOf | MaxOf, checked: bool) -> Callable:
    pick = np.minimum if type(e) is MinOf else np.maximum
    lf, rf = compiled(e.left, checked), compiled(e.right, checked)
    return lambda env, ctx: pick(lf(env, ctx), rf(env, ctx))


def _compile_opaque(e: Expr, checked: bool) -> Callable:
    kind = type(e).__name__

    def opaque(env, ctx):
        raise ValueError(f"not a constant expression: {kind}")

    return opaque


class _Shape(NamedTuple):
    """A node type's row: its children, how to rebuild it from new ones,
    and its closure."""

    kids: Callable[[Expr], tuple[Expr, ...]]
    make: Callable[[Expr, tuple[Expr, ...]], Expr] | None
    compile: Callable[[Expr, bool], Callable]


def _leaf(compile: Callable) -> _Shape:
    return _Shape(lambda e: (), None, compile)


def _pair(e: BinOp | MinOf | MaxOf) -> tuple[Expr, Expr]:
    return (e.left, e.right)


_SHAPES: dict[type, _Shape] = {
    Const: _leaf(_compile_const),
    Var: _leaf(_compile_var),
    Result: _leaf(lambda e, checked: lambda env, ctx: env["\\result"]),
    BoundRef: _leaf(lambda e, checked: _compile_call(f"{e.entity}_{e.dim}_{e.end}", ())),
    Frac: _leaf(_compile_opaque),
    BinOp: _Shape(_pair, lambda e, k: _fold(BinOp(e.op, *k)), _compile_binop),
    MinOf: _Shape(_pair, lambda e, k: MinOf(*k), _compile_pick),
    MaxOf: _Shape(_pair, lambda e, k: MaxOf(*k), _compile_pick),
    Not: _Shape(lambda e: (e.operand,), lambda e, k: Not(*k), _compile_not),
    Select: _Shape(lambda e: (e.cond, e.if_true, e.if_false), lambda e, k: Select(*k), _compile_select),
    FuncAccess: _Shape(lambda e: e.args, lambda e, k: FuncAccess(e.func, k), lambda e, checked: _compile_call(e.func, e.args)),
    BufAccess: _Shape(lambda e: e.args, lambda e, k: BufAccess(e.buf, k), lambda e, checked: _compile_call(e.buf, e.args)),
    TableRead: _Shape(lambda e: (e.index,), lambda e, k: TableRead(e.target, *k), _compile_read),
    PermAtom: _Shape(lambda e: (e.index,), lambda e, k: PermAtom(e.target, *k, e.frac), _compile_opaque),
}


def narrow(env: dict, keep: np.ndarray) -> dict:
    """``env`` at the points ``keep`` selects: each array narrowed on its
    last axis, the points axis."""
    if keep.all():
        return env
    return {k: v[..., keep] if isinstance(v, np.ndarray) and v.ndim else v for k, v in env.items()}


class _Closed:
    """The context of :func:`eval_const`: no storage and no functions."""

    def load(self, target: "MemTarget", index, env):
        raise ValueError(f"not a constant expression: reads {target.name}")

    def call(self, name: str, args):
        raise ValueError(f"not a constant expression: applies {name}")


_CLOSED = _Closed()


def eval_const(e: Expr, env: dict[str, int] | None = None) -> int:
    """Evaluate a closed arithmetic expression to an int.

    Used for bound expressions and schedule factors; raises ValueError when
    the expression touches anything that is not a constant under ``env``.
    """
    return int(compiled(e)(env or {}, _CLOSED))


def domain_grid(domains) -> dict[str, np.ndarray]:
    """Every point of the closed ranges ``domains``, each ``(name, lo, hi)``
    with ``hi`` included, flattened, first dimension slowest."""
    axes = np.meshgrid(*[np.arange(lo, hi + 1) for _, lo, hi in domains], indexing="ij")
    return {v: a.reshape(-1) for (v, _, _), a in zip(domains, axes)}


# ---------------------------------------------------------------------------
# Scheduling directives


@dataclass(frozen=True)
class Directive:
    """One scheduling command, applied in file order.

    args by kind:
      split       (old, outer, inner, factor:int)
      fuse        (a, b, fused)            a is the inner dimension
      reorder     (dim, ...)               innermost first
      parallel    (dim,)
      unroll      (dim,)
      compute_at  (consumer, dim)
      store_at    (consumer, dim)
    """

    kind: str
    func: str
    args: tuple[str | int, ...]
    span: Span = field(default=NO_SPAN, compare=False)


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class Interval:
    """Half-open ``[lo, hi)``.  Bounds are expressions over pipeline
    parameters until :meth:`Pipeline.resolve` makes them constants."""

    lo: Expr
    hi: Expr

    @property
    def lo_int(self) -> int:
        return eval_const(self.lo)

    @property
    def hi_int(self) -> int:
        return eval_const(self.hi)

    @property
    def extent(self) -> int:
        return self.hi_int - self.lo_int


@dataclass(frozen=True)
class Cond:
    """A bare predicate with a source position (stage or buffer spec)."""

    expr: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class Quantifier:
    """One bound integer variable ranging over half-open ``[lo, hi)``."""

    var: str
    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class QuantCond:
    """A (possibly) quantified predicate: pipeline postconditions."""

    quants: tuple[Quantifier, ...]
    body: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class RDom:
    """Reduction domain.  Variables are listed innermost (fastest) first;
    the imperative order runs the last-declared variable as the outer loop."""

    vars: tuple[tuple[str, Interval], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vars)

    def interval(self, name: str) -> Interval:
        for n, iv in self.vars:
            if n == name:
                return iv
        raise KeyError(name)


@dataclass(frozen=True)
class Stage:
    """One definition step of a function.

    ``lhs_args`` line up with the function's dimensions.  ``guard`` is the
    optional ``if`` predicate of an update.  ``invariants`` maps reduction
    variables to the predicate that holds at each of their loop boundaries,
    written in the one-past-the-end convention: at boundary ``r`` the first
    ``r - lo`` iterations have been folded in.
    """

    func: str
    index: int
    lhs_args: tuple[Expr, ...]
    rhs: Expr
    rdom: RDom | None = None
    guard: Expr | None = None
    requires: tuple[Cond, ...] = ()
    ensures: tuple[Cond, ...] = ()
    invariants: tuple[tuple[str, Cond], ...] = ()
    span: Span = field(default=NO_SPAN, compare=False)

    @property
    def kind(self) -> str:
        if self.index == 0:
            return "pure"
        return "reduction" if self.rdom is not None else "update"

    def invariant_for(self, var: str) -> Cond | None:
        for n, c in self.invariants:
            if n == var:
                return c
        return None


@dataclass(frozen=True)
class Buffer:
    name: str
    dims: tuple[tuple[str, Interval], ...]
    requires: tuple[Cond, ...] = ()
    span: Span = field(default=NO_SPAN, compare=False)  # of its declaration

    def dim_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.dims)

    def interval(self, dim: str) -> Interval:
        for n, iv in self.dims:
            if n == dim:
                return iv
        raise KeyError(dim)


@dataclass(frozen=True)
class Func:
    name: str
    dims: tuple[tuple[str, Interval], ...]
    stages: tuple[Stage, ...]
    span: Span = field(default=NO_SPAN, compare=False)  # of its declaration

    def dim_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.dims)

    def interval(self, dim: str) -> Interval:
        for n, iv in self.dims:
            if n == dim:
                return iv
        raise KeyError(dim)


@dataclass(frozen=True)
class Pipeline:
    """A whole program: parameters, input buffers, functions in definition
    order, and the contract relating them.

    Pipeline ``requires`` relate dimension bounds of inputs and the output
    (and constrain input values via :attr:`Buffer.requires`); ``ensures``
    may only mention input buffers and the output function.
    """

    name: str
    params: tuple[tuple[str, Expr], ...]
    buffers: tuple[Buffer, ...]
    funcs: tuple[Func, ...]
    output: str
    requires: tuple[Cond, ...] = ()
    ensures: tuple[QuantCond, ...] = ()
    output_span: Span = field(default=NO_SPAN, compare=False)  # of the output's name

    def buffer(self, name: str) -> Buffer:
        for b in self.buffers:
            if b.name == name:
                return b
        raise KeyError(name)

    def func(self, name: str) -> Func:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)

    def entity_interval(self, name: str, dim: str) -> Interval:
        for b in self.buffers:
            if b.name == name:
                return b.interval(dim)
        return self.func(name).interval(dim)

    @property
    def output_func(self) -> Func:
        return self.func(self.output)

    def param_values(self, overrides: dict[str, int] | None = None) -> dict[str, int]:
        """Evaluate parameters in declaration order, applying overrides.

        Overrides are matched case-insensitively so a command line written
        against dimension-style names still lands on the parameter."""
        overrides = dict(overrides or {})
        lowered = {k.lower(): v for k, v in overrides.items()}
        values: dict[str, int] = {}
        seen = set()
        for name, expr in self.params:
            if name in overrides:
                values[name] = overrides[name]
            elif name.lower() in lowered:
                values[name] = lowered[name.lower()]
            else:
                values[name] = _constant(expr, values, f"param {name!r}: value")
            seen.add(name.lower())
        unknown = [k for k in overrides if k.lower() not in seen]
        if unknown:
            raise ParseError(f"unknown scale parameter(s): {', '.join(sorted(unknown))}", code="UnknownParam")
        return values

    def resolve(self, overrides: dict[str, int] | None = None) -> "Pipeline":
        """Substitute parameter values everywhere, making every interval
        bound a constant.  Scoping is respected: a stage variable or
        reduction variable shadowing a parameter keeps the inner meaning.
        A bound that is not a constant is a ``NonConcreteBound``."""
        values = self.param_values(overrides)
        pmap = {k: Const(v) for k, v in values.items()}

        def visible(shadow) -> dict[str, Expr]:
            return {k: v for k, v in pmap.items() if k not in shadow}

        def dims(owner: str, ds, live: dict[str, Expr], span: Span = NO_SPAN):
            def bound(e: Expr, n: str) -> Const:
                e = substitute(e, live)
                return e if type(e) is Const else Const(_constant(e, {}, f"{owner}.{n}: bound", span))

            return tuple((n, Interval(bound(iv.lo, n), bound(iv.hi, n))) for n, iv in ds)

        def conds(cs: tuple[Cond, ...], live: dict[str, Expr]) -> tuple[Cond, ...]:
            return tuple(c if (e := substitute(c.expr, live)) is c.expr else Cond(e, c.span) for c in cs)

        buffers = tuple(Buffer(b.name, dims(b.name, b.dims, pmap, b.span), conds(b.requires, visible(b.dim_names())), b.span) for b in self.buffers)
        funcs = []
        for f in self.funcs:
            live_f, stages = visible(f.dim_names()), []
            for s in f.stages:
                live, rdom = live_f, None
                if s.rdom is not None:
                    rdom = RDom(dims(f"{f.name} stage {s.index}", s.rdom.vars, live_f, s.span))
                    live = visible((*f.dim_names(), *s.rdom.names()))
                elif not live:  # no parameter is visible, so nothing changes
                    stages.append(s)
                    continue
                lhs, guard = tuple(substitute(a, live) for a in s.lhs_args), None if s.guard is None else substitute(s.guard, live)
                invariants = tuple((n, Cond(substitute(c.expr, live), c.span)) for n, c in s.invariants)
                stages.append(Stage(s.func, s.index, lhs, substitute(s.rhs, live), rdom, guard, conds(s.requires, live), conds(s.ensures, live), invariants, s.span))
            funcs.append(Func(f.name, dims(f.name, f.dims, pmap, f.span), tuple(stages), f.span))
        ensures = tuple(
            QuantCond(
                tuple(Quantifier(qt.var, substitute(qt.lo, pmap), substitute(qt.hi, pmap)) for qt in q.quants),
                substitute(q.body, visible({qt.var for qt in q.quants})),
                q.span,
            )
            for q in self.ensures
        )
        params = tuple((k, Const(values[k])) for k, _ in self.params)
        return Pipeline(self.name, params, buffers, tuple(funcs), self.output, conds(self.requires, pmap), ensures, self.output_span)

    def validated(self, overrides: dict[str, int] | None = None) -> "Pipeline":
        resolved = self.resolve(overrides)
        diags = validate_pipeline(resolved)
        if diags:
            raise ValidationError(diags)
        return resolved


# ---------------------------------------------------------------------------
# Validation


def _is_var_free_of(e: Expr, names: set[str]) -> bool:
    return _facts(e)[0].isdisjoint(names)


def _constant(e: Expr, env: dict[str, int], what: str, span: Span = NO_SPAN) -> int:
    """``eval_const(e, env)``, or a ``NonConcreteBound`` naming ``what``."""
    try:
        return eval_const(e, env)
    except ValueError as err:
        raise ValidationError([Diagnostic("NonConcreteBound", f"{what} did not resolve to a constant: {err}", span)]) from None


def validate_pipeline(p: Pipeline) -> list[Diagnostic]:
    """Structural and scoping checks on a resolved pipeline.

    Returns the full list of problems instead of stopping at the first, so
    a driver can show everything wrong with a source file at once, each
    once in the order found: a node shared by two checked expressions, as
    ``h(x)`` by the halves of ``lo <= h(x) <= hi``, is reported once.
    """
    diags: list[Diagnostic] = []
    names = {b.name: "buffer" for b in p.buffers}  # the parser rejects a buffer declared twice
    for f in p.funcs:
        if f.name in names:
            diags.append(Diagnostic("DuplicateName", f"func {f.name!r} redeclared", f.span))
        names[f.name] = "func"

    if p.output not in names or names.get(p.output) != "func":
        diags.append(Diagnostic("UnknownFunc", f"output {p.output!r} is not a declared func", p.output_span))
        return diags

    for b in p.buffers:
        _check_dims(b.name, b.dims, diags, b.span)
        for c in b.requires:
            _check_value_spec(b.name, b.dim_names(), c, diags)

    defined: set[str] = {b.name for b in p.buffers}
    for f in p.funcs:
        _check_dims(f.name, f.dims, diags, f.span)
        for s in f.stages:  # the parser rejects a func with none
            if s.rdom is not None:
                _check_dims(f"{f.name} stage {s.index}", s.rdom.vars, diags, s.span)
            _validate_stage(p, f, s, defined, diags)
        defined.add(f.name)

    allowed = {b.name for b in p.buffers} | {p.output}
    for c in p.requires:
        for n in walk(c.expr):
            if isinstance(n, (FuncAccess, BufAccess)):
                diags.append(Diagnostic("PipelineSpecNotBounds", "pipeline requires may only relate dimension bounds", c.span))
                break
            if isinstance(n, BoundRef) and n.entity not in allowed:
                diags.append(Diagnostic("UnknownFunc", f"pipeline requires mentions {n.entity!r}, which is neither an input buffer nor the output", c.span))
        try:
            if eval_const(_resolve_bound_refs(p, c.expr)) == 0:
                diags.append(Diagnostic("RequiresUnsatisfied", "pipeline requires is false for the declared bounds", c.span))
        except ValueError:
            diags.append(Diagnostic("NonConcreteBound", "pipeline requires must be closed over bounds", c.span))
        except KeyError:
            pass  # the unknown entity was reported just above
    for q in p.ensures:
        bound = {qt.var for qt in q.quants}
        for n in _reportable(q.body, bound):
            if isinstance(n, FuncAccess) and n.func != p.output:
                diags.append(Diagnostic("PipelineSpecScope", f"pipeline ensures may reference input buffers and {p.output!r} only, not {n.func!r}", q.span))
            if type(n) is Var:
                diags.append(Diagnostic("UnboundVar", f"variable {n.name!r} is not quantified in pipeline ensures", q.span))
        for qt in q.quants:
            for side in (qt.lo, qt.hi):
                for n in walk(side):
                    if isinstance(n, BoundRef) and n.entity not in allowed:
                        diags.append(Diagnostic("UnknownFunc", f"pipeline ensures range mentions {n.entity!r}, which is neither an input buffer nor the output", q.span))
                try:
                    eval_const(_resolve_bound_refs(p, side))
                except (ValueError, KeyError):
                    diags.append(Diagnostic("NonConcreteBound", "pipeline ensures ranges must be closed over bounds", q.span))
    return list(dict.fromkeys(diags))


def _check_dims(owner: str, dims: tuple[tuple[str, Interval], ...], diags: list[Diagnostic], span: Span = NO_SPAN) -> None:
    """The one domain rule, for buffer, func and reduction domains alike."""
    seen = set()
    for n, iv in dims:
        if n in seen:
            diags.append(Diagnostic("DuplicateDim", f"{owner}: dimension {n!r} repeated", span))
        seen.add(n)
        lo, hi = iv.lo.value, iv.hi.value
        if hi - lo <= 0:
            diags.append(Diagnostic("EmptyInterval", f"{owner}.{n}: extent must be positive", span))
        elif hi - lo > 1 << 20 or abs(lo) > 1 << 20:
            diags.append(Diagnostic("BoundTooLarge", f"{owner}.{n}: bounds exceed the 2^20 limit that keeps index arithmetic overflow-free", span))


def _resolve_bound_refs(p: Pipeline, e: Expr) -> Expr:
    def repl(n: Expr) -> Expr | None:
        if isinstance(n, BoundRef):
            iv = p.entity_interval(n.entity, n.dim)
            return Const(iv.lo_int if n.end == "min" else iv.hi_int)
        return None

    return rewrite(e, repl)


def _validate_stage(p: Pipeline, f: Func, s: Stage, defined: set[str], diags: list[Diagnostic]) -> None:
    dim_names = f.dim_names()
    kind, at = s.kind, f"{f.name} stage {s.index}"
    if s.index == 0 and (s.rdom is not None or kind != "pure"):
        diags.append(Diagnostic("StageZeroNotPure", f"{f.name}: stage 0 must be a pure definition", s.span))
    if s.guard is not None and kind != "update":
        diags.append(Diagnostic("GuardNotUpdate", f"{at}: an if clause is only meaningful on an update step; reductions fold conditions with select", s.span))
    if len(s.lhs_args) != len(dim_names):
        diags.append(Diagnostic("ArityMismatch", f"{at}: {len(s.lhs_args)} left-hand arguments for {len(dim_names)} dimensions", s.span))
        return

    canonical = s.lhs_args
    looped = [type(arg) is Var and arg.name == d for arg, d in zip(canonical, dim_names)]
    pure_vars = set(dim_names)
    rvars = set(s.rdom.names()) if s.rdom else set()
    if kind == "pure":
        scope = pure_vars | rvars
        if not all(looped):
            diags.append(Diagnostic("LhsNotCanonical", f"{f.name}: pure stage must be defined at ({', '.join(dim_names)})", s.span))
    else:
        # An update or reduction step iterates only the dimensions whose
        # left-hand argument is the dimension variable itself; the pinned
        # ones have no runtime value on the right-hand side.
        scope = {d for d, is_var in zip(dim_names, looped) if is_var} | rvars
        for arg, dn, is_var in zip(canonical, dim_names, looped):
            if is_var:
                continue
            if not _is_var_free_of(arg, pure_vars):
                diags.append(Diagnostic("LhsNotCanonical", f"{at}: left-hand argument for {dn!r} must be the variable itself or be free of stage variables", s.span))
            # a pinned argument may name the stage's reduction variables only
            for name in sorted(_facts(arg)[0] - pure_vars - rvars):
                diags.append(Diagnostic("UnboundVar", f"{at} lhs: unknown variable {name!r}", s.span))

    def check_expr(e: Expr, where: str, span: Span, self_rule: str, consts: bool = False) -> tuple[list[int], list[tuple[Expr, ...]]]:
        """Check ``e``'s variables, buffer reads and func applications in one
        walk; return, in walk order, its constants outside the int32 range
        (with ``consts``) and the arguments of its applications of ``f``."""
        wide, selves = [], []
        for n in walk(e) if consts else _reportable(e, scope):
            node = type(n)
            if node is Const:
                if not INT32_MIN <= n.value <= INT32_MAX:
                    wide.append(n.value)
            elif node is Var:
                if n.name not in scope:
                    diags.append(Diagnostic("UnboundVar", f"{at} {where}: unknown variable {n.name!r}", span))
            elif node is BufAccess:
                try:
                    buf = p.buffer(n.buf)
                except KeyError:
                    diags.append(Diagnostic("UnknownFunc", f"{at} {where}: unknown buffer {n.buf!r}", span))
                    continue
                if len(n.args) != len(buf.dims):
                    diags.append(Diagnostic("ArityMismatch", f"{at} {where}: {n.buf} takes {len(buf.dims)} arguments", span))
            elif node is FuncAccess:
                g, args = n.func, n.args
                if g == f.name:
                    selves.append(args)
                    if self_rule == "forbid":
                        diags.append(Diagnostic("SelfReference", f"{f.name}: pure stage may not reference {f.name}", span))
                    elif self_rule == "canonical" and args != canonical:
                        diags.append(Diagnostic("SelfReferenceNotCanonical", f"{at} {where}: reduction self-reference must be at the updated point", span))
                    if len(args) != len(dim_names):
                        diags.append(Diagnostic("ArityMismatch", f"{at} {where}: {g} takes {len(dim_names)} arguments", span))
                elif g not in defined:
                    what = "forward reference to" if any(h.name == g for h in p.funcs) else "unknown func"
                    diags.append(Diagnostic("UnknownFunc", f"{at} {where}: {what} {g!r}", span))
                elif len(args) != len(p.func(g).dims):
                    diags.append(Diagnostic("ArityMismatch", f"{at} {where}: {g} takes {len(p.func(g).dims)} arguments", span))
        return wide, selves

    # Executed values are 32-bit; a constant the parser folded past that
    # range is an overflow known before any input is chosen.
    wide = {"rhs": check_expr(s.rhs, "rhs", s.span, {"pure": "forbid", "update": "any", "reduction": "canonical"}[kind], True)[0]}
    if s.guard is not None:
        wide["guard"] = check_expr(s.guard, "guard", s.span, "any", True)[0]
    for where, values in wide.items():
        for v in values:
            diags.append(Diagnostic("ConstantOverflow", f"{at} {where}: constant {v} leaves the signed 32-bit range", s.span))

    # Specs must talk about the function at the point being defined.
    for c in s.requires + s.ensures:
        for args in check_expr(c.expr, "spec", c.span, "any")[1]:
            if args != canonical:
                diags.append(Diagnostic("SpecNotCanonical", f"{at}: specs reference {f.name} at the defined point only", c.span))

    if kind == "reduction":
        order = {n: i for i, n in enumerate(s.rdom.names())}
        for n, c in s.invariants:
            if n not in order:
                diags.append(Diagnostic("UnknownRVar", f"{at}: invariant names unknown reduction variable {n!r}", c.span))
                continue
            check_expr(c.expr, f"invariant({n})", c.span, "any")
            inner = {m for m, i in order.items() if i < order[n]}
            if not _is_var_free_of(c.expr, inner):
                for node in walk(c.expr):
                    if type(node) is Var and node.name in inner:
                        diags.append(Diagnostic("InvariantVarOrder", f"{at}: invariant for {n!r} may not mention the inner variable {node.name!r}", c.span))
    elif s.invariants:
        diags.append(Diagnostic("UnknownRVar", f"{at}: invariants belong to reduction stages", s.span))


def _check_value_spec(owner: str, dims: tuple[str, ...], c: Cond, diags: list[Diagnostic]) -> None:
    for n in _reportable(c.expr, set(dims)):
        if type(n) is Var:
            diags.append(Diagnostic("UnboundVar", f"{owner} requires: unknown variable {n.name!r}", c.span))
        elif isinstance(n, BufAccess):
            if n.buf != owner:
                diags.append(Diagnostic("PipelineSpecScope", f"{owner} requires may only constrain {owner}", c.span))
            elif tuple(n.args) != tuple(Var(d) for d in dims):
                diags.append(Diagnostic("SpecNotCanonical", f"{owner} requires must constrain the cell ({', '.join(dims)})", c.span))
        elif isinstance(n, FuncAccess):
            diags.append(Diagnostic("PipelineSpecScope", f"{owner} requires may not call functions", c.span))
