"""Pure-function encoding of the algorithm half of a pipeline.

One template builds every definition stage.  A step reads the state
before it: for a pure or update stage, the previous stage's function at
the same point (a pure stage never reads it); for a reduction, its own
function one iteration of the innermost variable back.  The step is the
right-hand side with every self-application read as that state.  The
coordinates the left-hand side pins and an update's ``if`` guard form one
condition, and where it fails the state passes through unchanged.  An
update is a reduction over no variables.

A reduction over ``r1, ..., rn`` (``r1`` innermost, any ``n``) becomes one
declaration per variable, counting completed iterations, so a contract at
count ``r_k`` speaks about the state after the sweeps of ``r_k`` before
it.  Declaration ``k`` starts from the previous stage or from the end of
the last completed sweep, which it reads from the innermost declaration;
only the innermost one recurses.  A reduction that a later stage follows
states its own postcondition on its outermost declaration, once that
variable is done; a postcondition that names a reduction variable has no
state to speak of and is rejected (``ReductionVariableInEnsures``).
Input buffers turn into abstract functions, concrete bounds into nullary
functions, and the pipeline contract into a lemma.

The front-end check tabulates the encoding: each declaration becomes one
(lanes, points) table over its domain grid, built on its first call, a
recursive one a step of its ``decreases`` tuple at a time in lexicographic
order.  Contracts, the lemma and the agreement with the reference
semantics are then checked over the same grids.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ir import (
    INT32_MAX,
    INT32_MIN,
    BinOp,
    BoundRef,
    BufAccess,
    Const,
    EncodeError,
    Expr,
    Func,
    FuncAccess,
    Pipeline,
    QuantCond,
    Quantifier,
    Result,
    Select,
    Stage,
    Var,
    and_,
    compiled,
    domain_grid,
    eq,
    free_vars,
    le,
    lt,
    narrow,
    rewrite,
    substitute,
    walk,
    wrap_int64,
)
from .lowering import NonAffineAccess, flat_alloc, linearize
from .printing import ExprPrinter, quantified


@dataclass(frozen=True)
class PureFunctionDecl:
    """One declaration of the encoded program.

    ``body`` None marks an abstract function (an input buffer).  ``domains``
    records the closed integer range of every parameter: the grid the
    front-end check tabulates the declaration over.  Declarations that
    share a ``group`` render on one source line.
    """

    name: str
    params: tuple[tuple[str, str], ...]
    requires: tuple[Expr, ...] = ()
    ensures: tuple[Expr, ...] = ()
    decreases: tuple[str, ...] = ()
    body: Expr | None = None
    domains: tuple[tuple[str, int, int], ...] = ()
    group: str | None = None


@dataclass(frozen=True)
class PipelineLemma:
    requires: tuple[Expr, ...] = ()
    ensures: tuple[QuantCond, ...] = ()


@dataclass(frozen=True)
class EncodedProgram:
    pipeline: str
    declarations: tuple[PureFunctionDecl, ...]
    lemma: PipelineLemma

    def decl(self, name: str) -> PureFunctionDecl:
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)

    def render(self) -> str:
        return _render(self)


# ---------------------------------------------------------------------------
# Building declarations


def _needs_entry(f: Func) -> bool:
    return len(f.stages) > 1 or f.stages[-1].kind == "reduction"


def _stage_name(f: Func, index: int) -> str:
    return f"{f.name}{index}" if _needs_entry(f) else f.name


def _as_result(e: Expr, access: Expr) -> Expr:
    """``e`` with ``access``, the defined point, read as ``\\result``."""
    return rewrite(e, lambda n: Result() if n == access else None)


def _pins(f: Func, s: Stage) -> list[Expr]:
    """The coordinates the left-hand side of ``s`` pins, as equations."""
    return [eq(Var(d), arg) for d, arg in zip(f.dim_names(), s.lhs_args) if arg != Var(d)]


def _pinned(f: Func, s: Stage, body: Expr) -> Expr:
    """``body``, binding only where the parameters match the pinned point."""
    for m in reversed(_pins(f, s)):
        body = BinOp("==>", m, body)
    return body


class _Encoder:
    def __init__(self, p: Pipeline):
        self.p = p

    def build(self) -> EncodedProgram:
        decls: list[PureFunctionDecl] = []
        for b in self.p.buffers:
            decls.append(self.buffer_decl(b))
            decls.extend(self.bound_decls(b.name, b.dims))
        for name in self.extra_bound_entities():
            decls.extend(self.bound_decls(name, self.p.func(name).dims))
        for f in self.p.funcs:
            decls.extend(self.func_decls(f))
        return EncodedProgram(self.p.name, tuple(decls), self.lemma())

    def extra_bound_entities(self) -> list[str]:
        """Functions whose bounds the pipeline contract mentions."""
        exprs = [c.expr for c in self.p.requires]
        exprs += [qc.body for qc in self.p.ensures]
        for qc in self.p.ensures:
            exprs += [q.lo for q in qc.quants] + [q.hi for q in qc.quants]
        wanted = {self.p.output}
        for e in exprs:
            wanted |= {n.entity for n in walk(e) if isinstance(n, BoundRef)}
        buffers = {b.name for b in self.p.buffers}
        return [f.name for f in self.p.funcs if f.name in wanted and f.name not in buffers]

    def buffer_decl(self, b) -> PureFunctionDecl:
        point = BufAccess(b.name, tuple(Var(d) for d in b.dim_names()))
        return PureFunctionDecl(
            name=b.name,
            params=self.dim_params(b),
            ensures=tuple(_as_result(c.expr, point) for c in b.requires),
            domains=self.dim_domains(b),
        )

    def bound_decls(self, entity: str, dims) -> list[PureFunctionDecl]:
        return [
            PureFunctionDecl(f"{entity}_{d}_{end}", (), body=Const(value), group=entity)
            for d, iv in dims
            for end, value in (("min", iv.lo_int), ("max", iv.hi_int))
        ]

    # -- stages ------------------------------------------------------------

    def func_decls(self, f: Func) -> list[PureFunctionDecl]:
        decls = [d for s in f.stages for d in self.stage_decls(f, s)]
        if _needs_entry(f):
            decls.append(self.entry_decl(f))
        return decls

    def stage_value(self, f: Func, index: int, args: tuple[Expr, ...]) -> Expr:
        """The function computing the state after stage ``index``."""
        s = f.stages[index]
        if s.kind == "reduction":
            outer = s.rdom.names()[-1]
            hi = Const(s.rdom.interval(outer).hi_int)
            return FuncAccess(_stage_name(f, index) + outer, args + (hi,))
        return FuncAccess(_stage_name(f, index), args)

    def encoded_post(self, f: Func, s: Stage, conds) -> tuple[Expr, ...]:
        """``conds`` with the defined point read as ``\\result``, binding
        only where the parameters match the coordinates ``s`` pins."""
        return tuple(
            _pinned(f, s, _as_result(c.expr, FuncAccess(f.name, s.lhs_args))) for c in conds
        )

    def dim_params(self, f) -> tuple[tuple[str, str], ...]:
        return tuple((d, "int") for d in f.dim_names())

    def dim_domains(self, f) -> tuple[tuple[str, int, int], ...]:
        return tuple((d, iv.lo_int, iv.hi_int - 1) for d, iv in f.dims)

    def stage_decls(self, f: Func, s: Stage) -> list[PureFunctionDecl]:
        """The declarations of stage ``s``: one for a pure or update stage,
        one per reduction variable for a reduction."""
        rvars = s.rdom.names() if s.rdom else ()
        for rv in rvars:
            if s.invariant_for(rv) is None:
                raise EncodeError(
                    "MissingReductionInvariant",
                    f"reduction variable {rv!r} of {f.name} stage {s.index}"
                    " has no invariant",
                )
            if any(rv in free_vars(c.expr) for c in s.ensures):
                # the postcondition speaks of the state after every sweep
                raise EncodeError(
                    "ReductionVariableInEnsures",
                    f"a postcondition of {f.name} stage {s.index} names reduction"
                    f" variable {rv!r}, which has no value once the stage is done",
                )
        name = _stage_name(f, s.index)
        point = tuple(Var(d) for d in f.dim_names())
        params, domains = self.dim_params(f), self.dim_domains(f)
        back: dict[str, Expr] = {}
        if rvars:
            r1 = rvars[0]
            back = {r1: Var(r1) - 1}
            tail = (Var(r1) - 1,) + tuple(Var(r) for r in rvars[1:])

        def before(args: tuple[Expr, ...]) -> Expr:
            """The state before the step, at ``args``."""
            if rvars:
                return FuncAccess(name + r1, args + tail)
            return self.stage_value(f, s.index - 1, args)

        def self_call(e: Expr) -> Expr | None:
            return before(e.args) if isinstance(e, FuncAccess) and e.func == f.name else None

        step = rewrite(substitute(s.rhs, back), self_call)
        conds = _pins(f, s) + ([s.guard] if s.guard is not None else [])
        if conds:
            step = Select(substitute(and_(*conds), back), step, before(point))
        if not rvars:
            ensures = self.encoded_post(f, s, s.ensures)
            return [PureFunctionDecl(name, params, ensures=ensures, body=step, domains=domains)]

        n = len(rvars)
        los = [iv.lo_int for _, iv in s.rdom.vars]
        his = [iv.hi_int for _, iv in s.rdom.vars]
        # the state after a whole number of sweeps of r_k: none have run, or
        # the last one ran every variable inside r_k to completion
        swept = self.stage_value(f, s.index - 1, point)
        bodies = [step] * n
        for k in reversed(range(1, n)):
            done = (Const(his[0]),) + tuple(Const(hi - 1) for hi in his[1:k])
            call = FuncAccess(name + r1, point + done + (Var(rvars[k]) - 1,) + tail[k + 1 :])
            swept = bodies[k] = Select(eq(Var(rvars[k]), los[k]), swept, call)
        bodies[0] = Select(eq(Var(r1), los[0]), swept, step)
        # the stage's own postcondition holds once the outermost variable is
        # done; the entry declaration carries the last stage's
        post = () if s.index == len(f.stages) - 1 else tuple(
            BinOp("==>", eq(Var(rvars[-1]), his[-1]), e) for e in self.encoded_post(f, s, s.ensures)
        )
        return [
            PureFunctionDecl(
                name=name + rk,
                params=params + tuple((r, "int") for r in rvars[k:]),
                requires=(BinOp("&&", le(los[k], Var(rk)), le(Var(rk), his[k])),)
                + tuple(
                    BinOp("&&", le(los[j], Var(rvars[j])), lt(Var(rvars[j]), his[j]))
                    for j in range(k + 1, n)
                ),
                ensures=self.encoded_post(f, s, (s.invariant_for(rk),)) + (post if k == n - 1 else ()),
                decreases=rvars[k:][::-1],
                body=bodies[k],
                domains=domains
                + ((rk, los[k], his[k]),)
                + tuple((rvars[j], los[j], his[j] - 1) for j in range(k + 1, n)),
            )
            for k, rk in enumerate(rvars)
        ]

    def entry_decl(self, f: Func) -> PureFunctionDecl:
        point = tuple(Var(d) for d in f.dim_names())
        return PureFunctionDecl(
            name=f.name,
            params=self.dim_params(f),
            ensures=self.encoded_post(f, f.stages[-1], f.stages[-1].ensures),
            body=self.stage_value(f, len(f.stages) - 1, point),
            domains=self.dim_domains(f),
        )

    # -- the lemma ---------------------------------------------------------

    def lemma(self) -> PipelineLemma:
        requires = tuple(c.expr for c in self.p.requires)
        if self.p.ensures:
            return PipelineLemma(requires, self.p.ensures)
        return PipelineLemma(requires, (self.autogen_post(),))

    def autogen_post(self) -> QuantCond:
        """A pipeline postcondition quantifying the output's own contract
        over its domain, for pipelines that state none themselves."""
        out = self.p.output_func
        last = out.stages[-1]
        if not last.ensures:
            raise EncodeError(
                "NoIntermediateAnnotation",
                f"{out.name} has no postcondition to derive the pipeline"
                " contract from",
            )
        body = _pinned(out, last, and_(*(c.expr for c in last.ensures)))
        quants = tuple(
            Quantifier(d, BoundRef(out.name, d, "min"), BoundRef(out.name, d, "max"))
            for d in out.dim_names()
        )
        return QuantCond(quants, body)


def encode(p: Pipeline) -> EncodedProgram:
    return _Encoder(p).build()


# ---------------------------------------------------------------------------
# Rendering


def _render(prog: EncodedProgram) -> str:
    pr = ExprPrinter(dialect="pvl")

    def contract(d: PureFunctionDecl) -> list[str]:
        lines = [f" requires {pr.print(r)};" for r in d.requires]
        for e in d.ensures:
            text = pr.print(e)
            if isinstance(e, BinOp) and e.op in ("&&", "||"):
                text = f"({text})"
            lines.append(f" ensures {text};")
        dec = " " + ", ".join(d.decreases) if d.decreases else ""
        lines.append(f" decreases{dec};")
        return lines

    def signature(d: PureFunctionDecl) -> str:
        params = ", ".join(f"{t} {n}" for n, t in d.params)
        head = f"pure int {d.name}({params})"
        if d.body is None:
            return head + ";"
        return f"{head} = {pr.print(d.body)};"

    # a bound-function line sticks to the abstract declaration it describes
    blocks: list[tuple[str, bool]] = []
    i = 0
    decls = prog.declarations
    prev_name: str | None = None
    while i < len(decls):
        d = decls[i]
        if d.group is not None:
            peers = [d]
            while i + 1 < len(decls) and decls[i + 1].group == d.group:
                i += 1
                peers.append(decls[i])
            text = " decreases;\n" + " ".join(signature(x) for x in peers)
            blocks.append((text, prev_name == d.group))
            prev_name = d.group
        else:
            blocks.append(("\n".join(contract(d) + [signature(d)]), False))
            prev_name = d.name
        i += 1

    lemma_lines = [f" requires {pr.print(r)};" for r in prog.lemma.requires]
    for qc in prog.lemma.ensures:
        lemma_lines.append(f" ensures {quantified(qc.quants, None, pr.print(qc.body), pr)};")
    lemma_lines.append("void pipeline() { }")
    blocks.append(("\n".join(lemma_lines), False))

    out = blocks[0][0]
    for text, attach in blocks[1:]:
        out += ("\n" if attach else "\n\n") + text
    return out + "\n"


# ---------------------------------------------------------------------------
# The front-end check


def check_decreases_static(prog: EncodedProgram) -> list[tuple[str, str]]:
    """Violations of the termination measure, found syntactically.

    For every self-call the declared variable list must drop
    lexicographically: some variable's argument sits strictly below the
    variable itself while everything before it is passed through unchanged.
    Returns (decl name, reason) pairs.
    """
    bad: list[tuple[str, str]] = []
    for d in prog.declarations:
        if d.body is None:
            continue
        names = [n for n, _ in d.params]
        calls = [
            e for e in walk(d.body) if isinstance(e, FuncAccess) and e.func == d.name
        ]
        for call in calls:
            if not d.decreases:
                bad.append((d.name, "recursive but carries no decreases clause"))
                break
            ok = False
            for v in d.decreases:
                arg = call.args[names.index(v)]
                try:
                    coeffs, const = linearize(arg - Var(v))
                except NonAffineAccess:
                    coeffs, const = {v: 1}, 0
                if coeffs:
                    bad.append((d.name, f"{v} changes non-constantly in a self-call"))
                    break
                if const < 0:
                    ok = True
                    break
                if const > 0:
                    bad.append((d.name, f"{v} grows in a self-call"))
                    break
            else:
                bad.append((d.name, "no decreases variable strictly drops"))
            if not ok:
                break
    return bad


def _size(domains) -> int:
    return math.prod(max(hi - lo + 1, 0) for _, lo, hi in domains)


def _gather(table: np.ndarray, flat):
    """Table entries at flat indices; a table the same in every lane gives
    values without a lane axis, any other keeps the lane axis leading."""
    return table[0, flat] if len(table) == 1 else table[:, np.atleast_1d(flat)]


def _held(vals, n: int) -> np.ndarray:
    """Whether a grid value holds, as (lanes or 1, n)."""
    v = np.asarray(vals) != 0
    return np.broadcast_to(v, (v.shape[0] if v.ndim == 2 else 1, n))


def _first(a, i: int) -> int:
    """Entry ``i`` of a points vector, or the scalar ``a``."""
    return int(a[i]) if np.ndim(a) else int(a)


class _FrontEval:
    """The evaluation context of the encoded program over lane-stacked
    inputs: one (lanes, points) table per declaration, first parameter
    slowest, built on its first call.  The body runs once over the domain
    grid or, for a recursive declaration, once per step of its
    ``decreases`` tuple in lexicographic order, the step's variables
    scalars and the other parameters the grid.  Buffers are tables from
    the start.  A call is a clipped gather from the callee's table; a read
    of a point not built yet is a termination finding and reads 0.

    The evaluator reads an untaken ``select`` branch, or the right side of
    ``==>`` where the left fails, at no point, so every fault met over a
    grid is taken and reported, at its first point.
    """

    def __init__(self, prog: EncodedProgram, p: Pipeline, inputs):
        self.decls = {d.name: d for d in prog.declarations}
        self.lanes = next(iter(inputs.values())).shape[0]
        self.tables = {}
        for b in p.buffers:
            layout = flat_alloc(b).cell(domain_grid(self.decls[b.name].domains))
            self.tables[b.name] = inputs[b.name].astype(np.int64)[:, layout]
        self.building: dict[str, tuple[int, ...]] = {}  # the step under way
        self.site: str | None = None  # the declaration whose body runs
        self.findings: list = []
        self.points = 0
        self.seen: set = set()

    def report(self, kind: str, message: str, dedupe, site: str = "", lanes=None):
        """Record a finding, once per ``dedupe`` key (None: always)."""
        from .checker import Finding

        if dedupe is not None:
            if dedupe in self.seen:
                return
            self.seen.add(dedupe)
        self.findings.append(Finding(kind, message, site, lanes))

    def eval(self, e: Expr, env):
        return compiled(e, checked=True)(env, self)

    def check(self, v):
        """Bodies compute in 32-bit ints: a value beyond them is an
        overflow, reported with the lanes of its first point.  Exact ints
        wrap to int64, as arrays do."""
        if self.site is not None:
            bad = (v < INT32_MIN) | (v > INT32_MAX)
            if np.any(bad):
                lanes = None
                if np.ndim(bad) == 2:
                    lanes = tuple(np.flatnonzero(bad[:, np.argmax(bad.any(axis=0))]).tolist())
                msg = "intermediate value leaves the signed 32-bit range"
                self.report("overflow", msg, ("overflow", self.site), self.site, lanes)
        return wrap_int64(v)

    def table(self, name: str) -> np.ndarray:
        t = self.tables.get(name)
        return self.build(self.decls[name]) if t is None else t

    def call(self, name: str, args):
        """The evaluation context's entity hook: a declaration or an
        abstract (buffer) function applied at a point, or over the grid."""
        d = self.decls[name]
        table = self.table(name)
        # values that depend on the inputs keep a lane axis
        if any(np.ndim(a) > 1 for a in args):
            raise EncodeError(
                "DataDependentIndex", f"{name} is applied at an index that depends on input values"
            )
        at = dict(zip((v for v, _, _ in d.domains), args))
        unbuilt = False
        step = self.building.get(name)
        if step is not None:
            below, same = False, True
            for v, s in zip(d.decreases, step):
                below = below | (same & (at[v] < s))
                same = same & (at[v] == s)
            unbuilt = np.logical_not(below)
            if np.any(unbuilt):
                i = int(np.argmax(unbuilt)) if np.ndim(unbuilt) else 0
                point = tuple(_first(a, i) for a in args)
                cur = tuple(_first(at[v], i) for v in d.decreases)
                self.report(
                    "termination",
                    f"{name}{point} recursed without decreasing ({step} to {cur})"
                    if d.decreases
                    else f"{name}{point} is called while it is being evaluated",
                    ("dec", name),
                )
        flat = 0
        for a, (v, lo, hi) in zip(args, d.domains):
            outside = (a < lo) | (a > hi)
            if np.any(outside):
                # a point not built yet reads 0 and faults no further
                a, outside = np.broadcast_arrays(a, outside & np.logical_not(unbuilt))
                for value in dict.fromkeys(a[outside].tolist()):
                    self.report(
                        "out_of_bounds",
                        f"encoded program {'reads' if d.body is None else 'calls'} {name}"
                        f" at {v}={value}, outside [{lo}, {hi + 1})",
                        (name, v, value),
                    )
                a = np.clip(a, lo, hi)
            flat = flat * (hi - lo + 1) + (a - lo)
        vals = _gather(table, flat)
        return np.where(unbuilt, 0, vals) if np.any(unbuilt) else vals

    def build(self, d: PureFunctionDecl) -> np.ndarray:
        """Tabulate ``d``, one step of its measure at a time."""
        size = _size(d.domains)
        self.tables[d.name] = np.zeros((1, size), dtype=np.int64)
        self.points += size
        grid = domain_grid(tuple(r for r in d.domains if r[0] not in d.decreases))
        ranges = {v: range(lo, hi + 1) for v, lo, hi in d.domains}
        body = compiled(d.body, checked=True)
        outer, self.site = self.site, d.name
        for step in itertools.product(*[ranges[v] for v in d.decreases]):
            self.building[d.name] = step
            env = grid | dict(zip(d.decreases, step))
            flat = 0
            for v, lo, hi in d.domains:
                flat = flat * (hi - lo + 1) + (env[v] - lo)
            vals = body(env, self)
            table = self.tables[d.name]
            if np.ndim(vals) == 2 and len(table) < len(vals):
                table = self.tables[d.name] = np.repeat(table, len(vals), axis=0)
            table[:, np.atleast_1d(flat)] = vals
        del self.building[d.name]
        self.site = outer
        return self.tables[d.name]

    def verify(self, domains, requires, ensures, tables, kind, message, site):
        """Report ``kind`` at the first point over ``domains``, in
        enumeration order, where the ``requires`` hold and an ``ensures``
        fails, ``message`` formatted with the point.  ``tables`` bind names
        to (lanes, points) values over the grid.  The ``ensures`` are
        evaluated only at the points where the ``requires`` hold."""
        n = _size(domains)
        if n == 0:
            return
        env = domain_grid(domains) | tables
        live = np.ones(n, dtype=bool)
        for r in requires:
            live &= _held(self.eval(r, env), n).all(axis=0)
        if not live.any():
            return
        env = narrow(env, live)
        k = int(live.sum())
        held = [_held(self.eval(e, env), k) for e in ensures]
        bad = ~np.logical_and.reduce([h.all(axis=0) for h in held])
        if bad.any():
            stop = int(np.argmax(bad))
            ok = next(h[:, stop] for h in held if not h[:, stop].all())
            point = tuple(int(env[v][stop]) for v, _, _ in domains)
            self.report(kind, message.format(point), None, site, tuple(np.flatnonzero(~ok).tolist()))


_MATCHES_REFERENCE = eq(Result(), Var("\\reference"))


def check_frontend(prog: EncodedProgram, p: Pipeline, inputs) -> "RunResult":
    """Check every declaration's contract over its domain grid, the
    pipeline lemma, the termination measure, and the encoding against the
    reference semantics."""
    from .checker import ReferenceFault, RunResult, eval_reference

    t0 = time.perf_counter()
    ev = _FrontEval(prog, p, inputs)
    for name, reason in check_decreases_static(prog):
        ev.report("termination", f"{name}: {reason}", ("static", name, reason))
    for d in prog.declarations:
        if d.ensures:
            msg = f"postcondition of {d.name} fails at {{}}"
            tables = {"\\result": ev.table(d.name)}
            ev.verify(d.domains, d.requires, d.ensures, tables, "contract_violation", msg, d.name)
    if all(np.all(ev.eval(r, {}) != 0) for r in prog.lemma.requires):
        for qc in prog.lemma.ensures:
            domains = tuple(
                (q.var, int(ev.eval(q.lo, {})), int(ev.eval(q.hi, {})) - 1) for q in qc.quants
            )
            msg = "pipeline lemma fails at {}"
            ev.verify(domains, (), (qc.body,), {}, "postcondition_violation", msg, "pipeline")

    # the encoding must agree with the reference semantics everywhere; a
    # reference fault is the encoding's own out-of-range access, reported
    # with its point when the encoding met it
    try:
        reference = eval_reference(p, inputs)[p.output]
    except ReferenceFault as err:
        if not any(f.kind == "out_of_bounds" for f in ev.findings):
            ev.report("out_of_bounds", f"reference semantics undefined: {err}", ("ref",))
        reference = None
    domains = ev.decls[p.output].domains
    alloc = flat_alloc(p.output_func)
    layout = alloc.cell(domain_grid(domains))
    got = ev.table(p.output)
    result = np.zeros((ev.lanes, alloc.size), dtype=np.int64)
    result[:, layout] = got
    if reference is not None:
        msg = f"encoded {p.output}{{}} disagrees with the reference semantics"
        tables = {"\\result": got, "\\reference": reference[:, layout]}
        ev.verify(domains, (), (_MATCHES_REFERENCE,), tables, "mismatch", msg, p.output)
    return RunResult({p.output: result}, ev.findings, ev.points, (time.perf_counter() - t0) * 1000)
