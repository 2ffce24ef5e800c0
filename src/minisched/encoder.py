"""Pure-function encoding of the algorithm half of a pipeline.

Each definition stage becomes a pure function: initial definitions
directly, updates as a point-match conditional over the previous stage,
reductions as recursion counting completed steps, so a contract at count
``r`` speaks about the state after ``r`` iterations.  Input buffers turn
into abstract functions, concrete bounds into nullary functions, and the
pipeline contract into a lemma.  The front-end check evaluates the whole
encoding point by point against its own contracts and the reference
semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ir import (
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
    compiled,
    eq,
    le,
    lt,
    rewrite,
    substitute,
    walk,
)
from .printing import ExprPrinter, quantified


@dataclass(frozen=True)
class PureFunctionDecl:
    """One declaration of the encoded program.

    ``body`` None marks an abstract function (an input buffer).  ``domains``
    records the closed integer range of every parameter, which is how the
    point-wise front-end check knows what to enumerate.  Declarations that
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
        names: list[str] = []
        exprs = [c.expr for c in self.p.requires]
        exprs += [qc.body for qc in self.p.ensures]
        for qc in self.p.ensures:
            exprs += [q.lo for q in qc.quants] + [q.hi for q in qc.quants]
        wanted = {self.p.output}
        for e in exprs:
            wanted |= {n.entity for n in walk(e) if isinstance(n, BoundRef)}
        buffers = {b.name for b in self.p.buffers}
        for f in self.p.funcs:
            if f.name in wanted and f.name not in buffers:
                names.append(f.name)
        return names

    def buffer_decl(self, b) -> PureFunctionDecl:
        point = tuple(Var(d) for d in b.dim_names())

        def to_result(e: Expr) -> Expr | None:
            if isinstance(e, BufAccess) and e.buf == b.name and e.args == point:
                return Result()
            return None

        return PureFunctionDecl(
            name=b.name,
            params=tuple((d, "int") for d in b.dim_names()),
            ensures=tuple(rewrite(c.expr, to_result) for c in b.requires),
            domains=tuple(
                (d, iv.lo_int, iv.hi_int - 1) for d, iv in b.dims
            ),
        )

    def bound_decls(self, entity: str, dims) -> list[PureFunctionDecl]:
        out = []
        for d, iv in dims:
            for end, value in (("min", iv.lo_int), ("max", iv.hi_int)):
                out.append(
                    PureFunctionDecl(
                        name=f"{entity}_{d}_{end}",
                        params=(),
                        body=Const(value),
                        group=entity,
                    )
                )
        return out

    # -- stages ------------------------------------------------------------

    def func_decls(self, f: Func) -> list[PureFunctionDecl]:
        decls: list[PureFunctionDecl] = []
        for s in f.stages:
            if s.kind == "reduction":
                decls.extend(self.reduction_decls(f, s))
            elif s.kind == "update":
                decls.append(self.update_decl(f, s))
            else:
                decls.append(self.pure_decl(f, s))
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

    def encoded_post(self, f: Func, s: Stage) -> tuple[Expr, ...]:
        """Stage postconditions with the defined point read as ``\\result``.

        An update pins some coordinates, so its postcondition only binds
        where the parameters match the pinned point.
        """
        def to_result(e: Expr) -> Expr | None:
            if isinstance(e, FuncAccess) and e.func == f.name and e.args == s.lhs_args:
                return Result()
            return None

        match = [
            eq(Var(d), arg)
            for d, arg in zip(f.dim_names(), s.lhs_args)
            if arg != Var(d)
        ]
        out = []
        for c in s.ensures:
            body = rewrite(c.expr, to_result)
            for m in reversed(match):
                body = BinOp("==>", m, body)
            out.append(body)
        return tuple(out)

    def dim_params(self, f: Func) -> tuple[tuple[str, str], ...]:
        return tuple((d, "int") for d in f.dim_names())

    def dim_domains(self, f: Func) -> tuple[tuple[str, int, int], ...]:
        return tuple((d, iv.lo_int, iv.hi_int - 1) for d, iv in f.dims)

    def pure_decl(self, f: Func, s: Stage) -> PureFunctionDecl:
        return PureFunctionDecl(
            name=_stage_name(f, s.index),
            params=self.dim_params(f),
            ensures=self.encoded_post(f, s),
            body=s.rhs,
            domains=self.dim_domains(f),
        )

    def update_decl(self, f: Func, s: Stage) -> PureFunctionDecl:
        prev = _stage_name(f, s.index - 1)

        def to_prev(e: Expr) -> Expr | None:
            if isinstance(e, FuncAccess) and e.func == f.name:
                return FuncAccess(prev, e.args)
            return None

        point = tuple(Var(d) for d in f.dim_names())
        taken = rewrite(s.rhs, to_prev)
        conds = [
            eq(Var(d), arg)
            for d, arg in zip(f.dim_names(), s.lhs_args)
            if arg != Var(d)
        ]
        if s.guard is not None:
            conds.append(s.guard)
        body = taken
        if conds:
            cond = conds[0]
            for c in conds[1:]:
                cond = BinOp("&&", cond, c)
            body = Select(cond, taken, FuncAccess(prev, point))
        return PureFunctionDecl(
            name=_stage_name(f, s.index),
            params=self.dim_params(f),
            ensures=self.encoded_post(f, s),
            body=body,
            domains=self.dim_domains(f),
        )

    def reduction_decls(self, f: Func, s: Stage) -> list[PureFunctionDecl]:
        rvars = s.rdom.names()
        if len(rvars) > 2:
            raise EncodeError(
                "UnsupportedReductionArity",
                f"{f.name} stage {s.index} reduces over {len(rvars)} variables;"
                " the recursion template covers at most two",
            )
        for rv in rvars:
            if s.invariant_for(rv) is None:
                raise EncodeError(
                    "MissingReductionInvariant",
                    f"reduction variable {rv!r} of {f.name} stage {s.index}"
                    " has no invariant",
                )

        prefix = _stage_name(f, s.index)
        point = tuple(Var(d) for d in f.dim_names())
        prev = self.stage_value(f, s.index - 1, point)

        def inv_post(rv: str) -> Expr:
            def to_result(e: Expr) -> Expr | None:
                if isinstance(e, FuncAccess) and e.func == f.name and e.args == s.lhs_args:
                    return Result()
                return None

            return rewrite(s.invariant_for(rv).expr, to_result)

        r1 = rvars[0]
        iv1 = s.rdom.interval(r1)

        def self_step(e: Expr, params: tuple[Expr, ...]) -> Expr:
            """The stage body one iteration back: the recursion variable is
            rewound and the function's own value becomes the previous call."""
            back = substitute(e, {r1: Var(r1) - 1})

            def to_call(n: Expr) -> Expr | None:
                if isinstance(n, FuncAccess) and n.func == f.name:
                    return FuncAccess(prefix + r1, n.args + params)
                return None

            return rewrite(back, to_call)

        if len(rvars) == 1:
            tail = (Var(r1) - 1,)
            step = self_step(s.rhs, tail)
            if s.guard is not None:
                step = Select(
                    substitute(s.guard, {r1: Var(r1) - 1}),
                    step,
                    FuncAccess(prefix + r1, point + tail),
                )
            return [
                PureFunctionDecl(
                    name=prefix + r1,
                    params=self.dim_params(f) + ((r1, "int"),),
                    requires=(
                        BinOp("&&", le(iv1.lo_int, Var(r1)), le(Var(r1), iv1.hi_int)),
                    ),
                    ensures=(inv_post(r1),),
                    decreases=(r1,),
                    body=Select(eq(Var(r1), iv1.lo_int), prev, step),
                    domains=self.dim_domains(f) + ((r1, iv1.lo_int, iv1.hi_int),),
                )
            ]

        r2 = rvars[1]
        iv2 = s.rdom.interval(r2)
        # state after a whole number of outer sweeps: either none have run,
        # or the last one ran the inner recursion to completion
        swept = Select(
            eq(Var(r2), iv2.lo_int),
            prev,
            FuncAccess(prefix + r1, point + (Const(iv1.hi_int), Var(r2) - 1)),
        )
        tail = (Var(r1) - 1, Var(r2))
        step = self_step(s.rhs, tail)
        if s.guard is not None:
            step = Select(
                substitute(s.guard, {r1: Var(r1) - 1}),
                step,
                FuncAccess(prefix + r1, point + tail),
            )
        inner = PureFunctionDecl(
            name=prefix + r1,
            params=self.dim_params(f) + ((r1, "int"), (r2, "int")),
            requires=(
                BinOp("&&", le(iv1.lo_int, Var(r1)), le(Var(r1), iv1.hi_int)),
                BinOp("&&", le(iv2.lo_int, Var(r2)), lt(Var(r2), iv2.hi_int)),
            ),
            ensures=(inv_post(r1),),
            decreases=(r2, r1),
            body=Select(eq(Var(r1), iv1.lo_int), swept, step),
            domains=self.dim_domains(f)
            + ((r1, iv1.lo_int, iv1.hi_int), (r2, iv2.lo_int, iv2.hi_int - 1)),
        )
        outer = PureFunctionDecl(
            name=prefix + r2,
            params=self.dim_params(f) + ((r2, "int"),),
            requires=(
                BinOp("&&", le(iv2.lo_int, Var(r2)), le(Var(r2), iv2.hi_int)),
            ),
            ensures=(inv_post(r2),),
            decreases=(r2,),
            body=swept,
            domains=self.dim_domains(f) + ((r2, iv2.lo_int, iv2.hi_int),),
        )
        return [inner, outer]

    def entry_decl(self, f: Func) -> PureFunctionDecl:
        point = tuple(Var(d) for d in f.dim_names())
        return PureFunctionDecl(
            name=f.name,
            params=self.dim_params(f),
            ensures=self.encoded_post(f, f.stages[-1]),
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
        match = [
            eq(Var(d), arg)
            for d, arg in zip(out.dim_names(), last.lhs_args)
            if arg != Var(d)
        ]
        body: Expr | None = None
        for c in last.ensures:
            body = c.expr if body is None else BinOp("&&", body, c.expr)
        for m in reversed(match):
            body = BinOp("==>", m, body)
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
    from .lowering import NonAffineAccess, linearize

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


class _FrontEval:
    """Point-wise evaluator for the encoded program over lane-stacked
    inputs.  Memoizes per call site; values are (lanes,) arrays."""

    def __init__(self, prog: EncodedProgram, p: Pipeline, inputs):
        from .lowering import flat_alloc

        self.decls = {d.name: d for d in prog.declarations}
        self.p = p
        self.mem = {name: arr.astype(np.int64) for name, arr in inputs.items()}
        self.allocs = {b.name: flat_alloc(b) for b in p.buffers}
        self.buffers = {b.name: b for b in p.buffers}
        self.memo: dict = {}
        self.stack: list[tuple[str, tuple[int, ...]]] = []
        self.findings: list = []
        self.points = 0
        self.seen: set = set()

    def report(self, kind: str, message: str, dedupe):
        from .checker import Finding

        if dedupe in self.seen:
            return
        self.seen.add(dedupe)
        self.findings.append(Finding(kind, message, ""))

    def read_buffer(self, name: str, args: tuple[int, ...]):
        b = self.buffers[name]
        point = {}
        for a, (d, iv) in zip(args, b.dims):
            lo, hi = iv.lo_int, iv.hi_int
            if not lo <= a < hi:
                self.report(
                    "out_of_bounds",
                    f"encoded program reads {name} at {d}={a}, outside [{lo}, {hi})",
                    ("buf", name, d, a),
                )
                a = min(max(a, lo), hi - 1)
            point[d] = a
        return self.mem[name][:, self.allocs[name].cell(point)]

    def call(self, name: str, args: tuple[int, ...]):
        """The evaluation context's entity hook: apply a declaration, or
        read an abstract (buffer) function, at a point."""
        args = tuple(map(int, args))
        key = (name, args)
        if key in self.memo:
            return self.memo[key]
        d = self.decls.get(name)
        if d is None or d.body is None:
            return self.read_buffer(name, args)
        env = dict(zip((n for n, _ in d.params), args))
        if d.decreases and self.stack and self.stack[-1][0] == name:
            prev = self.stack[-1][1]
            cur = tuple(int(env[v]) for v in d.decreases)
            if not cur < prev:
                self.report(
                    "termination",
                    f"{name}{args} recursed without decreasing"
                    f" ({prev} to {cur})",
                    ("dec", name),
                )
                return np.int64(0)  # cut the recursion instead of diverging
        if len(self.stack) >= 2048:
            self.report(
                "termination",
                f"evaluating {name} exceeded the recursion depth budget",
                ("depth",),
            )
            return np.int64(0)
        self.stack.append((name, tuple(int(env[v]) for v in d.decreases)))
        try:
            val = self.eval(d.body, env)
        finally:
            self.stack.pop()
        self.points += 1
        self.memo[key] = val
        return val

    def eval(self, e: Expr, env):
        return compiled(e)(env, self)


def _domain_points(domains):
    if not domains:
        yield {}
        return
    axes = [range(lo, hi + 1) for _, lo, hi in domains]
    names = [n for n, _, _ in domains]
    idx = [0] * len(axes)
    while True:
        yield {n: axes[i][idx[i]] for i, n in enumerate(names)}
        for i in reversed(range(len(axes))):
            idx[i] += 1
            if idx[i] < len(axes[i]):
                break
            idx[i] = 0
        else:
            return


def check_frontend(prog: EncodedProgram, p: Pipeline, inputs) -> "RunResult":
    """Evaluate every declaration's contract at every domain point, the
    pipeline lemma, the termination measure, and the encoding against the
    reference semantics."""
    from .checker import Finding, RunResult, eval_reference
    from .lowering import flat_alloc

    t0 = time.perf_counter()
    ev = _FrontEval(prog, p, inputs)

    for name, reason in check_decreases_static(prog):
        ev.report("termination", f"{name}: {reason}", ("static", name, reason))

    def lanes_ok(vals) -> bool:
        return bool((np.asarray(vals) != 0).all())

    def failing_lanes(vals):
        v = np.atleast_1d(np.asarray(vals))
        return tuple(np.flatnonzero(v == 0).tolist())

    for d in prog.declarations:
        if not d.ensures:
            continue
        broken = False
        for env in _domain_points(d.domains):
            if broken:
                break
            if any(
                not np.asarray(ev.eval(r, env)).all() for r in d.requires
            ):
                continue
            args = tuple(int(env[n]) for n, _ in d.params)
            env["\\result"] = ev.call(d.name, args)
            for e in d.ensures:
                vals = ev.eval(e, env)
                if not lanes_ok(vals):
                    ev.findings.append(
                        Finding(
                            "contract_violation",
                            f"postcondition of {d.name} fails at {args}",
                            d.name,
                            lanes=failing_lanes(vals) or None,
                        )
                    )
                    broken = True
                    break

    lemma_live = all(
        np.asarray(ev.eval(r, {})).all() for r in prog.lemma.requires
    )
    if lemma_live:
        for qc in prog.lemma.ensures:
            domains = tuple(
                (q.var, int(ev.eval(q.lo, {})), int(ev.eval(q.hi, {})) - 1)
                for q in qc.quants
            )
            for env in _domain_points(domains):
                vals = ev.eval(qc.body, env)
                if not lanes_ok(vals):
                    point = tuple(int(env[n]) for n, _, _ in domains)
                    ev.findings.append(
                        Finding(
                            "postcondition_violation",
                            f"pipeline lemma fails at {point}",
                            "pipeline",
                            lanes=failing_lanes(vals) or None,
                        )
                    )
                    break

    # the encoding must agree with the reference semantics everywhere
    out = p.output_func
    try:
        reference = eval_reference(p, inputs)[p.output]
    except ValueError as err:
        ev.report("out_of_bounds", f"reference semantics undefined: {err}", ("ref",))
        reference = None
    alloc = flat_alloc(out)
    lanes = next(iter(inputs.values())).shape[0]
    result = np.zeros((lanes, alloc.size), dtype=np.int64)
    mismatched = False
    for env in _domain_points(tuple((d, iv.lo_int, iv.hi_int - 1) for d, iv in out.dims)):
        args = tuple(int(env[d]) for d in out.dim_names())
        flat = alloc.cell(dict(zip(out.dim_names(), args)))
        got = ev.call(p.output, args)
        result[:, flat] = got
        if reference is None or mismatched:
            continue
        bad = np.asarray(got) != reference[:, flat]
        if bad.any():
            mismatched = True
            ev.findings.append(
                Finding(
                    "mismatch",
                    f"encoded {p.output}{args} disagrees with the reference"
                    " semantics",
                    p.output,
                    lanes=tuple(np.flatnonzero(bad).tolist()),
                )
            )

    return RunResult(
        {p.output: result},
        ev.findings,
        ev.points,
        (time.perf_counter() - t0) * 1000,
    )
