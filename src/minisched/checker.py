"""Concrete execution of lowered pipelines, with instrumentation.

Every expression here, as everywhere in the package, is evaluated by the one
closure evaluator :func:`minisched.ir.compiled`.  What differs between the
evaluations is the context passed for the leaves:

* ``eval_reference`` computes every function of a pipeline directly from
  its definition, stage by stage over full declared domains; it is the
  semantic baseline.  It evaluates each stage body as written over a grid
  in storage order; a read (``call``) outside the callee's declared range
  in any dimension faults, and only a read that a point's value takes can:
  an untaken ``select`` branch is read at no point.
* ``run_lowered`` executes a built loop nest the way the emitted C would.
  Its ``load`` and ``check`` hooks watch for the things a verifier would
  reject: reads of cells never written, out-of-range indexes, values
  escaping 32-bit range, accesses outside a held permission, and accesses
  that would collide if a parallel loop really ran in parallel.  The walk
  and a batch run one access checker (``_Runner.access``) and one range
  check (``_Runner.check32``).
* ``check_annotations`` runs the same execution and evaluates every
  annotation at its boundaries over its quantifier grid; its ``load``
  reports an out-of-range read and clips it.  Untaken ``select`` branches
  and right sides of ``==>`` are not read, so every read it reports is
  taken.

All of them evaluate all random seeds at once: control flow never depends
on data and no index reads storage (lowering admits guards that name loop
variables only, and indices affine in them), so one walk of the nest
carries an entire batch of input sets as a leading lane axis.

Every detector, of the runner and of the observer alike, reports what it
finds through one routine, :meth:`_Runner.report`.  While a batch runs
(``_Runner.batch``), a report raises :class:`_Fired` instead and drops the
batch, as does an annotation past the instantiation budget; the walk that
replays it reports the findings.  The batch fires on its own only where it
meets something the walk would not report: log keys past int64, a read
evaluated before a write it needed, or a race inside its block.

The runner executes a loop in batches (:func:`batch_plan`,
:class:`_Batch`).  A batch covers a block of whole iterations of the loop
and everything beneath it, producer-consumer sequences included, and
evaluates each statement once over all its points.  The points start as the
head loop's iterations; an inner serial loop whose variable a store index
names repeats them, one per iteration, and any other runs one iteration at
a time, unless its steps only add to the cell they write: then they run as
one prefix sum (:class:`Scan`).  An unrolled loop runs as a serial loop
everywhere; the annotator gives it no invariants, so its boundaries check
nothing.  Each point
carries its walk time, in statement slots from the block's start.  Every
write is stamped with its walk time in one log, which the batch's reads and
the observer's share.  The walk's detectors run on the batch's offset
arrays, and the batch commits only if none reports and every read saw the
write the walk gives it.  Otherwise it is dropped, with no state touched,
and the rest of the loop is walked statement by statement, each inner loop
trying its own batch, which reports the findings in the order, and with the
messages, of a walk that never tried the batch.

Under annotation checking, a batch's events are checked before it commits
(:meth:`_AnnObserver.check_batch`).  Each value annotation that fires in
the block is evaluated once, over the stacked grid of all its events and
quantifier points, in chunks of a bounded number of points, each event
reading storage as of its own time; a serial loop's invariant, over only
the instances that can have changed since the previous boundary.  A
parallel loop's permission ledger is charged the same way.  The batch
counts the instantiations, and its commit adds them.  The walk checks each
event alone, through the same routine (:meth:`_AnnObserver._grids`), as a
grid of one event.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .annotate import Ann, AnnotatedPipeline, RegionPerm, annotate
from .ir import (
    INT32_MAX,
    INT32_MIN,
    BinOp,
    BufAccess,
    Const,
    Expr,
    FuncAccess,
    MaxOf,
    MemTarget,
    MinOf,
    Pipeline,
    PipelineError,
    Select,
    TableRead,
    compiled,
    domain_grid,
    eval_const,
    free_vars,
    narrow,
    walk,
    wrap_int64,
    _CLOSED,
    _reads_storage,
)
from .lowering import (
    Chain,
    Consume,
    If,
    Loop,
    LoweredPipeline,
    Produce,
    Store,
    StoreStmt,
    _stage_loop_dims,
    flat_alloc,
    linearize,
)

POISON = np.int64(0x5EED_BADD_0000)


@dataclass(frozen=True)
class Finding:
    """One reason a run does not pass.  ``lanes`` names the input sets the
    problem occurred in, or None when it is input-independent."""

    kind: str
    message: str
    site: str = ""
    lanes: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "message": self.message, "site": self.site}
        if self.lanes is not None:
            out["lanes"] = list(self.lanes)
        return out


@dataclass
class RunResult:
    mem: dict[str, np.ndarray]
    findings: list[Finding]
    points: int
    millis: float
    instantiations: int = 0
    batched_loops: int = 0  # loop instances committed as one batch
    replayed_loops: int = 0  # batches dropped, for the walk to replay
    # the instantiations evaluated; the rest are loop invariant instances
    # that held at the previous boundary and read no cell written since
    evaluated: int = 0

    @property
    def passed(self) -> bool:
        return not self.findings


def make_inputs(p: Pipeline, seeds) -> dict[str, np.ndarray]:
    """Uniform int32 input buffers in [-100, 100], one lane per seed."""
    out: dict[str, np.ndarray] = {}
    for b in p.buffers:
        size = 1
        for _, iv in b.dims:
            size *= iv.extent
        lanes = [
            np.random.default_rng(seed).integers(-100, 101, size=size, dtype=np.int64)
            for seed in seeds
        ]
        out[b.name] = np.stack(lanes, axis=0)
    return out


def assert_buffer_requires(p: Pipeline, inputs: dict[str, np.ndarray]) -> None:
    """Hard check that generated inputs satisfy every buffer precondition.

    These conditions are implicitly quantified over the buffer's whole
    domain; a violation is a bug in the input generator, not a finding.
    """
    mem = _Declared(p.buffers, inputs)
    for b in p.buffers:
        env = domain_grid(_ranges(b, b.dim_names()))
        for cond in b.requires:
            held = compiled(_affine_reads(cond.expr))(env, mem)
            if not (held != 0).all():
                raise ValueError(f"generated inputs violate a precondition of {b.name!r}")


# ---------------------------------------------------------------------------
# Reference semantics


class ReferenceFault(ValueError):
    """A reference value takes a read outside its callee's declared domain."""


class _Declared:
    """Storage of the reference semantics: one (lanes, size) array per
    entity in its declared layout.  A read ``call(name, args)`` raises
    :class:`ReferenceFault` if any point falls outside the declared range of
    any dimension, and gathers otherwise, the lane axis leading."""

    def __init__(self, entities, inputs: dict[str, np.ndarray]):
        self.mem = {name: arr.astype(np.int64) for name, arr in inputs.items()}
        self.dims = {e.name: list(zip(_ranges(e, e.dim_names()), flat_alloc(e).strides.values())) for e in entities}

    def call(self, name: str, args):
        flat = 0
        for a, ((_, lo, top), stride) in zip(args, self.dims[name]):
            low, high = (a.min(), a.max()) if isinstance(a, np.ndarray) else (a, a)
            if low < lo or high > top:
                raise ReferenceFault(f"reference evaluation reads {name} out of bounds")
            flat = flat + stride * (a - lo)
        return self.mem[name].take(np.atleast_1d(flat), axis=1)


def _ranges(entity, dims) -> list[tuple[str, int, int]]:
    """The closed ranges of ``entity``'s named dimensions."""
    return [(d, entity.interval(d).lo_int, entity.interval(d).hi_int - 1) for d in dims]


def _affine_reads(e: Expr) -> Expr:
    """``e``, once each read in it, innermost first, has arguments affine in
    the loop variables, hdiv/hmod numerators included; otherwise the
    :class:`NonAffineAccess` that flattening ``e`` to storage raises."""
    for n in reversed(list(walk(e))):  # children first, left to right
        if isinstance(n, (FuncAccess, BufAccess)):
            for a in n.args:
                linearize(a)
    return e


def eval_reference(p: Pipeline, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every function of the pipeline over its full declared domain.

    Arrays are (lanes, size) in declared row-minor layout (first dimension
    has stride 1), exact in int64.  Raises :class:`ReferenceFault` when a
    value takes a read outside its callee's declared domain.
    """
    lanes = next(iter(inputs.values())).shape[0] if inputs else 1
    mem = _Declared((*p.buffers, *p.funcs), inputs)

    for f in p.funcs:
        alloc = flat_alloc(f)
        # not filled: validation makes stage 0 pure, with no reduction
        # domain, guard or read of its own function, so it writes every
        # cell before any read
        out = mem.mem[f.name] = np.empty((lanes, alloc.size), dtype=np.int64)
        for s in f.stages:
            dims = _stage_loop_dims(f, s)
            # the grid in storage order, so a pure stage's points are its cells
            env = domain_grid(_ranges(f, dims)[::-1])
            point = dict(zip(f.dim_names(), s.lhs_args))
            lhs = None if s.kind == "pure" else compiled(alloc.offset(point, list(dims)))
            rhs = compiled(_affine_reads(s.rhs))
            guard = None if s.guard is None else compiled(_affine_reads(s.guard))
            rsteps = [{}]
            if s.rdom is not None:
                # last declared variable is the outer loop, as in storage order
                grid = domain_grid(_ranges(s.rdom, s.rdom.names())[::-1])
                rsteps = [dict(zip(grid, map(int, step))) for step in zip(*grid.values())]
            for rstep in rsteps:
                full_env = env | rstep
                # the cells a step writes, which a reduction variable may pick
                idx = slice(None) if lhs is None else np.atleast_1d(lhs(full_env, mem))
                if guard is None:
                    out[:, idx] = rhs(full_env, mem)
                    continue
                held = np.broadcast_to(guard(full_env, mem) != 0, (lanes, idx.size))
                # a point runs where any lane holds its guard
                keep = held.any(axis=0)
                if keep.any():
                    at = idx[keep]
                    vals = rhs(narrow(full_env, keep), mem)
                    out[:, at] = np.where(held[:, keep], vals, out[:, at])
    return mem.mem


# ---------------------------------------------------------------------------
# Lowered execution


@dataclass
class _Cell:
    arr: np.ndarray  # (lanes, cells)
    init: np.ndarray  # (cells,) bool
    instance: int
    # in a batch, the private storage of a store it runs once per point:
    # the cells of one execution, the executions side by side; 0 elsewhere
    private: int = 0

    @property
    def size(self) -> int:
        """The cells of one instance."""
        return self.private or self.arr.shape[1]


# The first iteration of a cell no iteration has touched.
_NEVER = int(np.iinfo(np.int64).min)


@dataclass
class _Tracker:
    """Access log of one entered parallel loop.  Per cell instance there are
    two arrays over its cells: the first iteration that touched each cell
    and whether any access to it wrote.  A race is two accesses to one cell
    from different iterations, at least one a write; iterations run in
    order, so an access races exactly when its cell was first touched by
    another iteration and the access, or an earlier one, wrote.

    ``races`` takes the walk's one offset or a batch's array of offsets,
    all accessed by the current iteration; ``record`` takes the same, or a
    batch's accesses from several of the loop's own iterations."""

    var: str
    iteration: int = -1
    logs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def log(self, cell: _Cell) -> tuple[np.ndarray, np.ndarray]:
        """The (first iteration, wrote) arrays of one cell instance."""
        log = self.logs.get(cell.instance)
        if log is None:
            size = cell.arr.shape[1]
            log = self.logs[cell.instance] = (
                np.full(size, _NEVER, dtype=np.int64),
                np.zeros(size, dtype=bool),
            )
        return log

    def races(self, cell: _Cell, offsets, write: bool) -> bool:
        if cell.instance not in self.logs:
            return False
        first, wrote = self.logs[cell.instance]
        it = first[offsets]
        clash = (it != _NEVER) & (it != self.iteration)
        return bool((clash if write else clash & wrote[offsets]).any())

    def record(self, cell: _Cell, offsets, write, iteration=None):
        """Log accesses at ``offsets``, by the current iteration or, with
        ``iteration``, by the iteration of each; ``write`` tells per access
        whether it wrote, or for all at once."""
        first, wrote = self.log(cell)
        if iteration is None:
            fresh = first[offsets] == _NEVER
            if isinstance(offsets, np.ndarray):
                first[offsets[fresh]] = self.iteration
            elif fresh:
                first[offsets] = self.iteration
        else:
            # each cell keeps the earliest iteration that touched it
            order = np.argsort(iteration, kind="stable")
            offs, at = np.unique(offsets[order], return_index=True)
            fresh = first[offs] == _NEVER
            first[offs[fresh]] = iteration[order][at[fresh]]
        if np.ndim(write):
            wrote[offsets[write]] = True
        elif write:
            wrote[offsets] = True


class _Runner:
    def __init__(self, lp: LoweredPipeline, inputs: dict[str, np.ndarray], observer=None):
        self.lp = lp
        self.p = lp.pipeline
        self.lanes = next(iter(inputs.values())).shape[0] if inputs else 1
        self.mem: dict[str, _Cell] = {}
        self.findings: list[Finding] = []
        self.seen: set = set()
        self.points = 0
        self.batched_loops = 0
        self.replayed_loops = 0
        self.next_instance = 0
        self.trackers: list[_Tracker] = []
        # per entity, a stack of the held permissions' modes: each grant
        # spans the whole allocation, for writing or for reading only
        self.grants: dict[str, list[bool]] = {}
        self.site = ""  # the statement being executed, for findings
        self.batch: _Batch | None = None  # the batch running, if any
        self.obs = observer
        if observer is not None:
            observer.runner = self

        for bname, arr in inputs.items():
            cell = _Cell(arr.astype(np.int64), np.ones(arr.shape[1], dtype=bool), self._fresh())
            self.mem[bname] = cell
            self.grants[bname] = [False]
        sited = {name for name, sf in lp.scheduled.funcs.items() if sf.compute_site is not None}
        for name in lp.scheduled.realized:
            if name not in sited:
                self.mem[name] = self._new_cell(lp.allocs[name].size)

    def _fresh(self) -> int:
        self.next_instance += 1
        return self.next_instance

    def _new_cell(self, size: int) -> _Cell:
        return _Cell(
            np.full((self.lanes, size), POISON, dtype=np.int64),
            np.zeros(size, dtype=bool),
            self._fresh(),
        )

    def report(self, kind: str, message: str, site: str = "", lanes=None, dedupe=None):
        """Record a finding, once per ``dedupe`` key; while a batch runs,
        drop it instead (:class:`_Fired`), for the walk to report."""
        if self.batch is not None:
            raise _Fired
        key = dedupe if dedupe is not None else (kind, message, site)
        if key in self.seen:
            return
        self.seen.add(key)
        self.findings.append(Finding(kind, message, site, lanes))

    # -- the memory detectors ---------------------------------------------

    def access(self, name: str, offset, write: bool, fresh=None, base=0) -> _Cell | None:
        """The cell of ``name`` once the memory detectors have run on an
        access at ``offset``, in walk order: allocation bounds, permission
        scope, initialisation (reads only, of the offsets ``fresh`` selects,
        all by default), then races against each entered parallel loop.
        Each hit is reported (:meth:`report`); an access out of bounds, or
        outside any held permission, once per entity, mode and statement,
        its first offset the witness.  An access outside the allocation
        gives None.

        The walk passes one int offset, and records the access in the
        trackers.  A batch passes an array of offsets, and records nothing
        before its commit.  In a batch's private storage, ``base`` shifts
        each offset, checked against one execution's allocation, to its
        execution's cells, and no parallel loop outside the batch sees the
        access."""
        cell = self.mem[name]
        size = cell.size
        lo, hi = (offset.min(), offset.max()) if isinstance(offset, np.ndarray) else (offset, offset)
        if lo < 0 or hi >= size:
            mode = "write" if write else "read"
            self.report(
                "out_of_bounds",
                f"{mode} of {name}[{offset}] outside its {size}-cell allocation",
                self.site,
                dedupe=("out_of_bounds", write, name, self.site),
            )
            return None
        if not any(is_write or not write for is_write in self.grants.get(name, ())):
            mode = "write to" if write else "read of"
            self.report(
                "uncovered_access",
                f"{mode} {name}[{offset}] outside any held permission scope",
                self.site,
                dedupe=("uncovered_access", write, name, self.site),
            )
        at = offset + base if isinstance(base, np.ndarray) else offset
        if not (write or cell.init[at if fresh is None else at[fresh]].all()):
            self.report(
                "uninitialized_read",
                f"{name}[{offset}] is read before any write",
                self.site,
                dedupe=("uninit", name, cell.instance, offset),
            )
        for tr in () if cell.private else self.trackers:
            if tr.races(cell, offset, write):
                it = tr.log(cell)[0][offset]
                what = "write collides with" if write else "read races against"
                self.report(
                    "race",
                    f"iterations {it} and {tr.iteration} of parallel loop {tr.var!r}"
                    f" touch the same cell ({what} earlier access)",
                    self.site,
                    dedupe=("race", tr.var, cell.instance, offset),
                )
            if self.batch is None:
                tr.record(cell, offset, write)
        return cell

    def check32(self, v) -> bool:
        """Whether ``v`` leaves the signed 32-bit range, which is reported
        (:meth:`report`) with the lanes it leaves in."""
        if isinstance(v, np.ndarray):
            out = v.min() < INT32_MIN or v.max() > INT32_MAX
        else:
            out = not INT32_MIN <= v <= INT32_MAX
        if not out:
            return False
        # a value that depends on the inputs has one entry per lane; a
        # scalar does not, and overflows in every lane
        bad = (v < INT32_MIN) | (v > INT32_MAX)
        lanes = tuple(np.flatnonzero(bad).tolist()) if np.ndim(bad) else None
        self.report(
            "overflow",
            "intermediate value leaves the signed 32-bit range",
            self.site,
            lanes=lanes,
            dedupe=("overflow", self.site),
        )
        return True

    # -- evaluation context of statement values ---------------------------

    def load(self, target: MemTarget, index, env):
        offset = int(index)
        cell = self.access(target.name, offset, write=False)
        if cell is None or not cell.init[offset]:
            # like an out-of-range read, go on with zeros: the poison fill
            # would be reported a second time, as an overflow
            return np.zeros(self.lanes, dtype=np.int64)
        return cell.arr[:, offset]

    def check(self, v):
        # exact loop-variable arithmetic that leaves int64 goes on wrapped,
        # as the int64 arithmetic of storage values and the reference does
        return wrap_int64(v) if self.check32(v) else None

    # -- statements and control -------------------------------------------

    def run(self, node, env: dict[str, int]):
        match node:
            case Chain(body):
                for c in body:
                    self.run(c, env)
            case Produce(func, body):
                self.grants.setdefault(func, []).append(True)
                for c in body:
                    self.run(c, env)
                self.grants[func].pop()
            case Consume(func, body):
                self.grants.setdefault(func, []).append(False)
                if self.obs is not None:
                    self.obs.consume_enter(node, env)
                for c in body:
                    self.run(c, env)
                self.grants[func].pop()
            case Store(func, alloc, body):
                prev = self.mem.get(func)
                self.mem[func] = self._new_cell(alloc.size)
                for c in body:
                    self.run(c, env)
                if prev is not None:
                    self.mem[func] = prev
                else:
                    del self.mem[func]
            case Loop(dim, owner, body):
                self._loop(node, eval_const(dim.lo, env), env)
                env.pop(dim.var, None)
            case If(cond, owner, body):
                if eval_const(cond, env) != 0:
                    for c in body:
                        self.run(c, env)
            case StoreStmt(func, stage, target, index, value):
                self.site = f"{func}.stage{stage}"
                self.points += 1
                if self.obs is not None:
                    self.obs.stmt_pre(node, env)
                vals = compiled(value, checked=True)(env, self)
                self.check32(vals)
                offset = eval_const(index, env)
                cell = self.access(target.name, offset, write=True)
                if cell is not None:
                    cell.arr[:, offset] = vals
                    cell.init[offset] = True
                if self.obs is not None:
                    self.obs.stmt_post(node, env)
            case _:
                raise TypeError(f"cannot execute node {type(node).__name__}")

    def _loop(self, loop: Loop, lo: int, env: dict[str, int]):
        """The iterations of ``loop``: whole iterations in batches while its
        plan allows and no batch fires (:meth:`_batched`), the rest
        statement by statement, with the observer's boundary events."""
        dim, obs, body = loop.dim, self.obs, loop.body
        par = dim.kind == "parallel"
        if par:
            tr = _Tracker(dim.display)
            self.trackers.append(tr)
            if obs is not None:
                obs.par_enter(loop)
        start = self._batched(loop, lo, env)
        if start is not None:
            for v in range(start, lo + dim.extent):
                env[dim.var] = v
                if par:
                    tr.iteration = v
                    if obs is not None:
                        obs.par_iter_pre(loop, env)
                elif obs is not None:
                    obs.serial_boundary(loop, env)
                for c in body:
                    self.run(c, env)
                if par and obs is not None:
                    obs.par_iter_post(loop, env)
            if obs is not None and par:
                obs.par_exit(loop)
            elif obs is not None:
                # one-past-the-end boundary closes the loop
                env[dim.var] = lo + dim.extent
                obs.serial_boundary(loop, env)
        if par:
            self.trackers.pop()

    def _batched(self, loop: Loop, lo: int, env: dict[str, int]) -> int | None:
        """Run the iterations of ``loop`` in order as batches of whole
        iterations, each of at most ``_BLOCK`` statement slots where one
        iteration fits, while its plan allows and no batch fires or goes
        past the instantiation budget.  The first iteration left to the
        walk, or None when every iteration and the loop's closing events
        committed; a dropped batch leaves every piece of state as it
        was."""
        plan = loop.__dict__.get("_batch_plan", _UNPLANNED)
        if plan is _UNPLANNED:
            plan = loop._batch_plan = batch_plan(loop)
        end = lo + loop.dim.extent
        if plan is None or end == lo:
            return lo
        block = max(1, _BLOCK // max(1, plan.slots))
        for first in range(lo, end, block):
            batch = _Batch(self, loop, plan, first, min(block, end - first), first + block >= end)
            self.batch = batch
            try:
                batch.run(env)
                if self.obs is not None:
                    self.obs.check_batch(batch, env)
            except (_Fired, InstantiationBudget):
                # the walk meets it in its own order, and reports or raises
                self.replayed_loops += 1
                return first
            finally:
                self.batch = None
            batch.commit()
            self.batched_loops += 1
        return None


_UNPLANNED = object()

# The statement slots of one batch, unless one iteration of its head loop
# has more.  A batch's working set grows with its points: at 1024x1024,
# blocks of this size run blur/tail in 0.31 s against 0.58 s for one batch
# of the whole image, and blur/rows with memory-safety annotations in
# 1.6 s against 2.1 s for blocks of 2^14 (plain runs are flat in between).
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Scan:
    """Step loops that run as one prefix sum: ``chain``, the loops and
    guards from the outermost, over ``stmt``, whose value is ``cell`` plus
    ``inc``.  ``bounds``: the least and greatest ``d`` of the sums ``cell +
    d`` the walk checks, where one is not the value stored (an untaken
    branch); else None."""

    chain: tuple
    stmt: StoreStmt
    cell: TableRead
    inc: Expr
    bounds: tuple[Expr, Expr] | None


def _increment(e: Expr, cell: TableRead) -> tuple[Expr, Expr | None, Expr | None] | None:
    """``e`` as ``cell`` plus an increment: the increment, and the least and
    greatest ``d`` of the sums ``cell + d`` it evaluates (None for none);
    None when ``e`` is not of a scan's shape."""

    def reads(x: Expr) -> bool:
        return any(isinstance(t, TableRead) and t.target == cell.target for t in walk(x))

    if e == cell:
        return Const(0), None, None
    if isinstance(e, BinOp) and e.op == "+" and cell in (e.left, e.right):
        d = e.right if e.left == cell else e.left
        return None if reads(d) else (d, d, d)
    if not isinstance(e, Select) or reads(e.cond):
        return None
    parts = [_increment(x, cell) for x in (e.if_true, e.if_false)]
    if None in parts:
        return None
    (t, tlo, thi), (f, flo, fhi) = parts
    if not _reads_storage(e.cond):
        # a branch is evaluated only where it is taken, as the increment is
        return Select(e.cond, t, f), Select(e.cond, tlo or t, flo or f), Select(e.cond, thi or t, fhi or f)
    # both branches are evaluated at every point
    lo = MinOf(tlo, flo) if tlo and flo else tlo or flo
    hi = MaxOf(thi, fhi) if thi and fhi else thi or fhi
    return Select(e.cond, t, f), lo, hi


def _scan_of(loop: Loop) -> Scan | None:
    """The scan ``loop`` heads, if its nest has the shape of one."""
    chain, n, names = [], loop, set()
    while not isinstance(n, StoreStmt):
        if not isinstance(n, (Loop, If)) or len(n.body) != 1:
            return None
        if isinstance(n, Loop):
            if n.dim.kind == "parallel" or free_vars(n.dim.lo) & names:
                return None
            names.add(n.dim.var)
        elif free_vars(n.cond) & names:
            return None
        chain.append(n)
        n = n.body[0]
    if free_vars(n.index) & names:
        return None
    cell = TableRead(n.target, n.index)
    terms = _increment(n.value, cell)
    if terms is None:
        return None
    inc, lo, hi = terms
    bounds = None if lo in (None, inc) and hi in (None, inc) else (lo or inc, hi or inc)
    return Scan(tuple(chain), n, cell, inc, bounds)


@dataclass(frozen=True)
class BatchPlan:
    """A loop nest that runs as batches of whole iterations of its head.  One
    head iteration runs the head's body: store statements under ``If``
    guards, ``Chain``, ``Produce``, ``Consume`` and ``Store`` nodes, and
    serial loops, unrolled ones included.  Lowering makes every guard name
    loop variables only, and every store index affine in them.  A serial
    loop there is *expanded* (``expanded``, by ``id``) when a store index
    beneath it mentions its variable: its iterations run side by side, as
    more points.  Any other is a *step loop* (``stepped``, by ``id``), run
    one iteration at a time unless it *scans* (``scans``, by the ``id`` of
    its outermost loop): below guards and step loops that name none of its
    variables, each the only node of the one before, one store statement
    adds to its own cell ``c`` an increment that does not read the
    statement's entity, as ``c + d``, ``d + c`` or a ``select`` of such
    forms and ``c`` whose condition does not read it; the shape alone
    decides.  ``written`` names the entities the nest's statements write.
    ``spans`` gives the statement slots of one execution of each node
    beneath the head, by ``id``, and ``slots`` those of one head iteration;
    a serial loop takes its extent times the slots of its body."""

    stepped: frozenset[int]
    expanded: frozenset[int]
    written: frozenset[str]
    spans: dict[int, int]
    slots: int
    scans: dict[int, Scan]


def batch_plan(loop: Loop) -> BatchPlan | None:
    """The batch plan of the nest ``loop`` heads; None when it must be
    walked.

    ``loop`` may be parallel or serial.  Beneath it every node is a store
    statement, an ``If``, a ``Chain``, ``Produce``, ``Consume`` or
    ``Store``, or a serial loop; an inner parallel loop heads a batch of
    its own.  A store index mentions a serial ``loop``: otherwise its
    iterations rewrite the same cells and it is walked, one step at a
    time.  Nothing more is required here: a batch stamps every write with
    its walk time and commits only if every read saw the write the walk
    gives it (:class:`_Batch`).
    """
    entries: list[tuple[tuple[Loop, ...], StoreStmt]] = []
    spans: dict[int, int] = {}

    def collect(nodes, path: tuple) -> int | None:
        """The slots of ``nodes``; None when a batch cannot run them."""
        total = 0
        for n in nodes:
            if isinstance(n, StoreStmt):
                entries.append((path, n))
                span = 1
            elif isinstance(n, (If, Chain, Produce, Consume, Store)):
                span = collect(n.body, path)
            elif n.dim.kind != "parallel":
                span = collect(n.body, path + (n,))
                span = None if span is None else span * n.dim.extent
            else:
                return None  # a parallel loop heads a batch of its own
            if span is None:
                return None
            spans[id(n)] = span
            total += span
        return total

    slots = collect(loop.body, ())
    if slots is None:
        return None
    if loop.dim.kind != "parallel" and all(loop.dim.var not in free_vars(s.index) for _, s in entries):
        return None
    expanded = frozenset(id(x) for path, s in entries for x in path if x.dim.var in free_vars(s.index))
    stepped = frozenset(id(x) for path, _ in entries for x in path) - expanded
    written = frozenset(s.target.name for _, s in entries)
    scans: dict[int, Scan] = {}
    for path, _ in entries:
        # the outermost step loop above the statement that scans, if any
        scan = next((s for x in path if id(x) in stepped and (s := _scan_of(x)) is not None), None)
        if scan is not None:
            scans[id(scan.chain[0])] = scan
    return BatchPlan(stepped, expanded, written, spans, slots, scans)


def batch_heads(root) -> dict[int, BatchPlan]:
    """The loops of the nest under ``root`` that the runner tries as one
    batch, by ``id``, each with its plan: each loop with a plan that no
    enclosing batch covers."""
    heads: dict[int, BatchPlan] = {}

    def visit(n):
        if isinstance(n, Loop):
            plan = batch_plan(n)
            if plan is not None:
                heads[id(n)] = plan
                return
        for c in getattr(n, "body", ()):
            visit(c)

    visit(root)
    return heads


class _Fired(Exception):
    """A running batch met a report, or a case it cannot run as the walk
    does: it is dropped, for the walk to replay."""


# The keys under which a batch's environments keep each point's time,
# per store it runs privately, each point's base offset in its storage,
# and at a serial loop's boundary, the loop execution it belongs to.
_WHEN = "\\when"
_BASE = "\\base "
_EXEC = "\\exec"


class _Stamped:
    """One cell's log in a batch: its writes, each stamped with its time,
    and its reads, each with the write it saw.  A write is kept as one key
    ``offset·clock + stamp`` and its (lanes,) values."""

    def __init__(self, cell: _Cell, clock: int):
        self.cell = cell
        self.clock = clock  # above every time of the batch
        self.added = 0  # writes logged
        # (keys, (lanes, writes) values) of the writes sorted by key, and
        # of the writes not sorted in yet
        self.view: tuple[np.ndarray, np.ndarray] | None = None
        self.parts: list[tuple[np.ndarray, np.ndarray]] = []
        # (offsets, times, keys seen, writes logged then) per read
        self.reads: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []

    def add(self, offsets: np.ndarray, stamps: np.ndarray, vals: np.ndarray):
        self.parts.append((offsets * self.clock + stamps, vals))
        self.added += len(stamps)

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The writes by (offset, stamp): their keys and values."""
        if self.parts:
            parts = self.parts if self.view is None else [self.view] + self.parts
            keys, vals = (np.concatenate(part, axis=-1) for part in zip(*parts))
            if (keys[1:] < keys[:-1]).any():
                order = np.argsort(keys)
                keys, vals = keys[order], vals.take(order, axis=1)
            self.view, self.parts = (keys, vals), []
        return self.view

    def read(self, idx: np.ndarray, when: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The values that reads of offsets ``idx`` at times ``when`` see:
        the latest write to the offset stamped before that time, or the
        stored value.  Also the key of the write each read sees, -1 for the
        stored value, or None when nothing is logged."""
        stored = self.cell.arr.take(idx, axis=1, mode="clip")  # checked by the caller
        if not self.added:
            return stored, None
        keys, vals = self.sorted()
        pos = np.searchsorted(keys, idx * self.clock + when) - 1
        seen = keys[pos]
        hit = (pos >= 0) & (seen // self.clock == idx)
        return np.where(hit, vals.take(pos, axis=1), stored), np.where(hit, seen, -1)

    def latest(self) -> tuple[np.ndarray, np.ndarray]:
        """The offsets written and each one's latest-stamped values."""
        keys, vals = self.sorted()
        offsets = keys // self.clock
        last = np.flatnonzero(np.append(offsets[1:] != offsets[:-1], True))
        return offsets[last], vals.take(last, axis=1)

    def accesses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every access, writes first: its offset, its time and whether it
        wrote."""
        keys = self.sorted()[0] if self.added else np.empty(0, dtype=np.int64)
        offsets = np.concatenate([keys // self.clock] + [o for o, *_ in self.reads])
        when = np.concatenate([keys % self.clock] + [w for _, w, *_ in self.reads])
        return offsets, when, np.arange(len(offsets)) < len(keys)


class _Batch:
    """A block of whole iterations of a nest's head loop, each statement
    evaluated once over all its points, as the evaluation context of
    :func:`compiled`.  It runs the walk's access checker and range check
    on offset and value arrays, whose reports fire it while it runs
    (:meth:`_Runner.report`).  No state changes before :meth:`commit`.

    A point is an iteration of the head at first, the head's variable a
    vector over them; a ``Store`` gives each point its own private storage,
    and an expanded loop repeats the points, one per iteration, its
    variable a vector over them.  ``If`` narrows the points; ``Produce`` and
    ``Consume`` push and pop the grants as the walk does.  A step loop runs
    one iteration at a time, unless it scans (:meth:`_scan`).  Every point
    carries its walk time (``_WHEN``), the statement slots before it in the
    block: ``j·T + t`` for slot ``t`` of head iteration ``j``, ``T =
    plan.slots``.

    A scan reads its cell once, at its first step, as the walk's later
    reads see the step before, and checks every partial sum against the
    32-bit range.  That adds no report the walk would not make: each sum is
    the value the walk stores at its step and checks, and every value
    already in storage was checked when stored.

    Private storage is one cell of all its executions' allocations side
    by side, poisoned and uninitialised as the walk's fresh instance, and
    a point's offsets there are shifted by its execution's base
    (``_BASE``); it is never committed, nor seen by an enclosing parallel
    loop.

    Every write is logged per cell (:class:`_Stamped`), stamped with its
    time.  A read, here and in the observer, sees the latest write to its
    cell stamped before its own time, or the stored value.  Statements are
    evaluated in body order, so a read may precede a write it needed; the
    batch commits only if every read resolves under the whole log to the
    write it saw, and, under a parallel head, if no cell written by one of
    its iterations is touched by another, a race on the walk.  The commit
    stores each cell's latest-stamped value."""

    def __init__(self, runner: _Runner, loop: Loop, plan: BatchPlan, lo: int, count: int, closes: bool):
        self.runner = runner
        self.loop, self.plan = loop, plan
        # the head loop's iterations from ``lo``, and whether they are its last
        self.lo, self.count, self.closes = lo, count, closes
        self.clock = count * plan.slots + 1
        self.log: dict[int, _Stamped] = {}  # per cell instance
        self.private: dict[str, _Cell] = {}
        self.executions = 0  # of private stores, each a walk's instance
        # a parallel head's tracker logs the committed blocks before this one
        self.tracker = runner.trackers[-1] if loop.dim.kind == "parallel" else None
        # whether parallel loops outside the nest log its accesses
        self.outer = len(runner.trackers) > (self.tracker is not None)
        # under an observer, the events of the block: (node, environment)
        # of each annotated statement evaluated, consume entered and serial
        # loop boundary, the head's included
        self.marks: list | None = [] if runner.obs is not None else None
        self.points = 0
        # the annotation instances of its block, counted and evaluated
        self.instantiations = self.evaluated = 0
        self.execs = 1  # serial loop executions marked; the head's is 0

    def run(self, env: dict[str, int]):
        if self.tracker is not None:
            self.tracker.iteration = self.lo  # every access it logged clashes
        var, slots = self.loop.dim.var, self.plan.slots
        if self.loop.dim.kind != "parallel":
            # the head's boundaries, its one-past-the-end one in its last block
            j = np.arange(self.count + self.closes, dtype=np.int64)
            self._mark(self.loop, env | {var: self.lo + j, _WHEN: j * slots, _EXEC: 0}, "invariants")
        j = np.arange(self.count, dtype=np.int64)
        self._walk(self.loop.body, env | {var: self.lo + j, _WHEN: j * slots})
        self._settle()

    def _walk(self, nodes, envk: dict):
        """Run ``nodes`` for the points of ``envk``, from their times."""
        for n in nodes:
            if len(envk[_WHEN]):
                self._node(n, envk)
            envk = envk | {_WHEN: envk[_WHEN] + self.plan.spans[id(n)]}

    def _node(self, n, envk: dict):
        runner = self.runner
        if isinstance(n, StoreStmt):
            self._store(n, envk)
        elif isinstance(n, If):
            envk = self._guarded(n.cond, envk)
            if envk is not None:
                self._walk(n.body, envk)
        elif isinstance(n, (Produce, Consume)):
            grants = runner.grants.setdefault(n.func, [])
            grants.append(isinstance(n, Produce))
            try:
                if isinstance(n, Consume):
                    self._mark(n, envk, "context")
                self._walk(n.body, envk)
            finally:
                grants.pop()
        elif isinstance(n, Store):
            base = self._private(n, len(envk[_WHEN]))
            prev = runner.mem.get(n.func)
            runner.mem[n.func] = self.private[n.func]
            try:
                self._walk(n.body, envk | {_BASE + n.func: base})
            finally:
                if prev is None:
                    del runner.mem[n.func]
                else:
                    runner.mem[n.func] = prev
        elif isinstance(n, Chain):
            self._walk(n.body, envk)
        else:
            self._serial(n, envk)

    def _guarded(self, cond: Expr, envk: dict) -> dict | None:
        """The points of ``envk`` where the guard ``cond`` holds, None for
        none.  Guards narrow the vectors together first: masked points read
        nothing."""
        keep = compiled(cond)(envk, self) != 0
        if np.ndim(keep):
            return narrow(envk, keep)
        return envk if keep else None

    def _serial(self, loop: Loop, envk: dict):
        """A serial loop: a scan, expanded, all iterations at once, or step
        by step; with an event at each boundary, the one-past-the-end one
        after its last iteration's writes."""
        scan = self.plan.scans.get(id(loop))
        if scan is not None:
            self._scan(scan, envk)
            return
        self._boundaries(loop, envk)
        if id(loop) in self.plan.expanded:
            self._walk(loop.body, self._spread(loop, envk, loop.dim.extent))
            return
        start = compiled(loop.dim.lo)(envk, _CLOSED)
        span = sum(self.plan.spans[id(c)] for c in loop.body)
        for j in range(loop.dim.extent):
            self._walk(loop.body, envk | {loop.dim.var: start + j, _WHEN: envk[_WHEN] + j * span})

    def _spread(self, loop: Loop, envk: dict, k: int) -> dict:
        """The points of ``envk`` repeated ``k`` times each, ``loop``'s
        variable at iterations 0 .. k - 1 in turn, each at its time."""
        start = compiled(loop.dim.lo)(envk, _CLOSED)
        span = sum(self.plan.spans[id(c)] for c in loop.body)
        j = np.tile(np.arange(k, dtype=np.int64), len(envk[_WHEN]))
        out = {key: np.repeat(v, k, axis=-1) if np.ndim(v) else v for key, v in envk.items()}
        out[loop.dim.var] = (np.repeat(start, k) if np.ndim(start) else start) + j
        out[_WHEN] = out[_WHEN] + j * span
        return out

    def _boundaries(self, loop: Loop, envk: dict):
        """Note every boundary of ``loop``'s executions at the points of
        ``envk``, execution by execution, each numbered in order."""
        if self._observed(loop, "invariants"):
            n, extent = len(envk[_WHEN]), loop.dim.extent
            events = self._spread(loop, envk, extent + 1)
            events[_EXEC] = np.repeat(np.arange(self.execs, self.execs + n), extent + 1)
            self.execs += n
            self.marks.append((loop, events))

    def _scan(self, scan: Scan, envk: dict):
        """Every step of ``scan`` at once, as points: each execution's
        value before it plus the prefix sum of the increments, exact in
        int64, each logged at its step's time."""
        for node in scan.chain:
            if isinstance(node, If):
                envk = self._guarded(node.cond, envk)
            else:
                self._boundaries(node, envk)
                envk = self._spread(node, envk, node.dim.extent)
            if envk is None or not len(envk[_WHEN]):
                return
        steps = math.prod(x.dim.extent for x in scan.chain if isinstance(x, Loop))
        first = {key: v[..., ::steps] if np.ndim(v) else v for key, v in envk.items()}
        # (lanes, executions, steps)
        lanes, points = self.runner.lanes, len(envk[_WHEN])
        shape = (lanes, points // steps, steps)

        def grid(e: Expr, checked=False) -> np.ndarray:
            return np.broadcast_to(compiled(e, checked)(envk, self), (lanes, points)).reshape(shape)

        inc = grid(scan.inc, True)
        vals = compiled(scan.cell)(first, self)[..., None] + np.cumsum(inc, axis=-1)
        if scan.bounds is None:
            self.check(vals)
        else:  # the sums of untaken branches too
            lo, hi = (grid(b) + vals - inc for b in scan.bounds)
            self.check(np.minimum(lo, vals))
            self.check(np.maximum(hi, vals))
        self._store(scan.stmt, envk, vals.reshape(lanes, points))

    def _observed(self, node, *slots: str) -> bool:
        """Whether the observer checks value annotations of ``node``."""
        return self.marks is not None and bool(self.runner.obs._values_at(node, slots))

    def _mark(self, node, envk: dict, *slots: str):
        """Note an event of ``node`` at the points of ``envk``."""
        if self._observed(node, *slots):
            self.marks.append((node, envk))

    def _private(self, store: Store, n: int) -> np.ndarray:
        """Private storage for ``n`` more executions of ``store``: the base
        offset of each."""
        size = store.alloc.size
        cell = self.private.get(store.func)
        done = 0 if cell is None else cell.arr.shape[1] // size
        arr = np.broadcast_to(POISON, (self.runner.lanes, (done + n) * size))
        init = np.broadcast_to(False, ((done + n) * size,))
        if cell is None:
            self.private[store.func] = _Cell(arr, init, -1 - len(self.private), size)
        else:
            cell.arr, cell.init = arr, init
        self.executions += n
        return (done + np.arange(n, dtype=np.int64)) * size

    def _stamped(self, cell: _Cell) -> _Stamped:
        if cell.arr.shape[1] * self.clock >= 1 << 62:
            raise _Fired  # the log's keys would leave int64
        log = self.log.get(cell.instance)
        if log is None:
            log = self.log[cell.instance] = _Stamped(cell, self.clock)
        return log

    def _store(self, stmt: StoreStmt, envk: dict, vals=None):
        """Log ``stmt``'s write at the points of ``envk``, of ``vals`` if
        given, checked, and otherwise of its value."""
        when = envk[_WHEN]
        if vals is None:
            vals = compiled(stmt.value, checked=True)(envk, self)
            self.check(vals)
        offsets = self._offsets(compiled(stmt.index)(envk, self), len(when))
        base = envk.get(_BASE + stmt.target.name, 0)
        cell = self.runner.access(stmt.target.name, offsets, write=True, base=base)
        if np.shape(vals) != (self.runner.lanes, len(when)):
            vals = np.broadcast_to(vals, (self.runner.lanes, len(when)))
        self._stamped(cell).add(offsets + base, when, vals)
        self._mark(stmt, envk, "requires", "ensures")
        self.points += len(when)

    def _settle(self):
        """Fire unless every read resolves under the whole log to the write
        it saw, and, under a parallel head, unless each cell written by one
        of its iterations is touched by no other."""
        racing = self.tracker is not None and self.count > 1
        for log in self.log.values():
            stale = [(at, when, seen) for at, when, seen, logged in log.reads if log.added > logged]
            if stale:
                at, when = (np.concatenate(part) for part in list(zip(*stale))[:2])
                seen = np.concatenate([np.full(len(a), -1) if k is None else k for a, _, k in stale])
                if (log.read(at, when)[1] != seen).any():
                    raise _Fired  # a write evaluated after a later read that needs it
            if racing and log.added and not log.cell.private:
                offsets, when, wrote = log.accesses()
                pairs = np.sort(offsets * self.count + when // self.plan.slots)
                cells = pairs[np.append(True, pairs[1:] != pairs[:-1])] // self.count
                shared = cells[1:][cells[1:] == cells[:-1]]
                if len(shared) and np.isin(shared, offsets[wrote]).any():
                    raise _Fired  # the walk reports a race

    def commit(self):
        runner = self.runner
        # the head's tracker serves the blocks after this one
        trackers = [tr for tr in runner.trackers if tr is not self.tracker or not self.closes]
        for log in self.log.values():
            cell = log.cell
            if cell.private:
                continue
            if log.added:
                offsets, vals = log.latest()
                cell.arr[:, offsets] = vals
                cell.init[offsets] = True
            if trackers and (log.added or log.reads):
                offsets, when, wrote = log.accesses()
                for tr in trackers:
                    head = self.lo + when // self.plan.slots if tr is self.tracker else None
                    tr.record(cell, offsets, wrote, head)
        runner.points += self.points
        runner.next_instance += self.executions
        if runner.obs is not None:
            runner.obs.instantiations += self.instantiations
            runner.obs.evaluated += self.evaluated

    def read(self, cell: _Cell, idx: np.ndarray, when: np.ndarray) -> np.ndarray:
        """``cell`` at offsets ``idx`` as the events at times ``when`` see
        it, for the observer."""
        idx, when = np.broadcast_arrays(idx, when)
        log = self.log.get(cell.instance)
        return cell.arr.take(idx, axis=1) if log is None else log.read(idx, when)[0]

    @staticmethod
    def _offsets(index, n: int) -> np.ndarray:
        """An index as offsets over ``n`` points."""
        offsets = np.asarray(index, dtype=np.int64)
        return offsets if offsets.shape == (n,) else np.broadcast_to(offsets, (n,))

    # -- evaluation context of statement values ---------------------------

    def load(self, target: MemTarget, index, env):
        when = env[_WHEN]
        name = target.name
        base = env.get(_BASE + name, 0)
        offsets = self._offsets(index, len(when))
        at = offsets + base if isinstance(base, np.ndarray) else offsets
        if name not in self.plan.written and not self.outer:
            # it sees no write of the nest's, nor races within the nest
            return self.runner.access(name, offsets, write=False).arr.take(at, axis=1)
        log = self._stamped(self.runner.mem[name])
        vals, seen = log.read(at, when)
        self.runner.access(name, offsets, write=False, fresh=None if seen is None else seen < 0, base=base)
        log.reads.append((at, when, seen, log.added))
        return vals

    def check(self, v):
        self.runner.check32(v)  # reports, and so fires the batch


class InstantiationBudget(PipelineError):
    """A single annotation asked for more concrete instances than allowed."""


# The concrete instances one annotation may have at one event.
_MAX_INSTANCES = 10_000_000


# The points of one chunk of a stacked grid, unless one event has more: a
# chunk's working set stays near that of a single loop's batch.
_CHUNK = 1 << 12

# Above every coordinate of a quantifier point.
_NO_POINT = np.iinfo(np.int64).max

# A serial loop of fewer iterations checks its invariants whole.  Checked
# incrementally, a prefix or suffix grid evaluates about 2 / extent of its
# instances; below this, at the test sizes, the bookkeeping costs more than
# the evaluations it saves.
_INCREMENTAL_FROM = 16


class _Steps:
    """The boundary events of a serial loop in one batch, grouped by
    execution: per event, its previous boundary in the batch (``prev``, -1
    for none, where the grid is checked whole) and its execution's position
    (``pos``), execution ``k``'s events from ``starts[k]`` on; and the
    writes since each event's previous boundary (:meth:`writes`)."""

    def __init__(self, log: dict[int, _Stamped], env, when):
        self.log, self.env, self.when = log, env, when
        n = len(when)
        self.cells: dict[int, tuple] = {}
        self.spans = None
        # the batch marks each execution's boundaries in the block one after
        # another, in order: the head's, and each inner loop's, all of them
        ex = env[_EXEC]
        new = np.append(True, ex[1:] != ex[:-1])
        self.prev = np.where(new, -1, np.arange(n) - 1)
        self.pos = np.cumsum(new) - 1
        self.starts = np.flatnonzero(new)

    def writes(self, instance: int) -> tuple[np.ndarray, np.ndarray]:
        """The writes to cell ``instance`` since each event's previous
        boundary: the event of each, and its offset."""
        got = self.cells.get(instance)
        if got is None:
            log = self.log.get(instance)
            if log is None or not log.added:
                got = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
            else:
                if self.spans is None:
                    # the statement slots from each event's previous boundary
                    has = np.flatnonzero(self.prev >= 0)
                    since = self.when[self.prev[has]]
                    o = np.argsort(since, kind="stable")
                    self.spans = since[o], self.when[has][o], has[o]
                since, until, has = self.spans
                keys = log.sorted()[0]
                t = keys % log.clock
                k = np.searchsorted(since, t, side="right") - 1
                ok = (k >= 0) & (t < until[np.maximum(k, 0)]) if len(has) else np.zeros(len(t), dtype=bool)
                got = has[k[ok]], keys[ok] // log.clock
            self.cells[instance] = got
        return got


class _AnnObserver:
    """Evaluates attached annotations at the runner's boundary events.

    Value annotations are checked for truth with quantifiers enumerated
    over their concrete ranges.  The permissions of a parallel block's
    context are charged to the loop's ledger as quantified atoms, a region
    in its :meth:`RegionPerm.quantified` form, and the fractions claimed on
    one cell must sum to at most a whole permission.  A ledger counts in
    integer shares of one common denominator, so its sums are exact.

    A batched nest's annotations are checked, and its ledger charged and
    summed, before its batch commits (:meth:`check_batch`), each over the
    stacked grid of all its events inside the nest, step loops' boundaries
    included; the event entry points then get the nest's variables as
    vectors of events and ``when``, each event's time in statement slots.
    The walk calls them with one event.  One routine, :meth:`_grids`, lays
    out the points of every check, the walk's one event and a batch's
    many alike.

    In a batch, a serial loop's invariant is checked incrementally where
    its shape allows (:meth:`_incremental`): it is quantified, its bounds
    name no quantifier variable and its body does not name the loop's
    variable.  An instance that was in the grid at the previous boundary of
    the same loop execution then reads the same cells at both, so unless one
    of them was written in between, its truth is unchanged.  A boundary
    whose previous one is in the same block evaluates only the instances
    that entered the grid and the old ones that read a cell the batch's log
    says was written since (:meth:`_select`, which :meth:`_grids` lays out
    in place of the whole grid); the others, and every boundary of the
    walk, check the whole grid.  The findings are those of a whole check:
    every check before the first failing boundary passed, in every lane;
    there, an instance that fails is new or was dirtied, as every other one
    held and reads the same values; and an annotation reported at a site is
    not checked there again.  A short loop's invariants are checked whole
    (``_INCREMENTAL_FROM``).

    Every failure, a read out of range and a ledger's excess included, is
    reported through :meth:`_Runner.report`, which fires a running batch
    (``runner.batch``); the walk that replays it reports them.
    ``instantiations`` counts every instance and ``evaluated`` those
    evaluated, a batch's once it commits.
    """

    def __init__(self, ap: AnnotatedPipeline):
        self.ap = ap
        self.runner: _Runner | None = None
        self.instantiations = 0
        self.evaluated = 0
        # per parallel loop entered: the loop, its common denominator, and
        # the cells claimed per (entity, allocation size, share)
        self.ledgers: list[tuple[Loop, int, dict[tuple[str, int, int], _Claims]]] = []
        self.perms: dict[int, tuple[int, list]] = {}  # per annotation set, see _perms
        self.names: dict[int, set[str]] = {}  # per annotation, the variables of its body
        # per invariant, whether and with which reads it is checked
        # incrementally, see _incremental and _written
        self.fits: dict[int, bool] = {}
        self.reads: dict[int, tuple] = {}
        self.site = ""  # the boundary being checked, for findings
        # the entities whose out-of-range read this evaluation reported
        self.reported: set[str] = set()

    def aset(self, node):
        return self.ap.node.get(id(node))

    def _count(self, counts, evaluated=None):
        """Count the instances of one annotation, ``counts`` at each event,
        and ``evaluated`` of them evaluated, all by default, to the running
        batch or else the run.  No event may exceed ``_MAX_INSTANCES``."""
        most = int(counts.max(initial=0))
        if most > _MAX_INSTANCES:
            raise InstantiationBudget(
                f"one annotation expands to {most} instances (limit {_MAX_INSTANCES})"
            )
        n = int(counts.sum())
        tally = self if self.runner.batch is None else self.runner.batch
        tally.instantiations += n
        tally.evaluated += n if evaluated is None else int(evaluated)

    # -- batched loops -----------------------------------------------------

    def check_batch(self, batch: _Batch, env):
        """Every value annotation that fires in ``batch``'s block of its
        nest, checked before it commits, each once over the stacked grid of
        its events.

        An event's time is the number of statement slots before it in walk
        order within the block, ``j·T + t`` for slot ``t`` of head iteration
        ``j``, with ``T = plan.slots``; an event reads storage through the
        batch's log as of that time (:meth:`_Batch.read`), and inside a
        private store at its execution's base.  A statement's precondition
        is at its slot's time and its postcondition one more; a serial
        loop's boundary, of the head, a step or an expanded loop, is at the
        time the walk reaches it, its one-past-the-end boundary after its
        last iteration's writes (the head's only in its last block), and a
        ``Consume``'s context at its entry; the batch marks them all
        (``batch.marks``).  A parallel head's iteration ``j`` has its
        precondition at ``j·T`` and its postcondition at ``(j + 1)·T``, and
        is charged to a ledger of the block's own: in the last block it is
        summed with the loop's ledger, which it closes, and otherwise
        folded into it."""
        loop, T = batch.loop, batch.plan.slots
        depth = len(self.ledgers)
        block = None
        try:
            if loop.dim.kind == "parallel":
                self.ledgers.append((loop, self.ledgers[-1][1], {}))
                j = np.arange(batch.count, dtype=np.int64)
                events = env | {loop.dim.var: batch.lo + j}
                self.par_iter_pre(loop, events, j * T)
                self.par_iter_post(loop, events, (j + 1) * T)
                block = self.ledgers.pop()[2]
            marks: dict[int, tuple] = {}
            for node, envk in batch.marks:
                marks.setdefault(id(node), (node, []))[1].append(envk)
            for node, group in marks.values():
                events, when = self._stacked(env, group)
                if isinstance(node, StoreStmt):
                    self.stmt_pre(node, events, when)
                    self.stmt_post(node, events, when + 1)
                elif isinstance(node, Consume):
                    self.consume_enter(node, events, when)
                else:
                    self.serial_boundary(node, events, when)
            if block is not None:
                loop, den, claims = self.ledgers[-1]
                if batch.closes:
                    self._sum(loop, den, claims, block)
                    self.ledgers.pop()
                else:
                    for key, claim in block.items():
                        claims.setdefault(key, _Claims(claim.size)).absorb(claim)
        finally:
            del self.ledgers[depth:]

    @staticmethod
    def _stacked(env, group):
        """The events of ``group``, each a batch's environment at a mark,
        stacked: the batch's variables as vectors of events, and each
        event's time."""
        sizes = [len(g[_WHEN]) for g in group]
        events = dict(env)
        for k in group[0].keys() - env.keys():
            events[k] = np.concatenate([np.broadcast_to(g[k], (n,)) for g, n in zip(group, sizes)])
        return events, events.pop(_WHEN)

    # -- event entry points ------------------------------------------------
    #
    # ``when`` is None at a single event of the walk; under a batched check
    # the loop variable in ``env`` is a vector of events and ``when`` holds
    # their times.

    def _values_at(self, node, slots) -> list[Ann]:
        """The value annotations in ``slots`` of ``node``'s set."""
        aset = self.aset(node)
        if aset is None:
            return []
        return [a for slot in slots for a in getattr(aset, slot) if self._is_value(a)]

    def _event(self, node, slots, env, kind: str, site: str, message, when=None):
        """Check the value annotations in ``slots`` of ``node``'s set."""
        for a in self._values_at(node, slots):
            self._check(a, env, kind, site, message, when)

    def serial_boundary(self, loop: Loop, env, when=None):
        d, v = loop.dim.display, env[loop.dim.var]
        steps = None
        for a in self._values_at(loop, ("invariants",)):
            changed = when is not None and self._incremental(loop, a)
            if changed and steps is None:
                steps = _Steps(self.runner.batch.log, env, when)
            self._check(
                a, env, "invariant_violation", f"loop {d}",
                lambda: f"loop invariant does not hold at {d} = {v}", when, steps if changed else None,
            )

    def par_enter(self, loop: Loop):
        aset = self.aset(loop)
        self.ledgers.append((loop, 1 if aset is None else self._perms(aset)[0], {}))

    def par_iter_pre(self, loop: Loop, env, when=None):
        aset = self.aset(loop)
        if aset is not None:
            self._charge(aset, env, when)
        d, v = loop.dim.display, env[loop.dim.var]
        self._event(
            loop, ("requires", "context"), env, "contract_violation", f"loop {d}",
            lambda: f"iteration contract fails on entry at {d} = {v}", when,
        )

    def par_iter_post(self, loop: Loop, env, when=None):
        d, v = loop.dim.display, env[loop.dim.var]
        self._event(
            loop, ("ensures", "context"), env, "contract_violation", f"loop {d}",
            lambda: f"iteration contract fails on exit at {d} = {v}", when,
        )

    def par_exit(self, loop: Loop):
        """Sum the ledger of ``loop``: a cell claimed beyond a whole
        permission is a race."""
        self._sum(*self.ledgers.pop())

    def _sum(self, loop: Loop, den: int, *ledgers):
        """Sum the claims of ``ledgers`` on each cell and report where they
        exceed a whole permission."""
        sums: dict[str, np.ndarray] = {}
        for claims in ledgers:
            for (name, _, share), claim in claims.items():
                sums[name] = sums.get(name, 0) + share * claim.counts()
        for name, acc in sums.items():
            over = acc > den
            if over.any():
                off = int(np.flatnonzero(over)[0])
                total = Fraction(int(acc[off]), den)
                self.runner.report(
                    "race",
                    f"iterations of parallel loop {loop.dim.display!r} together"
                    f" claim {total} of {name}[{off}]"
                    " (fraction sum exceeds a whole permission)",
                    f"loop {loop.dim.display}",
                    dedupe=("perm_sum", loop.dim.var, name, off),
                )

    def consume_enter(self, node: Consume, env, when=None):
        self._event(
            node, ("context",), env, "contract_violation", f"consume {node.func}",
            lambda: f"consumed values of {node.func!r} disagree with its definition", when,
        )

    def stmt_pre(self, node: StoreStmt, env, when=None):
        self._event(
            node, ("requires",), env, "contract_violation", f"{node.func}.stage{node.stage}",
            lambda: "statement precondition does not hold", when,
        )

    def stmt_post(self, node: StoreStmt, env, when=None):
        self._event(
            node, ("ensures",), env, "contract_violation", f"{node.func}.stage{node.stage}",
            lambda: "statement postcondition does not hold", when,
        )

    def pipeline_post(self):
        """The pipeline's postconditions against the final memory state."""
        for a in self.ap.post:
            self._check(
                a, {}, "postcondition_violation", "pipeline",
                lambda: "pipeline postcondition does not hold on the final output",
            )

    # -- evaluation --------------------------------------------------------

    @staticmethod
    def _is_value(a) -> bool:
        return not isinstance(a, RegionPerm) and not a.perm

    def _grids(self, a: Ann, env, when=None, steps=None):
        """The points of ``a``'s quantifier grids to evaluate, in chunks:
        per chunk, ``env`` at each point's event with the quantifier
        variables as index arrays, and its number of points.  The walk is
        one event; with ``when`` the events are a batch's, and ``_WHEN``
        holds each point's event time.  Every instance is counted.  With
        ``steps``, the boundaries of a serial loop's invariant checked
        incrementally, the chunks hold the instances :meth:`_select` picks
        where it picks any, ``_CHUNK`` points each; otherwise every point,
        event by event and first quantifier slowest, in chunks of whole
        events of at most ``_CHUNK`` points where one event fits."""
        lo, hi = self._box(a, env, 1 if when is None else len(when))
        size = hi - lo
        counts = size.prod(axis=0)
        picked = None if steps is None else self._select(steps, a, lo, hi)
        self._count(counts, None if picked is None else len(picked[0]))
        if picked is not None:
            ev, qs = picked
            chunks = ((ev[s : s + _CHUNK], qs[:, s : s + _CHUNK]) for s in range(0, len(ev), _CHUNK))
        else:
            chunks = self._whole(lo, size, counts)
        for ev, qs in chunks:
            envq = self._at(a, env, ev)
            if when is not None:
                envq[_WHEN] = when[ev]
            envq.update(zip((q.var for q in a.quants), qs))
            yield envq, len(ev)

    def _whole(self, lo, size, counts):
        """Every point of the boxes ``[lo, lo + size)``, one per event, in
        chunks of as many whole events as ``_CHUNK`` points hold, at least
        one: per chunk, the event of each point and its coordinates."""
        if len(counts) == 1:  # the walk's one event: its grid is one chunk
            if counts[0]:
                yield self._enumerate(lo, size)
            return
        ends = np.cumsum(counts)
        start = 0
        while start < len(counts):
            stop = int(np.searchsorted(ends, ends[start] - counts[start] + _CHUNK, side="right"))
            stop = max(stop, start + 1)
            if ends[stop - 1] > ends[start] - counts[start]:
                owner, qs = self._enumerate(lo[:, start:stop], size[:, start:stop])
                yield owner + start, qs
            start = stop

    def _names(self, a: Ann) -> set[str]:
        if id(a) not in self.names:
            self.names[id(a)] = free_vars(a.body)
        return self.names[id(a)]

    def _at(self, a: Ann, env, ev) -> dict:
        """``env`` at the events ``ev``, one per point: the event vectors
        the annotation reads, and the constants."""
        names = self._names(a)
        return {
            k: v[ev] if isinstance(v, np.ndarray) else v
            for k, v in env.items()
            if not isinstance(v, np.ndarray) or k in names or k.startswith(_BASE)
        }

    # -- incremental invariant checks ---------------------------------------

    def _incremental(self, loop: Loop, a: Ann) -> bool:
        """Whether invariant ``a`` of serial ``loop`` may be checked
        incrementally: the loop is not short (``_INCREMENTAL_FROM``), ``a``
        is quantified, its bounds name no quantifier variable and its body
        does not name the loop's variable."""
        if id(a) not in self.fits:
            quants = {q.var for q in a.quants}
            self.fits[id(a)] = (
                loop.dim.extent >= _INCREMENTAL_FROM
                and bool(quants)
                and loop.dim.var not in self._names(a)
                and not any(quants & (free_vars(q.lo) | free_vars(q.hi)) for q in a.quants)
            )
        return self.fits[id(a)]

    def _written(self, a: Ann) -> tuple:
        """The reads of ``a`` that the nest may write, each as (entity,
        index)."""
        if id(a) not in self.reads:
            self.reads[id(a)] = tuple(
                (n.target.name, n.index)
                for n in walk(a.body)
                if isinstance(n, TableRead) and n.target.kind != "buffer"
            )
        return self.reads[id(a)]

    def _select(self, steps: _Steps, a: Ann, lo, hi):
        """The instances of ``a``'s grids ``[lo, hi)`` at the events of
        ``steps`` to evaluate, each as its event and its coordinates (one
        row per quantifier): at each boundary, the points of its grid that
        were not in the grid of the previous boundary of its execution in
        the batch, and those that were and read a cell written since then.
        None for the points where all of them are."""
        env, prev = steps.env, steps.prev
        if not (prev >= 0).any():
            return None
        n, reads, batch = len(prev), self._written(a), self.runner.batch
        # the box of each event's previous boundary, empty where it has none
        plo = np.where(prev >= 0, lo[:, prev], lo)
        phi = np.where(prev >= 0, hi[:, prev], lo)
        ilo, ihi = np.maximum(lo, plo), np.minimum(hi, phi)
        # the new points, as disjoint boxes: for each dimension i that moved,
        # the points below and above the previous box in it, those before it
        # inside the previous box
        los, his = [], []
        for i in np.flatnonzero(((lo != plo) | (hi != phi)).any(axis=1)):
            blo, bhi = lo.copy(), hi.copy()
            blo[:i], bhi[:i] = ilo[:i], ihi[:i]
            los += [blo, blo.copy()]
            his += [bhi.copy(), bhi]
            his[-2][i], los[-1][i] = np.minimum(hi[i], plo[i]), np.maximum(lo[i], phi[i])
        ev, qs = np.zeros(0, dtype=np.int64), np.zeros((len(lo), 0), dtype=np.int64)
        if los:
            blo = np.concatenate(los, axis=1)
            owner, qs = self._enumerate(blo, np.maximum(np.concatenate(his, axis=1) - blo, 0))
            ev = owner % n
        # the old points that read a cell written since, once each
        hits, at = [], []
        index = None
        for name in dict.fromkeys(name for name, _ in reads):
            cell = self.runner.mem.get(name) if _BASE + name not in env else batch.private[name]
            w_ev, w_off = steps.writes(cell.instance) if cell is not None else ((), ())
            if not len(w_ev):
                continue
            if index is None:
                cells, q = index = self._index(a, reads, env, lo, hi, steps.starts)
            width, keys, points = cells[cell.instance]
            wkey = steps.pos[w_ev] * width + w_off
            first = np.searchsorted(keys, wkey, side="left")
            count = np.searchsorted(keys, wkey, side="right") - first
            k = int(count.sum())
            if k:
                hits.append(points[np.repeat(first - np.cumsum(count) + count, count) + np.arange(k)])
                at.append(np.repeat(w_ev, count))
        if hits:
            hit, e = np.concatenate(hits), np.concatenate(at)
            inside = ((ilo[:, e] <= q[:, hit]) & (q[:, hit] < ihi[:, e])).all(axis=0)
            if inside.any():
                # once each; np.unique would import numpy.ma, a cost every process pays
                pair = np.sort(e[inside] * q.shape[1] + hit[inside])
                pair = pair[np.append(True, pair[1:] != pair[:-1])]
                ev = np.concatenate([ev, pair // q.shape[1]])
                qs = np.concatenate([qs, q[:, pair % q.shape[1]]], axis=1)
        return ev, qs

    @staticmethod
    def _box(a: Ann, env, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The corners ``[lo, hi)`` of ``a``'s quantifier grid at each of
        ``n`` events, one column per event and one row per quantifier."""
        lo = np.empty((len(a.quants), n), dtype=np.int64)
        hi = np.empty((len(a.quants), n), dtype=np.int64)
        for i, q in enumerate(a.quants):
            lo[i] = compiled(q.lo)(env, _CLOSED)
            hi[i] = compiled(q.hi)(env, _CLOSED)
        return lo, np.maximum(hi, lo)

    def _index(self, a: Ann, reads, env, lo, hi, starts):
        """The instances of ``a`` at the boundary events of some executions
        of a loop, by the cells they read.  Events ``starts[k]`` up to
        ``starts[k + 1]`` are execution ``k``'s, with grids ``[lo, hi)``
        per column.  Gives per cell instance read, its width, the sorted
        keys ``k·width + offset`` of each read of a point of the hull of
        execution ``k``'s grids, and the point of each key; and the
        coordinates of every point, one row per dimension."""
        some = (hi > lo).all(axis=0)
        hlo = np.minimum.reduceat(np.where(some, lo, _NO_POINT), starts, axis=1)
        hhi = np.maximum.reduceat(np.where(some, hi, -_NO_POINT), starts, axis=1)
        owner, q = self._enumerate(hlo, np.where(hhi > hlo, hhi - hlo, 0))
        envh = self._at(a, env, starts[owner])
        envh.update(zip((qv.var for qv in a.quants), q))
        found: dict[int, tuple[int, list]] = {}
        for name, index in reads:
            base = envh.get(_BASE + name)
            cell = self.runner.mem.get(name) if base is None else self.runner.batch.private[name]
            if cell is not None:
                off = np.broadcast_to(np.asarray(compiled(index)(envh, self), dtype=np.int64), owner.shape)
                width = cell.arr.shape[1]
                found.setdefault(cell.instance, (width, []))[1].append(owner * width + (off if base is None else off + base))
        cells = {}
        for inst, (width, keys) in found.items():
            keys = np.concatenate(keys)
            # each read gives a key per point, in point order
            points = np.tile(np.arange(len(owner)), len(keys) // max(len(owner), 1))
            if (keys[1:] < keys[:-1]).any():
                o = np.argsort(keys, kind="stable")
                keys, points = keys[o], points[o]
            cells[inst] = (width, keys, points)
        return cells, q

    @staticmethod
    def _enumerate(lo, size):
        """The points of the boxes ``[lo, lo + size)``, one per column of
        the (dimensions, boxes) arrays, ``size`` at least 0, first dimension
        slowest: the box of each, and its coordinates, one row per
        dimension."""
        counts = size.prod(axis=0)
        if len(counts) == 1:
            # one box, as one event's grid: no owner to look up per point
            owner = np.zeros(counts[0], dtype=np.intp)
            r = np.arange(counts[0])
            lo, size = lo[:, 0], size[:, 0]
        else:
            owner = np.repeat(np.arange(len(counts)), counts)
            r = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
            lo, size = lo[:, owner], size[:, owner]
        q = np.empty((len(lo), len(owner)), dtype=np.int64)
        for i in reversed(range(len(lo))):
            q[i] = lo[i] + r % size[i]
            r = r // size[i]
        return owner, q

    def _check(self, a: Ann, env, kind: str, site: str, message, when=None, steps=None):
        """Check value annotation ``a`` at one event of the walk or, with
        ``when``, at all the events of a batched loop, reporting a failure
        with the text ``message()``.  ``steps`` checks a serial loop's
        invariant incrementally (:meth:`_grids`)."""
        key = (kind, id(a), site)
        if key in self.runner.seen:
            return
        for envq, _ in self._grids(a, env, when, steps):
            lanes = self._failing(a.body, envq, site)
            if lanes is not False:
                self.runner.report(kind, message(), site, lanes=lanes, dedupe=key)
                return

    def _failing(self, body: Expr, envq, site: str):
        """False when ``body`` holds at every point of ``envq``; otherwise
        the lanes it fails in, None when it fails in every lane."""
        vals = np.asarray(self._vec(body, envq, site))
        if vals.ndim == 2:
            ok = (vals != 0).all(axis=1)
            return False if ok.all() else tuple(np.flatnonzero(~ok).tolist())
        return False if (vals != 0).all() else None

    def _vec(self, e: Expr, envq, site: str):
        """Annotation body over a quantifier grid, lanes leading when any
        storage is read.  Shapes are scalar, (points,), or (lanes, points).

        Every read is taken: the evaluator reads an untaken ``select``
        branch, or the right side of ``==>`` where the left fails, at no
        point.  The first read out of range per entity is reported."""
        self.site = site
        self.reported = set()
        return compiled(e, checked=True)(envq, self)

    @staticmethod
    def check(v):
        # annotation arithmetic is int64, in the walk's exact ints as in a
        # batch's arrays; a statement that overflows reports it
        return wrap_int64(v)

    def load(self, target: MemTarget, index, env):
        idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
        when = env.get(_WHEN)
        batch = self.runner.batch
        base = None if when is None else env.get(_BASE + target.name)
        cell = self.runner.mem[target.name] if base is None else batch.private[target.name]
        size = cell.size
        bad = (idx < 0) | (idx >= size)
        if bad.any():
            if target.name not in self.reported:
                self.reported.add(target.name)
                off = int(idx.T[bad.T][0])  # at the first point, then lane
                self.runner.report(
                    "out_of_bounds",
                    f"annotation reads {target.name}[{off}] outside its"
                    f" {size}-cell allocation",
                    self.site,
                    dedupe=("ann_oob", target.name, off, self.site),
                )
            idx = np.clip(idx, 0, size - 1)
        if when is not None:
            return batch.read(cell, idx if base is None else idx + base, when)
        return cell.arr.take(idx, axis=1)

    # -- the permission ledger ---------------------------------------------

    def _perms(self, aset) -> tuple[int, list]:
        """The permissions of a parallel block's context as quantified
        atoms, built once per annotation set: the ledger's common
        denominator, and per atom its guards, its ``PermAtom`` and its
        share of that denominator."""
        got = self.perms.get(id(aset))
        if got is None:
            atoms = []
            for a in aset.context:
                if not self._is_value(a):
                    a = a.quantified() if isinstance(a, RegionPerm) else a
                    guards, atom = [], a.body
                    while isinstance(atom, BinOp) and atom.op == "==>":
                        guards, atom = guards + [atom.left], atom.right
                    atoms.append((a, guards, atom, atom.frac.value()))
            den = math.lcm(*(f.denominator for *_, f in atoms))
            shares = [(a, g, atom, f.numerator * (den // f.denominator)) for a, g, atom, f in atoms]
            got = self.perms[id(aset)] = (den, shares)
        return got

    def _charge(self, aset, env, when=None):
        """Charge the permissions of ``aset`` to the innermost ledger, at
        one event of the walk or, with ``when``, at all the events of a
        batched nest.  A permission claims the cells of its instances that
        exist and whose guards hold; one ledger serves every lane, so a
        guard that reads storage holds where it holds in any lane."""
        claims = self.ledgers[-1][2]
        for a, guards, atom, share in self._perms(aset)[1]:
            cell = self.runner.mem.get(atom.target.name)
            for envq, n in self._grids(a, env, when):
                if cell is None:
                    continue  # its instances still count
                size = cell.arr.shape[1]
                idx = np.broadcast_to(np.asarray(self._vec(atom.index, envq, ""), dtype=np.int64), (n,))
                keep = (idx >= 0) & (idx < size)
                for g in guards:
                    held = np.asarray(self._vec(g, envq, "")) != 0
                    keep &= held.any(axis=0) if held.ndim == 2 else held
                key = (atom.target.name, size, share)
                claims.setdefault(key, _Claims(size)).add(idx[keep])


class _Claims:
    """The cells of one allocation claimed at one share: a count per cell,
    and the offsets not counted yet, folded into the counts once they
    outnumber the cells."""

    def __init__(self, size: int):
        self.size = size
        self.folded = 0
        self.offsets: list[np.ndarray] = []
        self.pending = 0

    def add(self, offsets: np.ndarray):
        self.offsets.append(offsets)
        self.pending += len(offsets)
        if self.pending > self.size:
            self.folded = self.counts()
            self.offsets, self.pending = [], 0

    def absorb(self, other: _Claims):
        """Add the claims of ``other``."""
        self.folded = self.folded + other.folded
        for offsets in other.offsets:
            self.add(offsets)

    def counts(self) -> np.ndarray:
        """The claims on each cell."""
        if not self.offsets:
            return self.folded
        return self.folded + np.bincount(np.concatenate(self.offsets), minlength=self.size)


def _execute(lp: LoweredPipeline, inputs: dict[str, np.ndarray], obs: _AnnObserver | None) -> RunResult:
    """Walk the nest once, flag output cells left unwritten, and check the
    pipeline postconditions when an observer is attached."""
    t0 = time.perf_counter()
    runner = _Runner(lp, inputs, observer=obs)
    runner.run(lp.root, {})
    out = lp.pipeline.output
    holes = int((~runner.mem[out].init).sum())
    if holes:
        runner.report("mismatch", f"{holes} cell(s) of the output {out!r} were never written", out)
    if obs is not None:
        obs.pipeline_post()
        obs.runner = None  # no cycle: the run's storage is freed on return, not by gc
    return RunResult(
        {name: c.arr for name, c in runner.mem.items()},
        runner.findings,
        runner.points,
        (time.perf_counter() - t0) * 1000,
        0 if obs is None else obs.instantiations,
        runner.batched_loops,
        runner.replayed_loops,
        0 if obs is None else obs.evaluated,
    )


def check_annotations(
    lp: LoweredPipeline, ap: AnnotatedPipeline, inputs: dict[str, np.ndarray]
) -> RunResult:
    """Execute the nest with every annotation checked at its boundaries."""
    return _execute(lp, inputs, _AnnObserver(ap))


def check_schedule(
    p: Pipeline, directives, seeds, include_user: bool = True
) -> RunResult:
    """The whole back-end check for one schedule: lower, annotate, execute
    under full instrumentation, and compare the output with the reference
    semantics.  With ``include_user`` false only generated memory-safety
    annotations are in force."""
    from .lowering import lower

    lp = lower(p, directives)
    ap = annotate(lp, include_user=include_user)
    inputs = make_inputs(p, seeds)
    assert_buffer_requires(p, inputs)
    return _compared(lp, inputs, check_annotations(lp, ap, inputs))


def run_lowered(lp: LoweredPipeline, inputs: dict[str, np.ndarray]) -> RunResult:
    return _execute(lp, inputs, None)


def _compared(lp: LoweredPipeline, inputs: dict[str, np.ndarray], result: RunResult) -> RunResult:
    """``result`` with the comparison against the reference semantics in
    its findings; a reference that faults is one finding instead."""
    try:
        reference = eval_reference(lp.pipeline, inputs)
    except ReferenceFault as err:
        result.findings.append(Finding("out_of_bounds", f"reference semantics undefined: {err}"))
    else:
        result.findings.extend(compare_to_reference(lp, result, reference))
    return result


def compare_to_reference(
    lp: LoweredPipeline, result: RunResult, reference: dict[str, np.ndarray]
) -> list[Finding]:
    """Exact equality of the produced output with the reference semantics."""
    out = lp.pipeline.output
    got = result.mem[out]
    want = reference[out]
    findings: list[Finding] = []
    diff = got != want
    if diff.any():
        lanes = tuple(np.flatnonzero(diff.any(axis=1)).tolist())
        first = int(np.flatnonzero(diff.any(axis=0))[0])
        findings.append(
            Finding(
                "mismatch",
                f"output {out}[{first}] disagrees with the reference evaluation",
                out,
                lanes,
            )
        )
    return findings


def check_lowered(p: Pipeline, directives, seeds) -> RunResult:
    """Lower, execute under instrumentation, and compare with the reference.

    The returned result carries all findings, differential mismatches
    included; pass verdicts per seed come from :func:`to_reports`.
    """
    from .lowering import lower

    lp = lower(p, directives)
    inputs = make_inputs(p, seeds)
    assert_buffer_requires(p, inputs)
    return _compared(lp, inputs, run_lowered(lp, inputs))


def to_reports(pipeline: str, schedule: str, seeds, result: RunResult) -> list[dict]:
    """One JSON-ready report per seed, splitting lane-tagged findings."""
    reports = []
    for lane, seed in enumerate(seeds):
        mine = [
            f for f in result.findings if f.lanes is None or lane in f.lanes
        ]
        reports.append(
            {
                "pipeline": pipeline,
                "schedule": schedule,
                "seed": int(seed),
                "verdict": "pass" if not mine else "fail",
                "findings": [f.to_json() for f in mine],
                "stats": {
                    "points": result.points,
                    "instantiations": result.instantiations,
                    "evaluated": result.evaluated,
                    "millis": round(result.millis, 3),
                    "batched_loops": result.batched_loops,
                    "replayed_loops": result.replayed_loops,
                },
            }
        )
    return reports
