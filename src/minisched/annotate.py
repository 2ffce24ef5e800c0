"""Annotation generation and bottom-up transformation through a loop nest.

Every store statement seeds a small contract: a full write permission on the
cell it defines, fractional read permissions on everything it consumes, and
the user's stage annotations instantiated at the current point.  Walking the
nest from the leaves outward, one rule (``_Annotator.through_loop``) carries
the state out through every loop, renaming the loop's variable in each line
once, for the line the loop holds and the copy carried outward, quantified
over the whole range.  A serial loop holds the lines that name its variable
as loop invariants (completed iterations keep their postconditions, pending
ones keep their preconditions), a parallel loop holds every line verbatim
as a per-iteration block contract with read fractions split across
iterations, and an unrolled loop holds nothing.  The pipeline's own
postconditions are built here too (``AnnotatedPipeline.post``), for the
checker to evaluate on the final storage.

Value annotations quantify over iteration variables.  Read permissions do
not: a sliding window read overlaps itself across iterations, and claiming
one fraction per origin point would sum past a whole permission on interior
cells.  They are kept in region form instead, a box in the producer's own
coordinates that widens as each loop is crossed, so every cell is claimed
once per nesting level no matter how the reads overlap.  The box a read
permission starts from is the one lowering decided for the stage
(``ScheduledPipeline.reads``), as bounds inference uses it; a write
permission starts from the store footprint.  The box widens through bounds
inference's range engine, ``lowering.form_range``, under the guards it has
passed, so a split's padded tail claims no cell past them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ir import (
    BinOp,
    Const,
    Expr,
    Frac,
    FuncAccess,
    MemTarget,
    MinOf,
    PermAtom,
    PipelineError,
    Quantifier,
    TableRead,
    Var,
    _resolve_bound_refs,
    free_vars,
    substitute,
    walk,
)
from .lowering import (
    Chain,
    Consume,
    FlatAlloc,
    FootDim,
    If,
    Loop,
    LoweredPipeline,
    Produce,
    Store,
    StoreStmt,
    flatten_storage,
    form_range,
    inline_expr,
    loop_range,
    poly_expr,
    storage_target,
)


class AnnotateError(PipelineError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Ann:
    """One annotation line: a boolean predicate, or a (possibly guarded)
    permission atom, under a prefix of quantified fresh variables."""

    kind: str  # requires | ensures | context | invariant
    quants: tuple[Quantifier, ...]
    body: Expr
    perm: bool = False
    origin: tuple = ()
    until: str | None = None  # dormant until this reduction loop is crossed

    @property
    def live(self) -> bool:
        return self.until is None


@dataclass(frozen=True)
class RegionPerm:
    """Permission over a box of cells of one entity.

    ``dim_boxes`` pairs each entity dimension with the box's low corner (an
    expression over still-free loop variables) and a constant extent.
    ``guards`` are the guards the permission has passed on its way out of
    the nest; widening reads them, so a dimension they cap stays inside
    them.  A constant box folds its cap into its extent; ``caps`` holds the
    inclusive upper bound of each capped dimension whose box is parametric.
    """

    target: MemTarget
    alloc: FlatAlloc
    dim_boxes: tuple[tuple[str, Expr, int], ...]
    frac: Frac
    write: bool = False
    origin: tuple = ()
    guards: tuple[Expr, ...] = ()
    caps: tuple[tuple[str, int], ...] = ()

    def quantified(self) -> Ann:
        """The box as a quantified permission atom: the form emitted, and
        the form the checker charges to a parallel loop's ledger."""
        used: set[str] = set()
        for _, lo, _ in self.dim_boxes:
            used |= free_vars(lo)
        quants = []
        point: dict[str, Expr] = {}
        caps = dict(self.caps)
        for d, lo, ext in self.dim_boxes:
            v = _fresh_name(d, used)
            used.add(v)
            hi = lo + Const(ext)
            quants.append(Quantifier(v, lo, MinOf(hi, Const(caps[d] + 1)) if d in caps else hi))
            point[d] = Var(v)
        index = self.alloc.offset(point, [q.var for q in quants])
        return Ann(
            "context", tuple(quants), PermAtom(self.target, index, self.frac),
            perm=True, origin=self.origin,
        )


@dataclass
class AnnSet:
    """Annotations attached to one loop-nest node.

    Serial loops fill ``invariants``; parallel loops use ``requires`` and
    ``ensures`` as their per-iteration block contract plus ``context`` for
    permissions; consume nodes and statements use ``context``, ``requires``
    and ``ensures`` directly.
    """

    invariants: list = field(default_factory=list)
    requires: list = field(default_factory=list)
    ensures: list = field(default_factory=list)
    context: list = field(default_factory=list)


@dataclass(frozen=True)
class AnnotatedPipeline:
    lp: LoweredPipeline
    node: dict[int, AnnSet]
    top: list
    post: list  # the pipeline's postconditions over the final storage

    def at(self, n) -> AnnSet:
        return self.node.get(id(n)) or AnnSet()


def _fresh_name(base: str, used: set[str]) -> str:
    name = base + "f"
    k = 2
    while name in used:
        name = f"{base}f{k}"
        k += 1
    return name


def _names_in(a: Ann) -> set[str]:
    out = {q.var for q in a.quants} | free_vars(a.body)
    for q in a.quants:
        out |= free_vars(q.lo) | free_vars(q.hi)
    return out


def _subst_ann(a: Ann, m: dict[str, Expr]) -> Ann:
    return replace(
        a,
        body=substitute(a.body, m),
        quants=tuple(
            Quantifier(q.var, substitute(q.lo, m), substitute(q.hi, m)) for q in a.quants
        ),
    )


def _mentions(a: Ann, v: str) -> bool:
    return v in _names_in(a)


def _over(a: Ann, v: str, *spans) -> list[Ann]:
    """``a`` quantified over each span ``(lo, hi)`` of ``v``, which it names
    as one fresh variable in all of them, a name neither ``a`` nor a span
    reads; ``a`` itself for each span if it does not name ``v``."""
    if not spans or not _mentions(a, v):
        return [a] * len(spans)
    vf = _fresh_name(v, _names_in(a).union(*(free_vars(e) for span in spans for e in span)))
    a = _subst_ann(a, {v: Var(vf)})
    return [replace(a, quants=(Quantifier(vf, lo, hi),) + a.quants) for lo, hi in spans]


def _distinct(lines: list) -> list:
    """``lines`` less each value line whose quantifiers and body an earlier
    one has: a reduction's pending invariant can restate its stage's
    postcondition."""
    kept: dict = {}
    for a in lines:
        kept.setdefault((a.quants, a.body) if isinstance(a, Ann) and not a.perm else id(a), a)
    return list(kept.values())


# ---------------------------------------------------------------------------


class _Annotator:
    def __init__(self, lp: LoweredPipeline, include_user: bool):
        self.lp = lp
        self.p = lp.pipeline
        self.sp = lp.scheduled
        self.include_user = include_user
        self.node: dict[int, AnnSet] = {}
        self.allocs: dict[str, FlatAlloc] = lp.allocs
        self.box: dict[str, tuple[Expr, Expr]] = {}  # enclosing loops, outermost first

    def run(self) -> AnnotatedPipeline:
        top = self.walk_node(self.lp.root)
        for aset in self.node.values():
            for slot in ("invariants", "requires", "ensures", "context"):
                setattr(aset, slot, _distinct(getattr(aset, slot)))
        return AnnotatedPipeline(self.lp, self.node, top, self.pipeline_post())

    def at(self, n) -> AnnSet:
        return self.node.setdefault(id(n), AnnSet())

    def flatten(self, e: Expr) -> Expr:
        """``e`` over storage: inlined funcs unfolded, the others read from
        their tables."""
        return flatten_storage(self.p, self.allocs, inline_expr(self.sp, e))

    def pipeline_post(self) -> list[Ann]:
        """The user's pipeline postconditions, bounds resolved, over
        storage; none without user annotations."""
        if not self.include_user:
            return []
        p = self.p
        return [
            Ann(
                "ensures",
                tuple(
                    Quantifier(q.var, _resolve_bound_refs(p, q.lo), _resolve_bound_refs(p, q.hi))
                    for q in qc.quants
                ),
                self.flatten(_resolve_bound_refs(p, qc.body)),
                origin=("pipeline",),
            )
            for qc in p.ensures
        ]

    # -- seeds -------------------------------------------------------------

    def seeds_for(self, stmt: StoreStmt) -> list:
        func, si = stmt.func, stmt.stage
        f = self.p.func(func)
        s = f.stages[si]
        origin = self.sp.funcs[func].origin
        state: list = [
            Ann(
                "context",
                (),
                PermAtom(stmt.target, stmt.index, Frac(1, 1)),
                perm=True,
                origin=("write", func),
            )
        ]
        for name, box in self.sp.reads[(func, si)].items():
            state.append(self.region(name, box, Frac(1, 2), ("read", name, func, si)))
        if not self.include_user:
            return state

        until = None if s.rdom is None else origin[s.rdom.names()[-1]].name

        for cond in s.ensures:
            body = self.flatten(substitute(cond.expr, origin))
            state.append(Ann("ensures", (), body, origin=("stage", func, si, "post"), until=until))

        if si > 0:
            # pre-state of this step: the previous step's post-state, at
            # every point of the function this step actually reads
            prev = f.stages[si - 1]
            points: list[tuple[Expr, ...]] = []
            for n in walk(s.rhs):
                if isinstance(n, FuncAccess) and n.func == func and n.args not in points:
                    points.append(n.args)
            for cond in prev.ensures:
                for args in points:
                    inst = substitute(cond.expr, dict(zip(f.dim_names(), args)))
                    body = self.flatten(substitute(inst, origin))
                    state.append(
                        Ann("requires", (), body, origin=("stage", func, si, "pre"), until=until)
                    )

        if s.rdom is not None:
            for rv in s.rdom.names():
                inv = s.invariant_for(rv)
                if inv is None:
                    raise AnnotateError(
                        "MissingReductionInvariant",
                        f"{func} stage {si}: reduction variable {rv!r} has no invariant",
                    )
                body = self.flatten(substitute(inv.expr, origin))
                state.append(Ann("invariant", (), body, origin=("rinv", func, si, origin[rv].name)))
        return state

    def region(self, name: str, box: dict[str, FootDim], frac: Frac, origin, write: bool = False) -> RegionPerm:
        """``frac`` of a box of ``name`` from lowering: a stage's read box or
        a store footprint."""
        return RegionPerm(
            storage_target(self.p, name), self.allocs[name],
            tuple((d, fd.lo, fd.extent) for d, fd in box.items()), frac, write, origin,
        )

    def footprint_write(self, f: str) -> RegionPerm:
        return self.region(f, self.lp.footprints[f].store, Frac(1, 1), ("write", f), write=True)

    def consume_equalities(self, g: str) -> list[Ann]:
        """``g`` holds its defining values over the consumed footprint."""
        gf = self.p.func(g)
        fp = self.lp.footprints[g].compute
        out = []
        for cond in gf.stages[-1].ensures:
            used = set(free_vars(cond.expr))
            for d in gf.dim_names():
                used |= free_vars(fp[d].lo)
            quants = []
            point: dict[str, Expr] = {}
            for d in gf.dim_names():
                v = _fresh_name(d, used)
                used.add(v)
                quants.append(Quantifier(v, fp[d].lo, fp[d].lo + Const(fp[d].extent)))
                point[d] = Var(v)
            body = self.flatten(substitute(cond.expr, point))
            out.append(Ann("context", tuple(quants), body, origin=("ceq", g)))
        return out

    # -- walking -----------------------------------------------------------

    def walk_list(self, body: list) -> list:
        state: list = []
        for child in body:
            state.extend(self.walk_node(child))
        return state

    def walk_node(self, n) -> list:
        match n:
            case Chain(body):
                return self.walk_list(body)
            case StoreStmt():
                state = self.seeds_for(n)
                aset = self.at(n)
                for a in state:
                    if isinstance(a, Ann) and not a.perm and a.live and a.kind in ("requires", "ensures"):
                        getattr(aset, a.kind).append(a)
                return state
            case If(cond, _, body):
                return [self.guard_ann(a, cond) for a in self.walk_list(body)]
            case Loop(dim, _, body):
                self.box[dim.var] = loop_range(dim)
                inner = self.walk_list(body)
                out = self.through_loop(n, inner)
                del self.box[dim.var]
                return out
            case Consume(g, body):
                state = self.walk_list(body)
                if self.include_user:
                    self.at(n).context.extend(self.consume_equalities(g))
                # read claims on g stop here: outside the consume section the
                # producer's write claim on the same cells stands alone
                return [
                    a
                    for a in state
                    if not (isinstance(a, RegionPerm) and not a.write and a.target.name == g)
                    and getattr(a, "origin", ())[:2] != ("ceq", g)
                ]
            case Produce(f, body):
                state = self.walk_list(body)
                # everything inside is about producing f; its cell-level
                # permissions collapse into one footprint-wide write claim
                out = [
                    a
                    for a in state
                    if not (self.stage_value_of(a, f) or self.mentions_target(a, f))
                ]
                return out + [self.footprint_write(f)]
            case Store(f, _, body):
                return [a for a in self.walk_list(body) if not self.mentions_target(a, f)]
        raise TypeError(f"unhandled node {type(n).__name__}")

    def guard_ann(self, a, cond: Expr):
        if isinstance(a, RegionPerm):
            return replace(a, guards=a.guards + (cond,))  # read when the box widens
        return replace(a, body=BinOp("==>", cond, a.body))

    def stage_value_of(self, a, f: str) -> bool:
        if isinstance(a, RegionPerm) or a.perm:
            return False
        return len(a.origin) >= 2 and a.origin[0] in ("stage", "rinv", "pendI") and a.origin[1] == f

    def mentions_target(self, a, f: str) -> bool:
        if isinstance(a, RegionPerm):
            return a.target.name == f
        for n in walk(a.body):
            if isinstance(n, (TableRead, PermAtom)) and n.target.name == f:
                return True
        return False

    # -- the loop rule -------------------------------------------------------

    def through_loop(self, loop: Loop, state: list) -> list:
        """``state`` carried out through ``loop``, the lines the loop holds
        placed in its set.

        Each line is renamed once per crossing: the one rename gives both
        the line the loop holds and the state carried outward, quantified
        over the loop's whole range.  A serial loop holds its bounds, then
        the reductions' invariants, then its regions widened over it, then
        each value or permission line that names its variable, as an
        invariant over the iterations that have it: context and permission
        lines all of them, postconditions the completed ones and
        preconditions the pending ones.  A reduction's completed and pending
        lines are held even when they do not name the variable.  A parallel
        loop holds every line verbatim as its per-iteration block contract,
        invariants among the preconditions, with read fractions split across
        its iterations.  An unrolled loop holds nothing.
        """
        dim = loop.dim
        v, lo, hi = dim.var, dim.lo, dim.lo + Const(dim.extent)
        aset = None if dim.kind == "unrolled" else self.at(loop)
        spans = {"context": (lo, hi), "ensures": (lo, Var(v)), "requires": (Var(v), hi)}
        if dim.kind == "serial":
            bounds = BinOp("&&", BinOp("<=", lo, Var(v)), BinOp("<=", Var(v), hi))
            aset.invariants.append(Ann("invariant", (), bounds, origin=("bounds", v)))
        regions: list = []
        lines: list = []
        out: list = []

        def hold(a: Ann, *carried) -> list[Ann]:
            """Place the line ``loop`` holds for ``a``; ``a`` over each span
            of ``carried``."""
            slot = "context" if a.perm else a.kind
            if dim.kind == "parallel":
                getattr(aset, "requires" if slot == "invariant" else slot).append(a)
            elif dim.kind == "serial" and slot in spans:
                line, *rest = _over(a, v, spans[slot], *carried)
                lines.append(replace(line, kind="invariant"))
                return rest
            return _over(a, v, *carried)

        for a in state:
            if isinstance(a, RegionPerm):
                widened = self.widen_region(a, v)
                if dim.kind == "parallel":
                    # iterations hold split fractions; the join returns them whole
                    split = replace(a.frac, par=a.frac.par + (dim.extent,))
                    aset.context.append(a if a.write else replace(a, frac=split))
                elif aset is not None:
                    regions.append(widened)
                out.append(widened)
                continue
            step = None if aset is None else self.reduction_step(a, loop)
            if step is not None:
                pending, completed, outward = step
                for b in completed + pending:
                    hold(b)
                out.extend(outward)
            elif not a.live:
                out.append(self.wake(a, loop))
            elif dim.kind == "serial" and not _mentions(a, v):
                out.append(a)  # true at every iteration, and not the loop's to hold
            else:
                out.extend(hold(a, (lo, hi)))
        if aset is not None:
            aset.invariants.extend(regions + lines)
        return out

    def wake(self, a: Ann, loop: Loop) -> Ann:
        if a.until == loop.dim.var and (a.origin[1], a.origin[2]) == loop.owner:
            return replace(a, until=None)
        return a

    def widen_region(self, a: RegionPerm, v: str) -> RegionPerm:
        """``a`` over every iteration of the innermost enclosing loop, ``v``."""
        boxes, caps = [], dict(a.caps)
        for d, b_lo, ext in a.dim_boxes:
            if v not in free_vars(b_lo):
                boxes.append((d, b_lo, ext))
                continue
            (lc, lk), (_, hk), cap = form_range(b_lo, self.box, a.guards, set(self.box) - {v})
            hk += ext - 1
            if cap is not None:
                caps[d] = min(caps.get(d, cap + ext - 1), cap + ext - 1)
            if not lc and d in caps:
                hk = min(hk, caps.pop(d))
            order = sorted(k for k in lc if isinstance(k, str))
            boxes.append((d, poly_expr(lc, lk, order), hk - lk + 1))
        return replace(a, dim_boxes=tuple(boxes), caps=tuple(caps.items()))

    def reduction_step(self, a, loop: Loop):
        """Invariant threading for reductions; None when ``a`` is uninvolved.

        Gives (pending, completed, outward): the precondition lines of the
        iterations that have not started the reduction and the
        postcondition lines of those that have run it whole, which the
        loop holds as it holds any precondition and postcondition, and the
        state carried outward.
        """
        if isinstance(a, RegionPerm) or a.perm or a.origin[:1] not in (("rinv",), ("pendI",)):
            return None
        func, si = a.origin[1], a.origin[2]
        dim = loop.dim
        v = dim.var

        if a.origin[0] == "rinv":
            if loop.owner != (func, si) or v != a.origin[3]:
                if self._own_reduction_loop(a, loop):
                    # an inner reduction variable's loop; not this invariant's
                    return [], [], [a]
                return None
            self.at(loop).invariants.append(a)
            return [], [], [Ann("invariant", a.quants, a.body, origin=("pendI", func, si, v))]

        # a pending invariant climbing out of its reduction loop
        if loop.owner != (func, si):
            return None
        if self._own_reduction_loop(a, loop):
            # an enclosing reduction loop's own invariant subsumes it
            return [], [], []
        rprev = a.origin[3]
        rlo, rhi = self._rdom_range((func, si), rprev)
        pending = replace(a, kind="requires", body=substitute(a.body, {rprev: rlo}))
        completed = replace(a, kind="ensures", body=substitute(a.body, {rprev: rhi}))
        return [pending], [completed], _over(a, v, (dim.lo, dim.lo + Const(dim.extent)))

    def _own_reduction_loop(self, a: Ann, loop: Loop) -> bool:
        return loop.owner == a.origin[1:3] and self._rdom_range(loop.owner, loop.dim.var) is not None

    def _rdom_range(self, owner: tuple[str, int], v: str) -> tuple[Expr, Expr] | None:
        """(lo, hi) of the reduction variable of stage ``owner`` that loop
        ``v`` runs, or None."""
        s = self.p.func(owner[0]).stages[owner[1]]
        origin = self.sp.funcs[owner[0]].origin
        for r in s.rdom.names() if s.rdom else ():
            if origin[r] == Var(v):
                iv = s.rdom.interval(r)
                return iv.lo, Const(iv.lo_int + iv.extent)
        return None


def annotate(lp: LoweredPipeline, include_user: bool = True) -> AnnotatedPipeline:
    """Generate and thread all annotations for a lowered pipeline.

    With ``include_user`` false only machine-derived annotations remain:
    permissions, loop bounds, and footprint contracts.  That is the mode
    behind memory-safety-only checking.
    """
    return _Annotator(lp, include_user).run()
