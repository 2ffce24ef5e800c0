"""Schedule application, bounds inference, and loop-nest construction.

The passes here turn a validated pipeline plus a directive list into the
imperative form everything downstream consumes: ``apply_directives``
rewrites each function's loop axes, records placements and gives every loop
its final name (a placed func's loop named like a loop in scope at its site
gets a fresh name, so no later pass renames).  It also writes each realized
stage's body over its loops once (``ScheduledPipeline.bodies``), and with
it the one box of constant extent the stage reads of each other entity
(``ScheduledPipeline.reads``).  ``infer_bounds`` computes from those boxes
the region of every producer its consumers actually touch,
``build_loop_nest`` assembles the produce/consume/store tree from the
bodies with all storage flattened to one-dimensional arrays, and the
annotator's read permissions start from the same boxes.

Index expressions are kept in a linear normal form (``c1*v1 + ... + c0``
with positive terms first, variables ordered outermost loop first), which
makes allocation offsets deterministic and lets the emitter hoist
loop-invariant parts of an index by splitting the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ir import (
    BinOp,
    BufAccess,
    Const,
    Expr,
    Func,
    FuncAccess,
    MemTarget,
    Pipeline,
    ScheduleError,
    Span,
    Stage,
    TableRead,
    Var,
    eval_const,
    free_vars,
    hdiv,
    lt,
    rewrite,
    substitute,
    walk,
    _reads_storage,
)
from .printing import ExprPrinter

MAX_UNROLL = 256


# ---------------------------------------------------------------------------
# Linear index arithmetic


class NonAffineAccess(ScheduleError):
    def __init__(self, message: str, span: Span | None = None):
        super().__init__("NonAffineAccess", message, span)


def linearize(e: Expr) -> tuple[dict, int]:
    """Decompose ``e`` as sum(coeff * term) + const, or raise NonAffineAccess.

    Terms are loop variables; division and remainder by a positive constant
    (the shapes fusion introduces) survive as opaque atoms keyed by their
    expression node, once their numerator is affine too: no index reads
    storage.
    """
    match e:
        case Const(v):
            return {}, v
        case Var(n):
            return {n: 1}, 0
        case BinOp("+", l, r):
            cl, kl = linearize(l)
            cr, kr = linearize(r)
            return _merge(cl, cr, 1), kl + kr
        case BinOp("-", l, r):
            cl, kl = linearize(l)
            cr, kr = linearize(r)
            return _merge(cl, cr, -1), kl - kr
        case BinOp("*", l, r):
            cl, kl = linearize(l)
            cr, kr = linearize(r)
            if not cl:
                return {v: kl * c for v, c in cr.items() if kl * c != 0}, kl * kr
            if not cr:
                return {v: kr * c for v, c in cl.items() if kr * c != 0}, kl * kr
            raise NonAffineAccess("product of two loop-dependent expressions in an access")
        case BinOp("hdiv" | "hmod", num, Const(d)) if d > 0:
            linearize(num)  # an opaque atom, but affine inside too
            return {e: 1}, 0
        case TableRead(target, _):
            raise NonAffineAccess(f"access index is not affine: it reads {target.name}")
        case FuncAccess(name, _) | BufAccess(name, _):
            raise NonAffineAccess(f"access index is not affine: it reads {name}")
    raise NonAffineAccess(f"access index is not affine: {type(e).__name__}")


def _merge(a: dict[str, int], b: dict[str, int], sign: int) -> dict[str, int]:
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) + sign * c
        if out[v] == 0:
            del out[v]
    return out


def poly_expr(coeffs: dict, const: int, order: list[str]) -> Expr:
    """Rebuild a linear form as an expression.

    Positive terms come first so the sum never has to lead with a negation;
    within each sign group, variables follow ``order`` (outermost loops
    first), then unknown variables alphabetically, then opaque atoms.
    """
    rank = {v: i for i, v in enumerate(order)}

    def key(v) -> tuple:
        if isinstance(v, str):
            return (coeffs[v] < 0, 0, rank.get(v, len(order)), v)
        return (coeffs[v] < 0, 1, len(order), repr(v))

    e: Expr | None = None
    for v in sorted(coeffs, key=key):
        c = coeffs[v]
        base: Expr = Var(v) if isinstance(v, str) else v
        mag: Expr = base if abs(c) == 1 else BinOp("*", base, Const(abs(c)))
        if e is None:
            e = mag if c > 0 else BinOp("-", Const(0), mag)
        else:
            e = BinOp("+" if c > 0 else "-", e, mag)
    if e is None:
        return Const(const)
    if const > 0:
        e = BinOp("+", e, Const(const))
    elif const < 0:
        e = BinOp("-", e, Const(-const))
    return e


def fold_divmod(coeffs: dict, const: int) -> tuple[dict, int]:
    """Collapse ``c*hmod(v, E) + c*E*hdiv(v, E)`` back into ``c*v``.

    The identity ``v == E*hdiv(v, E) + hmod(v, E)`` holds for every integer
    when ``E > 0``, so a fused loop variable flattened against matching
    strides reduces to itself.
    """
    out = dict(coeffs)
    changed = True
    while changed:
        changed = False
        for k in list(out):
            if not (isinstance(k, BinOp) and k.op == "hmod"):
                continue
            e = k.right.value  # linearize only admits positive-constant divisors
            div = BinOp("hdiv", k.left, k.right)
            c = out.get(k, 0)
            if c != 0 and out.get(div, 0) == c * e:
                del out[k]
                del out[div]
                ic, ik = linearize(k.left)
                out = _merge(out, {v: cv * c for v, cv in ic.items()}, 1)
                const += c * ik
                changed = True
                break
    return out, const


def dec(e: Expr) -> Expr:
    """``e - 1`` with the constant folded into an affine tail when possible."""
    match e:
        case Const(v):
            return Const(v - 1)
        case BinOp("+", l, Const(v)) if v > 1:
            return BinOp("+", l, Const(v - 1))
        case BinOp("+", l, Const(1)):
            return l
        case BinOp("-", l, Const(v)):
            return BinOp("-", l, Const(v + 1))
    return BinOp("-", e, Const(1))


# ---------------------------------------------------------------------------
# Ranges


def form_range(e: Expr, box: dict, guards, keep: set[str]) -> tuple[tuple[dict, int], tuple[dict, int], int | None]:
    """Inclusive (lo, hi) of the affine ``e`` over ``box`` (each loop or
    reduction variable to its inclusive lo and hi) where ``guards`` hold, as
    linear forms in the ``keep`` variables, and a constant cap on hi or None.

    Other variables give way to the end of their range that pushes the form
    outward.  A guard ``G < N`` bounds a part ``m*G`` of the form by
    ``m*(N - 1)``: in place once ``G`` keeps no variable, else as the cap
    while the form is ``m*G + k``.  ``hmod`` atoms lie in ``[0, e - 1]``; an
    ``hdiv`` atom not kept whole is closed numerically over the full box.
    """
    tails = []
    for g in guards:
        try:  # a guard that reads memory bounds no box
            gc, gk = linearize(BinOp("-", g.left, g.right)) if getattr(g, "op", "") == "<" else ({}, 0)
        except NonAffineAccess:
            continue
        if gc:
            tails.append((gc, -1 - gk))

    def side(coeffs: dict, const: int, s: int, keep: set[str]) -> tuple[dict, int, int | None]:
        def kept(t) -> bool:
            return t in keep if isinstance(t, str) else free_vars(t) <= keep

        coeffs, cap = dict(coeffs), None
        for _ in range(1000):  # a loop whose range names itself never closes
            for gc, top in tails:
                t0, c0 = next(iter(gc.items()))
                m = s * coeffs.get(t0, 0) // c0  # the multiple of G in the form
                if m > 0 and all(coeffs.get(t) == s * m * c for t, c in gc.items()):
                    if not any(kept(t) for t in gc):
                        coeffs, const = _merge(coeffs, {t: m * c for t, c in gc.items()}, -s), const + s * m * top
                    elif s > 0 and len(coeffs) == len(gc):
                        cap = m * top + const if cap is None else min(cap, m * top + const)
            loose = [t for t in coeffs if not kept(t)]
            if not loose:
                return coeffs, const, cap
            c = coeffs.pop(t := loose[0])
            up = c * s > 0
            if isinstance(t, str):
                if t not in box:
                    raise NonAffineAccess(f"access mentions unknown variable {t!r}")
                bc, bk = linearize(box[t][1] if up else box[t][0])
                coeffs, const = _merge(coeffs, {v: c * x for v, x in bc.items()}, 1), const + c * bk
            elif t.op == "hmod":
                const += c * (t.right.value - 1 if up else 0)
            else:
                const += c * hdiv(side(*linearize(t.left), 1 if up else -1, set())[1], t.right.value)
        raise NonAffineAccess("could not close access bounds over loop variables")

    lc, lk, _ = side(*linearize(e), -1, keep)
    hc, hk, cap = side(*linearize(e), 1, keep)
    return (lc, lk), (hc, hk), cap


# ---------------------------------------------------------------------------
# Scheduled form


@dataclass(frozen=True)
class Axis:
    """One loop of a function's nest; lists hold them outermost-first.

    ``original`` axes still stand for a declared dimension and iterate a
    range chosen by bounds inference; split or fused children iterate a
    zero-based range of known extent.  ``roots`` names the declared
    dimensions the axis covers (one, or several after fusion).
    """

    var: str
    display: str
    root: str
    kind: str = "serial"
    extent: int = 0
    lo: Expr = Const(0)
    original: bool = False
    roots: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.roots:
            object.__setattr__(self, "roots", (self.root,))


@dataclass(frozen=True)
class ScheduledFunc:
    func: Func
    axes: tuple[Axis, ...]
    origin: dict[str, Expr]  # each dim and reduction variable, over the loops
    guards: tuple[Expr, ...]
    compute_site: tuple[str, str] | None = None  # (consumer func, its final loop name)
    store_site: tuple[str, str] | None = None
    inline: bool = False
    scheduled: bool = False


@dataclass(frozen=True)
class ScheduledPipeline:
    pipeline: Pipeline
    funcs: dict[str, ScheduledFunc]
    # filled once, in definition order, by ``apply_directives``: the stage-0
    # body of each inlined func, every inlined func in it unfolded; each
    # realized stage's right-hand side, then its guard if it has one,
    # inlined funcs unfolded and written over the loops; and the one box
    # each realized stage reads of each entity other than its own func
    inlined: dict[str, Expr] = field(default_factory=dict)
    bodies: dict[tuple[str, int], tuple[Expr, ...]] = field(default_factory=dict)
    reads: dict[tuple[str, int], dict[str, dict[str, FootDim]]] = field(default_factory=dict)

    @property
    def realized(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.pipeline.funcs if not self.funcs[f.name].inline)


def _err(code: str, msg: str, span: Span | None = None) -> ScheduleError:
    return ScheduleError(code, msg, span)


def apply_directives(p: Pipeline, ds: list) -> ScheduledPipeline:
    """Apply a directive list in order.  Bounds must already be concrete."""
    state: dict[str, ScheduledFunc] = {}
    for f in p.funcs:
        axes = tuple(
            Axis(var=d, display=d, root=d, extent=iv.extent, lo=iv.lo, original=True)
            for d, iv in reversed(f.dims)
        )
        state[f.name] = ScheduledFunc(
            func=f, axes=axes, origin={d: Var(d) for d, _ in f.dims}, guards=()
        )

    for d in ds:
        if d.func not in state:
            raise _err("UnknownFunc", f"schedule names unknown func {d.func!r}", d.span)
        state[d.func] = _apply_one(state, state[d.func], d)

    funcs = _resolve_placements(p, state)
    named: dict[str, dict[str, str]] = {}
    for name in funcs:
        _name_loops(funcs, name, named)
    sp = ScheduledPipeline(p, funcs)
    for f in p.funcs:  # a func reads only the funcs declared before it
        if funcs[f.name].inline:
            sp.inlined[f.name] = inline_expr(sp, f.stages[0].rhs)
            continue
        for s in f.stages:
            body = tuple(substitute(inline_expr(sp, e), funcs[f.name].origin) for e in (s.rhs, s.guard) if e is not None)
            sp.bodies[(f.name, s.index)] = body
            sp.reads[(f.name, s.index)] = _read_boxes(p, f.name, s.index, body)
    return sp


def _apply_one(state: dict[str, ScheduledFunc], sf: ScheduledFunc, d) -> ScheduledFunc:
    sf = replace(sf, scheduled=True)

    if d.kind == "split":
        old, outer, inner, factor = d.args
        if factor <= 0:
            raise _err("SplitNonPositiveFactor", f"split factor must be positive, got {factor}", d.span)
        ax = _find_axis(sf, old, d.span)
        for taken in (outer, inner):
            if taken != old and taken in _loop_names(sf):
                raise _err("DuplicateDim", f"{d.func}: name {taken!r} already in use", d.span)
        if outer == inner:
            raise _err("DuplicateDim", f"{d.func}: split halves must have distinct names", d.span)
        n_outer = -(-ax.extent // factor)
        sub = ax.lo + Var(outer) * factor + Var(inner)
        i = sf.axes.index(ax)
        new_axes = (
            sf.axes[:i]
            + (
                Axis(outer, f"{ax.root}.{outer}", ax.root, ax.kind, n_outer, roots=ax.roots),
                Axis(inner, f"{ax.root}.{inner}", ax.root, "serial", factor, roots=ax.roots),
            )
            + sf.axes[i + 1 :]
        )
        origin = {k: substitute(v, {old: sub}) for k, v in sf.origin.items()}
        guards = tuple(substitute(g, {old: sub}) for g in sf.guards)
        if ax.extent % factor != 0:
            guards += (lt(sub, ax.lo + ax.extent),)
        return replace(sf, axes=new_axes, origin=origin, guards=guards)

    if d.kind == "fuse":
        a_name, b_name, fused = d.args
        ax_a = _find_axis(sf, a_name, d.span)
        ax_b = _find_axis(sf, b_name, d.span)
        ia, ib = sf.axes.index(ax_a), sf.axes.index(ax_b)
        if ib != ia - 1:
            raise _err("FuseNotAdjacent", f"{d.func}: {b_name!r} must be the loop immediately outside {a_name!r}", d.span)
        if ax_a.kind != ax_b.kind:
            raise _err("FuseKindMismatch", f"{d.func}: cannot fuse a {ax_a.kind} loop with a {ax_b.kind} one", d.span)
        if fused in _loop_names(sf) - {a_name, b_name}:
            raise _err("DuplicateDim", f"{d.func}: name {fused!r} already in use", d.span)
        joined = set(ax_a.roots) | set(ax_b.roots)
        for s in sf.func.stages:
            if s.kind == "pure":
                continue
            stage_dims = set(_stage_loop_dims(sf.func, s))
            if joined & stage_dims and not joined <= stage_dims:
                raise _err("FuseAcrossUpdate", f"{d.func}: fuse joins a dimension stage {s.index} does not iterate", d.span)
        sub = {
            a_name: ax_a.lo + BinOp("hmod", Var(fused), Const(ax_a.extent)),
            b_name: ax_b.lo + BinOp("hdiv", Var(fused), Const(ax_a.extent)),
        }
        fused_ax = Axis(
            fused, fused, fused, ax_a.kind, ax_a.extent * ax_b.extent, roots=ax_b.roots + ax_a.roots
        )
        new_axes = sf.axes[:ib] + (fused_ax,) + sf.axes[ia + 1 :]
        origin = {k: substitute(v, sub) for k, v in sf.origin.items()}
        guards = tuple(substitute(g, sub) for g in sf.guards)
        return replace(sf, axes=new_axes, origin=origin, guards=guards)

    if d.kind == "reorder":
        wanted = list(d.args)
        have = [a.var for a in sf.axes]
        if sorted(wanted) != sorted(have):
            raise _err("UnknownDim", f"{d.func}: reorder must list every loop exactly once (have {', '.join(have)})", d.span)
        new_order = list(reversed(wanted))  # arguments are innermost-first
        by_var = {a.var: a for a in sf.axes}
        if len(sf.func.stages) > 1:
            old_pos = {v: i for i, v in enumerate(have)}
            new_pos = {v: i for i, v in enumerate(new_order)}
            for s in have:
                if by_var[s].kind != "serial":
                    continue
                for par in have:
                    if by_var[par].kind != "parallel":
                        continue
                    if old_pos[s] < old_pos[par] and new_pos[s] > new_pos[par]:
                        raise _err(
                            "ReorderUnsafe",
                            f"{d.func}: moving serial {s!r} inside parallel {par!r} would change the order of update steps",
                            d.span,
                        )
        return replace(sf, axes=tuple(by_var[v] for v in new_order))

    if d.kind in ("parallel", "unroll"):
        (var,) = d.args
        ax = _find_axis(sf, var, d.span)
        if d.kind == "unroll" and ax.extent > MAX_UNROLL:
            raise _err("UnrollTooLarge", f"{d.func}: unrolling {var!r} would expand {ax.extent} copies", d.span)
        new_kind = "parallel" if d.kind == "parallel" else "unrolled"
        i = sf.axes.index(ax)
        return replace(sf, axes=sf.axes[:i] + (replace(ax, kind=new_kind),) + sf.axes[i + 1 :])

    if d.kind in ("compute_at", "store_at"):
        consumer, var = d.args
        if consumer not in state:
            raise _err("UnknownFunc", f"{d.func}: {d.kind} names unknown func {consumer!r}", d.span)
        if consumer == d.func:
            raise _err("PlacementCycle", f"{d.func}: cannot be computed inside itself", d.span)
        _find_axis(state[consumer], var, d.span)
        site = (consumer, var)
        if d.kind == "compute_at":
            return replace(sf, compute_site=site)
        return replace(sf, store_site=site)

    raise _err("UnknownDirective", f"unsupported directive {d.kind!r}", d.span)


def _loop_names(sf: ScheduledFunc) -> set[str]:
    """The names of a func's loops: its axes and its reduction variables."""
    return {a.var for a in sf.axes} | {r for s in sf.func.stages if s.rdom is not None for r in s.rdom.names()}


def _find_axis(sf: ScheduledFunc, var: str, span: Span) -> Axis:
    for a in sf.axes:
        if a.var == var:
            return a
    raise _err("UnknownDim", f"{sf.func.name}: no loop named {var!r}", span)


def _stage_loop_dims(f: Func, s: Stage) -> tuple[str, ...]:
    if s.kind == "pure":
        return f.dim_names()
    return tuple(d for d, arg in zip(f.dim_names(), s.lhs_args) if arg == Var(d))


def _consumers(p: Pipeline) -> dict[str, set[str]]:
    """Func name -> funcs whose definitions read it."""
    out: dict[str, set[str]] = {f.name: set() for f in p.funcs}
    for f in p.funcs:
        for s in f.stages:
            for e in [s.rhs] + ([s.guard] if s.guard is not None else []):
                for n in walk(e):
                    if isinstance(n, FuncAccess) and n.func != f.name:
                        out[n.func].add(f.name)
    return out


def _resolve_placements(p: Pipeline, state: dict[str, ScheduledFunc]) -> dict[str, ScheduledFunc]:
    consumers = _consumers(p)
    out: dict[str, ScheduledFunc] = {}
    for f in p.funcs:
        sf = state[f.name]
        if f.name == p.output:
            if sf.compute_site or sf.store_site:
                raise _err("PlacementCycle", f"output {f.name!r} cannot be placed inside another func")
            out[f.name] = sf
            continue
        if sf.store_site and not sf.compute_site:
            raise _err("StoreWithoutCompute", f"{f.name}: store_at without compute_at")
        if sf.compute_site:
            out[f.name] = sf if sf.store_site else replace(sf, store_site=sf.compute_site)
        elif sf.scheduled or len(f.stages) > 1:
            out[f.name] = sf  # realized at root
        else:
            out[f.name] = replace(sf, inline=True)

    # Placement sanity: sites must name realized consumers that actually use
    # the producer, and store must enclose compute.
    for name, sf in out.items():
        if sf.compute_site is None:
            continue
        consumer, var = sf.compute_site
        if out[consumer].inline:
            raise _err("PlacementInInlined", f"{name}: computed at {consumer!r}, which is inlined away")
        if consumer not in _transitive_consumers(consumers, name, out):
            raise _err("PlacementNotConsumer", f"{name}: {consumer!r} never uses it")
        sc, svar = sf.store_site  # type: ignore[misc]
        if sc != consumer:
            raise _err("StorePlacementUnsupported", f"{name}: store_at and compute_at must name the same func")
        cvars = [a.var for a in out[consumer].axes]
        for v in (var, svar):
            if v not in cvars:
                raise _err("UnknownDim", f"{name}: placed at loop {v!r} of {consumer!r}, which a later directive removes")
        if cvars.index(svar) > cvars.index(var):
            raise _err("StoreBelowCompute", f"{name}: storage at {svar!r} sits inside the compute loop {var!r}")

    # a func reads only the funcs declared before it, so a compute_at cycle
    # fails PlacementNotConsumer above and none reaches ``_name_loops``
    return out


def _name_loops(funcs: dict[str, ScheduledFunc], name: str, named: dict[str, dict[str, str]]) -> dict[str, str]:
    """Give ``name``'s loops their final names, after its consumer's, and
    return the ones that changed, old to new.  An axis or reduction variable
    that a loop in scope at the func's compute site already names takes the
    first name free with ``_`` appended (``y`` to ``y_``), so each loop of the
    nest binds a name of its own; the sites follow the consumer's names."""
    if name not in named:
        sf, ren = funcs[name], {}
        rvars = dict.fromkeys(r for s in sf.func.stages if s.rdom is not None for r in reversed(s.rdom.names()))
        if sf.compute_site is not None:
            (consumer, var), (_, svar) = sf.compute_site, sf.store_site
            moved = _name_loops(funcs, consumer, named)
            sf = replace(sf, compute_site=(consumer, moved.get(var, var)), store_site=(consumer, moved.get(svar, svar)))
            scope = _scope(funcs, sf.compute_site)
            taken = set(scope) | _loop_names(sf)
            for v in [a.var for a in sf.axes] + list(rvars):
                if v in scope:
                    ren[v] = v + "_"
                    while ren[v] in taken:
                        ren[v] += "_"
                    taken.add(ren[v])
        sub = {v: Var(f) for v, f in ren.items()}
        funcs[name] = replace(
            sf,
            # a display ends with its loop's name (``y``, ``y.yo``): it takes the same underscores
            axes=tuple(
                replace(a, var=ren[a.var], display=a.display + ren[a.var][len(a.var) :]) if a.var in ren else a
                for a in sf.axes
            ),
            origin={k: substitute(e, sub) for k, e in sf.origin.items()} | {r: Var(ren.get(r, r)) for r in rvars},
            guards=tuple(substitute(g, sub) for g in sf.guards),
        )
        named[name] = ren
    return named[name]


def _scope(funcs: dict[str, ScheduledFunc], site: tuple[str, str] | None) -> list[str]:
    """Loop variables in scope at a site, outermost first."""
    if site is None:
        return []
    consumer, var = site
    axes = [a.var for a in funcs[consumer].axes]
    return _scope(funcs, funcs[consumer].compute_site) + axes[: axes.index(var) + 1]


def _transitive_consumers(consumers: dict[str, set[str]], name: str, out: dict[str, ScheduledFunc]) -> set[str]:
    """Funcs that read ``name`` directly or through inlined middlemen."""
    result: set[str] = set()
    frontier = list(consumers[name])
    while frontier:
        g = frontier.pop()
        if g in result:
            continue
        result.add(g)
        if out[g].inline:
            frontier.extend(consumers[g])
    return result


# ---------------------------------------------------------------------------
# Bounds inference


@dataclass(frozen=True)
class FootDim:
    lo: Expr
    extent: int


@dataclass(frozen=True)
class Footprint:
    """Per-dimension regions of one func: where it must be computed, and the
    (possibly wider) region its storage covers."""

    compute: dict[str, FootDim]
    store: dict[str, FootDim]


@dataclass(frozen=True)
class FlatAlloc:
    name: str
    size: int
    strides: dict[str, int]
    base: dict[str, Expr]

    def offset(self, args: dict[str, Expr], order: list[str]) -> Expr:
        coeffs: dict = {}
        const = 0
        for d, stride in self.strides.items():
            ca, ka = linearize(args[d])
            cb, kb = linearize(self.base[d])
            for v, c in _merge(ca, cb, -1).items():
                coeffs[v] = coeffs.get(v, 0) + stride * c
                if coeffs[v] == 0:
                    del coeffs[v]
            const += stride * (ka - kb)
        coeffs, const = fold_divmod(coeffs, const)
        return poly_expr(coeffs, const, order)

    def cell(self, point: dict[str, int]) -> int:
        """Flat offset of a concrete point of an allocation whose base names
        no loop variable."""
        return sum(stride * (point[d] - eval_const(self.base[d])) for d, stride in self.strides.items())


def infer_bounds(sp: ScheduledPipeline) -> dict[str, Footprint]:
    p = sp.pipeline
    fps: dict[str, Footprint] = {}

    out_f = p.output_func
    full = {d: FootDim(iv.lo, iv.extent) for d, iv in out_f.dims}
    fps[p.output] = Footprint(compute=full, store=full)

    for name in reversed([n for n in sp.realized if n != p.output]):
        sf = sp.funcs[name]
        compute = _scope(sp.funcs, sf.compute_site)
        reads = _collect_accesses(sp, name)
        if not reads:
            raise _err("UnreadFunc", f"{name} is realized but never read; nothing to infer bounds from")
        if sf.compute_site is not None:
            _check_site_guards(sp, sf, reads, compute, fps)
        fps[name] = Footprint(
            compute=_region(sp, sf, reads, compute, fps),
            store=_region(sp, sf, reads, _scope(sp.funcs, sf.store_site), fps),
        )
    return fps


def inline_expr(sp: ScheduledPipeline, e: Expr) -> Expr:
    """Substitute every inlined func application in ``e`` by its definition."""

    def repl(n: Expr) -> Expr | None:
        if isinstance(n, FuncAccess) and n.func in sp.inlined:
            g = sp.pipeline.func(n.func)
            return substitute(sp.inlined[n.func], dict(zip(g.dim_names(), n.args)))
        return None

    return rewrite(e, repl)


def _collect_accesses(sp, name: str) -> list[tuple[str, dict[str, FootDim]]]:
    """The box of ``name`` each realized stage that reads it reads, with
    the stage's func."""
    return [(func, boxes[name]) for (func, _), boxes in sp.reads.items() if name in boxes]


def _read_boxes(p: Pipeline, func: str, si: int, body: tuple[Expr, ...]) -> dict[str, dict[str, FootDim]]:
    """The box of constant extent stage ``si`` of ``func`` reads of each
    entity other than ``func``, from the least constant offset of its reads
    to the greatest, in the order first read.  A stage that reads an entity
    in two affine shapes is rejected: no such box covers ``inp(x)`` and
    ``inp(2 * x)`` once a loop fixes ``x``."""
    seen: dict[str, tuple[Expr, tuple, list[tuple[int, ...]]]] = {}  # first read, its shape, every offset
    for n in (n for e in body for n in walk(e)):
        name = n.buf if isinstance(n, BufAccess) else n.func if isinstance(n, FuncAccess) else func
        if name == func:
            continue
        shape, ks = zip(*map(linearize, n.args))
        first, had, offsets = seen.setdefault(name, (n, shape, []))
        if had != shape:
            pr = ExprPrinter("dsl")
            raise NonAffineAccess(
                f"{func} stage {si} reads {pr(first)} and {pr(n)}, two shapes that no box of constant extent covers"
            )
        offsets.append(ks)
    boxes: dict[str, dict[str, FootDim]] = {}
    for name, (first, shape, offsets) in seen.items():
        entity = p.buffer(name) if isinstance(first, BufAccess) else p.func(name)
        boxes[name] = {
            d: FootDim(poly_expr(c, min(ks), sorted(v for v in c if isinstance(v, str))), max(ks) - min(ks) + 1)
            for d, c, ks in zip(entity.dim_names(), shape, zip(*offsets))
        }
    return boxes


def _loop_box(sp, consumer: str, fps) -> dict[str, tuple[Expr, Expr]]:
    """Inclusive (lo, hi) of every loop and reduction variable of
    ``consumer``, possibly in outer-loop variables."""
    sf = sp.funcs[consumer]
    dims = {sf.origin[r].name: s.rdom.interval(r) for s in sf.func.stages if s.rdom is not None for r in s.rdom.names()}
    for ax in sf.axes:
        dims[ax.var] = fps[consumer].compute[ax.root] if ax.original else FootDim(Const(0), ax.extent)
    return {v: (d.lo, dec(d.lo + d.extent)) for v, d in dims.items()}


def _check_site_guards(sp, sf: ScheduledFunc, reads, free: list[str], fps):
    """Reject a producer computed at a site whose footprint stays inside its
    consumer's declared domain only under a tail guard that names a loop not
    bound at the site: the guard cannot wrap the producer, and its loops of
    constant extent would run past the guard (Halide clamps them instead).
    A box's reads differ only by a constant, which moves the footprint's
    top and the guard's cap alike, so its low corner stands for them all."""
    split_roots = {r for a in sf.axes if not a.original for r in a.roots}
    for consumer, box in reads:
        guards = sp.funcs[consumer].guards
        inside = [g for g in guards if free_vars(g) <= set(free)]
        loops = _loop_box(sp, consumer, fps)
        for g in (g for g in guards if g not in inside):
            for dname, _ in sf.func.dims:
                if dname in split_roots:
                    continue
                cap = form_range(box[dname].lo, loops, [g], set(free))[2]
                if cap is not None and form_range(box[dname].lo, loops, inside, set())[1][1] > cap:
                    raise _err(
                        "GuardOutsideSite",
                        f"{sf.func.name}: computed inside {consumer!r}, its {dname!r} footprint"
                        f" runs past the tail guard {ExprPrinter('dsl').print(g)}, which names"
                        " a loop inside the site",
                    )


def _region(sp, sf: ScheduledFunc, reads, free: list[str], fps) -> dict[str, FootDim]:
    region: dict[str, FootDim] = {}
    split_roots = {r for a in sf.axes if not a.original for r in a.roots}
    loops = {consumer: _loop_box(sp, consumer, fps) for consumer, _ in reads}
    for dname, iv in sf.func.dims:
        if dname in split_roots:
            # A split or fused dimension iterates over its declared range, so
            # the storage must cover it regardless of what consumers touch.
            region[dname] = FootDim(iv.lo, iv.extent)
            continue
        los, his = [], []
        for consumer, box in reads:
            lo, (hc, hk), _ = form_range(box[dname].lo, loops[consumer], sp.funcs[consumer].guards, set(free))
            los.append(lo)
            his.append((hc, hk + box[dname].extent - 1))
        shape = los[0][0]
        if any(c != shape for c, _ in los + his):
            raise NonAffineAccess(f"{sf.func.name}.{dname}: footprint bounds differ in shape; its extent is not constant")
        lo_k, hi_k = min(k for _, k in los), max(k for _, k in his)
        region[dname] = FootDim(poly_expr(shape, lo_k, free), hi_k - lo_k + 1)
    return region


# ---------------------------------------------------------------------------
# The loop nest


@dataclass(frozen=True)
class LoopDim:
    var: str
    display: str
    kind: str
    lo: Expr
    extent: int


@dataclass
class Loop:
    dim: LoopDim
    owner: tuple[str, int]
    # one body, its variable symbolic, for every kind of loop; only
    # ``print_loop_nest`` writes an unrolled loop out as one copy per step
    body: list

    kind = "loop"


@dataclass
class Produce:
    func: str
    body: list

    kind = "produce"


@dataclass
class Consume:
    func: str
    body: list

    kind = "consume"


@dataclass
class Store:
    func: str
    alloc: FlatAlloc
    body: list

    kind = "store"


@dataclass
class If:
    cond: Expr
    owner: tuple[str, int]
    body: list

    kind = "if"


@dataclass
class StoreStmt:
    func: str
    stage: int
    target: MemTarget
    index: Expr
    value: Expr
    body: list = field(default_factory=list)

    kind = "stmt"


@dataclass
class Chain:
    """Top-level sequence when several funcs are realized at the root."""

    body: list

    kind = "chain"


Node = Loop | Produce | Consume | Store | If | StoreStmt | Chain


@dataclass(frozen=True)
class LoweredPipeline:
    pipeline: Pipeline
    scheduled: ScheduledPipeline
    footprints: dict[str, Footprint]
    allocs: dict[str, FlatAlloc]
    root: Node


def flat_alloc(entity, store: dict[str, FootDim] | None = None) -> FlatAlloc:
    """Flat storage of a buffer or func, the first declared dimension
    innermost: over its declared dimensions, or over a store footprint."""
    size = 1
    strides: dict[str, int] = {}
    base: dict[str, Expr] = {}
    for d, iv in entity.dims:
        strides[d] = size
        if store is None:
            base[d] = iv.lo
            size *= iv.extent
        else:
            base[d] = store[d].lo
            size *= store[d].extent
    return FlatAlloc(entity.name, size, strides, base)


def storage_target(p: Pipeline, name: str) -> MemTarget:
    if any(b.name == name for b in p.buffers):
        return MemTarget("buffer", name)
    return MemTarget("output" if name == p.output else "alloc", name)


def flatten_storage(p: Pipeline, allocs: dict[str, FlatAlloc], e: Expr, order=()) -> Expr:
    """Rewrite entity accesses to flat table reads, index terms ordered by
    ``order`` (outermost loop first)."""

    def repl(n: Expr) -> Expr | None:
        if isinstance(n, FuncAccess) and n.func in allocs:
            point = dict(zip(p.func(n.func).dim_names(), n.args))
            return TableRead(storage_target(p, n.func), allocs[n.func].offset(point, list(order)))
        if isinstance(n, BufAccess):
            point = dict(zip(p.buffer(n.buf).dim_names(), n.args))
            return TableRead(storage_target(p, n.buf), allocs[n.buf].offset(point, list(order)))
        return None

    return rewrite(e, repl)


def build_loop_nest(sp: ScheduledPipeline, fps: dict[str, Footprint]) -> LoweredPipeline:
    p = sp.pipeline
    allocs = {name: flat_alloc(p.func(name), fps[name].store) for name in sp.realized}
    for b in p.buffers:
        allocs[b.name] = flat_alloc(b)
    builder = _Builder(sp, fps, allocs)

    roots = [n for n in sp.realized if sp.funcs[n].compute_site is None]
    nest: list[Node] = [builder.produce(roots[-1], [])]
    for name in reversed(roots[:-1]):
        nest = [builder.produce(name, []), Consume(name, nest)]
    root: Node = nest[0] if len(nest) == 1 else Chain(nest)
    _check_closed(root, frozenset())
    return LoweredPipeline(p, sp, fps, allocs, root)


def _check_closed(n: Node, bound: frozenset[str]) -> None:
    """Raise a ScheduleError when a loop bound, guard, store index or stored
    value under ``n`` names a variable that no enclosing loop binds."""
    match n:
        case Loop(dim, owner, _):
            exprs, who = (dim.lo,), f"loop {dim.display} of {owner[0]}"
        case If(cond, owner, _):
            exprs, who = (cond,), f"a guard of {owner[0]}"
        case StoreStmt():
            exprs, who = (n.index, n.value), f"a store of {n.func}.stage{n.stage}"
        case _:
            exprs, who = (), ""
    for e in exprs:
        free = free_vars(e) - bound
        if free:
            raise _err("UnboundVariable", f"{who} uses {min(free)!r}, which no enclosing loop binds")
    if isinstance(n, Loop):
        bound = bound | {n.dim.var}
    for c in getattr(n, "body", ()):
        _check_closed(c, bound)


class _Builder:
    def __init__(self, sp: ScheduledPipeline, fps, allocs):
        self.sp = sp
        self.p = sp.pipeline
        self.fps = fps
        self.allocs = allocs
        self.at_site: dict[tuple[str, str], list[str]] = {}
        self.store_only_site: dict[tuple[str, str], list[str]] = {}
        for name in sp.realized:
            sf = sp.funcs[name]
            if sf.compute_site is not None:
                self.at_site.setdefault(sf.compute_site, []).append(name)
                if sf.store_site != sf.compute_site:
                    self.store_only_site.setdefault(sf.store_site, []).append(name)  # type: ignore[arg-type]

    # -- nest construction -------------------------------------------------

    def produce(self, name: str, scope: list[str]) -> Produce:
        sf = self.sp.funcs[name]
        body: list[Node] = []
        for s in sf.func.stages:
            stage_dims = set(_stage_loop_dims(sf.func, s))
            axes = [a for a in sf.axes if set(a.roots) & stage_dims]
            for rv in reversed(s.rdom.names() if s.rdom else ()):  # first declared ends up innermost
                iv, v = s.rdom.interval(rv), sf.origin[rv].name
                axes.append(Axis(v, v, rv, "serial", iv.extent, iv.lo))
            body.extend(self.loops(name, s, axes, scope))
        return Produce(name, body)

    def loops(self, name: str, s: Stage, axes: list[Axis], scope: list[str]) -> list[Node]:
        if not axes:
            return self.stmts(name, s, scope)
        ax, rest = axes[0], axes[1:]
        if ax.original:
            fd = self.fps[name].compute[ax.root]
            lo, extent = fd.lo, fd.extent
        else:
            lo, extent = ax.lo, ax.extent
        inner_scope = scope + [ax.var]
        inner = self.loops(name, s, rest, inner_scope)

        if s.index == 0:
            site = (name, ax.var)
            for g in reversed(self.at_site.get(site, [])):
                inner = [self.produce(g, inner_scope), Consume(g, inner)]
                gsf = self.sp.funcs[g]
                if gsf.store_site == gsf.compute_site:
                    inner = [Store(g, self.allocs[g], inner)]
            if site in self.at_site:
                # a padded tail iteration of the consumer runs nothing, so
                # neither do the producers computed inside it
                for c in reversed(self.tail_guards(name, inner_scope)):
                    inner = [If(c, (name, s.index), inner)]
            for g in reversed(self.store_only_site.get(site, [])):
                inner = [Store(g, self.allocs[g], inner)]

        return [Loop(LoopDim(ax.var, ax.display, ax.kind, lo, extent), (name, s.index), inner)]

    def tail_guards(self, name: str, scope: list[str]) -> list[Expr]:
        """The split guards of ``name`` whose loops are all in ``scope``."""
        return [g for g in self.sp.funcs[name].guards if free_vars(g) <= set(scope)]

    def stmts(self, name: str, s: Stage, scope: list[str]) -> list[Node]:
        sf = self.sp.funcs[name]
        alloc = self.allocs[name]
        point = {d: substitute(arg, sf.origin) for d, arg in zip(sf.func.dim_names(), s.lhs_args)}
        index = alloc.offset(point, scope)
        value, *guard = (flatten_storage(self.p, self.allocs, e, scope) for e in self.sp.bodies[(name, s.index)])
        if guard and _reads_storage(guard[0]):
            # the nest's control flow never depends on data
            raise _err(
                "DataDependentGuard",
                f"{name} stage {s.index}: an if guard names loop variables only;"
                " fold a condition on values with select",
                s.span,
            )
        nodes: list[Node] = [StoreStmt(name, s.index, storage_target(self.p, name), index, value)]
        for c in reversed(self.tail_guards(name, scope) + guard):
            nodes = [If(c, (name, s.index), nodes)]
        return nodes


def lower(p: Pipeline, ds: list) -> LoweredPipeline:
    """One call from validated pipeline to loop nest."""
    sp = apply_directives(p, ds)
    fps = infer_bounds(sp)
    return build_loop_nest(sp, fps)


# ---------------------------------------------------------------------------
# Dump


def loop_range(dim: LoopDim) -> tuple[Expr, Expr]:
    """(lo, inclusive hi) of a loop."""
    if isinstance(dim.lo, Const):
        return dim.lo, Const(dim.lo.value + dim.extent - 1)
    return dim.lo, dec(BinOp("+", dim.lo, Const(dim.extent)))


def print_loop_nest(lp: LoweredPipeline, note=None) -> str:
    """The loop nest as indented text; ``note(loop)``, when given, is
    appended to each loop's line.  An unrolled loop's body is written once
    per step, its variable replaced by the step's value."""
    pr = ExprPrinter("dsl")
    lines: list[str] = []

    def emit(n: Node, depth: int, steps: tuple) -> None:
        # ``steps``: the values of the enclosing unrolled loops' variables,
        # innermost first, substituted in that order
        def sub(e: Expr) -> Expr:
            for m in steps:
                e = substitute(e, m)
            return e

        pad = "  " * depth
        copies = [steps]
        match n:
            case Chain(body):
                for c in body:
                    emit(c, depth, steps)
                return
            case Produce(func, body) | Consume(func, body) | Store(func, _, body):
                lines.append(f"{pad}{n.kind} {func}:")
            case Loop(dim, _, body):
                word = {"serial": "for", "parallel": "parallel", "unrolled": "unrolled"}[dim.kind]
                lo, hi = loop_range(replace(dim, lo=sub(dim.lo)))
                tail = "" if note is None else note(n)
                lines.append(f"{pad}{word} {dim.display} in [{pr(lo)}, {pr(hi)}]:{tail}")
                if dim.kind == "unrolled":
                    copies = [({dim.var: dim.lo + k},) + steps for k in range(dim.extent)]
            case If(cond, _, body):
                lines.append(f"{pad}if {pr(sub(cond))}:")
            case StoreStmt(_, _, target, index, value):
                lines.append(f"{pad}_{target.name}[{pr(sub(index))}] = {pr(sub(value))}")
                return
        for inner in copies:
            for c in body:
                emit(c, depth + 1, inner)

    emit(lp.root, 0, ())
    return "\n".join(lines) + "\n"
