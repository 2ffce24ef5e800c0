"""Annotation generation: the contracts attached to each loop-nest node.

Structural tests pin where each annotation family lands (which loop carries
bounds, permissions, partial postconditions, reduction invariants) and the
dynamic sweep then executes every schedule under full instrumentation, so
each generated predicate is actually evaluated at its boundaries.
"""

from __future__ import annotations

import pathlib
from fractions import Fraction

import pytest

from minisched import checker as C
from minisched.annotate import Ann, AnnotateError, RegionPerm, _Annotator, annotate
from minisched.ir import BinOp, Const, Frac, Quantifier, Var, free_vars, substitute
from minisched.lowering import Consume, FootDim, Loop, LoopDim, lower, loop_range
from minisched.parser import parse_pipeline, parse_schedule

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

SCALES = {
    "blur": {"x": 64, "y": 64},
    "count": {"w": 16},
    "matmul": {"n": 8},
    "conv1d": {"n": 64},
    "chain3": {"n": 64},
    "update2": {"n": 32},
}

ALL_SCHEDULES = sorted(
    (d.name, f.stem)
    for d in (CORPUS / "schedules").iterdir()
    for f in d.glob("*.sched")
)

SEEDS = [0, 1, 2]


def load(algo: str):
    src = (CORPUS / f"{algo}.hal").read_text()
    return parse_pipeline(src).resolve(SCALES[algo]).validated()


def schedule(algo: str, name: str):
    return parse_schedule((CORPUS / "schedules" / algo / f"{name}.sched").read_text())


def annotated(algo: str, sched: str, include_user: bool = True):
    lp = lower(load(algo), schedule(algo, sched))
    return lp, annotate(lp, include_user=include_user)


def nodes(root):
    yield root
    for child in getattr(root, "body", []):
        yield from nodes(child)


def find_loop(root, var: str, owner=None, kind=None):
    for n in nodes(root):
        if not isinstance(n, Loop) or n.dim.var != var:
            continue
        if owner is not None and n.owner != owner:
            continue
        if kind is not None and n.dim.kind != kind:
            continue
        return n
    raise AssertionError(f"no loop over {var!r} with owner {owner!r}")


def all_annotations(lp, ap):
    yield from ap.top
    for n in nodes(lp.root):
        aset = ap.at(n)
        for slot in ("invariants", "requires", "ensures", "context"):
            yield from getattr(aset, slot)


# ---------------------------------------------------------------------------
# Attachment shapes


def test_blur_consume_loop_carries_four_families():
    lp, ap = annotated("blur", "ref")
    consume = next(n for n in nodes(lp.root) if isinstance(n, Consume))
    xo = find_loop(consume, "xo", owner=("blur_y", 0))
    families = ap.at(xo).invariants
    assert len(families) == 4

    bounds = [a for a in families if isinstance(a, Ann) and a.origin == ("bounds", "xo")]
    reads = [a for a in families if isinstance(a, RegionPerm) and not a.write]
    writes = [a for a in families if isinstance(a, Ann) and a.perm]
    partial = [
        a
        for a in families
        if isinstance(a, Ann) and not a.perm and a.origin[:2] == ("stage", "blur_y")
    ]
    assert len(bounds) == len(reads) == len(writes) == len(partial) == 1

    assert reads[0].target.name == "blur_x"
    assert reads[0].frac.value() == Fraction(1, 2)
    assert writes[0].origin == ("write", "blur_y")
    # the postcondition holds only for the columns already written
    assert partial[0].quants[0].hi == Var("xo")


def test_blur_parallel_contract_divides_reads_not_writes():
    lp, ap = annotated("blur", "ref")
    yo = find_loop(lp.root, "yo", kind="parallel")
    contract = ap.at(yo).context
    read = next(a for a in contract if isinstance(a, RegionPerm) and not a.write)
    write = next(a for a in contract if isinstance(a, Ann) and a.perm)
    assert read.target.name == "inp"
    assert read.frac.value() == Fraction(1, 2 * 8)
    assert write.origin == ("write", "blur_y")
    assert any(a.origin[-1] == "post" for a in ap.at(yo).ensures)


def test_count_parallel_iteration_contract():
    lp, ap = annotated("count", "par")
    x = find_loop(lp.root, "x", owner=("count", 1), kind="parallel")
    aset = ap.at(x)

    assert {a.origin[0] for a in aset.requires} == {"stage", "pendI"}
    # the reduction's pending invariant at its end restates the stage's
    # postcondition, and only the first of the two lines stays
    assert [a.origin[0] for a in aset.ensures] == ["stage"]
    write = next(a for a in aset.context if isinstance(a, Ann) and a.perm)
    assert write.origin == ("write", "count")
    read = next(a for a in aset.context if isinstance(a, RegionPerm))
    assert read.frac.value() == Fraction(1, 2 * 16)


def test_matmul_inner_reduction_invariant_absorbed_at_outer():
    lp, ap = annotated("matmul", "root")
    rk = find_loop(lp.root, "rk", owner=("prod", 1))
    rt = find_loop(lp.root, "rt", owner=("prod", 1))
    i = find_loop(lp.root, "i", owner=("prod", 1))

    assert any(a.origin[:1] == ("rinv",) and a.origin[3] == "rk" for a in ap.at(rk).invariants)
    assert any(a.origin[:1] == ("rinv",) and a.origin[3] == "rt" for a in ap.at(rt).invariants)
    # the rk half never escapes rt: the outer reduction's own invariant
    # already describes every completed rt step
    for n in (rt, i):
        assert not any(
            a.origin[0] == "pendI" and a.origin[3] == "rk"
            for a in ap.at(n).invariants
        )


def test_matmul_completed_pending_split_at_pure_loop():
    lp, ap = annotated("matmul", "root")
    i = find_loop(lp.root, "i", owner=("prod", 1))
    invs = [a for a in ap.at(i).invariants if isinstance(a, Ann) and a.quants]
    # iterations from i on have not started the reduction
    [pending] = [a for a in invs if a.origin[0] == "pendI"]
    assert pending.quants[0].lo == Var("i")
    # iterations before i have run it whole: the pending invariant there
    # restates the stage's postcondition, whose line stays alone
    [completed] = [a for a in invs if a.quants[0].hi == Var("i")]
    assert completed.origin == ("stage", "prod", 1, "post")


def test_chain3_tail_guard_folds_into_values_not_regions():
    lp, ap = annotated("chain3", "stage")
    xo = find_loop(lp.root, "xo", owner=("mid", 0))
    aset = ap.at(xo).invariants
    guarded = [
        a for a in aset if isinstance(a, Ann) and isinstance(a.body, BinOp) and a.body.op == "==>"
    ]
    # both the partial postcondition and the per-cell write permission are
    # conditional on the split guard; region boxes stay unconditional
    assert any(a.perm for a in guarded)
    assert any(not a.perm for a in guarded)
    for a in aset:
        if isinstance(a, RegionPerm):
            assert all(isinstance(v, str) for v, _, _ in a.dim_boxes)


def test_top_state_is_one_read_and_one_write_footprint():
    lp, ap = annotated("blur", "ref")
    assert len(ap.top) == 2
    read = next(a for a in ap.top if not a.write)
    write = next(a for a in ap.top if a.write)
    assert read.target.name == "inp" and read.frac.value() == Fraction(1, 2)
    assert write.target.name == "blur_y" and write.frac.value() == Fraction(1)


def crossed(kind: str):
    """One state carried out through a loop ``x in [2, 6)`` of ``kind``:
    the annotator, the loop, the lines and what comes out."""
    an = _Annotator(lower(load("blur"), []), include_user=True)
    loop = Loop(LoopDim("x", "x", kind, Const(2), 4), ("blur_y", 0), [])
    x = Var("x")
    lines = {
        "ens": Ann("ensures", (), BinOp("<=", Const(2), x), origin=("stage", "e")),
        "req": Ann("requires", (), BinOp("<", x, Const(6)), origin=("stage", "r")),
        "ctx": Ann("context", (), BinOp(">=", x, Const(0)), origin=("stage", "c")),
        # names only another loop's variable
        "other": Ann("ensures", (), BinOp("<=", Const(0), Var("y")), origin=("stage", "o")),
        # a serial loop holds no line of this kind; a parallel one requires it
        "inv": Ann("invariant", (), BinOp("!=", x, Const(9)), origin=("stage", "i")),
    }
    # the box of reads inp(x, y) and inp(x + 1, y)
    read = an.region("inp", {"x": FootDim(x, 2), "y": FootDim(Var("y"), 1)}, Frac(1, 2), ("read", "inp", "blur_y", 0))
    an.box["x"] = loop_range(loop.dim)
    out = an.through_loop(loop, list(lines.values()) + [read])
    return an, loop, lines, read, out


def over(a: Ann, lo, hi, kind=None) -> Ann:
    """``a`` with ``x`` renamed ``xf`` and quantified over ``[lo, hi)``."""
    return Ann(
        kind or a.kind, (Quantifier("xf", lo, hi),), substitute(a.body, {"x": Var("xf")}), origin=a.origin
    )


@pytest.mark.parametrize("kind", ["serial", "parallel", "unrolled"])
def test_each_loop_kind_places_its_lines(kind):
    an, loop, lines, read, out = crossed(kind)
    lo, hi, x = Const(2), Const(2) + Const(4), Var("x")
    ens, req, ctx, other, inv = lines.values()
    # every kind carries the same state outward: the lines naming x over
    # the whole range, the others as they are, the read widened over x
    assert out[:5] == [over(ens, lo, hi), over(req, lo, hi), over(ctx, lo, hi), other, over(inv, lo, hi)]
    assert out[5].dim_boxes == (("x", lo, 5), ("y", Var("y"), 1))
    if kind == "unrolled":
        assert id(loop) not in an.node
        return
    aset = an.node[id(loop)]
    if kind == "serial":
        bounds, region, *values = aset.invariants
        assert bounds.origin == ("bounds", "x")
        assert region is out[5]
        # completed iterations keep postconditions, pending ones
        # preconditions; a line that does not name x is not the loop's
        assert values == [
            over(ens, lo, x, "invariant"), over(req, x, hi, "invariant"), over(ctx, lo, hi, "invariant"),
        ]
        assert aset.requires == aset.ensures == aset.context == []
    else:
        assert aset.invariants == []
        assert aset.requires == [req, inv]
        assert aset.ensures == [ens, other]
        held, split = aset.context
        assert split.frac.value() == Fraction(1, 2 * 4) and split.dim_boxes == read.dim_boxes
        assert held is ctx


def test_a_quantifier_never_binds_a_name_its_bounds_read():
    # blur_x's loop x starts at xf * 4, xf a loop of blur_y, and its lines
    # name no xf: quantified over xf in place of x, they would capture the
    # bound's xf
    sched = "blur_y.split(x, xf, xi, 4); blur_x.compute_at(blur_y, xf); blur_x.store_at(blur_y, y);"
    lp = lower(load("blur"), parse_schedule(sched))
    ap = annotate(lp)
    for a in all_annotations(lp, ap):
        a = a.quantified() if isinstance(a, RegionPerm) else a
        for i, q in enumerate(a.quants):
            bound_here = {inner.var for inner in a.quants[i:]}
            assert not bound_here & (free_vars(q.lo) | free_vars(q.hi)), a
    res = C.check_schedule(load("blur"), parse_schedule(sched), SEEDS)
    assert res.passed, [f.to_json() for f in res.findings]


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_no_slot_repeats_a_value_line(algo, sched):
    # a reduction's pending invariant can restate its stage's postcondition
    # (conv1d, count and matmul schedules); a node states it once
    lp, ap = annotated(algo, sched)
    for n in nodes(lp.root):
        for slot in ("invariants", "requires", "ensures", "context"):
            lines = [(a.quants, a.body) for a in getattr(ap.at(n), slot) if isinstance(a, Ann) and not a.perm]
            assert len(lines) == len(set(lines)), (n.kind, slot)


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_no_user_mode_keeps_only_memory_annotations(algo, sched):
    lp, ap = annotated(algo, sched, include_user=False)
    for a in all_annotations(lp, ap):
        if isinstance(a, RegionPerm):
            continue
        assert a.perm or a.origin[0] == "bounds", a.origin


# ---------------------------------------------------------------------------
# Errors


def test_missing_reduction_invariant_is_an_error():
    src = (CORPUS / "count.hal").read_text()
    stripped = "\n".join(
        line for line in src.splitlines() if "count.invariant" not in line
    )
    p = parse_pipeline(stripped).resolve(SCALES["count"]).validated()
    lp = lower(p, parse_schedule("count.parallel(x);"))
    with pytest.raises(AnnotateError) as err:
        annotate(lp)
    assert err.value.code == "MissingReductionInvariant"
    # memory-safety mode needs no value invariants at all
    annotate(lp, include_user=False)


# ---------------------------------------------------------------------------
# Dynamic truth: every generated annotation holds on concrete runs


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_annotations_hold_on_concrete_runs(algo, sched):
    res = C.check_schedule(load(algo), schedule(algo, sched), SEEDS)
    assert res.passed, [f.to_json() for f in res.findings]


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_generated_permissions_alone_stay_clean(algo, sched):
    res = C.check_schedule(
        load(algo), schedule(algo, sched), SEEDS, include_user=False
    )
    assert res.findings == [], [f.to_json() for f in res.findings]


@pytest.mark.parametrize("factor", [2, 4, 8, 16])
def test_parallel_split_fractions_sum_to_a_whole(factor):
    p = load("count")
    d = parse_schedule(f"count.split(x, xo, xi, {factor}).parallel(xo);")
    res = C.check_schedule(p, d, SEEDS)
    assert res.passed, [f.to_json() for f in res.findings]
