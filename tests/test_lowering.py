"""Directive application, bounds inference, and loop-nest construction."""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisched.ir import BinOp, Const, MemTarget, ScheduleError, TableRead, Var, eval_const, free_vars, lt
from minisched.lowering import (
    Consume,
    If,
    Loop,
    NonAffineAccess,
    Produce,
    Store,
    StoreStmt,
    apply_directives,
    build_loop_nest,
    fold_divmod,
    form_range,
    infer_bounds,
    linearize,
    lower,
    poly_expr,
    print_loop_nest,
)
from minisched.parser import parse_pipeline, parse_schedule

HERE = os.path.dirname(__file__)


def load(name: str, overrides=None):
    with open(os.path.join(HERE, "..", "corpus", f"{name}.hal")) as fh:
        return parse_pipeline(fh.read()).validated(overrides)


def sched(text: str):
    return parse_schedule(text)


BLUR_SCHED = (
    "blur_y.split(y, yo, yi, 8).parallel(yo).split(x, xo, xi, 2).unroll(xi);\n"
    "blur_x.store_at(blur_y, yo).compute_at(blur_y, yi).split(x, xo, xi, 2).unroll(xi);\n"
)


def walk_nodes(n):
    yield n
    for c in getattr(n, "body", []):
        yield from walk_nodes(c)


def loops_of(lp):
    return [n for n in walk_nodes(lp.root) if isinstance(n, Loop)]


# -- linear forms ------------------------------------------------------------


def test_linearize_combines_and_cancels():
    e = BinOp("-", BinOp("*", BinOp("+", Var("x"), Const(1)), Const(4)), BinOp("*", Var("x"), Const(4)))
    assert linearize(e) == ({}, 4)


def test_linearize_rejects_products_of_variables():
    with pytest.raises(NonAffineAccess):
        linearize(BinOp("*", Var("x"), Var("y")))


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-9, 9), st.integers(-9, 9), st.integers(-50, 50))
def test_poly_round_trip_preserves_value(x, y, a, b, k):
    coeffs = {v: c for v, c in (("x", a), ("y", b)) if c != 0}
    e = poly_expr(coeffs, k, ["x", "y"])
    assert eval_const(e, {"x": x, "y": y}) == a * x + b * y + k
    back = linearize(e)
    assert back == (coeffs, k)


@given(st.integers(-500, 500), st.integers(1, 12), st.integers(1, 8))
def test_divmod_folding_is_exact(v, e, c):
    mod = BinOp("hmod", Var("v"), Const(e))
    div = BinOp("hdiv", Var("v"), Const(e))
    coeffs, const = fold_divmod({mod: c, div: c * e}, 3)
    assert coeffs == {"v": c} and const == 3
    assert eval_const(poly_expr(coeffs, const, ["v"]), {"v": v}) == c * v + 3


def test_divmod_folding_requires_matching_stride():
    mod = BinOp("hmod", Var("v"), Const(4))
    div = BinOp("hdiv", Var("v"), Const(4))
    coeffs, const = fold_divmod({mod: 1, div: 5}, 0)
    assert mod in coeffs and div in coeffs


# -- the range engine ---------------------------------------------------------
#
# A split of n by f: o in [0, ceil(n/f)), i in [0, f), tail guard o*f + i < n,
# plus a loop z whose range moves with o, as a producer's loop under a site.


def split_box(n: int, f: int, zlo: int = 0, zw: int = 0) -> dict:
    o = Var("o")
    return {
        "o": (Const(0), Const(-(-n // f) - 1)),
        "i": (Const(0), Const(f - 1)),
        "z": (o + zlo, o + (zlo + zw)),
    }


def tail(n: int, f: int):
    return lt(Var("o") * f + Var("i"), n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 4), st.integers(-3, 3), st.integers(0, 3),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.sampled_from(["none", "hdiv", "hmod"]), st.lists(st.integers(-2, 3), min_size=4, max_size=4),
    st.integers(1, 4), st.booleans(), st.sets(st.sampled_from("oiz")), st.integers(-2, 3),
)
def test_form_range_holds_at_every_guarded_point(n, f, zlo, zw, cs, atom, ac, e, guarded, keep, g):
    o, i, z = Var("o"), Var("i"), Var("z")
    form = (o * f + i) * g + o * cs[0] + i * cs[1] + z * cs[2] + cs[3]
    if atom != "none":
        form = form + BinOp(atom, o * ac[0] + i * ac[1] + z * ac[2] + ac[3], Const(e)) * cs[4]
    box = split_box(n, f, zlo, zw)
    guards = [tail(n, f)] if guarded else []
    (lc, lk), (hc, hk), cap = form_range(form, box, guards, set(keep))
    assert all((free_vars(t) if isinstance(t, BinOp) else {t}) <= keep for t in (*lc, *hc))
    for ov in range(-(-n // f)):
        for iv in range(f):
            if guarded and ov * f + iv >= n:
                continue
            for zv in range(ov + zlo, ov + zlo + zw + 1):
                env = {"o": ov, "i": iv, "z": zv}
                value = eval_const(form, env)
                assert eval_const(poly_expr(lc, lk, []), env) <= value
                assert value <= eval_const(poly_expr(hc, hk, []), env)
                assert cap is None or value <= cap


@given(st.integers(1, 30), st.integers(1, 6), st.integers(-5, 5), st.integers(1, 5), st.integers(1, 3))
def test_form_range_is_exact_on_a_tail_guard_form(n, f, k, e, m):
    # m times the guard's form plus a constant, as a split of the outer
    # half of an evenly divided split gives
    form = (Var("o") * f + Var("i")) * m + k
    box, guards = split_box(n, f), [tail(n, f)]
    assert form_range(form, box, guards, set()) == (({}, k), ({}, m * (n - 1) + k), None)
    # with the outer loop kept, the hi stays affine and the guard is the cap
    kept = form_range(form, box, guards, {"o"})
    assert kept == (({"o": m * f}, k), ({"o": m * f}, m * (f - 1) + k), m * (n - 1) + k)
    # the guard holds inside an hdiv atom that the box closes numerically
    lo, hi, _ = form_range(BinOp("hdiv", form, Const(e)), box, guards, set())
    assert (lo, hi) == (({}, k // e), ({}, (m * (n - 1) + k) // e))


def test_form_range_ignores_a_guard_that_reads_memory():
    data = lt(TableRead(MemTarget("buffer", "inp"), Var("i")), 3)
    assert form_range(Var("i"), split_box(4, 4), [data], set()) == (({}, 0), ({}, 3), None)


def test_a_loop_range_that_names_itself_is_a_typed_error():
    # mid's loop x ranges over [x, x + 1] in lift's own x: bounds for base
    # never close, and lowering says so instead of looping
    with pytest.raises(NonAffineAccess):
        lower(load("chain3", {"n": 9}), sched("mid.compute_at(lift, x); base.parallel(x);"))


def test_compute_at_producer_runs_inside_the_consumer_tail_guard():
    lp = lower(load("chain3", {"n": 9}), sched("lift.split(y, yo, yi, 4); mid.compute_at(lift, yi);"))
    guard = next(n for n in walk_nodes(lp.root) if isinstance(n, If) and n.owner == ("lift", 0))
    (store,) = guard.body
    assert isinstance(store, Store) and [type(n) for n in store.body] == [Produce, Consume]


# -- the reference blur schedule --------------------------------------------


def test_blur_reference_schedule_matches_golden():
    lp = lower(load("blur"), sched(BLUR_SCHED))
    with open(os.path.join(HERE, "golden", "blur_listing5_loopnest.txt")) as fh:
        assert print_loop_nest(lp) == fh.read()


def test_blur_intermediate_allocation_is_ten_rows():
    lp = lower(load("blur"), sched(BLUR_SCHED))
    a = lp.allocs["blur_x"]
    assert a.size == 10240
    assert a.strides == {"x": 1, "y": 1024}
    fp = lp.footprints["blur_x"]
    assert fp.store["y"].extent == 10
    assert fp.compute["y"].extent == 3
    assert fp.store["x"].extent == 1024


def test_blur_loop_kinds_and_extents():
    lp = lower(load("blur"), sched(BLUR_SCHED))
    dims = [(l.dim.display, l.dim.kind, l.dim.extent) for l in loops_of(lp) if l.owner[0] == "blur_y"]
    assert dims == [("y.yo", "parallel", 128), ("y.yi", "serial", 8), ("x.xo", "serial", 512), ("x.xi", "unrolled", 2)]


def test_blur_unrolled_body_is_held_once():
    # each unrolled loop keeps one body, its variable symbolic: the store
    # the annotator annotates is the one the checker runs
    lp = lower(load("blur"), sched(BLUR_SCHED))
    unrolled = [l for l in loops_of(lp) if l.dim.kind == "unrolled"]
    assert len(unrolled) == 2
    for l in unrolled:
        [store] = [n for n in walk_nodes(l) if isinstance(n, StoreStmt)]
        assert l.dim.var in free_vars(store.index)


def test_blur_store_wraps_produce_and_consume():
    lp = lower(load("blur"), sched(BLUR_SCHED))
    stores = [n for n in walk_nodes(lp.root) if isinstance(n, Store)]
    assert len(stores) == 1 and stores[0].func == "blur_x"
    inner_kinds = {type(n) for n in walk_nodes(stores[0]) if isinstance(n, (Produce, Consume))}
    assert inner_kinds == {Produce, Consume}


# -- whole-corpus shapes -----------------------------------------------------


def test_count_reduction_loop_sits_innermost():
    lp = lower(load("count"), [])
    ls = loops_of(lp)
    assert [l.dim.var for l in ls] == ["x", "x", "r"]
    assert ls[-1].owner == ("count", 1)


def test_matmul_reduction_order_runs_first_declared_innermost():
    lp = lower(load("matmul"), [])
    ls = [l.dim.var for l in loops_of(lp) if l.owner == ("prod", 1)]
    assert ls == ["j", "i", "rt", "rk"]


def test_reorder_applies_to_every_stage():
    lp = lower(load("matmul"), sched("prod.reorder(j, i);"))
    s0 = [l.dim.var for l in loops_of(lp) if l.owner == ("prod", 0)]
    s1 = [l.dim.var for l in loops_of(lp) if l.owner == ("prod", 1)]
    assert s0 == ["i", "j"]
    assert s1 == ["i", "j", "rt", "rk"]


def test_update_stage_drops_pinned_dimension():
    lp = lower(load("update2"), [])
    s1 = [l.dim.var for l in loops_of(lp) if l.owner == ("grid", 1)]
    assert s1 == ["x"]


def test_single_stage_producers_inline_by_default():
    lp = lower(load("chain3"), [])
    assert lp.scheduled.realized == ("lift",)
    assert lp.scheduled.funcs["base"].inline
    assert lp.scheduled.funcs["mid"].inline


def test_scheduling_a_producer_realizes_it():
    lp = lower(load("chain3"), sched("mid.split(x, xo, xi, 8);"))
    assert lp.scheduled.realized == ("mid", "lift")
    kinds = [type(n).__name__ for n in walk_nodes(lp.root) if not isinstance(n, (Loop, If, StoreStmt))]
    assert kinds[0] == "Chain"
    assert "Consume" in kinds


def test_fused_output_store_collapses_to_fused_variable():
    lp = lower(load("chain3"), sched("lift.fuse(x, y, xy).parallel(xy);"))
    (top,) = [l for l in loops_of(lp) if l.owner[0] == "lift"]
    assert top.dim.kind == "parallel" and top.dim.extent == 64 * 64
    (stmt,) = [n for n in walk_nodes(top) if isinstance(n, StoreStmt)]
    assert stmt.index == Var("xy")


def test_fuse_origin_is_row_major_bijection():
    sp = apply_directives(load("chain3"), sched("lift.fuse(x, y, xy);"))
    origin = sp.funcs["lift"].origin
    seen = set()
    for xy in range(64 * 64):
        point = (eval_const(origin["x"], {"xy": xy}), eval_const(origin["y"], {"xy": xy}))
        seen.add(point)
    assert len(seen) == 64 * 64
    assert eval_const(origin["x"], {"xy": 7}) == 7 and eval_const(origin["y"], {"xy": 7}) == 0
    assert eval_const(origin["x"], {"xy": 64}) == 0 and eval_const(origin["y"], {"xy": 64}) == 1


def test_non_divisible_split_guards_every_stage():
    lp = lower(load("conv1d"), sched("out.split(x, xo, xi, 7);"))
    ifs = [n for n in walk_nodes(lp.root) if isinstance(n, If)]
    assert {i.owner for i in ifs} == {("out", 0), ("out", 1)}
    for i in ifs:
        assert eval_const(i.cond, {"xo": 9, "xi": 6}) == 0  # 69 is past the edge
        assert eval_const(i.cond, {"xo": 9, "xi": 0}) == 1


def test_divisible_split_needs_no_guard():
    lp = lower(load("conv1d"), sched("out.split(x, xo, xi, 4);"))
    assert not [n for n in walk_nodes(lp.root) if isinstance(n, If)]


def test_compute_at_unsplit_consumer_renames_producer_loops():
    # Only names live at the placement site can capture; at blur_y's y loop
    # that is y alone, so the producer's y is renamed and its x is not.
    lp = lower(load("blur"), sched("blur_x.compute_at(blur_y, y);"))
    assert [l.dim.var for l in loops_of(lp) if l.owner[0] == "blur_x"] == ["y_", "x"]
    blur_x = lp.scheduled.funcs["blur_x"]
    assert [a.var for a in blur_x.axes] == ["y_", "x"] and blur_x.origin["y"] == Var("y_")
    # the three-row buffer indexes relative to the outer position
    (stmt,) = [n for n in walk_nodes(lp.root) if isinstance(n, StoreStmt) and n.func == "blur_x"]
    assert eval_const(stmt.index, {"y_": 5, "y": 3, "x": 2}) == 2 + 2 * 1024
    assert lp.allocs["blur_x"].size == 3 * 1024


def test_guard_skipped_for_stage_without_the_variable():
    # Splitting x on update2 guards both stages, but splitting the pinned
    # dimension would only ever guard the pure stage.
    lp = lower(load("update2"), sched("grid.split(y, yo, yi, 3);"))
    ifs = [n for n in walk_nodes(lp.root) if isinstance(n, If)]
    assert {i.owner for i in ifs} == {("grid", 0)}


# -- directive errors --------------------------------------------------------


def err(code: str, pipeline: str, schedule: str, overrides=None):
    with pytest.raises(ScheduleError) as exc:
        lower(load(pipeline, overrides), sched(schedule))
    assert exc.value.code == code, exc.value


def test_split_factor_must_be_positive():
    err("SplitNonPositiveFactor", "blur", "blur_y.split(x, xo, xi, 0);")


def test_split_names_must_be_fresh():
    err("DuplicateDim", "blur", "blur_y.split(x, y, xi, 4);")
    err("DuplicateDim", "blur", "blur_y.split(x, t, t, 4);")
    # a reduction variable names a loop of its func too
    err("DuplicateDim", "conv1d", "out.split(x, r, xi, 4);")
    err("DuplicateDim", "matmul", "prod.fuse(i, j, rk);")


def test_unknown_loop_name():
    err("UnknownDim", "blur", "blur_y.split(z, zo, zi, 4);")
    err("UnknownDim", "blur", "blur_y.parallel(q);")


def test_unknown_function_name():
    err("UnknownFunc", "blur", "mystery.parallel(x);")
    err("UnknownFunc", "blur", "blur_x.compute_at(mystery, x);")


def test_reorder_must_mention_every_loop():
    err("UnknownDim", "blur", "blur_y.reorder(x);")


def test_fuse_requires_adjacent_loops():
    # y is outside x, so fusing (y, x) asks for the pair the wrong way round.
    err("FuseNotAdjacent", "blur", "blur_y.fuse(y, x, t);")


def test_fuse_requires_matching_kinds():
    err("FuseKindMismatch", "blur", "blur_y.parallel(x); blur_y.fuse(x, y, t);")


def test_fuse_must_cover_update_stages():
    err("FuseAcrossUpdate", "update2", "grid.fuse(x, y, t);")


def test_reorder_refuses_serial_into_parallel_with_updates():
    err("ReorderUnsafe", "matmul", "prod.parallel(i); prod.reorder(j, i);")


def test_reorder_without_updates_is_free():
    lp = lower(load("blur"), sched("blur_y.parallel(x); blur_y.reorder(y, x);"))
    assert [l.dim.var for l in loops_of(lp) if l.owner[0] == "blur_y"] == ["x", "y"]


def test_unroll_bounded():
    err("UnrollTooLarge", "blur", "blur_y.unroll(x);")


def test_store_requires_compute():
    err("StoreWithoutCompute", "blur", "blur_x.store_at(blur_y, y);")


def test_store_may_not_sit_inside_compute():
    err(
        "StoreBelowCompute",
        "blur",
        "blur_y.split(y, yo, yi, 8); blur_x.compute_at(blur_y, yo).store_at(blur_y, yi);",
    )


def test_store_must_target_the_compute_consumer():
    err("StorePlacementUnsupported", "chain3", "mid.compute_at(lift, y).store_at(base, x);")


def test_placement_inside_inlined_consumer_rejected():
    err("PlacementInInlined", "chain3", "base.compute_at(mid, x);")


def test_output_cannot_be_placed():
    err("PlacementCycle", "blur", "blur_y.compute_at(blur_x, x);")


def test_self_placement_rejected():
    err("PlacementCycle", "blur", "blur_x.compute_at(blur_x, x);")


def test_placement_needs_a_consumer_relationship():
    src = """
pipeline two(inp) -> out {
  param n = 8;
  buffer inp(x in [0, n));
  func f(x in [0, n)) { f(x) = inp(x) + 1; }
  func g(x in [0, n)) { g(x) = f(x) * 2; }
  func out(x in [0, n)) { out(x) = g(x); }
}
"""
    p = parse_pipeline(src).validated()
    with pytest.raises(ScheduleError) as exc:
        lower(p, sched("g.split(x, a, b, 4); f.compute_at(out, x);"))
    assert exc.value.code == "PlacementNotConsumer"


def test_compute_at_fused_loop_uses_point_footprints():
    # Placing a producer under a fused loop leaves division atoms in the
    # footprint; the allocation shrinks to the stencil width.
    lp = lower(load("chain3"), sched("lift.fuse(x, y, xy); mid.compute_at(lift, xy);"))
    assert lp.allocs["mid"].size == 2
    stmts = [n for n in walk_nodes(lp.root) if isinstance(n, StoreStmt) and n.func == "mid"]
    (stmt,) = stmts
    for xy in (0, 7, 63, 64, 4095):
        for x_off in (0, 1):
            env = {"xy": xy, "x": (xy % 64) + x_off, "y": xy // 64}
            assert eval_const(stmt.index, env) == x_off


def test_truly_non_affine_access_is_rejected():
    src = """
pipeline sq(inp) -> out {
  param n = 8;
  buffer inp(x in [0, 64));
  func out(x in [0, n)) { out(x) = inp(x * x); }
}
"""
    p = parse_pipeline(src).validated()
    with pytest.raises(NonAffineAccess):
        lower(p, [])


def test_nest_with_a_free_variable_is_rejected():
    # out(x) reads its value at a point named by a variable no loop binds
    src = """
pipeline t(inp) -> out {
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) { out(x) = inp(x); }
}
"""
    sp = apply_directives(parse_pipeline(src).validated(), [])
    fps = infer_bounds(sp)
    sp.funcs["out"] = dataclasses.replace(sp.funcs["out"], origin={"x": Var("ghost")})
    with pytest.raises(ScheduleError) as exc:
        build_loop_nest(sp, fps)
    assert exc.value.code == "UnboundVariable"
    assert "'ghost'" in str(exc.value)
