"""Execution semantics: reference evaluator, instrumented runner, detectors.

Every algorithm's reference result is compared against an oracle written
directly from its definition with plain numpy, independent of the package's
own expression evaluator.  The differential sweep then pins the lowered
interpreter to the reference across the whole schedule corpus.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minisched import PipelineError
from minisched import checker as C
from minisched.annotate import Ann, RegionPerm, annotate
from minisched.ir import (
    BinOp,
    BufAccess,
    Const,
    Frac,
    FuncAccess,
    MinOf,
    PermAtom,
    Quantifier,
    ScheduleError,
    Select,
    TableRead,
    Var,
    and_,
    compiled,
    domain_grid,
    le,
    lt,
    narrow,
    rewrite,
    substitute,
    walk,
)
from minisched.lowering import (
    Chain,
    Consume,
    If,
    Loop,
    NonAffineAccess,
    Produce,
    StoreStmt,
    _stage_loop_dims,
    flat_alloc,
    flatten_storage,
    lower,
)
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


def load(algo: str):
    src = (CORPUS / f"{algo}.hal").read_text()
    return parse_pipeline(src).resolve(SCALES[algo]).validated()


def schedule(algo: str, name: str):
    return parse_schedule((CORPUS / "schedules" / algo / f"{name}.sched").read_text())


def nodes(root):
    yield root
    for child in getattr(root, "body", []):
        yield from nodes(child)


SEEDS = [0, 1, 2]


# ---------------------------------------------------------------------------
# Reference semantics against independent oracles


def test_reference_blur_matches_box_filter():
    p = load("blur")
    inputs = C.make_inputs(p, SEEDS)
    ref = C.eval_reference(p, inputs)
    img = inputs["inp"].reshape(3, 66, 66)  # [lane, y, x]
    bx = (img[:, :, 0:64] + img[:, :, 1:65] + img[:, :, 2:66]) // 3
    by = (bx[:, 0:64, :] + bx[:, 1:65, :] + bx[:, 2:66, :]) // 3
    assert (ref["blur_y"].reshape(3, 64, 64) == by).all()
    assert (ref["blur_x"].reshape(3, 66, 64) == bx).all()


def test_reference_count_matches_positive_tally():
    p = load("count")
    inputs = C.make_inputs(p, SEEDS)
    ref = C.eval_reference(p, inputs)
    grid = inputs["inp"].reshape(3, 10, 16)  # [lane, y, x]
    assert (ref["count"] == (grid > 0).sum(axis=1)).all()


def test_reference_matmul_matches_einsum():
    p = load("matmul")
    inputs = C.make_inputs(p, SEEDS)
    ref = C.eval_reference(p, inputs)
    a = inputs["a"].reshape(3, 8, 8)  # [lane, k, i]
    b = inputs["b"].reshape(3, 8, 8)  # [lane, j, k]
    want = np.einsum("lki,ljk->lji", a, b)
    assert (ref["prod"].reshape(3, 8, 8) == want).all()


def test_reference_conv1d_matches_dot():
    p = load("conv1d")
    inputs = C.make_inputs(p, SEEDS)
    ref = C.eval_reference(p, inputs)
    sig, w = inputs["sig"], inputs["w"]
    want = sum(w[:, r : r + 1] * sig[:, r : r + 64] for r in range(3))
    assert (ref["out"] == want).all()


def test_reference_chain3_matches_closed_form():
    p = load("chain3")
    inputs = C.make_inputs(p, SEEDS)
    ref = C.eval_reference(p, inputs)
    src = inputs["src"].reshape(3, 64, 65)  # [lane, y, x]
    x = np.arange(64)
    want = (src[:, :, 0:64] * 2 + 1 + x) + (src[:, :, 1:65] * 2 + 1 + x + 1) - src[:, :, 0:64]
    assert (ref["lift"].reshape(3, 64, 64) == want).all()


def test_reference_update2_matches_two_phase_fill():
    p = load("update2")
    inputs = C.make_inputs(p, SEEDS)
    ref = C.eval_reference(p, inputs)
    src = inputs["src"].reshape(3, 8, 32)  # [lane, y, x]
    want = src + np.arange(8)[None, :, None]
    want[:, 0, :] = src[:, 0, :] + src[:, 3, :] + 3
    assert (ref["grid"].reshape(3, 8, 32) == want).all()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_reference_count_oracle_any_seed(seed):
    p = load("count")
    inputs = C.make_inputs(p, [seed])
    ref = C.eval_reference(p, inputs)
    grid = inputs["inp"].reshape(1, 10, 16)
    assert (ref["count"] == (grid > 0).sum(axis=1)).all()


# ---------------------------------------------------------------------------
# Inputs


def test_inputs_deterministic_and_in_range():
    p = load("conv1d")
    a = C.make_inputs(p, [7, 8])
    b = C.make_inputs(p, [7, 8])
    assert (a["sig"] == b["sig"]).all() and (a["w"] == b["w"]).all()
    assert a["sig"].min() >= -100 and a["sig"].max() <= 100
    assert a["sig"].shape == (2, 66) and a["w"].shape == (2, 3)
    assert not (a["sig"][0] == a["sig"][1]).all()


def test_inputs_satisfy_buffer_preconditions():
    p = load("matmul")
    inputs = C.make_inputs(p, SEEDS)
    C.assert_buffer_requires(p, inputs)
    bad = {k: v.copy() for k, v in inputs.items()}
    bad["a"][0, 0] = 101
    with pytest.raises(ValueError, match="precondition"):
        C.assert_buffer_requires(p, bad)


# ---------------------------------------------------------------------------
# Differential: lowered execution equals reference, no findings

ALL_SCHEDULES = sorted(
    (d.name, f.stem)
    for d in (CORPUS / "schedules").iterdir()
    for f in d.glob("*.sched")
)


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_lowered_matches_reference(algo, sched):
    res = C.check_lowered(load(algo), schedule(algo, sched), SEEDS)
    assert res.passed, [f.to_json() for f in res.findings]


@pytest.mark.parametrize(
    "n,factor,tail",
    [(6, 4, ""), (8, 3, ""), (8, 4, ".parallel(o2)")],
)
def test_split_of_a_fused_axis_keeps_its_loops(n, factor, tail):
    # Both split halves cover the fused dimensions, so the nest binds them:
    # the run matches the reference.  The hdiv atom of the fused axis mixes
    # the two halves; widening closes it over both loops' ranges, so the
    # generated annotations hold too.
    src = (CORPUS / "matmul.hal").read_text()
    p = parse_pipeline(src).resolve({"n": n}).validated()
    d = parse_schedule(f"prod.fuse(i, j, fz1).split(fz1, o2, i2, {factor}){tail};")
    res = C.check_lowered(p, d, SEEDS)
    assert res.passed, [f.to_json() for f in res.findings]
    assert res.points == n * n * 9  # one init and eight reduction steps per cell
    for include_user in (True, False):
        res = C.check_schedule(p, d, SEEDS, include_user=include_user)
        assert res.passed, [f.to_json() for f in res.findings]


@pytest.mark.parametrize(
    "sched",
    [
        "blur_x.compute_at(blur_y, y); blur_y.split(y, o3, i3, 2);",
        "blur_x.compute_at(blur_y, x); blur_x.store_at(blur_y, y); blur_y.split(y, o3, i3, 2);",
    ],
)
def test_placement_at_a_loop_a_later_directive_removes_is_a_typed_error(sched):
    # the split replaces blur_y's loop y, where blur_x is computed or stored
    p = parse_pipeline((CORPUS / "blur.hal").read_text()).resolve({"x": 10, "y": 7}).validated()
    d = parse_schedule(sched)
    runs = [lambda: C.check_lowered(p, d, SEEDS)]
    runs += [lambda u=u: C.check_schedule(p, d, SEEDS, include_user=u) for u in (True, False)]
    for run in runs:
        with pytest.raises(ScheduleError, match="loop 'y' of 'blur_y'") as exc:
            run()
        assert exc.value.code == "UnknownDim"


def test_run_reports_statement_count():
    p = load("count")
    res = C.check_lowered(p, schedule("count", "root"), SEEDS)
    # 16 init stores plus 16 columns times 10 accumulation steps
    assert res.points == 16 + 160
    assert res.millis > 0


# ---------------------------------------------------------------------------
# Detectors, exercised through direct surgery on the lowered tree


def count_lowered():
    p = load("count")
    return p, lower(p, parse_schedule("count.parallel(x);"))


def test_detects_raced_parallel_write():
    p, lp = count_lowered()
    for n in nodes(lp.root):
        if isinstance(n, StoreStmt):
            n.index = Const(0)
    res = C.run_lowered(lp, C.make_inputs(p, SEEDS))
    assert any(f.kind == "race" for f in res.findings)
    race = next(f for f in res.findings if f.kind == "race")
    assert "parallel loop 'x'" in race.message


def test_detects_out_of_bounds_store():
    p, lp = count_lowered()
    for n in nodes(lp.root):
        if isinstance(n, StoreStmt):
            n.index = BinOp("+", n.index, Const(16))
    res = C.run_lowered(lp, C.make_inputs(p, SEEDS))
    assert any(f.kind == "out_of_bounds" for f in res.findings)


def test_detects_uninitialized_read():
    p, lp = count_lowered()
    for n in nodes(lp.root):
        if hasattr(n, "body"):
            n.body = [c for c in n.body if not (isinstance(c, StoreStmt) and c.stage == 0)]
    res = C.run_lowered(lp, C.make_inputs(p, SEEDS))
    assert any(f.kind == "uninitialized_read" for f in res.findings)


def test_detects_32bit_overflow():
    p, lp = count_lowered()
    for n in nodes(lp.root):
        if isinstance(n, StoreStmt) and n.stage == 1:
            n.value = BinOp("*", n.value, Const(2**31 - 1))
    res = C.run_lowered(lp, C.make_inputs(p, SEEDS))
    assert any(f.kind == "overflow" for f in res.findings)


def test_detects_unwritten_output_cells():
    p, lp = count_lowered()
    for n in nodes(lp.root):
        if hasattr(n, "body") and any(isinstance(c, StoreStmt) for c in n.body):
            n.body = []
    res = C.run_lowered(lp, C.make_inputs(p, SEEDS))
    assert any(f.kind == "mismatch" and "never written" in f.message for f in res.findings)


def test_mutated_value_mismatches_reference():
    p = load("conv1d")
    lp = lower(p, parse_schedule("out.split(x, xo, xi, 8);"))
    for n in nodes(lp.root):
        if isinstance(n, StoreStmt) and n.stage == 1:
            n.value = BinOp("+", n.value, Const(1))
    inputs = C.make_inputs(p, SEEDS)
    res = C.run_lowered(lp, inputs)
    res.findings.extend(C.compare_to_reference(lp, res, C.eval_reference(p, inputs)))
    assert any(f.kind == "mismatch" for f in res.findings)


def pipeline(body: str):
    src = f"""pipeline t(inp) -> out {{
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {{
    out(x) = {body};
  }}
}}"""
    return parse_pipeline(src).validated()


@pytest.mark.parametrize(
    "body",
    [
        "x * 2147483647 * 2147483647 * 2147483647",
        "inp(x) + x * 2147483647 * 2147483647 * 2147483647",
    ],
)
def test_loop_variable_arithmetic_beyond_int64_is_an_overflow_finding(body):
    # no constant leaves 32 bits, so validation passes; the walk's exact
    # loop-variable arithmetic leaves int64 at x = 1
    p = pipeline(body)
    results = [C.check_lowered(p, [], SEEDS)] + [
        C.check_schedule(p, [], SEEDS, include_user=u) for u in (True, False)
    ]
    for res in results:
        assert [(f.kind, f.lanes) for f in res.findings] == [("overflow", None)]


def test_input_independent_overflow_fails_every_seed():
    p = pipeline("2147483647 + x")
    results = [C.check_lowered(p, [], SEEDS)] + [
        C.check_schedule(p, [], SEEDS, include_user=u) for u in (True, False)
    ]
    for res in results:
        over = [f for f in res.findings if f.kind == "overflow"]
        assert len(over) == 1 and over[0].lanes is None
        reps = C.to_reports("t", "root", SEEDS, res)
        assert [r["verdict"] for r in reps] == ["fail"] * len(SEEDS)


@pytest.mark.parametrize(
    "body", ["inp(x) + 9223372036854775807 * 4", "inp(x) + 2147483647 * 2147483647 * 4"]
)
def test_constant_beyond_32_bits_is_rejected_when_validated(body):
    # the parser folds the constant, so its overflow is known before any
    # input exists: neither check_lowered nor check_schedule is reached
    with pytest.raises(PipelineError) as err:
        pipeline(body)
    assert [d.code for d in err.value.diagnostics] == ["ConstantOverflow"]


# ---------------------------------------------------------------------------
# Batched loops: every detector, and the corpus, against the walk alone


def declined(monkeypatch, run):
    """``run()`` once as is and once with every batch declined."""
    batched = run()
    with monkeypatch.context() as m:
        m.setattr(C, "batch_plan", lambda loop: None)
        walked = run()
    assert walked.batched_loops == walked.replayed_loops == 0
    # the walk checks every invariant whole
    assert walked.evaluated == walked.instantiations
    return batched, walked


def assert_same_run(a: C.RunResult, b: C.RunResult):
    assert [f.to_json() for f in a.findings] == [f.to_json() for f in b.findings]
    assert (a.points, a.instantiations) == (b.points, b.instantiations)
    assert a.mem.keys() == b.mem.keys()
    for name in a.mem:
        assert np.array_equal(a.mem[name], b.mem[name]), name


def chain3_run(sched: str, surgery):
    """Run chain3 n=8 lowered under ``sched`` after ``surgery(lp)``."""
    p = parse_pipeline((CORPUS / "chain3.hal").read_text()).resolve({"n": 8}).validated()

    def run():
        lp = lower(p, parse_schedule(sched))
        surgery(lp)
        return C.run_lowered(lp, C.make_inputs(p, SEEDS))

    return run


FUSED = "lift.fuse(x, y, xy).parallel(xy);"
STAGED = "mid.split(x, xo, xi, 8); lift.parallel(y);"


def stores(root, func):
    return [n for n in nodes(root) if isinstance(n, StoreStmt) and n.func == func]


def test_batched_race_on_constant_store_index(monkeypatch):
    def surgery(lp):
        for n in stores(lp.root, "lift"):
            n.index = Const(0)

    batched, walked = declined(monkeypatch, chain3_run(FUSED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops == 1
    assert any(f.kind == "race" and "parallel loop 'xy'" in f.message for f in batched.findings)


def test_batched_race_across_the_enclosing_parallel_loop(monkeypatch):
    def surgery(lp):
        # every iteration of the parallel y loop writes the same row
        for n in stores(lp.root, "lift"):
            n.index = Var("x")

    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    assert batched.batched_loops > 0 and batched.replayed_loops > 0
    assert any(f.kind == "race" and "parallel loop 'y'" in f.message for f in batched.findings)


def test_batched_out_of_bounds_store(monkeypatch):
    def surgery(lp):
        for n in stores(lp.root, "lift"):
            n.index = BinOp("+", n.index, Const(60))

    batched, walked = declined(monkeypatch, chain3_run(FUSED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops == 1
    assert any(f.kind == "out_of_bounds" for f in batched.findings)


def shifted_mid_read(lp):
    """lift reads mid one whole allocation past the cell it should."""
    size = lp.allocs["mid"].size
    for n in stores(lp.root, "lift"):
        read = next(e for e in walk(n.value) if isinstance(e, TableRead) and e.target.name == "mid")
        n.value = rewrite(
            n.value, lambda e: TableRead(e.target, BinOp("+", e.index, Const(size))) if e == read else None
        )


def ungranted_mid(lp):
    """mid's producer runs outside its Produce."""
    lp.root.body[0] = Chain(lp.root.body[0].body)


def test_batched_out_of_bounds_read(monkeypatch):
    batched, walked = declined(monkeypatch, chain3_run(STAGED, shifted_mid_read))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert {f.kind for f in batched.findings} == {"out_of_bounds"}
    assert all(f.message.startswith("read of mid[") for f in batched.findings)


@pytest.mark.parametrize("grant", [Chain, lambda body: Consume("mid", body)], ids=["none", "read"])
def test_batched_uncovered_write(monkeypatch, grant):
    def surgery(lp):
        # mid's producer runs outside its Produce: with no permission of
        # mid, or with the read permission of a Consume only
        produce = lp.root.body[0]
        assert isinstance(produce, Produce) and produce.func == "mid"
        lp.root.body[0] = grant(produce.body)

    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert {f.kind for f in batched.findings} == {"uncovered_access"}
    assert all(f.message.startswith("write to mid[") for f in batched.findings)


@pytest.mark.parametrize(
    "surgery,finding",
    [
        (shifted_mid_read, ("out_of_bounds", "read of mid[73] outside its 72-cell allocation", "lift.stage0")),
        (ungranted_mid, ("uncovered_access", "write to mid[0] outside any held permission scope", "mid.stage0")),
    ],
    ids=["out_of_bounds", "uncovered_access"],
)
def test_access_fault_is_reported_once_per_statement(monkeypatch, surgery, finding):
    # every read of lift's, and every write of mid's, hits the same fault;
    # the first offset is the witness
    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    kind, message, site = finding
    assert [f.to_json() for f in batched.findings] == [{"kind": kind, "message": message, "site": site}]


def test_batched_uninitialized_read(monkeypatch):
    def surgery(lp):
        for n in nodes(lp.root):
            if isinstance(n, Produce) and n.func == "mid":
                n.body = []
        for n in stores(lp.root, "lift"):
            # a poisoned cell times zero stays in range, so only the init
            # bitmap sees the read
            read = next(e for e in walk(n.value) if isinstance(e, TableRead) and e.target.name == "mid")
            n.value = BinOp("*", read, Const(0))

    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert {f.kind for f in batched.findings} == {"uninitialized_read"}


def test_uninitialized_read_is_reported_once(monkeypatch):
    def surgery(lp):
        for n in nodes(lp.root):
            if isinstance(n, Produce) and n.func == "mid":
                n.body = []

    # the read goes on with zeros, so the poison fill is not reported a
    # second time as an overflow
    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    assert [f.kind for f in batched.findings] == ["uninitialized_read"] * 72


def test_batched_overflow(monkeypatch):
    def surgery(lp):
        for n in stores(lp.root, "lift"):
            n.value = BinOp("*", n.value, Const(2**31 - 1))

    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    over = [f for f in batched.findings if f.kind == "overflow"]
    assert len(over) == 1 and over[0].lanes is not None


def test_batched_uncovered_access(monkeypatch):
    def surgery(lp):
        # run the consumer without the read permission its Consume grants
        chain = lp.root
        assert isinstance(chain.body[1], Consume)
        chain.body[1] = chain.body[1].body[0]

    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert any(f.kind == "uncovered_access" for f in batched.findings)


# Odd sizes, so split tails and guards show up in the batches.
SMALL = {
    "blur": {"x": 10, "y": 7},
    "count": {"w": 7},
    "matmul": {"n": 5},
    "conv1d": {"n": 13},
    "chain3": {"n": 9},
    "update2": {"n": 11},
}


def mode_runs(p, d) -> list:
    """The three checks of a schedule: plain, functional, memory safety."""
    return [lambda: C.check_lowered(p, d, [0, 1])] + [
        lambda u=u: C.check_schedule(p, d, [0, 1], include_user=u) for u in (True, False)
    ]


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_batches_equal_the_walk_on_the_corpus(monkeypatch, algo, sched):
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(SMALL[algo]).validated()
    d = schedule(algo, sched)
    for run in mode_runs(p, d):
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        # the tails of odd sizes run nothing, so every run is clean and
        # commits every batch it tries
        assert batched.passed, [f.to_json() for f in batched.findings]
        assert batched.replayed_loops == 0


SHIFT = """
pipeline shift(inp) -> out {
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) { out(x) = inp(x + 1); }
}
"""


# One stage reads an entity at x and at 2 * x.  With x fixed by a loop, the
# hull of the two reads has no constant extent, so no read box covers them.
TWO_SHAPES = {
    "buffer": (
        """
pipeline twice(inp) -> out {
  buffer inp(x in [0, 16));
  func out(x in [0, 8)) { out(x) = inp(x) + inp(2 * x); }
}
""",
        "out.parallel(x);",
    ),
    "root-func": (
        """
pipeline twice(inp) -> out {
  buffer inp(x in [0, 16));
  func g(x in [0, 16)) { g(x) = inp(x) + 1; }
  func out(x in [0, 8)) { out(x) = g(x) + g(2 * x); }
}
""",
        "g.parallel(x);",
    ),
}


# A store index or a guard that reads an input: the nest's control flow and
# indices name loop variables only, so lowering rejects each with its code.
DATA_DEPENDENT = {
    "histogram-index": (
        """
pipeline hist(inp) -> g {
  buffer inp(x in [0, 8));
  func g(x in [0, 8)) {
    g(x) = 0;
    g(hmod(inp(r), 8)) = g(hmod(inp(r), 8)) + 1 over (r in [0, 8));
    g.invariant(r, 0 <= r);
  }
}
""",
        "NonAffineAccess",
    ),
    "guard": (
        """
pipeline guarded(inp) -> g {
  buffer inp(x in [0, 8));
  func g(x in [0, 8)) {
    g(x) = 0;
    g(x) = g(x) + 1 if inp(x) > 0;
  }
}
""",
        "DataDependentGuard",
    ),
}


# Reductions on both sides of the scan rule (``checker.Scan``): an update
# that doubles its own cell keeps stepping, and a scatter's reduction loop
# names the cell it writes, so its iterations run side by side.  The
# scatter's invariant is guarded, as its one-past-the-end boundary would
# read h(4).
REDUCTIONS = {
    "doubling": """
pipeline doubling(inp) -> h {
  buffer inp(x in [0, 6), y in [0, 4));
  func h(x in [0, 6)) {
    h(x) = 0;
    h(x) = h(x) * 2 + inp(x, r) over (r in [0, 4));
    h.invariant(r, -100000 <= h(x) <= 100000);
  }
}
""",
    "scatter": """
pipeline scatter(inp) -> h {
  buffer inp(x in [0, 4));
  func h(x in [0, 4)) {
    h(x) = inp(x);
    h(r) = h(r) + 1 over (r in [0, 4));
    h.invariant(r, r < 4 ==> -1000 <= h(r) <= 1000);
    h.ensures(-1000 <= h(r) <= 1000);
  }
}
""",
}


# the corpus, and the pipelines every mode rejects alike, whatever the chain
FUZZED = {
    **{
        algo: parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(sizes).validated()
        for algo, sizes in SMALL.items()
    },
    **{f"two-shapes/{case}": parse_pipeline(src).validated() for case, (src, _) in TWO_SHAPES.items()},
    **{f"data-dependent/{case}": parse_pipeline(src).validated() for case, (src, _) in DATA_DEPENDENT.items()},
    **{f"reduction/{case}": parse_pipeline(src).validated() for case, src in REDUCTIONS.items()},
}
DIRECTIVES = ("split", "fuse", "reorder", "parallel", "unroll", "compute_at", "store_at")


@st.composite
def directive_chains(draw):
    """A pipeline of ``FUZZED`` and a chain of 1-4 directives on it, as
    schedule text.  Each directive names loops its func has at that point
    of the chain, so most chains lower; the rest are typed rejections."""
    algo = draw(st.sampled_from(sorted(FUZZED)))
    # each func's loops, outermost first
    loops = {f.name: [d for d, _ in reversed(f.dims)] for f in FUZZED[algo].funcs}
    lines = []
    for k in range(1, draw(st.integers(1, 4)) + 1):
        func = draw(st.sampled_from(sorted(loops)))
        mine, others = loops[func], sorted(set(loops) - {func})
        # a fuse needs two loops, a placement another func
        kinds = [d for d in DIRECTIVES if (d != "fuse" or len(mine) > 1) and (others or not d.endswith("_at"))]
        kind = draw(st.sampled_from(kinds))
        if kind == "split":
            i = draw(st.integers(0, len(mine) - 1))
            args = (mine[i], f"o{k}", f"i{k}", draw(st.integers(2, 5)))
            mine[i : i + 1] = [f"o{k}", f"i{k}"]
        elif kind == "fuse":
            i = draw(st.integers(1, len(mine) - 1))
            args = (mine[i], mine[i - 1], f"fz{k}")  # inner, then the loop just outside it
            mine[i - 1 : i + 1] = [f"fz{k}"]
        elif kind == "reorder":
            args = tuple(draw(st.permutations(mine)))  # innermost first
            mine[:] = reversed(args)
        elif kind in ("parallel", "unroll"):
            args = (draw(st.sampled_from(mine)),)
        else:
            consumer = draw(st.sampled_from(others))
            args = (consumer, draw(st.sampled_from(loops[consumer])))
        lines.append(f"{func}.{kind}({', '.join(map(str, args))});")
    return algo, " ".join(lines)


def outcome(run):
    """``run()``, or the typed error it raises."""
    try:
        return run()
    except PipelineError as err:
        return err


def rejected_alike_or_clean(p, d) -> list:
    """The outcome of each mode, once checked that every mode raises the
    same typed error, or that every mode checks clean and its batched run
    equals its walked one."""
    runs = mode_runs(p, d)
    results = [outcome(run) for run in runs]
    errors = {(type(r), str(r)) for r in results if isinstance(r, PipelineError)}
    if errors:
        # every mode raises the same typed error
        assert len(errors) == 1 and all(isinstance(r, PipelineError) for r in results), results
        return results
    with pytest.MonkeyPatch.context() as m:
        m.setattr(C, "batch_plan", lambda loop: None)
        walked = [run() for run in runs]
    for batched, alone in zip(results, walked):
        assert batched.passed, [f.to_json() for f in batched.findings]
        assert_same_run(batched, alone)
    return results


@settings(derandomize=True, max_examples=72, deadline=None)
@given(directive_chains())
# base placed at mid's y, which mid's own placement inside lift's y renames
@example(("chain3", "base.compute_at(mid, y); mid.compute_at(lift, y);"))
@example(("chain3", "mid.store_at(lift, y); mid.compute_at(lift, y); base.compute_at(mid, y);"))
def test_fuzzed_schedules_are_rejected_alike_or_check_clean(case):
    algo, text = case
    rejected_alike_or_clean(FUZZED[algo], parse_schedule(text))
    assert_annotations_on_the_nest(FUZZED[algo], parse_schedule(text))


@pytest.mark.parametrize("case", TWO_SHAPES)
def test_reads_in_two_shapes_are_rejected_in_every_mode(case):
    src, text = TWO_SHAPES[case]
    results = rejected_alike_or_clean(parse_pipeline(src).validated(), parse_schedule(text))
    assert all(isinstance(r, NonAffineAccess) for r in results), results


@pytest.mark.parametrize("case", DATA_DEPENDENT)
def test_data_dependent_index_or_guard_is_rejected_in_every_mode(case):
    src, code = DATA_DEPENDENT[case]
    results = rejected_alike_or_clean(parse_pipeline(src).validated(), [])
    assert all(isinstance(r, PipelineError) and r.code == code for r in results), results


def test_annotation_index_that_reads_an_input_is_rejected_where_annotations_are_checked(monkeypatch):
    # only the functional mode annotates the user's postcondition
    p = parse_pipeline(
        """
pipeline t(inp) -> out {
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {
    out(x) = inp(x);
    out.ensures(-100 <= inp(hmod(inp(x), 8)) && inp(hmod(inp(x), 8)) <= 100);
  }
}
"""
    ).validated()
    plain, functional, memsafe = mode_runs(p, [])
    with pytest.raises(NonAffineAccess, match="reads inp"):
        functional()
    with pytest.raises(NonAffineAccess):
        annotate(lower(p, []), include_user=True)
    for run in (plain, memsafe):
        batched, walked = declined(monkeypatch, run)
        assert batched.passed, [f.to_json() for f in batched.findings]
        assert_same_run(batched, walked)


# acc's reduction variable r meets out's outer loop, which the split names r
ACC = """
pipeline acc(inp) -> out {
  buffer inp(x in [0, 10));
  inp.requires(-100 <= inp(x) <= 100);

  func acc(x in [0, 8)) {
    acc(x) = 0;
    acc.ensures(acc(x) == 0);
    acc(x) = acc(x) + inp(x + r) over (r in [0, 3));
    acc.invariant(r, -100 * r <= acc(x) <= 100 * r);
    acc.ensures(-300 <= acc(x) <= 300);
  }

  func out(x in [0, 8)) {
    out(x) = acc(x) * 2;
    out.ensures(-600 <= out(x) <= 600);
  }
}
"""


def test_reduction_variable_renamed_inside_its_site():
    p, d = parse_pipeline(ACC).validated(), parse_schedule("out.split(x, r, xi, 2); acc.compute_at(out, r);")
    lp = lower(p, d)
    assert [n.dim.var for n in nodes(lp.root) if isinstance(n, Loop) and n.owner == ("acc", 1)] == ["x", "r_"]
    ap = annotate(lp)
    origins = {
        a.origin
        for n in nodes(lp.root)
        for a in ap.at(n).invariants
        if isinstance(a, Ann) and a.origin[0] in ("rinv", "pendI")
    }
    assert origins == {("rinv", "acc", 1, "r_"), ("pendI", "acc", 1, "r_")}
    assert all(r.passed for r in rejected_alike_or_clean(p, d))


def test_replay_counts_on_a_clean_and_a_faulty_schedule():
    res = C.check_lowered(load("blur"), schedule("blur", "rows"), SEEDS)
    assert res.passed and res.batched_loops > 0 and res.replayed_loops == 0
    # the algorithm's own read runs one past inp: that batch replays
    res = C.check_lowered(parse_pipeline(SHIFT).validated(), [], SEEDS)
    assert res.replayed_loops == 1 and res.batched_loops == 0
    assert any(f.kind == "out_of_bounds" and "inp[8]" in f.message for f in res.findings)


# Schedules whose tail splits once read or claimed cells past the guard:
# the footprints and the read permissions now stop at the split's guard.
TAIL_SPLITS = {
    "chain3-tail-unroll": ("chain3", {"n": 9}, "lift.split(y, o1, i1, 5); base.unroll(y);"),
    "blur-tail-nested": (
        "blur",
        {"x": 12, "y": 10},
        "blur_y.split(x, o1, i1, 3); blur_x.split(y, o2, i2, 2); blur_y.split(i1, o3, i3, 5);",
    ),
    "blur-both-stages": (
        "blur",
        {"x": 10, "y": 7},
        "blur_y.split(x, o1, i1, 4); blur_x.unroll(x).split(y, o2, i2, 2);",
    ),
    # the second split pads the outer half of an even one: the footprint
    # holds three times the guard's form
    "chain3-split-of-an-outer-half": (
        "chain3",
        {"n": 9},
        "lift.split(y, o1, i1, 3).split(o1, o2, i2, 5); base.parallel(x);",
    ),
    # the padded columns would alias the next rows of inp, so one iteration
    # of o2 claimed inp[14] three times at 1/2
    "count-nested-parallel": (
        "count",
        {"w": 7},
        "count.split(x, o1, i1, 4).split(o1, o2, i2, 4).parallel(o2);",
    ),
}


@pytest.mark.parametrize("case", TAIL_SPLITS)
def test_tail_splits_check_clean(case):
    algo, sizes, sched = TAIL_SPLITS[case]
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(sizes).validated()
    d = parse_schedule(sched)
    for res in [C.check_lowered(p, d, SEEDS)] + [
        C.check_schedule(p, d, SEEDS, include_user=u) for u in (True, False)
    ]:
        assert res.passed, [f.to_json() for f in res.findings]


@pytest.mark.parametrize("sizes", ["test", "small"])
@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_top_permissions_stay_inside_the_declared_domain(algo, sched, sizes):
    scale = (SCALES if sizes == "test" else SMALL)[algo]
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(scale).validated()
    entities = {e.name: e for e in (*p.buffers, *p.funcs)}
    for a in annotate(lower(p, schedule(algo, sched))).top:
        declared = dict(entities[a.target.name].dims)
        assert not a.caps
        for d, lo, ext in a.dim_boxes:
            iv = declared[d]
            assert iv.lo_int <= lo.value and lo.value + ext <= iv.lo_int + iv.extent, (a.target.name, d)


# ---------------------------------------------------------------------------
# Batched annotation events: checked before commit, through write stamps


def annotated_run(algo: str, sizes: dict, sched: str, surgery, include_user: bool = True):
    """Check the annotations of ``algo`` lowered under ``sched`` after
    ``surgery(ap)``, in functional mode unless ``include_user`` is false."""
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(sizes).validated()

    def run():
        lp = lower(p, parse_schedule(sched))
        ap = annotate(lp, include_user=include_user)
        surgery(ap)
        return C.check_annotations(lp, ap, C.make_inputs(p, SEEDS))

    return run


ROWS = (CORPUS / "schedules" / "blur" / "rows.sched").read_text()


def test_batched_invariant_reads_storage_as_of_its_boundary(monkeypatch):
    # xf < x becomes xf < min(x + 1, 10): at boundary x < 10 the invariant
    # reads the cell that iteration x has not yet written, which the batch
    # has staged; the last boundary holds
    def surgery(ap):
        count = 0
        for aset in ap.node.values():
            for i, a in enumerate(aset.invariants):
                if isinstance(a, Ann) and a.origin == ("stage", "blur_x", 0, "post") and len(a.quants) == 1:
                    (q,) = a.quants
                    if q.hi == Var("x"):
                        hi = MinOf(BinOp("+", q.hi, Const(1)), Const(10))
                        aset.invariants[i] = dataclasses.replace(a, quants=(Quantifier(q.var, q.lo, hi),))
                        count += 1
        assert count == 1

    batched, walked = declined(monkeypatch, annotated_run("blur", {"x": 10, "y": 7}, ROWS, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops >= 1
    assert any(f.kind == "invariant_violation" for f in batched.findings)


@pytest.mark.parametrize("node", [Loop, StoreStmt])
def test_batched_broken_ensures_replays(monkeypatch, node):
    # the block (or statement) postcondition of chain3's fused parallel loop
    # is off by one at iteration 37 only
    def surgery(ap):
        count = 0
        for n in nodes(ap.lp.root):
            if isinstance(n, node):
                ens = ap.at(n).ensures
                for i, a in enumerate(ens):
                    off = BinOp("==", Var("xy"), Const(37))
                    body = BinOp("==", a.body.left, BinOp("+", a.body.right, off))
                    ens[i] = dataclasses.replace(a, body=body)
                    count += 1
        assert count == 1

    batched, walked = declined(monkeypatch, annotated_run("chain3", {"n": 8}, FUSED, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops >= 1
    assert [f.kind for f in batched.findings] == ["contract_violation"]


def test_blur_rows_functional_mode_batches_without_replay():
    res = C.check_schedule(load("blur"), schedule("blur", "rows"), SEEDS, include_user=True)
    assert res.passed and res.batched_loops > 0 and res.replayed_loops == 0
    # the walk's count at this size: every instance is still checked
    assert res.instantiations == 627_584


# ---------------------------------------------------------------------------
# The permission ledger: charged before a batch commits, as the walk does


def undivided_reads(count: int):
    """Surgery: the read regions of parallel blocks claim their fraction
    in every iteration, not split across the iterations."""

    def surgery(ap):
        n = 0
        for aset in ap.node.values():
            for i, a in enumerate(aset.context):
                if isinstance(a, RegionPerm) and a.frac.par:
                    aset.context[i] = dataclasses.replace(a, frac=dataclasses.replace(a.frac, par=()))
                    n += 1
        assert n == count

    return surgery


def race(loop: str, claim: str) -> dict:
    return {
        "kind": "race",
        "message": f"iterations of parallel loop {loop!r} together claim {claim}"
        " (fraction sum exceeds a whole permission)",
        "site": f"loop {loop}",
    }


def test_batched_ledger_race_replays(monkeypatch):
    # every iteration of blur/fused claims half of its 3x3 box of inp, so
    # inp[2] is claimed by iterations 0, 1 and 2
    fused = (CORPUS / "schedules" / "blur" / "fused.sched").read_text()
    run = annotated_run("blur", {"x": 8, "y": 8}, fused, undivided_reads(1), include_user=False)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert batched.replayed_loops == 1
    assert [f.to_json() for f in batched.findings] == [race("xy", "3/2 of inp[2]")]


def test_walked_ledger_race():
    # the race drops matmul/par's reduction batch, and the walk reports it
    par = (CORPUS / "schedules" / "matmul" / "par.sched").read_text()
    res = annotated_run("matmul", {"n": 8}, par, undivided_reads(2), include_user=False)()
    assert res.batched_loops > 0
    assert [f.to_json() for f in res.findings] == [race("j", "4 of a[0]")]


@pytest.mark.parametrize("written,findings", [(False, []), (True, [race("xy", "241/32 of src[0]")])])
def test_batched_guard_reads_storage_as_of_its_iteration(monkeypatch, written, findings):
    # a half permission on src[0] guarded by the cell the previous
    # iteration wrote, which holds the poison fill before that write; with
    # the guard true in 15 of 16 iterations, the read region's 1/32 of
    # src[0] brings the claim to 15/2 + 1/32
    def surgery(ap):
        (loop,) = [n for n in nodes(ap.lp.root) if isinstance(n, Loop) and n.dim.kind == "parallel"]
        (stmt,) = stores(loop, "lift")
        prev = Select(BinOp("<", Const(0), Var("xy")), BinOp("-", Var("xy"), Const(1)), Const(0))
        cell = TableRead(stmt.target, substitute(stmt.index, {"xy": prev}))
        guard = BinOp("<", cell, Const(10**6)) if written else BinOp("<", Const(10**6), cell)
        src = next(a.target for a in ap.at(loop).context if isinstance(a, RegionPerm))
        atom = PermAtom(src, Const(0), Frac(1, 2))
        ap.at(loop).context.append(Ann("context", (), BinOp("==>", guard, atom), perm=True))

    batched, walked = declined(monkeypatch, annotated_run("chain3", {"n": 4}, FUSED, surgery, False))
    assert_same_run(batched, walked)
    assert (batched.batched_loops, batched.replayed_loops) == ((0, 1) if written else (1, 0))
    assert [f.to_json() for f in batched.findings] == findings


# ---------------------------------------------------------------------------
# Unrolled loops: the annotated body is the body the checker runs


def assert_annotations_on_the_nest(p, d):
    """Every node the annotator annotates, in either mode, is a node of
    the lowered nest: no annotation sits on a body the checker never runs."""
    try:
        lp = lower(p, d)
    except PipelineError:
        return
    held = {id(n) for n in nodes(lp.root)}
    for include_user in (True, False):
        try:
            ap = annotate(lp, include_user=include_user)
        except PipelineError:
            continue
        assert ap.node.keys() <= held


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_annotations_sit_on_the_nodes_the_checker_runs(algo, sched):
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(SMALL[algo]).validated()
    assert_annotations_on_the_nest(p, schedule(algo, sched))


def test_invariant_beneath_an_unrolled_loop_is_checked():
    # the accumulator invariant bounds out(x) by r, which the second step
    # of the reduction already breaks; the r loop sits beneath the unrolled
    # xi, and is reported there as it is without the unroll
    src = (CORPUS / "conv1d.hal").read_text()
    src = src.replace("-10000 * r <= out(x) <= 10000 * r", "-1 * r <= out(x) <= 1 * r")
    p = parse_pipeline(src).resolve({"n": 16}).validated()
    sites = {}
    for sched in ("out.split(x, xo, xi, 4);", "out.split(x, xo, xi, 4).unroll(xi);"):
        res = C.check_schedule(p, parse_schedule(sched), SEEDS, include_user=True)
        sites[sched] = [f.site for f in res.findings if f.kind == "invariant_violation"]
    assert sites == {
        "out.split(x, xo, xi, 4);": ["loop r", "loop x.xi", "loop x.xo"],
        "out.split(x, xo, xi, 4).unroll(xi);": ["loop r", "loop x.xo"],
    }


UNROLLED_PAR = "out.split(x, xo, xi, 4).unroll(xo).parallel(xi);"


def test_parallel_loop_beneath_an_unrolled_loop_charges_its_ledger(monkeypatch):
    p = parse_pipeline((CORPUS / "conv1d.hal").read_text()).resolve({"n": 16}).validated()
    res = C.check_schedule(p, parse_schedule(UNROLLED_PAR), SEEDS, include_user=False)
    assert res.passed and res.instantiations > 0
    # each of xi's iterations claims half of w and of its three sig cells
    # whole, so a cell that two of them read is claimed past a whole
    # permission, in the xi loop of each of xo's four steps
    run = annotated_run("conv1d", {"n": 16}, UNROLLED_PAR, undivided_reads(2), include_user=False)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert batched.replayed_loops == 4
    assert [f.to_json() for f in batched.findings] == [
        race("x.xi", "3/2 of sig[2]"),
        race("x.xi", "2 of w[0]"),
        race("x.xi", "3/2 of sig[6]"),
        race("x.xi", "3/2 of sig[10]"),
        race("x.xi", "3/2 of sig[14]"),
    ]


# ---------------------------------------------------------------------------
# Reference semantics that read out of bounds


def one_stage(body: str):
    return parse_pipeline(
        f"""pipeline t(inp) -> out {{
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {{
    out(x) = {body};
  }}
}}"""
    ).validated()


def modes(p):
    yield C.check_lowered(p, [], SEEDS)
    for u in (True, False):
        yield C.check_schedule(p, [], SEEDS, include_user=u)


def test_reference_skips_reads_of_an_untaken_branch():
    # at x = 7 the untaken branch reads inp[8]
    p = one_stage("select(x < 7, inp(x + 1), inp(x))")
    inp = C.make_inputs(p, SEEDS)["inp"]
    want = np.concatenate([inp[:, 1:], inp[:, 7:]], axis=1)
    assert np.array_equal(C.eval_reference(p, {"inp": inp})["out"], want)
    for res in modes(p):
        assert res.passed, [f.message for f in res.findings]
        assert np.array_equal(res.mem["out"], want)


def test_reference_read_out_of_bounds_is_a_finding():
    p = one_stage("inp(x + 1)")
    with pytest.raises(C.ReferenceFault):
        C.eval_reference(p, C.make_inputs(p, SEEDS))
    for res in modes(p):
        assert [f.to_json() for f in res.findings] == [
            {
                "kind": "out_of_bounds",
                "message": "read of inp[8] outside its 8-cell allocation",
                "site": "out.stage0",
            },
            {
                "kind": "out_of_bounds",
                "message": "reference semantics undefined: reference evaluation reads inp out of bounds",
                "site": "",
            },
        ]


@pytest.mark.parametrize(
    "body, message",
    [
        ("inp(x * x)", "product of two loop-dependent expressions in an access"),
        ("inp(select(inp(x) > 0, x, 0))", "access index is not affine: Select"),
        # a nested read is named by the entity the user wrote
        ("inp(inp(x) + 1)", "access index is not affine: it reads inp"),
        # the hmod atom is affine, but its numerator reads storage, so each
        # lane would gather at offsets of its own
        ("inp(hmod(inp(x), 3))", "access index is not affine: it reads inp"),
    ],
    ids=["product", "data-dependent", "nested", "lane-dependent"],
)
def test_reference_rejects_a_non_affine_read(body, message):
    p = one_stage(body)
    with pytest.raises(NonAffineAccess) as err:
        C.eval_reference(p, C.make_inputs(p, SEEDS))
    assert str(err.value) == f"NonAffineAccess: {message}"


def test_lowering_names_a_nested_read_as_the_reference_does():
    p = one_stage("inp(inp(x) + 1)")
    with pytest.raises(NonAffineAccess) as lowered:
        lower(p, [])
    with pytest.raises(NonAffineAccess) as referenced:
        C.eval_reference(p, C.make_inputs(p, SEEDS))
    assert str(lowered.value) == str(referenced.value) == "NonAffineAccess: access index is not affine: it reads inp"


def test_reference_reduction_writes_the_cells_its_variable_picks():
    # the left side names the reduction variable, so each step writes its own cell
    p = parse_pipeline(
        """pipeline t(inp) -> f {
  buffer inp(x in [0, 4));
  func f(x in [0, 4)) {
    f(x) = 0;
    f(r) = f(r) + inp(r) over (r in [0, 4));
  }
}"""
    ).validated()
    inputs = C.make_inputs(p, SEEDS)
    assert np.array_equal(C.eval_reference(p, inputs)["f"], inputs["inp"])
    for res in (C.check_lowered(p, [], SEEDS), C.check_schedule(p, [], SEEDS, include_user=False)):
        assert res.passed, [f.message for f in res.findings]


# ---------------------------------------------------------------------------
# The reference against the rewrite-based evaluator it replaced


def rewrite_reference(p, inputs):
    """The rewrite-based ``eval_reference`` that the per-dimension gather
    replaced: each stage body is rewritten to flat table reads of declared
    storage, a read outside its callee's declared domain redirected to
    offset -1, and evaluated over a grid with the first dimension slowest."""
    allocs = {e.name: flat_alloc(e) for e in (*p.buffers, *p.funcs)}
    lanes = next(iter(inputs.values())).shape[0]
    mem = {name: arr.astype(np.int64) for name, arr in inputs.items()}

    class Declared:
        def load(self, target, index, env):
            arr = mem[target.name]
            idx = np.atleast_1d(index)
            if ((idx < 0) | (idx >= arr.shape[1])).any():
                raise C.ReferenceFault(f"reference evaluation reads {target.name} out of bounds")
            return arr.take(idx, axis=1)

    def declared_reads(e):
        def repl(n):
            if isinstance(n, FuncAccess):
                entity = p.func(n.func)
            elif isinstance(n, BufAccess):
                entity = p.buffer(n.buf)
            else:
                return None
            read = flatten_storage(p, allocs, n)
            inside = and_(*(and_(le(iv.lo_int, a), lt(a, iv.hi_int)) for (_, iv), a in zip(entity.dims, n.args)))
            return TableRead(read.target, Select(inside, read.index, Const(-1)))

        return rewrite(e, repl)

    for f in p.funcs:
        alloc = allocs[f.name]
        out = mem[f.name] = np.full((lanes, alloc.size), C.POISON, dtype=np.int64)
        for s in f.stages:
            dims = _stage_loop_dims(f, s)
            env = domain_grid(C._ranges(f, dims))
            n = env[dims[0]].size if dims else 1
            point = dict(zip(f.dim_names(), s.lhs_args))
            idx = np.zeros(n, dtype=np.int64) + compiled(alloc.offset(point, list(dims)))(env, Declared())
            rhs = compiled(declared_reads(s.rhs))
            guard = None if s.guard is None else compiled(declared_reads(s.guard))
            rsteps = [{}]
            if s.rdom is not None:
                rnames = list(reversed(s.rdom.names()))
                rsteps = [
                    dict(zip(rnames, map(int, step)))
                    for step in zip(*domain_grid(C._ranges(s.rdom, rnames)).values())
                ]
            for rstep in rsteps:
                full_env = env | rstep
                if guard is None:
                    out[:, idx] = rhs(full_env, Declared())
                    continue
                held = np.broadcast_to(guard(full_env, Declared()) != 0, (lanes, n))
                keep = held.any(axis=0)
                if keep.any():
                    at = idx[keep]
                    vals = rhs(narrow(full_env, keep), Declared())
                    out[:, at] = np.where(held[:, keep], vals, out[:, at])
    return mem


@st.composite
def read_args(draw, var: str | None) -> str:
    """An argument shifted, scaled, or divided or reduced by a constant; a
    shift past either end reads outside the domain, and in the first
    dimension usually still inside the allocation."""
    k = draw(st.integers(0, 2)) if draw(st.integers(0, 7)) else -1
    if var is None:
        return str(k)
    c = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["{v} + {k}", "{c} * {v} + {k}", "{v} / {c} + {k}", "hmod({v}, {c}) + {k}"]))
    return form.format(v=var, c=c, k=k)


@st.composite
def read_bodies(draw, entities: list[str], xs: tuple) -> str:
    """A read of one of ``entities``, a sum of two, or two under a select
    on a loop variable or on a read."""

    def read() -> str:
        return f"{draw(st.sampled_from(entities))}({draw(read_args(xs[0]))}, {draw(read_args(xs[1]))})"

    form = draw(st.sampled_from(["one", "sum", "select-var", "select-read"]))
    if form == "one":
        return read()
    if form == "sum":
        return f"{read()} + {read()}"
    v = draw(st.sampled_from([x for x in xs if x is not None]))
    cond = f"{v} < {draw(st.integers(0, 5))}" if form == "select-var" else f"{read()} > 0"
    return f"select({cond}, {read()}, {read()})"


@st.composite
def reference_pipelines(draw) -> str:
    """One or two funcs over an input wide enough for every read but one
    shifted below 0; the output may add an update of one row, guarded or
    not, or a two-step reduction.  Reads of ``f`` also run past its end."""
    two = draw(st.booleans())
    funcs = ""
    sources = ["inp"]
    if two:
        body = draw(read_bodies(["inp"], ("x", "y")))
        funcs = f"  func f(x in [0, 8), y in [0, 6)) {{\n    f(x, y) = {body};\n  }}\n"
        sources = ["f", "inp"]
    stages = f"    out(x, y) = {draw(read_bodies(sources, ('x', 'y')))};\n"
    later = draw(st.sampled_from(["", "update", "guarded", "reduction"]))
    if later in ("update", "guarded"):
        guard = f" if x < {draw(st.integers(1, 4))}" if later == "guarded" else ""
        stages += f"    out(x, 1) = out(x, 1) + {draw(read_bodies(sources, ('x', None)))}{guard};\n"
    elif later == "reduction":
        stages += f"    out(x, y) = out(x, y) + {draw(read_bodies(sources, ('x', 'r')))} over (r in [0, 2));\n"
    return (
        "pipeline t(inp) -> out {\n  buffer inp(x in [0, 24), y in [0, 18));\n"
        f"{funcs}  func out(x in [0, 4), y in [0, 3)) {{\n{stages}  }}\n}}"
    )


def reference_outcome(evaluate, p, inputs):
    """The arrays, or the exception's type and text."""
    try:
        return evaluate(p, inputs)
    except Exception as err:  # compared as an outcome
        return type(err).__name__, str(err)


@given(reference_pipelines())
@settings(max_examples=150, deadline=None, derandomize=True)
@example(
    "pipeline t(inp) -> out {\n  buffer inp(x in [0, 6), y in [0, 5));\n"
    "  func out(x in [0, 5), y in [0, 4)) {\n    out(x, y) = inp(x - 1, y + 1);\n  }\n}"
)
def test_reference_matches_the_rewrite_based_evaluator(text):
    p = parse_pipeline(text).validated()
    inputs = C.make_inputs(p, [0, 1])
    want = reference_outcome(rewrite_reference, p, inputs)
    got = reference_outcome(C.eval_reference, p, inputs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, dict) and got.keys() == want.keys()
        assert all(np.array_equal(got[name], want[name]) for name in want)


# ---------------------------------------------------------------------------
# Reports


def test_reports_split_lane_tagged_findings():
    res = C.RunResult(mem={}, findings=[], points=5, millis=1.0)
    res.findings.append(C.Finding("overflow", "too big", "f.stage0", lanes=(1,)))
    reps = C.to_reports("p", "s", [10, 11], res)
    assert [r["verdict"] for r in reps] == ["pass", "fail"]
    assert reps[0]["findings"] == []
    assert reps[1]["findings"][0]["kind"] == "overflow"
    assert reps[1]["seed"] == 11
    assert reps[0]["stats"] == {
        "points": 5,
        "instantiations": 0,
        "evaluated": 0,
        "millis": 1.0,
        "batched_loops": 0,
        "replayed_loops": 0,
    }


def test_reports_global_finding_fails_every_seed():
    res = C.RunResult(mem={}, findings=[C.Finding("race", "collision", "f")], points=0, millis=0.5)
    reps = C.to_reports("p", "s", [0, 1, 2], res)
    assert all(r["verdict"] == "fail" for r in reps)


def test_annotation_arithmetic_beyond_int64_is_not_an_untyped_error():
    # the user contract repeats the statement's exact arithmetic, which
    # leaves int64 at x = 1; every check reports the statement's overflow
    # and goes on with int64 values, as the reference does
    from minisched.encoder import check_frontend, encode

    value = "inp(x) + x * 2147483647 * 2147483647 * 2147483647"
    src = f"""pipeline t(inp) -> out {{
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {{
    out(x) = {value};
    out.ensures(out(x) == {value});
  }}
}}"""
    p = parse_pipeline(src).validated()
    overflow = "intermediate value leaves the signed 32-bit range"
    for u in (True, False):
        res = C.check_schedule(p, [], SEEDS, include_user=u)
        assert [f.to_json() for f in res.findings] == [
            {"kind": "overflow", "message": overflow, "site": "out.stage0"}
        ]
    res = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert [f.to_json() for f in res.findings] == [
        {"kind": "overflow", "message": overflow, "site": "out"}
    ]


def test_instantiation_budget_is_a_pipeline_error(monkeypatch):
    p = load("blur")
    lp = lower(p, schedule("blur", "rows"))
    monkeypatch.setattr(C, "_MAX_INSTANCES", 4)
    with pytest.raises(PipelineError):
        C._execute(lp, C.make_inputs(p, SEEDS), C._AnnObserver(annotate(lp)))


def test_instantiation_budget_is_raised_where_the_walk_meets_it(monkeypatch):
    # count's reduction invariants gain instances at each boundary of r: a
    # batch past the budget replays, and the walk raises at the first
    # boundary past it, not at the block's largest grid
    p = load("count")
    monkeypatch.setattr(C, "_MAX_INSTANCES", 3)
    errors = []
    for plan in (C.batch_plan, lambda loop: None):
        with monkeypatch.context() as m:
            m.setattr(C, "batch_plan", plan)
            with pytest.raises(C.InstantiationBudget) as exc:
                C.check_schedule(p, [], SEEDS, include_user=True)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "one annotation expands to 4 instances (limit 3)"


# ---------------------------------------------------------------------------
# Loop nests: one batch over a head loop and the loops it runs side by side


NEST_PLAN = C.batch_plan


def single_loop_plans(loop):
    """Plans that never run a nest's only inner loop side by side: a head
    whose only child is an expanded loop is walked."""
    plan = NEST_PLAN(loop)
    if plan is None or len(loop.body) != 1 or id(loop.body[0]) not in plan.expanded:
        return plan
    return None


@pytest.mark.parametrize("algo,sched", ALL_SCHEDULES)
def test_flattened_nests_equal_single_loop_batches_and_the_walk(monkeypatch, algo, sched):
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(SMALL[algo]).validated()
    d = schedule(algo, sched)
    runs = [lambda: C.check_lowered(p, d, [0, 1])] + [
        lambda u=u: C.check_schedule(p, d, [0, 1], include_user=u) for u in (True, False)
    ]
    for run in runs:
        flattened, walked = declined(monkeypatch, run)
        with monkeypatch.context() as m:
            m.setattr(C, "batch_plan", single_loop_plans)
            single = run()
        assert_same_run(flattened, walked)
        assert_same_run(flattened, single)
        assert flattened.batched_loops <= single.batched_loops
        assert flattened.replayed_loops == 0 or not flattened.passed


def test_blur_tail_runs_as_one_batch():
    # split(y, yo, yi, 7).reorder(yi, x, yo): one batch over (yo, x, yi),
    # where single-loop batches take one per (yo, x)
    res = C.check_lowered(load("blur"), schedule("blur", "tail"), SEEDS)
    assert res.passed
    assert (res.batched_loops, res.replayed_loops) == (1, 0)


def blur_run(sizes: dict, sched: str, surgery):
    """Run blur lowered under ``sched`` after ``surgery(lp)``."""
    p = parse_pipeline((CORPUS / "blur.hal").read_text()).resolve(sizes).validated()

    def run():
        lp = lower(p, parse_schedule(sched))
        surgery(lp)
        return C.run_lowered(lp, C.make_inputs(p, SEEDS))

    return run


TAIL = (CORPUS / "schedules" / "blur" / "tail.sched").read_text()


def test_flattened_out_of_bounds_store_replays(monkeypatch):
    # every cell shifts by one: only the last iteration of the nest
    # (yo = 1, x = 7, yi = 0) writes outside blur_y, and cell 0 stays unwritten
    def surgery(lp):
        for n in stores(lp.root, "blur_y"):
            n.index = BinOp("+", n.index, Const(1))

    batched, walked = declined(monkeypatch, blur_run({"x": 8, "y": 8}, TAIL, surgery))
    assert_same_run(batched, walked)
    # dropped: the (yo, x, yi) nest, the (x, yi) nest at yo = 1, and the yi
    # loop at x = 7; the (x, yi) nest at yo = 0 and seven yi loops commit
    assert (batched.batched_loops, batched.replayed_loops) == (8, 3)
    assert [f.kind for f in batched.findings] == ["out_of_bounds", "mismatch"]


def test_flattened_duplicate_write_across_the_parallel_loop_replays(monkeypatch):
    # iteration (y = 1, x = 0) of lift's parallel (y, x) nest writes the cell
    # of (y = 0, x = 0)
    def surgery(lp):
        for n in stores(lp.root, "lift"):
            clash = BinOp("&&", BinOp("==", Var("y"), Const(1)), BinOp("==", Var("x"), Const(0)))
            n.index = Select(clash, Const(0), n.index)

    batched, walked = declined(monkeypatch, chain3_run(STAGED, surgery))
    assert_same_run(batched, walked)
    # dropped: the (y, x) nest and the x loop at y = 1; mid's nest and the
    # other seven x loops commit
    assert (batched.batched_loops, batched.replayed_loops) == (8, 2)
    assert [f.to_json() for f in batched.findings] == [
        {
            "kind": "race",
            "message": "iterations 0 and 1 of parallel loop 'y' touch the same cell"
            " (write collides with earlier access)",
            "site": "lift.stage0",
        },
        {"kind": "mismatch", "message": "1 cell(s) of the output 'lift' were never written", "site": "lift"},
    ]


def grid_stage(body: str):
    return parse_pipeline(
        f"""pipeline t(inp) -> out {{
  buffer inp(x in [0, 8), y in [0, 8));
  func out(x in [0, 8), y in [0, 8)) {{
    out(x, y) = {body};
  }}
}}"""
    ).validated()


@pytest.mark.parametrize(
    "body",
    [
        # varies with the outer y
        "select(y < 7, inp(x, y + 1), inp(x, y))",
        # varies with the inner x
        "select(x < 7, inp(x + 1, y), inp(x, y))",
    ],
)
def test_select_on_a_nest_variable_batches_as_one_flattened_nest(monkeypatch, body):
    # the untaken branch would read row or column 8; over the flattened nest
    # each branch is read only at the iterations that take it
    p = grid_stage(body)
    for run in (lambda: C.check_lowered(p, [], SEEDS), lambda: C.check_schedule(p, [], SEEDS)):
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        assert batched.passed, [f.message for f in batched.findings]
        assert (batched.batched_loops, batched.replayed_loops) == (1, 0)


def test_flattened_invariant_reads_storage_as_of_its_boundary(monkeypatch):
    # xf < x becomes xf < x + (x == 3) in the x loop of the (yo, x, yi) nest:
    # at boundary x = 3 of each yo the invariant reads column 3, which the
    # batch has staged at later times than the boundary's
    def surgery(ap):
        count = 0
        for aset in ap.node.values():
            for i, a in enumerate(aset.invariants):
                if isinstance(a, Ann) and a.origin[:2] == ("stage", "blur_y") and len(a.quants) == 2:
                    q, rest = a.quants[0], a.quants[1:]
                    if q.hi == Var("x"):
                        hi = BinOp("+", q.hi, BinOp("==", q.hi, Const(3)))
                        aset.invariants[i] = dataclasses.replace(a, quants=(Quantifier(q.var, q.lo, hi),) + rest)
                        count += 1
        assert count == 1

    batched, walked = declined(monkeypatch, annotated_run("blur", {"x": 10, "y": 9}, TAIL, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops >= 1
    assert [f.message for f in batched.findings] == ["loop invariant does not hold at x = 3"]


@pytest.mark.parametrize("include_user", [True, False])
def test_chunked_event_grids_equal_the_walk(monkeypatch, include_user):
    # grids of at most 5 points, where one event fits: every stacked grid
    # splits, and the ledger sums its claims across chunks
    run = annotated_run("blur", {"x": 10, "y": 7}, TAIL, lambda ap: None, include_user)
    whole = run()
    monkeypatch.setattr(C, "_CHUNK", 5)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert_same_run(batched, whole)
    assert batched.passed and (batched.batched_loops, batched.replayed_loops) == (1, 0)
    fused = (CORPUS / "schedules" / "blur" / "fused.sched").read_text()
    run = annotated_run("blur", {"x": 8, "y": 8}, fused, undivided_reads(1), include_user=False)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert batched.replayed_loops == 1
    assert [f.to_json() for f in batched.findings] == [race("xy", "3/2 of inp[2]")]


# ---------------------------------------------------------------------------
# Annotation reads of an untaken branch, and calls outside a domain


def ensured_stage(body: str, ensures: str):
    return parse_pipeline(
        f"""pipeline t(inp) -> out {{
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {{
    out(x) = {body};
    out.ensures(out(x) == {ensures});
  }}
}}"""
    ).validated()


def test_annotation_skips_reads_of_an_untaken_branch():
    # at x = 7 the untaken branch reads inp[8], in the statement and in the
    # loop invariant that quantifies over the statement's postcondition
    value = "select(x < 7, inp(x + 1), inp(x))"
    for res in modes(ensured_stage(value, value)):
        assert res.passed, [f.message for f in res.findings]


def test_annotation_read_of_a_taken_branch_out_of_bounds():
    # at x = 7 the annotation takes the branch that reads inp[8]
    p = ensured_stage("inp(x)", "select(x < 7, inp(x), inp(x + 1))")
    oob = "annotation reads inp[8] outside its 8-cell allocation"
    res = C.check_schedule(p, [], SEEDS, include_user=True)
    assert [f.to_json() for f in res.findings] == [
        {"kind": "out_of_bounds", "message": oob, "site": "out.stage0"},
        {"kind": "out_of_bounds", "message": oob, "site": "loop x"},
    ]
    for res in (C.check_lowered(p, [], SEEDS), C.check_schedule(p, [], SEEDS, include_user=False)):
        assert res.passed


def test_reference_call_outside_a_domain_is_out_of_bounds():
    # f(4, y) lies outside f's domain; its flat offset is f(0, y + 1)
    p = parse_pipeline(
        """pipeline t(inp) -> g {
  buffer inp(x in [0, 5), y in [0, 4));
  func f(x in [0, 4), y in [0, 4)) {
    f(x, y) = inp(x, y);
  }
  func g(x in [0, 4), y in [0, 3)) {
    g(x, y) = f(x + 1, y);
    g.ensures(g(x, y) == inp(x + 1, y));
  }
}"""
    ).resolve().validated()
    with pytest.raises(C.ReferenceFault):
        C.eval_reference(p, C.make_inputs(p, SEEDS))
    for res in modes(p):
        assert [f.to_json() for f in res.findings] == [
            {
                "kind": "out_of_bounds",
                "message": "reference semantics undefined: reference evaluation reads f out of bounds",
                "site": "",
            }
        ]


# ---------------------------------------------------------------------------
# Step batches: reduction nests batch over their side-by-side loops, one
# step at a time


def lowered_run(algo: str, sizes: dict, sched: str, surgery):
    """Run ``algo`` lowered under ``sched`` after ``surgery(lp)``."""
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(sizes).validated()

    def run():
        lp = lower(p, parse_schedule(sched))
        surgery(lp)
        return C.run_lowered(lp, C.make_inputs(p, SEEDS))

    return run


def stepped_heads(lp) -> list:
    """The plans of the batches that run step loops."""
    return [plan for plan in C.batch_heads(lp.root).values() if plan.stepped]


@pytest.mark.parametrize("algo,sched", [("matmul", "par"), ("conv1d", "par"), ("count", "tail")])
def test_reduction_nests_commit_as_step_batches(monkeypatch, algo, sched):
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(SMALL[algo]).validated()
    d = schedule(algo, sched)
    (plan,) = stepped_heads(lower(p, d))
    runs = [lambda: C.check_lowered(p, d, [0, 1])] + [
        lambda u=u: C.check_schedule(p, d, [0, 1], include_user=u) for u in (True, False)
    ]
    for run in runs:
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        # the pure stage's nest and the reduction's
        assert batched.passed and (batched.batched_loops, batched.replayed_loops) == (2, 0)


def scanned(plan) -> set[int]:
    """The loops of ``plan``'s scans, by ``id``."""
    return {id(x) for scan in plan.scans.values() for x in scan.chain if isinstance(x, Loop)}


@pytest.mark.parametrize("algo", ["matmul", "conv1d", "count"])
def test_every_corpus_reduction_scans(algo):
    # tail-split and unrolled schedules included; matmul's (rt, rk) nest
    # scans as one
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(SMALL[algo]).validated()
    for sched in sorted(f.stem for f in (CORPUS / "schedules" / algo).glob("*.sched")):
        (plan,) = stepped_heads(lower(p, schedule(algo, sched)))
        assert plan.stepped <= scanned(plan), sched
        assert all(len(scan.chain) >= (2 if algo == "matmul" else 1) for scan in plan.scans.values())


def test_an_update_that_doubles_its_cell_keeps_stepping(monkeypatch):
    p = FUZZED["reduction/doubling"]
    (plan,) = stepped_heads(lower(p, []))
    assert plan.stepped and not plan.scans
    for run in mode_runs(p, []):
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        assert batched.passed and (batched.batched_loops, batched.replayed_loops) == (2, 0)


def scan_runs(algo: str, sizes: dict, surgery, inputs):
    """The three modes of ``algo`` lowered under no schedule after
    ``surgery(lp)``, on ``inputs(p)``: plain, functional, memory safety."""
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(sizes).validated()

    def run(mode):
        lp = lower(p, [])
        surgery(lp)
        if mode is None:
            return C.run_lowered(lp, inputs(p))
        return C.check_annotations(lp, annotate(lp, include_user=mode), inputs(p))

    return [lambda m=m: run(m) for m in (None, True, False)]


def test_scan_partial_sums_past_32_bits_replay_in_every_mode(monkeypatch):
    # with w = 1 and sig = 2^30 in lane 1, every increment fits in 32 bits
    # and the second partial sum does not; lanes 0 and 2 stay in range
    def inputs(p):
        got = C.make_inputs(p, SEEDS)
        got["w"][:] = 1
        got["sig"][1] = 1 << 30
        return got

    for k, run in enumerate(scan_runs("conv1d", SMALL["conv1d"], lambda lp: None, inputs)):
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        assert batched.replayed_loops >= 1
        over = [f for f in batched.findings if f.kind == "overflow"]
        assert len(over) == 1 and over[0].lanes == (1,)
        if k == 0:
            assert [f.kind for f in batched.findings] == ["overflow"]


def test_scan_checks_the_untaken_branch_the_walk_evaluates(monkeypatch):
    # count's condition reads inp, so the walk evaluates count + 1 at every
    # step, taken or not; from 2^31 - 1 it overflows although no input is
    # positive and every stored value stays in range
    def surgery(lp):
        (init,) = [n for n in stores(lp.root, "count") if n.stage == 0]
        init.value = Const(2**31 - 1)

    def inputs(p):
        got = C.make_inputs(p, SEEDS)
        got["inp"][:] = -1
        return got

    for run in scan_runs("count", SMALL["count"], surgery, inputs):
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        assert batched.replayed_loops >= 1
        assert [f for f in batched.findings if f.kind == "overflow"]


def update_stmt(lp, func: str) -> StoreStmt:
    (stmt,) = [n for n in stores(lp.root, func) if n.stage == 1]
    return stmt


def test_step_overflow_of_a_multiplied_accumulator_replays(monkeypatch):
    # prod = prod * 1000 + a * b stays in range for two steps and leaves it
    # at the third
    def surgery(lp):
        stmt = update_stmt(lp, "prod")
        acc, term = stmt.value.left, stmt.value.right
        stmt.value = BinOp("+", BinOp("*", acc, Const(1000)), term)

    run = lowered_run("matmul", SMALL["matmul"], "", surgery)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert batched.replayed_loops >= 1
    over = [f for f in batched.findings if f.kind == "overflow"]
    assert len(over) == 1 and over[0].lanes is not None


def test_step_batch_duplicate_write_across_pure_iterations_replays(monkeypatch):
    # iterations x = 0 and x = 1 of conv1d's parallel reduction both
    # accumulate into out[0]
    def surgery(lp):
        stmt = update_stmt(lp, "out")
        clash = Select(BinOp("==", Var("x"), Const(1)), Const(0), stmt.index)
        stmt.value = substitute_read(stmt.value, stmt.index, clash)
        stmt.index = clash

    run = lowered_run("conv1d", SMALL["conv1d"], "out.parallel(x);", surgery)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert batched.replayed_loops == 1
    assert [f.to_json() for f in batched.findings] == [
        {
            "kind": "race",
            "message": "iterations 0 and 1 of parallel loop 'x' touch the same cell"
            " (read races against earlier access)",
            "site": "out.stage1",
        }
    ]


def test_step_batch_write_into_another_iterations_cell_replays(monkeypatch):
    # under matmul/unroll each iteration (j, io) accumulates two cells, one
    # per step of the unrolled ii; io = 0's step ii = 1 is pointed at the
    # cell of io = 1's step ii = 0, so two (j, io) iterations share it
    def surgery(lp):
        [stmt] = [n for n in stores(lp.root, "prod") if n.stage == 1]
        first = BinOp("+", BinOp("*", Var("j"), Const(4)), Const(2))
        at = and_(BinOp("==", Var("io"), Const(0)), BinOp("==", Var("ii"), Const(1)))
        clash = Select(at, first, stmt.index)
        stmt.value = substitute_read(stmt.value, stmt.index, clash)
        stmt.index = clash

    unroll = (CORPUS / "schedules" / "matmul" / "unroll.sched").read_text()
    run = lowered_run("matmul", {"n": 4}, unroll, surgery)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    # the reduction nest replays, and so does each j's io loop; the pure
    # stage's nest commits, and so does each (j, io) iteration's ii loop,
    # whose two steps write two cells: 1 + 4 * 2 batches
    assert (batched.batched_loops, batched.replayed_loops) == (9, 5)


def substitute_read(e, index, new):
    """``e`` with its reads at ``index`` moved to ``new``."""
    if isinstance(e, TableRead):
        return TableRead(e.target, new) if e.index == index else e
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute_read(e.left, index, new), substitute_read(e.right, index, new))
    if isinstance(e, Select):
        return Select(*(substitute_read(x, index, new) for x in (e.cond, e.if_true, e.if_false)))
    return e


def test_step_invariant_broken_at_one_step_replays(monkeypatch):
    # prod.invariant(rk, ...) also claims prod(1, 1) == 0 at boundary
    # rk = 3 of rt = 0, after three products have been added
    def surgery(ap):
        count = 0
        for aset in ap.node.values():
            for i, a in enumerate(aset.invariants):
                if isinstance(a, Ann) and a.origin == ("rinv", "prod", 1, "rk"):
                    read = next(e for e in walk(a.body) if isinstance(e, TableRead))
                    at = BinOp("&&", BinOp("==", Var("i"), Const(1)), BinOp("==", Var("j"), Const(1)))
                    at = BinOp("&&", at, BinOp("&&", BinOp("==", Var("rt"), Const(0)), BinOp("==", Var("rk"), Const(3))))
                    broken = BinOp("==>", at, BinOp("==", read, Const(0)))
                    aset.invariants[i] = dataclasses.replace(a, body=BinOp("&&", a.body, broken))
                    count += 1
        assert count == 1

    batched, walked = declined(monkeypatch, annotated_run("matmul", SMALL["matmul"], "", surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops >= 1
    assert [f.to_json() for f in batched.findings] == [
        {
            "kind": "invariant_violation",
            "message": "loop invariant does not hold at rk = 3",
            "site": "loop rk",
            "lanes": [0, 1, 2],
        }
    ]


def test_batched_annotation_skips_reads_of_an_untaken_branch(monkeypatch):
    # at x = 7 the untaken branch reads inp[8]: the batch reads each branch
    # only at the points that take it, and commits
    p = ensured_stage("inp(x)", "select(x < 8, inp(x), inp(x + 1))")
    batched, walked = declined(monkeypatch, lambda: C.check_schedule(p, [], SEEDS, include_user=True))
    assert_same_run(batched, walked)
    assert batched.passed and (batched.batched_loops, batched.replayed_loops) == (1, 0)


def test_batched_branches_read_storage_as_of_their_own_events(monkeypatch):
    # each branch reads storage as of the events of the points that take
    # it: the event times narrow with the points
    p = ensured_stage("inp(x)", "select(x < 4, inp(x), inp(x))")
    batched, walked = declined(monkeypatch, lambda: C.check_schedule(p, [], SEEDS, include_user=True))
    assert_same_run(batched, walked)
    assert batched.passed and (batched.batched_loops, batched.replayed_loops) == (1, 0)


def test_nested_implication_reads_its_right_side_only_where_the_left_holds():
    # at x = 7 the right side of the implication would read inp[8]
    p = parse_pipeline(
        """pipeline t(inp) -> out {
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {
    out(x) = inp(x);
    out.ensures(out(x) == inp(x) && (x < 7 ==> inp(x + 1) > -1000));
  }
}"""
    ).validated()
    for u in (True, False):
        res = C.check_schedule(p, [], SEEDS, include_user=u)
        assert res.passed, [f.message for f in res.findings]


def test_a_fault_in_the_batch_code_is_not_a_replay(monkeypatch):
    # only a detector's _Fired drops a batch; any other exception is a bug
    def broken(*args):
        raise TypeError("broken store")

    monkeypatch.setattr(C._Batch, "_store", broken)
    with pytest.raises(TypeError, match="broken store"):
        C.check_lowered(grid_stage("inp(x, y)"), [], SEEDS)


def test_loops_over_cells_expand_in_the_heads_batch(monkeypatch):
    # unrolled xo holds two xi loops whose variable the store index
    # mentions: they expand in y's batch, not as step loops of y's
    p = grid_stage("inp(x, y) + 1")
    d = parse_schedule("out.split(x, xo, xi, 4).unroll(xo);")
    assert not stepped_heads(lower(p, d))
    batched, walked = declined(monkeypatch, lambda: C.check_lowered(p, d, SEEDS))
    assert_same_run(batched, walked)
    assert batched.passed and (batched.batched_loops, batched.replayed_loops) == (1, 0)


# ---------------------------------------------------------------------------
# Whole-nest batches: a compute_at nest, producer and consumer, in one batch


def test_producer_past_a_tail_guard_outside_its_site_is_a_typed_error():
    # the guard yo * 4 + yi < 9 names yi, inside mid's site: mid's rows
    # [yo * 4, yo * 4 + 3] would run to row 11 and read src[90]
    p = parse_pipeline((CORPUS / "chain3.hal").read_text()).resolve({"n": 9}).validated()
    d = parse_schedule("lift.split(y, yo, yi, 4); mid.compute_at(lift, yo);")
    runs = [lambda: C.check_lowered(p, d, SEEDS)]
    runs += [lambda u=u: C.check_schedule(p, d, SEEDS, include_user=u) for u in (True, False)]
    for run in runs:
        with pytest.raises(ScheduleError, match="tail guard yo \\* 4 \\+ yi < 9") as exc:
            run()
        assert exc.value.code == "GuardOutsideSite"


@pytest.mark.parametrize("n", [11, 32])
@pytest.mark.parametrize("sched", ["root", "par"])
def test_in_place_update_batches_by_stamp(monkeypatch, sched, n):
    # grid(x, 0) = grid(x, 0) + grid(x, 3): each iteration reads the cell it
    # rewrites and a row the nest never writes, so its loop heads a batch
    # that commits
    p = parse_pipeline((CORPUS / "update2.hal").read_text()).resolve({"n": n}).validated()
    d = schedule("update2", sched)
    lp = lower(p, d)
    (update,) = [s for s in stores(lp.root, "grid") if s.stage == 1]
    heads = C.batch_heads(lp.root)
    assert any(update in nodes(n) for n in nodes(lp.root) if id(n) in heads)
    runs = [lambda: C.check_lowered(p, d, SEEDS)] + [
        lambda u=u: C.check_schedule(p, d, SEEDS, include_user=u) for u in (True, False)
    ]
    for run in runs:
        batched, walked = declined(monkeypatch, run)
        assert_same_run(batched, walked)
        assert batched.passed and batched.replayed_loops == 0


ROWS_SMALL = {"x": 10, "y": 7}


def producer_loop(lp, func: str) -> Loop:
    (produce,) = [n for n in nodes(lp.root) if isinstance(n, Produce) and n.func == func]
    return produce.body[0]


def test_whole_nest_read_of_an_unwritten_private_cell(monkeypatch):
    # blur_x's producer computes two of the three rows each blur_y row reads
    def surgery(lp):
        loop = producer_loop(lp, "blur_x")
        loop.dim = dataclasses.replace(loop.dim, extent=2)

    batched, walked = declined(monkeypatch, blur_run(ROWS_SMALL, ROWS, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert {f.kind for f in batched.findings} == {"uninitialized_read"}
    assert all(f.message.startswith("blur_x[") for f in batched.findings)


def test_whole_nest_write_past_private_storage(monkeypatch):
    # each row's producer writes one allocation past its own blur_x
    def surgery(lp):
        size = lp.allocs["blur_x"].size
        for n in stores(lp.root, "blur_x"):
            n.index = BinOp("+", n.index, Const(size))

    batched, walked = declined(monkeypatch, blur_run(ROWS_SMALL, ROWS, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert {f.kind for f in batched.findings} >= {"out_of_bounds"}
    assert all(f.message.startswith("write of blur_x[") for f in batched.findings if f.kind == "out_of_bounds")


def test_storage_shared_across_a_parallel_loop_races(monkeypatch):
    # blur_x stored at yo but computed in each iteration of the parallel yi:
    # one instance serves them all, and neighbouring rows rewrite its rows
    sched = "blur_y.split(y, yo, yi, 4).parallel(yi); blur_x.store_at(blur_y, yo).compute_at(blur_y, yi);"
    batched, walked = declined(monkeypatch, blur_run(ROWS_SMALL, sched, lambda lp: None))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert any(f.kind == "race" and "parallel loop 'y.yi'" in f.message for f in batched.findings)


def test_consumer_before_its_producer_fires_and_replays(monkeypatch):
    # blur/ref's window: with each row's consumer moved before its producer,
    # two of the rows it reads are written by the previous row's producer,
    # later in body order but earlier in time; the third is not yet written
    ref = (CORPUS / "schedules" / "blur" / "ref.sched").read_text()

    def surgery(lp):
        (guard,) = [n for n in nodes(lp.root) if any(isinstance(c, Produce) for c in getattr(n, "body", ()))]
        guard.body.reverse()
        assert isinstance(guard.body[0], Consume)

    batched, walked = declined(monkeypatch, blur_run(ROWS_SMALL, ref, surgery))
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    assert {f.kind for f in batched.findings} == {"uninitialized_read"}


def test_read_of_a_write_later_in_body_order_fires_and_replays(monkeypatch):
    # update2's update also reads row 1, and a second statement after it
    # rewrites row 1 one column on: iteration x reads the cell iteration
    # x - 1 rewrote, later in body order but earlier in time; the batch reads
    # the filled value first, so the whole log disagrees and it replays
    def surgery(lp):
        update = update_stmt(lp, "grid")
        row1 = TableRead(update.target, BinOp("+", Var("x"), Const(11)))
        update.value = BinOp("+", update.value, row1)
        rewrite_next = StoreStmt("grid", 1, update.target, BinOp("+", Var("x"), Const(12)), Const(5))
        loop = next(n for n in nodes(lp.root) if isinstance(n, Loop) and update in n.body)
        loop.body.append(rewrite_next)

    batched, walked = declined(monkeypatch, lowered_run("update2", SMALL["update2"], "", surgery))
    assert_same_run(batched, walked)
    assert batched.findings == [] and batched.replayed_loops == 1


def test_replayed_whole_nest_batches_its_inner_nests(monkeypatch):
    # only row 3's consumer writes outside blur_y: the whole-nest batch
    # fires, and the walk batches both inner nests of every row but that
    # consumer's
    def surgery(lp):
        for n in stores(lp.root, "blur_y"):
            n.index = BinOp("+", n.index, BinOp("*", BinOp("==", Var("y"), Const(3)), Const(1000)))

    batched, walked = declined(monkeypatch, blur_run(ROWS_SMALL, ROWS, surgery))
    assert_same_run(batched, walked)
    assert (batched.batched_loops, batched.replayed_loops) == (13, 2)
    assert {f.kind for f in batched.findings} == {"out_of_bounds", "mismatch"}


def blocks_of(monkeypatch, run, slots: int):
    """``run()`` with batches of at most ``slots`` statement slots."""
    with monkeypatch.context() as m:
        m.setattr(C, "_BLOCK", slots)
        return run()


@pytest.mark.parametrize("include_user", [None, True, False])
@pytest.mark.parametrize(
    "algo,sizes,sched,slots,count",
    [
        # blur/rows at 10x7 takes 40 slots per row: blocks of two rows of
        # its parallel head
        ("blur", ROWS_SMALL, "rows", 80, 4),
        # chain3/window at n=9: one iteration of its serial head per block
        ("chain3", {"n": 9}, "window", 1, 3),
    ],
)
def test_blocks_equal_one_block(monkeypatch, algo, sizes, sched, slots, count, include_user):
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(sizes).validated()
    d = schedule(algo, sched)

    def run():
        if include_user is None:
            return C.check_lowered(p, d, SEEDS)
        return C.check_schedule(p, d, SEEDS, include_user=include_user)

    whole, walked = declined(monkeypatch, run)
    blocks = blocks_of(monkeypatch, run, slots)
    assert_same_run(blocks, whole)
    assert_same_run(blocks, walked)
    assert blocks.passed and (whole.batched_loops, blocks.batched_loops, blocks.replayed_loops) == (1, count, 0)


def test_race_across_blocks_of_a_parallel_head(monkeypatch):
    # row 5 of blur/rows writes row 0's cells: blocks of two rows commit
    # rows 0 to 3, and the block of rows 4 and 5 finds the clash in the
    # head's tracker; the walk goes on from row 4, batching each row's two
    # inner nests, of which row 5's consumer fires
    def surgery(lp):
        for n in stores(lp.root, "blur_y"):
            n.index = Select(BinOp("==", Var("y"), Const(5)), substitute(n.index, {"y": Const(0)}), n.index)

    run = blur_run(ROWS_SMALL, ROWS, surgery)
    whole, walked = declined(monkeypatch, run)
    blocks = blocks_of(monkeypatch, run, 80)
    assert_same_run(blocks, whole)
    assert_same_run(blocks, walked)
    assert (blocks.batched_loops, blocks.replayed_loops) == (2 + 3 * 2 - 1, 2)
    assert {f.kind for f in blocks.findings} == {"race", "mismatch"}
    assert "iterations 0 and 5 of parallel loop 'y'" in blocks.findings[0].message


def test_ledger_race_across_blocks_of_a_parallel_head(monkeypatch):
    # blur/fused claims half of each 3x3 box of inp in every iteration: the
    # claims sum past a whole permission over blocks, and the last block
    # replays
    fused = (CORPUS / "schedules" / "blur" / "fused.sched").read_text()
    run = annotated_run("blur", {"x": 8, "y": 8}, fused, undivided_reads(1), include_user=False)
    whole, walked = declined(monkeypatch, run)
    blocks = blocks_of(monkeypatch, run, 16)
    assert_same_run(blocks, whole)
    assert_same_run(blocks, walked)
    assert (blocks.batched_loops, blocks.replayed_loops) == (3, 1)
    assert [f.to_json() for f in blocks.findings] == [race("xy", "3/2 of inp[2]")]


# ---------------------------------------------------------------------------
# Incremental loop invariant checks: only the instances that can change


def whole_checks(m):
    """Check every loop invariant whole, at every boundary."""
    m.setattr(C._AnnObserver, "_incremental", lambda self, loop, a: False)


@pytest.mark.parametrize(
    "algo,sched,chunk",
    [
        pytest.param(algo, sched, chunk, id=f"{algo}-{sched}" + (f"-chunk{chunk}" if chunk else ""))
        for chunk in (None, 5)
        for algo, sched in ALL_SCHEDULES
    ],
)
def test_incremental_checks_equal_whole_checks_on_the_corpus(monkeypatch, algo, sched, chunk):
    # every batched loop is checked incrementally, however short, so that
    # the small sizes reach every shape of the rule; the walk checks whole.
    # A small chunk splits the picked points, as it splits whole grids.
    if chunk:
        monkeypatch.setattr(C, "_CHUNK", chunk)
    p = parse_pipeline((CORPUS / f"{algo}.hal").read_text()).resolve(SMALL[algo]).validated()
    d = schedule(algo, sched)
    run = lambda: C.check_schedule(p, d, SEEDS, include_user=True)  # noqa: E731
    with monkeypatch.context() as m:
        whole_checks(m)
        whole = run()
    monkeypatch.setattr(C, "_INCREMENTAL_FROM", 0)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert [f.to_json() for f in batched.findings] == [f.to_json() for f in whole.findings]
    assert (batched.points, batched.instantiations) == (whole.points, whole.instantiations)
    assert batched.evaluated <= whole.evaluated == whole.instantiations


def blur_y_loop(lp) -> Loop:
    """The loop of the statement of blur_y."""
    (stmt,) = stores(lp.root, "blur_y")
    return next(n for n in nodes(lp.root) if isinstance(n, Loop) and stmt in n.body)


def test_incremental_check_sees_a_write_to_an_instance_it_held(monkeypatch):
    # iteration x = 5 of blur/rows' blur_y loop also writes a wrong value
    # into blur_y(2, y), an instance the prefix invariant held at x = 5;
    # the loop is long enough for the rule at its default threshold
    p = parse_pipeline((CORPUS / "blur.hal").read_text()).resolve({"x": 40, "y": 3}).validated()

    def run():
        lp = lower(p, parse_schedule(ROWS))
        ap = annotate(lp, include_user=True)
        loop = blur_y_loop(lp)
        (stmt,) = loop.body
        wrong = dataclasses.replace(stmt, index=substitute(stmt.index, {"x": Const(2)}), value=Const(12345))
        loop.body.append(If(BinOp("==", Var("x"), Const(5)), loop.owner, [wrong]))
        return C.check_annotations(lp, ap, C.make_inputs(p, SEEDS))

    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert batched.replayed_loops > 0
    with monkeypatch.context() as m:
        whole_checks(m)
        whole = run()
    assert [f.to_json() for f in batched.findings] == [f.to_json() for f in whole.findings]
    assert batched.instantiations == whole.instantiations
    assert batched.evaluated < whole.evaluated
    held = {"kind": "invariant_violation", "message": "loop invariant does not hold at x = 6", "site": "loop x"}
    assert held | {"lanes": [0, 1, 2]} in [f.to_json() for f in batched.findings]


# lift's postcondition reads two funcs its nest may write, mid first and twice
MID_TWICE = (CORPUS / "chain3.hal").read_text().replace(
    "lift.ensures(lift(x, y) == (src(x, y) * 2 + 1 + x) + (src(x + 1, y) * 2 + 1 + x + 1) - src(x, y));",
    "lift.ensures(mid(x + 1, y) + mid(x, y) - src(x, y) == lift(x, y));",
)


@pytest.mark.parametrize("wrong", [False, True], ids=["clean", "overwrite"])
@pytest.mark.parametrize("sched", ["local", "window", "stage"])
def test_incremental_check_of_an_invariant_reading_two_written_funcs(monkeypatch, sched, wrong):
    # each invariant over lift's postcondition indexes the cells of mid and
    # of lift; with ``wrong``, iteration 5 of lift's innermost loop also
    # writes a wrong value into the cell of its iteration 2
    p = parse_pipeline(MID_TWICE).resolve({"n": 9}).validated()

    def run():
        lp = lower(p, schedule("chain3", sched))
        if wrong:
            (stmt,) = stores(lp.root, "lift")
            *_, loop = (n for n in nodes(lp.root) if isinstance(n, Loop) and stmt in nodes(n))
            v = loop.dim.var
            bad = dataclasses.replace(stmt, index=substitute(stmt.index, {v: Const(2)}), value=Const(12345))
            loop.body.append(If(BinOp("==", Var(v), Const(5)), loop.owner, [bad]))
        return C.check_annotations(lp, annotate(lp, include_user=True), C.make_inputs(p, SEEDS))

    with monkeypatch.context() as m:
        whole_checks(m)
        whole = run()
    monkeypatch.setattr(C, "_INCREMENTAL_FROM", 0)
    batched, walked = declined(monkeypatch, run)
    assert_same_run(batched, walked)
    assert_same_run(batched, whole)
    assert whole.passed is not wrong


def test_incremental_check_fires_on_an_out_of_range_read_the_walk_reports(monkeypatch):
    # the loop invariant over the statement's postcondition reads inp[8] at
    # xf = 7: the batch's incremental check meets it at its last boundary
    # and fires, and the walk reports it as a whole check does
    p = ensured_stage("inp(x)", "select(x < 7, inp(x), inp(x + 1))")
    run = lambda: C.check_schedule(p, [], SEEDS, include_user=True)  # noqa: E731
    with monkeypatch.context() as m:
        whole_checks(m)
        whole = run()
    monkeypatch.setattr(C, "_INCREMENTAL_FROM", 0)
    batched, walked = declined(monkeypatch, run)
    for res in (batched, walked):
        assert [f.to_json() for f in res.findings] == [f.to_json() for f in whole.findings]
        assert res.instantiations == whole.instantiations
    assert any("annotation reads inp[8]" in f.message and f.site == "loop x" for f in walked.findings)


def test_incremental_checks_keep_blur_rows_linear():
    per_point = []
    for n in (32, 128):
        p = parse_pipeline((CORPUS / "blur.hal").read_text()).resolve({"x": n, "y": n}).validated()
        res = C.check_schedule(p, schedule("blur", "rows"), SEEDS, include_user=True)
        assert res.passed
        per_point.append((res.evaluated / res.points, res.instantiations / res.points))
    (small, small_all), (large, large_all) = per_point
    assert small / 2 <= large <= 2 * small
    assert large_all > 2 * small_all


@pytest.mark.parametrize("wrong", [False, True], ids=["clean", "false"])
@pytest.mark.parametrize("sched", ["", "base.fuse(x, y, t);"], ids=["inline", "fuse"])
def test_user_annotation_reads_an_inlined_func(monkeypatch, sched, wrong):
    # lift's postcondition reads mid, which these schedules inline: mid has
    # no storage, so the annotation reads it through its definition
    text = MID_TWICE.replace("== lift(x, y));", "== lift(x, y) + 1);") if wrong else MID_TWICE
    p = parse_pipeline(text).resolve({"n": 9}).validated()
    d = parse_schedule(sched)
    assert lower(p, d).scheduled.funcs["mid"].inline
    batched, walked = declined(monkeypatch, lambda: C.check_schedule(p, d, SEEDS, include_user=True))
    assert_same_run(batched, walked)
    assert {f.kind for f in batched.findings} == ({"contract_violation", "invariant_violation"} if wrong else set())
