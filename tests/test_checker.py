"""Execution semantics: reference evaluator, instrumented runner, detectors.

Every algorithm's reference result is compared against an oracle written
directly from its definition with plain numpy, independent of the package's
own expression evaluator.  The differential sweep then pins the lowered
interpreter to the reference across the whole schedule corpus.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisched import checker as C
from minisched.ir import BinOp, Const
from minisched.lowering import NonAffineAccess, StoreStmt, lower
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
    # the run matches the reference, and the annotator rejects the schedule
    # with a typed error instead of the runner meeting a free variable.
    src = (CORPUS / "matmul.hal").read_text()
    p = parse_pipeline(src).resolve({"n": n}).validated()
    d = parse_schedule(f"prod.fuse(i, j, fz1).split(fz1, o2, i2, {factor}){tail};")
    res = C.check_lowered(p, d, SEEDS)
    assert res.passed, [f.to_json() for f in res.findings]
    assert res.points == n * n * 9  # one init and eight reduction steps per cell
    for include_user in (True, False):
        with pytest.raises(NonAffineAccess):
            C.check_schedule(p, d, SEEDS, include_user=include_user)


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
    assert reps[0]["stats"] == {"points": 5, "instantiations": 0, "millis": 1.0}


def test_reports_global_finding_fails_every_seed():
    res = C.RunResult(mem={}, findings=[C.Finding("race", "collision", "f")], points=0, millis=0.5)
    reps = C.to_reports("p", "s", [0, 1, 2], res)
    assert all(r["verdict"] == "fail" for r in reps)
