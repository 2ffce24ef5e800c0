"""The cases of each workload, how one is checked, and how its outcome is
judged against the independent oracle."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from minisched import PipelineError, checker, encoder, parser  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

CORPUS = ROOT / "corpus"

# The sizes of the tier-1 tests.  Functional mode checks blur and chain3 at
# half the side, because its quantifier instances grow faster than points.
TEST_SIZES = {
    "blur": {"x": 64, "y": 64},
    "chain3": {"n": 64},
    "conv1d": {"n": 64},
    "count": {"w": 16},
    "matmul": {"n": 8},
    "update2": {"n": 32},
}
VERIFY_SIZES = TEST_SIZES | {"blur": {"x": 32, "y": 32}, "chain3": {"n": 32}}

# Schedules that fail on every input today.  The acceptable outcomes are a
# typed PipelineError or a clean pass whose output equals the oracle.
KNOWN_FAULTS = [
    # A split of a fused axis loses its loops (lowering._apply_one): the
    # nest keeps free variables and the runner raises an untyped ValueError.
    ("matmul", {"n": 6}, "fused-split", "prod.fuse(i, j, fz1).split(fz1, o2, i2, 4);"),
    # A tail split widens the producer's footprint past its declared domain
    # (lowering._extreme, _axis_range): out-of-bounds read of src[90].
    ("chain3", {"n": 9}, "tail-unroll", "lift.split(y, o1, i1, 5); base.unroll(y);"),
    # The same footprint fault across two nested splits: read of inp[168].
    (
        "blur",
        {"x": 12, "y": 10},
        "tail-nested",
        "blur_y.split(x, o1, i1, 3); blur_x.split(y, o2, i2, 2); blur_y.split(i1, o3, i3, 5);",
    ),
]
FAULT_LANES = [0, 1, 2]

# workload -> (check mode, sizes, whether the algorithm cases run)
WORKLOADS = {
    "verify": ("user", VERIFY_SIZES, True),
    "memsafe": ("memory", TEST_SIZES, False),
    "plain-run": ("plain", TEST_SIZES, False),
}

# The oracle's own calls must not show up in a trace.
MAKE_INPUTS = checker.make_inputs
EVAL_REFERENCE = checker.eval_reference


@dataclass
class Case:
    label: str
    algo: str
    sizes: dict[str, int]
    text: str
    schedule: str | None  # None: the algorithm itself, through the encoder
    lanes: list[int]
    known_fault: bool = False


def corpus_cases(workload: str, lanes: list[int]) -> list[Case]:
    _, sizes, with_algorithm = WORKLOADS[workload]
    texts = {algo: (CORPUS / f"{algo}.hal").read_text() for algo in sorted(TEST_SIZES)}
    cases = []
    if with_algorithm:
        for algo, text in texts.items():
            cases.append(Case(f"{algo}/algorithm", algo, sizes[algo], text, None, lanes))
    for algo, text in texts.items():
        for path in sorted((CORPUS / "schedules" / algo).glob("*.sched")):
            cases.append(Case(f"{algo}/{path.stem}", algo, sizes[algo], text, path.read_text(), lanes))
    for algo, fault_sizes, name, sched in KNOWN_FAULTS:
        cases.append(
            Case(f"{algo}/{name}", algo, fault_sizes, texts[algo], sched, FAULT_LANES, known_fault=True)
        )
    if len(cases) != (6 if with_algorithm else 0) + 25 + len(KNOWN_FAULTS):
        raise SystemExit(f"expected the 6-pipeline, 25-schedule corpus, found {len(cases)} cases")
    return cases


def check_case(case: Case, mode: str):
    """Everything a user of the checker runs for one case; returns the
    validated pipeline (or None) and the result or the exception raised."""
    p = None
    try:
        p = parser.parse_pipeline(case.text).validated(case.sizes)
        if case.schedule is None:
            prog = encoder.encode(p)
            return p, encoder.check_frontend(prog, p, checker.make_inputs(p, case.lanes))
        directives = parser.parse_schedule(case.schedule)
        if mode == "plain":
            return p, checker.check_lowered(p, directives, case.lanes)
        return p, checker.check_schedule(p, directives, case.lanes, include_user=mode == "user")
    except Exception as err:  # judged, like any outcome, by judge()
        return p, err


def check_traced(case: Case, mode: str, tracer: Tracer | None):
    if tracer is None:
        return check_case(case, mode)
    with tracer.span(f"case {case.label}"):
        return check_case(case, mode)


def judge(case: Case, p, outcome) -> tuple[bool, bool, str]:
    """(acceptable, wrong answer, description) of one case's outcome."""
    if isinstance(outcome, PipelineError):
        return case.known_fault, False, f"rejected: {type(outcome).__name__}: {outcome}"
    if isinstance(outcome, Exception):
        return False, False, f"untyped {type(outcome).__name__}: {outcome}"
    inputs = MAKE_INPUTS(p, case.lanes)
    for name, arr in inputs.items():
        if arr.shape[0] != len(case.lanes) or arr.min() < -100 or arr.max() > 100:
            return False, True, f"input {name} is not {len(case.lanes)} lanes in [-100, 100]"
        if name in outcome.mem and not np.array_equal(outcome.mem[name], arr):
            return False, True, f"the run saw other values of input {name}"
    want = oracle.expected(case.algo, inputs, case.sizes)
    if not np.array_equal(EVAL_REFERENCE(p, inputs)[p.output], want):
        return False, True, "eval_reference disagrees with the oracle"
    if not outcome.passed:
        first = outcome.findings[0]
        return False, False, f"{len(outcome.findings)} finding(s), first {first.kind}: {first.message}"
    if not np.array_equal(outcome.mem[p.output], want):
        return False, True, "passed, but the output disagrees with the oracle"
    return True, False, "pass"
