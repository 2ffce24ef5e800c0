"""Soak the schedule fuzzer: run N chains of the tier-1 strategy through the
tier-1 fuzz oracle and count the failures by class.

The chains come from ``directive_chains`` in ``tests/test_checker.py``, drawn
by Hypothesis at a fixed seed as ``tools/fuzz_dump.py`` draws them, and each
goes through the body of
``test_fuzzed_schedules_are_rejected_alike_or_check_clean``: the three modes
must raise the same typed error, or all check clean with their batched runs
equal to the walked ones (``batch_plan`` declined), and every node the
annotator annotates must be a node of the nest.  A failure's class is its
exception type and the line that raised it; one schedule is printed per
class.

    python3 tools/soak.py 2000 11
"""

from __future__ import annotations

import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "tools")]

import test_checker  # noqa: E402
from fuzz_dump import chains  # noqa: E402

ORACLE = test_checker.test_fuzzed_schedules_are_rejected_alike_or_check_clean.hypothesis.inner_test


def soak(n: int, at: int, out=sys.stdout) -> dict[str, list]:
    """Run ``n`` chains drawn at seed ``at``; print and return each failure
    class with its count and first schedule."""
    failures: dict[str, list] = {}
    start = time.perf_counter()
    drawn = chains(n, at)
    for case in drawn:
        try:
            ORACLE(case)
        except Exception as err:  # every failure is counted, typed or not
            where = traceback.extract_tb(err.__traceback__)[-1]
            key = f"{type(err).__name__} at {Path(where.filename).name}:{where.lineno}"
            failures.setdefault(key, [0, case])[0] += 1
    took = time.perf_counter() - start
    failed = sum(count for count, _ in failures.values())
    print(f"{len(drawn)} chains at seed {at}: {len(drawn) - failed} passed, {failed} failed, {took:.1f} s", file=out)
    for key, (count, (algo, text)) in sorted(failures.items(), key=lambda kv: -kv[1][0]):
        print(f"{count:6d}  {key}  {algo}: {text}", file=out)
    return failures


if __name__ == "__main__":
    args = sys.argv[1:]
    soak(int(args[0]) if args else 2000, int(args[1]) if len(args) > 1 else 11)
