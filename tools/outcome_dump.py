"""Print every perfbench outcome in a form two checkouts can diff.

For each workload (``verify``, ``memsafe``, ``plain-run``) and each lane set
(3,4,5 then 0,1,2), every case of ``perfbench/cases.py`` is checked once
with ``cases.check_case``.  Each outcome prints as one line: the case, then
either the exception's type and text, or the findings as JSON in order,
``points``, ``instantiations``, ``batched_loops``, ``replayed_loops`` and a
SHA-1 of each ``mem`` array.  A change that must keep the checker's
behaviour gives byte-identical output:

    python3 tools/outcome_dump.py > before.txt   # in the parent checkout
    python3 tools/outcome_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402

LANE_SETS = ([3, 4, 5], [0, 1, 2])


def describe(outcome) -> str:
    """One outcome of ``cases.check_case`` as a line of text."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    fields = {
        "findings": [f.to_json() for f in outcome.findings],
        "points": outcome.points,
        "instantiations": outcome.instantiations,
        "batched_loops": outcome.batched_loops,
        "replayed_loops": outcome.replayed_loops,
        "mem": {
            name: hashlib.sha1(arr.tobytes()).hexdigest()
            for name, arr in sorted(outcome.mem.items())
        },
    }
    return json.dumps(fields, sort_keys=True)


def dump(workloads=tuple(cases.WORKLOADS), needle: str = "", out=sys.stdout):
    """The outcomes of ``workloads``, of the cases whose label contains
    ``needle``, one line each."""
    for workload in workloads:
        mode = cases.WORKLOADS[workload][0]
        for lanes in LANE_SETS:
            for case in cases.corpus_cases(workload, lanes):
                if needle not in case.label:
                    continue
                _, outcome = cases.check_case(case, mode)
                lane_text = ",".join(map(str, case.lanes))
                print(f"{workload} {case.label} lanes={lane_text} {describe(outcome)}", file=out)


if __name__ == "__main__":
    dump()
