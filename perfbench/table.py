"""Per-case tables, in Markdown, from trace dumps written by run.py --trace 1.

    python3 perfbench/table.py perfbench/out/trace-verify-seed1-trace1.json ...

Times are rescaled self times in ms, summed over the layers of each column.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COLUMNS = [
    ("front", ["parser.parse_ms", "ir.validate_ms"]),
    ("lower", ["lowering.schedule_ms", "lowering.bounds_ms", "lowering.nest_ms"]),
    ("annotate", ["annotate.annotate_ms"]),
    ("inputs", ["checker.inputs_ms"]),
    ("check", ["checker.check_ms"]),
    ("run", ["checker.run_ms"]),
    ("reference", ["checker.reference_ms", "checker.compare_ms"]),
    ("encode", ["encoder.encode_ms", "encoder.frontend_ms"]),
]


def main(path: str) -> None:
    cases = json.loads(Path(path).read_text())["cases"]
    head = ["case", "total ms"] + [name for name, _ in COLUMNS] + ["points", "instances"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for c in cases:
        layers, counts = c["layers_ms"], c["counts"]
        row = [c["case"], f"{c['ms']:.0f}"]
        row += [f"{sum(layers.get(k, 0.0) for k in keys):.0f}" for _, keys in COLUMNS]
        points = counts.get("checker.points", 0) + counts.get("encoder.frontend_points", 0)
        row += [str(points), str(counts.get("checker.instantiations", 0))]
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    for path in sys.argv[1:]:
        main(path)
        print()
