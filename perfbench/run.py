"""Corpus verification benchmark for minisched.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout.  Each pass checks every case of the
workload once, in a fresh worker process (see worker.py), so nothing cached
by one check can serve a repeat of it.  With ``--trace 0`` the run makes
whole passes while another one fits in ``--seconds`` and reports the median
over passes of each end-to-end metric.  With ``--trace 1`` it makes one
untraced and one traced pass and reports per-layer self times and counts
from the traced one.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("verify", "memsafe", "plain-run")
# Extra launches that stop once the first case is ready, so setup_s is a
# median over several process starts.
SETUP_LAUNCHES = 7
# Every process of a run must end within this many seconds.
RUN_LIMIT_S = 170

LAYER_MS = [
    "parser.parse_ms",
    "ir.validate_ms",
    "lowering.schedule_ms",
    "lowering.bounds_ms",
    "lowering.nest_ms",
    "annotate.annotate_ms",
    "checker.inputs_ms",
    "checker.check_ms",
    "checker.run_ms",
    "checker.reference_ms",
    "checker.compare_ms",
    "encoder.encode_ms",
    "encoder.frontend_ms",
]
LAYER_COUNTS = [
    "checker.points",
    "checker.instantiations",
    "encoder.frontend_points",
    "annotate.annotations",
    "lowering.nest_nodes",
]


class WorkerFailed(Exception):
    pass


def launch(workload: str, lanes: str, deadline: float, *extra: str) -> dict:
    started = time.monotonic()
    argv = [sys.executable, str(WORKER), "--workload", workload, "--lanes", lanes]
    argv += ["--started", repr(started), *extra]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        raise WorkerFailed(f"worker exceeded the {RUN_LIMIT_S} s run limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "case_ms_p50": (statistics.median(p["case_ms_p50"] for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    layers = traced["layers_ms"]
    counts = traced["counts"]
    out = {name: (layers.get(name, 0.0), "ms") for name in LAYER_MS}
    out |= {name: (counts.get(name, 0), "count") for name in LAYER_COUNTS}
    points = counts.get("checker.points", 0)

    def per_point(value: float) -> float:
        return value / points if points else 0.0

    out["checker.check_us_per_point"] = (per_point(layers.get("checker.check_ms", 0.0) * 1000), "us")
    out["checker.run_us_per_point"] = (per_point(layers.get("checker.run_ms", 0.0) * 1000), "us")
    out["checker.inst_per_point"] = (per_point(counts.get("checker.instantiations", 0)), "ratio")
    out["trace.overhead_s"] = (traced["pass_s"] - plain["pass_s"], "s")
    out["trace.spans"] = (traced["spans"], "count")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (ROOT / "src" / "minisched" / "__init__.py", ROOT / "corpus") if not p.exists()]
    if missing:
        print(f"not a minisched checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    lanes = ",".join(str(3 * args.seed + k) for k in range(3))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups: list[float] = []
    try:
        if args.trace:
            trace_file = OUT / f"trace-{tag}.json"
            passes = [
                launch(args.workload, lanes, deadline),
                launch(args.workload, lanes, deadline, "--trace-out", str(trace_file)),
            ]
            metrics = per_layer(passes[1], passes[0])
        else:
            setups = [
                launch(args.workload, lanes, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_LAUNCHES)
            ]
            passes = []
            while True:
                passes.append(launch(args.workload, lanes, deadline))
                longest = max(p["wall_s"] for p in passes)
                if time.monotonic() - t_start + longest > args.seconds:
                    break
            setups += [p["setup_s"] for p in passes]
            metrics = end_to_end(passes, setups)
    except WorkerFailed as err:
        print(err, file=sys.stderr)
        return 1

    summary = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"summary": summary, "setups_s": setups, "passes": passes}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload}: {len(passes)} pass(es), lanes {lanes}")
    for c in passes[0]["cases"]:
        if not c["ok"]:
            fault = "known fault" if c["known_fault"] else "FAILED"
            print(f"  {fault}: {c['case']}: {c['outcome']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}, correct {summary['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
