"""One pass of one workload in a fresh process: every case of the workload
checked once, back to back, each judged against the independent oracle.

    python3 perfbench/worker.py --workload verify --lanes 0,1,2 \
        --started <time.monotonic() at launch> [--trace-out FILE] [--setup-only]

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

from hostspeed import Probe
from tracing import Tracer


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("verify", "memsafe", "plain-run"), required=True)
    ap.add_argument("--lanes", required=True, help="three input seeds, comma separated")
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Set-up runs from process start to the first case being ready, so the
    # imports of numpy and minisched happen under the probe.
    with Probe() as setup:
        import cases

        mode = cases.WORKLOADS[args.workload][0]
        todo = cases.corpus_cases(args.workload, [int(s) for s in args.lanes.split(",")])
        ready = time.monotonic()
    setup_wall_s = ready - args.started - setup.probing_s
    setup_s = setup_wall_s * setup.speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install()

    records = []
    for case in todo:
        before = Counter(tracer.counts) if tracer else None
        span = len(tracer.spans) if tracer else None
        with Probe() as probe:
            p, outcome = cases.check_traced(case, mode, tracer)
        ok, wrong, what = cases.judge(case, p, outcome)
        record = {
            "case": case.label,
            "ms": probe.net_s * probe.speed * 1000,
            "wall_ms": probe.net_s * 1000,
            "speed": probe.speed,
            "ok": ok,
            "wrong": wrong,
            "known_fault": case.known_fault,
            "outcome": what,
        }
        if tracer:
            start, end = tracer.spans[span][1:3]
            # the span also holds the probes: scale it to the case's net time
            scale = probe.speed * probe.net_s / (end - start)
            record["layers_ms"] = {k: v * scale for k, v in tracer.layer_ms(span).items()}
            record["counts"] = dict(tracer.counts - before)
        records.append(record)

    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "pass_s": sum(r["ms"] for r in records) / 1000,
        "pass_wall_s": sum(r["wall_ms"] for r in records) / 1000,
        "case_ms_p50": statistics.median(r["ms"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        # A case that checked clean when the benchmark was written now fails,
        # or the program returned a wrong answer without flagging it.
        "correct": not any(r["wrong"] or (not r["ok"] and not r["known_fault"]) for r in records),
        "cases": records,
    }
    if tracer:
        out["layers_ms"] = sum((Counter(r["layers_ms"]) for r in records), Counter())
        out["counts"] = dict(tracer.counts)
        out["spans"] = len(tracer.spans)
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps({"spans": tracer.spans, "cases": records}) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
