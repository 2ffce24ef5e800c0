"""Time each compile layer over the corpus, in one process.

For the test sizes and the verify sizes of the perfbench workloads, every
algorithm is parsed and encoded once, and each of its 25 schedules goes
through the compile path a check takes: parse (the pipeline and the
schedule), validate (the default-size call that ``parse_pipeline`` makes,
then ``validated(sizes)``), lower, annotate (with the user's annotations
and without them) and, once per algorithm, encode.  Each repetition starts
from the source text, so no tree of one repetition reaches the next.  A
layer's time is the CPU time of this process in it, summed over the corpus
in one repetition, so that other load on the host does not count; the
tool prints the minimum over ``REPS`` repetitions: a table, then one JSON
line.

    python3 tools/compile_times.py

``front end`` is parse plus both validations.  Unlike ``--trace 1`` of
perfbench, which times one pass, the minimum over repetitions resolves a
change of a few percent in one layer.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402  (puts the checkout's src on the path)

from minisched import annotate, encoder, lowering, parser  # noqa: E402

SIZE_SETS = {"test": cases.TEST_SIZES, "verify": cases.VERIFY_SIZES}
REPS = 20
LAYERS = ("parse", "validate default", "validate sizes", "lower", "annotate user", "annotate memory", "encode")


def corpus():
    """(size set, sizes, algorithm text, schedule texts) of each algorithm."""
    for size_set, sizes in SIZE_SETS.items():
        for algo in sorted(sizes):
            scheds = sorted((cases.CORPUS / "schedules" / algo).glob("*.sched"))
            text = (cases.CORPUS / f"{algo}.hal").read_text()
            yield size_set, sizes[algo], text, [s.read_text() for s in scheds]


def one_pass(inputs) -> dict[tuple[str, str], float]:
    """Seconds of each (size set, layer) over the corpus, once."""
    spent = {(s, layer): 0.0 for s in SIZE_SETS for layer in LAYERS}
    clock = time.process_time

    def timed(size_set: str, layer: str, fn, *args):
        t = clock()
        out = fn(*args)
        spent[size_set, layer] += clock() - t
        return out

    for size_set, sizes, text, scheds in inputs:
        p = timed(size_set, "parse", lambda: parser._Parser(text).pipeline())
        timed(size_set, "validate default", p.validated)
        timed(size_set, "encode", encoder.encode, timed(size_set, "validate sizes", p.validated, sizes))
        for sched in scheds:
            p = timed(size_set, "parse", lambda: parser._Parser(text).pipeline())
            ds = timed(size_set, "parse", parser.parse_schedule, sched)
            timed(size_set, "validate default", p.validated)
            lp = timed(size_set, "lower", lowering.lower, timed(size_set, "validate sizes", p.validated, sizes), ds)
            timed(size_set, "annotate user", annotate.annotate, lp, True)
            timed(size_set, "annotate memory", annotate.annotate, lp, False)
    return spent


def measure() -> dict[str, dict[str, float]]:
    """Print and return the minimum milliseconds of each layer by size set,
    with the ``total`` of both sets, over ``REPS`` repetitions."""
    inputs = list(corpus())
    best: dict[tuple[str, str], float] = {}
    for _ in range(REPS):
        gc.collect()
        for key, s in one_pass(inputs).items():
            best[key] = min(best.get(key, s), s)
    ms = {layer: {s: best[s, layer] * 1e3 for s in SIZE_SETS} for layer in LAYERS}
    ms["front end"] = {s: sum(ms[layer][s] for layer in LAYERS[:3]) for s in SIZE_SETS}
    for row in ms.values():
        row["total"] = sum(row.values())
    schedules = sum(len(scheds) for *_, scheds in inputs)
    print(f"min of {REPS} repetitions, ms over {schedules} schedules at {len(SIZE_SETS)} size sets")
    print(f"{'layer':<18}" + "".join(f"{s:>10}" for s in (*SIZE_SETS, "total")))
    for layer, row in ms.items():
        print(f"{layer:<18}" + "".join(f"{v:>10.2f}" for v in row.values()))
    print(json.dumps({"reps": REPS, "schedules": schedules, "ms": {k: round(v["total"], 3) for k, v in ms.items()}}))
    return ms


if __name__ == "__main__":
    measure()
