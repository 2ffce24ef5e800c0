"""Check every corpus schedule at the sizes its ``.hal`` file declares, which
are the paper's (blur at 1024²), and time each check.

    python3 tools/paper_sizes.py [--mode plain|memory|user] [--algo NAME] [--scale F]

``plain`` runs ``check_lowered``; ``memory`` runs ``check_schedule`` with the
generated memory-safety annotations only, and ``user`` with the user's
annotations too, in functional-correctness mode.  Each schedule prints one line:
its label, the seconds of the check call, the seconds of ``eval_reference``
within it, and the verdict (a typed rejection takes 0 s).  The last line
is the peak resident set size of the process.  Every check parses its
pipeline afresh and runs lanes 3, 4 and 5.  ``--scale F`` multiplies every
size parameter by F (at least 1), for a quick run.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from minisched import PipelineError, checker, parser  # noqa: E402
from minisched.ir import eval_const  # noqa: E402

CORPUS = ROOT / "corpus"
LANES = [3, 4, 5]


def verdict(result: checker.RunResult) -> str:
    if result.passed:
        return "pass"
    return f"fail: {len(result.findings)} finding(s), first {result.findings[0].kind}"


def measure(mode: str = "plain", algo: str | None = None, scale: float = 1.0, out=sys.stdout) -> None:
    """Print the line of each schedule of ``algo`` (every algorithm when
    None), then the peak resident set size."""
    reference = checker.eval_reference
    spent = 0.0

    def timed(p, inputs):
        nonlocal spent
        start = time.perf_counter()
        try:
            return reference(p, inputs)
        finally:
            spent += time.perf_counter() - start

    checker.eval_reference = timed
    try:
        for hal in sorted(CORPUS.glob("*.hal")):
            if algo not in (None, hal.stem):
                continue
            text = hal.read_text()
            params = parser.parse_pipeline(text).params
            sizes = {name: max(1, round(eval_const(e) * scale)) for name, e in params}
            for path in sorted((CORPUS / "schedules" / hal.stem).glob("*.sched")):
                directives = parser.parse_schedule(path.read_text())
                spent = 0.0
                try:
                    p = parser.parse_pipeline(text).validated(sizes)
                    start = time.perf_counter()
                    if mode == "plain":
                        result = checker.check_lowered(p, directives, LANES)
                    else:
                        result = checker.check_schedule(p, directives, LANES, include_user=mode == "user")
                    said = verdict(result)
                    took = time.perf_counter() - start
                except PipelineError as err:
                    said, took = f"rejected: {type(err).__name__}", 0.0
                print(f"{hal.stem}/{path.stem}  check {took:.3f} s  reference {spent:.3f} s  {said}", file=out)
    finally:
        checker.eval_reference = reference
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak:.0f} MB", file=out)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=["plain", "memory", "user"], default="plain")
    ap.add_argument("--algo", default=None)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    measure(args.mode, args.algo, args.scale)
