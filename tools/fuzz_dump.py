"""Print the outcome of fuzzed schedules in a form two checkouts can diff.

It draws N chains (1000 by default) of ``directive_chains`` in
``tests/test_checker.py`` with Hypothesis at a fixed seed (5 by default),
as ``tools/soak.py`` does.  Each chain prints as one line,
``algo | schedule | outcome``.  The outcome is ``raised <type>: <text>`` for
the typed error that lowering or annotation raises, or ``ok`` and a SHA-1
of the printed loop nest and of both annotated nests, with and without the
user's annotations.  Where the corpus dumps see only schedules that lower,
this one sees the rejected ones too:

    python3 tools/fuzz_dump.py > before.txt   # in the parent checkout
    python3 tools/fuzz_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, seed, settings

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_checker  # noqa: E402

from minisched import PipelineError, cli  # noqa: E402
from minisched.annotate import annotate  # noqa: E402
from minisched.lowering import lower, print_loop_nest  # noqa: E402
from minisched.parser import parse_schedule  # noqa: E402


def chains(n: int, at: int) -> list[tuple[str, str]]:
    """``n`` chains ``(algo, schedule text)`` drawn at seed ``at``."""
    drawn = []

    @seed(at)
    @settings(
        max_examples=n,
        database=None,
        deadline=None,
        phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    @given(test_checker.directive_chains())
    def draw(case):
        drawn.append(case)

    draw()
    return drawn


def outcome(algo: str, text: str) -> str:
    """The outcome of lowering and annotating ``text`` on ``algo``."""
    try:
        lp = lower(test_checker.FUZZED[algo], parse_schedule(text))
        texts = [print_loop_nest(lp)] + [
            "\n".join(cli.annotated_nest(annotate(lp, include_user=user))) for user in (True, False)
        ]
    except PipelineError as err:
        return f"raised {type(err).__name__}: {err}"
    return "ok " + hashlib.sha1("\n\n".join(texts).encode()).hexdigest()


def dump(n: int = 1000, at: int = 5, out=sys.stdout):
    for algo, text in chains(n, at):
        print(f"{algo} | {text} | {outcome(algo, text)}", file=out)


if __name__ == "__main__":
    args = sys.argv[1:]
    dump(int(args[0]) if args else 1000, int(args[1]) if len(args) > 1 else 5)
