"""Print the compiler's text output over the corpus in a form two checkouts
can diff.

For each size set of the perfbench workloads (the test sizes, then the
verify sizes) and each algorithm of the corpus, in name order, it prints
``minisched encode`` of the algorithm, then for each of its schedules
``minisched nest`` (with its batch marks), ``minisched annotate`` and
``minisched annotate --no-user``.  Each output follows a header line
``### <command> <algo>[/<schedule>] <size set>``.  A change that must keep
the compiler's text gives byte-identical output:

    python3 tools/text_dump.py > before.txt   # in the parent checkout
    python3 tools/text_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402  (puts the checkout's src on the path)

from minisched import cli  # noqa: E402

SIZE_SETS = {"test": cases.TEST_SIZES, "verify": cases.VERIFY_SIZES}


def commands(algo: str, sizes: dict[str, int]):
    """(header, argv) of each command run for ``algo`` at ``sizes``."""
    hal = cases.CORPUS / f"{algo}.hal"
    scale = [arg for name, value in sorted(sizes.items()) for arg in ("--scale", f"{name}={value}")]
    yield f"encode {algo}", ["encode", str(hal), *scale]
    for path in sorted((cases.CORPUS / "schedules" / algo).glob("*.sched")):
        label = f"{algo}/{path.stem}"
        args = [str(hal), str(path), *scale]
        yield f"nest {label}", ["nest", *args]
        yield f"annotate {label}", ["annotate", *args]
        yield f"annotate --no-user {label}", ["annotate", *args, "--no-user"]


def dump(size_sets=tuple(SIZE_SETS), needle: str = "", out=sys.stdout):
    """The text of every command for the size sets ``size_sets``, of the
    algorithms and schedules whose label contains ``needle``."""
    for size_set in size_sets:
        sizes = SIZE_SETS[size_set]
        for algo in sorted(sizes):
            for header, argv in commands(algo, sizes[algo]):
                if needle not in header.split()[-1]:
                    continue
                print(f"### {header} {size_set}", file=out)
                with contextlib.redirect_stdout(out):
                    status = cli.main(argv)
                if status:
                    raise SystemExit(f"{header} exited with status {status}")


if __name__ == "__main__":
    dump()
