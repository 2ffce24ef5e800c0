"""Check that the working tree prints the same dumps as a git revision.

    python3 tools/same_as.py [REF]

REF (``HEAD`` by default) is exported with ``git archive`` into a temporary
directory.  ``tools/outcome_dump.py``, ``tools/text_dump.py`` and
``tools/fuzz_dump.py`` then run in that tree and in the working tree, each
in a fresh process; a dump script that REF lacks is copied into its tree
from the working tree, so a new dump compares from its first commit on.
For each dump the script prints ``<dump>: identical``, or the first line
that differs, under the ``###`` header above it or, in the other dumps,
with its case, and the line from each tree.  The exit status is 1 when any
dump differs.  A change that must keep the checker's behaviour and the
compiler's text exits 0:

    python3 tools/same_as.py          # before committing
    python3 tools/same_as.py HEAD~1   # after
"""

from __future__ import annotations

import argparse
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DUMPS = ("outcome_dump", "text_dump", "fuzz_dump")


def difference(before: str, after: str, names=("before", "after")) -> list[str]:
    """The report of the first line where ``after`` differs from
    ``before``, each text labelled by ``names``; empty when they are
    identical."""
    if before == after:
        return []
    a, b = before.splitlines(), after.splitlines()
    n = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    if n == len(a) == len(b):  # the lines agree, the line ends do not
        return [f"differs in its line ends after line {n}"]
    line = a[n] if n < len(a) else b[n]
    header = next((h for h in reversed(a[:n]) if h.startswith("### ")), None)
    # an outcome line names its case before its outcome: fuzz lines before
    # their last ``|``, the others in their first three words
    case = line.rpartition(" | ")[0] or " ".join(line.split(" ", 3)[:3])
    where = f"under {header}" if header is not None else "in case " + case
    width = max(map(len, names))
    return [f"differs at line {n + 1}, {where}"] + [
        f"  {name:<{width}} {text[n] if n < len(text) else '<end of output>'}"
        for name, text in zip(names, (a, b))
    ]


def dump(tree: Path, name: str) -> str:
    """The output of ``tools/<name>.py`` run in ``tree``, the working
    tree's script when ``tree`` has none."""
    script = tree / "tools" / f"{name}.py"
    if not script.exists():
        shutil.copyfile(ROOT / "tools" / f"{name}.py", script)
    run = subprocess.run(
        [sys.executable, str(script)],
        cwd=tree, capture_output=True, text=True,
    )
    if run.returncode:
        raise SystemExit(f"{name} failed in {tree}:\n{run.stderr}")
    return run.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?", default="HEAD", help="the git revision to compare with (HEAD)")
    ref = ap.parse_args(argv).ref
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True)
    if archive.returncode:
        raise SystemExit(archive.stderr.decode())
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)  # a git archive of this repository: trusted
        for name in DUMPS:
            report = difference(dump(Path(tmp), name), dump(ROOT, name), (ref, "working tree"))
            print(f"{name}: " + ("\n".join(report) if report else "identical"))
            differs = differs or bool(report)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
