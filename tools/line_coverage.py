"""List the lines of ``src/minisched`` that the tier-1 tests never run.

    python3 tools/line_coverage.py [PYTEST_ARGS...]

The tests run in this process (``pytest.main``, with ``PYTEST_ARGS`` or the
whole suite by default) under a ``sys.settrace`` tracer that records the
lines executed in files under ``src/minisched``; no coverage package is
needed.  A module's executable lines are those its compiled code objects
list (``co_lines``).  The script prints each line never run, with the
function it is in and its text, then one total line with the count per
module.  It takes about a minute and a half over the whole suite, since the
tracer slows every traced line.  A line it names is either code no test
reaches or dead code; dead code should go.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minisched"


def executable(code: types.CodeType) -> dict[int, str]:
    """Each line that ``code`` or a code object nested in it executes, with
    the qualified name of the innermost one, ``<module>`` at top level."""
    lines: dict[int, str] = {}
    stack = [code]
    while stack:
        c = stack.pop()
        for _, _, line in c.co_lines():
            if line:  # a module's code starts at line 0, which is no line
                lines[line] = c.co_qualname  # an inner code object comes later
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def report(modules: dict[str, tuple[types.CodeType, str]], hits: dict[str, set[int]]) -> list[str]:
    """The lines of ``modules`` (per name, its code and its source) missing
    from ``hits`` (per name, the lines run): one line each, as ``name:line
    function  text``, then the total, with the count per module, most
    first."""
    out, missed = [], {}
    for name, (code, source) in modules.items():
        text = source.splitlines()
        lines = executable(code)
        never = sorted(set(lines) - hits.get(name, set()))
        for line in never:
            out.append(f"{name}:{line} {lines[line]}  {text[line - 1].strip()}")
        if never:
            missed[Path(name).stem] = len(never)
    total = sum(len(executable(code)) for code, _ in modules.values())
    counts = ", ".join(f"{m} {n}" for m, n in sorted(missed.items(), key=lambda kv: (-kv[1], kv[0])))
    out.append(f"{sum(missed.values())} of {total} executable lines never run" + (f": {counts}" if counts else ""))
    return out


def traced(run) -> dict[str, set[int]]:
    """Run ``run()`` with every line executed in ``PACKAGE`` recorded: per
    file, the lines run."""
    hits: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    # the sources as the tests import them, read before they run
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        modules[str(path.relative_to(ROOT))] = (compile(source, str(path), "exec"), source)
    sys.path[:0] = [str(PACKAGE.parent)]
    hits = traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])]))
    lines = report(modules, {str(Path(k).relative_to(ROOT)): v for k, v in hits.items()})
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
