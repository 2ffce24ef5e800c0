"""The scripts under tools/."""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def tool(name: str):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcome_dump_prints_each_outcome_of_a_case():
    out = io.StringIO()
    tool("outcome_dump").dump(["plain-run"], "count/root", out=out)
    lines = out.getvalue().splitlines()
    assert [line.split(" ", 3)[:3] for line in lines] == [
        ["plain-run", "count/root", "lanes=3,4,5"],
        ["plain-run", "count/root", "lanes=0,1,2"],
    ]
    for line in lines:
        fields = json.loads(line.split(" ", 3)[3])
        assert fields["findings"] == [] and fields["points"] == 16 + 160
        assert sorted(fields["mem"]) == ["count", "inp"]
        assert all(len(h) == 40 for h in fields["mem"].values())


def test_text_dump_prints_each_command_of_an_algorithm():
    out = io.StringIO()
    tool("text_dump").dump(["test"], "count", out=out)
    # a header line, then the command's output
    parts = re.split(r"^### (.*)\n", out.getvalue(), flags=re.M)[1:]
    sections = dict(zip(parts[::2], parts[1::2]))
    assert list(sections) == ["encode count test"] + [
        f"{command} count/{sched} test"
        for sched in ("par", "root", "tail", "vec")
        for command in ("nest", "annotate", "annotate --no-user")
    ]
    # the test sizes keep count at its default width
    assert sections["encode count test"] == (ROOT / "tests" / "golden" / "count.pvl").read_text()
    assert "parallel x in [0, 15]:  # batch, depth 1\n" in sections["nest count/par test"]
    assert "for x.xo in [0, 3]:  # batch, depth 2, steps 10\n" in sections["nest count/tail test"]


def test_soak_counts_the_fuzz_oracle_failures_by_class(monkeypatch):
    soak = tool("soak")
    out = io.StringIO()
    assert soak.soak(4, 11, out=out) == {}
    assert out.getvalue().startswith("4 chains at seed 11: 4 passed, 0 failed")

    # a chain the oracle rejects is counted under its exception and line
    def oracle(case):
        raise KeyError(case[0])

    monkeypatch.setattr(soak, "ORACLE", oracle)
    out = io.StringIO()
    ((key, (count, case)),) = soak.soak(3, 11, out=out).items()
    assert key.startswith("KeyError at test_tools.py:") and count == 3
    assert out.getvalue().splitlines()[1].split() == [str(count), *key.split(), f"{case[0]}:", *case[1].split()]


def test_fuzz_dump_prints_a_line_per_chain():
    fuzz_dump = tool("fuzz_dump")
    out = io.StringIO()
    fuzz_dump.dump(5, 5, out=out)
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    for line in lines:
        algo, text, outcome = line.split(" | ")
        assert algo in fuzz_dump.test_checker.FUZZED and text.endswith(";")
        assert re.fullmatch(r"ok [0-9a-f]{40}|raised \w+: .+", outcome), outcome


def test_paper_sizes_prints_a_line_per_schedule_and_the_peak_rss():
    paper_sizes = tool("paper_sizes")
    reference = paper_sizes.checker.eval_reference
    out = io.StringIO()
    paper_sizes.measure("memory", "blur", 1 / 64, out=out)
    assert paper_sizes.checker.eval_reference is reference  # the timer is removed
    *lines, last = out.getvalue().splitlines()
    pattern = r"blur/(\w+)  check \d+\.\d{3} s  reference (\d+\.\d{3}) s  pass"
    assert [re.fullmatch(pattern, line)[1] for line in lines] == ["fused", "inline", "ref", "rows", "tail"]
    assert re.fullmatch(r"peak RSS \d+ MB", last)


def test_paper_sizes_checks_functional_mode():
    out = io.StringIO()
    tool("paper_sizes").measure("user", "blur", 1 / 64, out=out)
    *lines, last = out.getvalue().splitlines()
    pattern = r"blur/(\w+)  check \d+\.\d{3} s  reference \d+\.\d{3} s  pass"
    assert [re.fullmatch(pattern, line)[1] for line in lines] == ["fused", "inline", "ref", "rows", "tail"]
    assert re.fullmatch(r"peak RSS \d+ MB", last)


def test_compile_times_prints_a_row_per_layer_and_a_json_line(monkeypatch, capsys):
    compile_times = tool("compile_times")
    monkeypatch.setattr(compile_times, "REPS", 1)
    ms = compile_times.measure()
    head, columns, *rows, last = capsys.readouterr().out.splitlines()
    assert head == "min of 1 repetitions, ms over 50 schedules at 2 size sets"
    assert columns.split() == ["layer", "test", "verify", "total"]
    layers = ["parse", "validate default", "validate sizes", "lower", "annotate user", "annotate memory", "encode", "front end"]
    assert [row.rsplit(maxsplit=3)[0] for row in rows] == layers
    summary = json.loads(last)
    assert summary["reps"] == 1 and summary["schedules"] == 50 and list(summary["ms"]) == layers
    assert all(ms[layer]["total"] > 0 for layer in layers)
    front = ms["front end"]["total"]
    assert abs(front - sum(ms[layer]["total"] for layer in layers[:3])) < 1e-6


def test_same_as_reports_the_first_line_that_differs():
    difference = tool("same_as").difference
    text = "### nest a/b test\nfor x:\n  s\n### nest a/c test\nfor y:\n  t\n"
    assert difference(text, text) == []
    assert difference(text, text.replace("  t", "  u"), ("HEAD", "working tree")) == [
        "differs at line 6, under ### nest a/c test",
        "  HEAD           t",
        "  working tree   u",
    ]
    outcomes = "verify a/b lanes=3,4,5 {}\nverify a/c lanes=3,4,5 {}\n"
    assert difference(outcomes, outcomes[:-3] + '{"x": 1}\n') == [
        "differs at line 2, in case verify a/c lanes=3,4,5",
        "  before verify a/c lanes=3,4,5 {}",
        '  after  verify a/c lanes=3,4,5 {"x": 1}',
    ]
    assert difference(outcomes, outcomes + "extra\n")[1:] == ["  before <end of output>", "  after  extra"]
    # a fuzz line names its case before its last bar
    fuzz = "blur | f.parallel(x); | ok 1\n"
    assert difference(fuzz, fuzz.replace("ok 1", "ok 2"))[0] == "differs at line 1, in case blur | f.parallel(x);"
    assert difference(outcomes, outcomes[:-1]) == ["differs in its line ends after line 2"]


def test_line_coverage_lists_each_line_never_run_with_its_function():
    cov = tool("line_coverage")
    source = "def f(x):\n    if x:\n        return 1\n    return 2\n\n\nclass C:\n    def g(self):\n        return [y for y in ()]\n"
    code = compile(source, "m.py", "exec")
    assert cov.executable(code) == {
        1: "f", 2: "f", 3: "f", 4: "f", 7: "C", 8: "C.g", 9: "C.g.<locals>.<listcomp>",
    }
    # the module ran, and f(0)
    lines = cov.report({"pkg/m.py": (code, source)}, {"pkg/m.py": {1, 2, 4, 7, 8}})
    assert lines == [
        "pkg/m.py:3 f  return 1",
        "pkg/m.py:9 C.g.<locals>.<listcomp>  return [y for y in ()]",
        "2 of 7 executable lines never run: m 2",
    ]
    assert cov.report({"pkg/m.py": (code, source)}, {"pkg/m.py": set(range(10))}) == [
        "0 of 7 executable lines never run"
    ]
