"""The ``minisched`` console script."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from minisched import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def test_annotate_matches_golden(capsys):
    argv = [
        "annotate",
        str(ROOT / "corpus" / "count.hal"),
        str(ROOT / "corpus" / "schedules" / "count" / "par.sched"),
        "--scale",
        "w=4",
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "count_par_annotate.txt").read_text()


def test_annotate_no_user_keeps_memory_safety_only(capsys):
    argv = [
        "annotate",
        str(ROOT / "corpus" / "count.hal"),
        str(ROOT / "corpus" / "schedules" / "count" / "par.sched"),
        "--scale",
        "w=4",
        "--no-user",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "Perm(&_count[x], 1\\1)" in out
    assert "'stage'" not in out and "'rinv'" not in out


def test_annotate_rejects_a_malformed_scale(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["annotate", "a.hal", "b.sched", "--scale", "w"])
    assert err.value.code == 2
    assert "expected NAME=INT" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["count", "blur"])
def test_encode_matches_golden(capsys, algo):
    assert cli.main(["encode", str(ROOT / "corpus" / f"{algo}.hal")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{algo}.pvl").read_text()


def check(capsys, algo: str | pathlib.Path, schedule: pathlib.Path, *flags: str) -> tuple[int, list[dict]]:
    """``algo`` names a corpus algorithm or is the path of one."""
    hal = algo if isinstance(algo, pathlib.Path) else ROOT / "corpus" / f"{algo}.hal"
    status = cli.main(["check", str(hal), str(schedule), *flags])
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        del r["stats"]["millis"]
    return status, reports


def test_check_prints_one_report_per_seed(capsys):
    status, reports = check(
        capsys, "count", ROOT / "corpus" / "schedules" / "count" / "par.sched", "--scale", "w=4"
    )
    assert status == 0
    stats = {"points": 44, "instantiations": 156, "evaluated": 156, "batched_loops": 2, "replayed_loops": 0}
    assert reports == [
        {"pipeline": "count", "schedule": "par", "seed": s, "verdict": "pass", "findings": [], "stats": stats}
        for s in (0, 1, 2)
    ]


def test_check_fails_with_status_one(capsys, tmp_path):
    # the algorithm itself reads inp[8] outside its 8-cell allocation
    algo = tmp_path / "shift.hal"
    algo.write_text(
        "pipeline shift(inp) -> out {\n"
        "  buffer inp(x in [0, 8));\n"
        "  func out(x in [0, 8)) { out(x) = inp(x + 1); }\n"
        "}\n"
    )
    sched = tmp_path / "root.sched"
    sched.write_text("")
    status, reports = check(capsys, algo, sched, "--plain", "--seeds", "7")
    assert status == 1
    assert [(r["seed"], r["verdict"]) for r in reports] == [(7, "fail")]
    messages = [f["message"] for f in reports[0]["findings"]]
    assert "read of inp[8] outside its 8-cell allocation" in messages
    assert "reference semantics undefined: reference evaluation reads inp out of bounds" in messages


def test_python_m_minisched_runs_the_command():
    argv = [
        "annotate",
        str(ROOT / "corpus" / "count.hal"),
        str(ROOT / "corpus" / "schedules" / "count" / "par.sched"),
        "--scale",
        "w=4",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "minisched", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "count_par_annotate.txt").read_text()


def test_nest_marks_the_loops_that_head_a_batch(capsys):
    argv = [
        "nest",
        str(ROOT / "corpus" / "blur.hal"),
        str(ROOT / "corpus" / "schedules" / "blur" / "tail.sched"),
        "--scale",
        "x=8",
        "--scale",
        "y=8",
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "blur_tail_nest.txt").read_text()


def test_nest_shows_the_step_loops_of_a_batch(capsys):
    # the update's (j, io, ii) nest batches, the unrolled ii's two steps
    # side by side as a store index names it; each (j, io, ii) iteration
    # runs the (rt, rk) reduction, 2 * 4 statement slots
    argv = [
        "nest",
        str(ROOT / "corpus" / "matmul.hal"),
        str(ROOT / "corpus" / "schedules" / "matmul" / "unroll.sched"),
        "--scale",
        "n=4",
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "matmul_unroll_nest.txt").read_text()


def test_nest_marks_each_step_loop_that_scans(capsys, tmp_path):
    # count/tail's r loop adds to its own cell beneath the tail guard and
    # scans; an update that doubles its own cell keeps stepping
    argv = ["nest", str(ROOT / "corpus" / "count.hal"), str(ROOT / "corpus" / "schedules" / "count" / "tail.sched")]
    assert cli.main(argv) == 0
    marked = [line.strip() for line in capsys.readouterr().out.splitlines() if "#" in line]
    assert marked == [
        "for x.xo in [0, 3]:  # batch, depth 2",
        "for x.xo in [0, 3]:  # batch, depth 2, steps 10",
        "for r in [0, 9]:  # scan",
    ]
    algo = tmp_path / "doubling.hal"
    algo.write_text(
        "pipeline doubling(inp) -> h {\n"
        "  buffer inp(x in [0, 4), y in [0, 3));\n"
        "  func h(x in [0, 4)) { h(x) = 0; h(x) = h(x) * 2 + inp(x, r) over (r in [0, 3)); }\n"
        "}\n"
    )
    sched = tmp_path / "root.sched"
    sched.write_text("")
    assert cli.main(["nest", str(algo), str(sched)]) == 0
    out = capsys.readouterr().out
    assert "  for x in [0, 3]:  # batch, depth 1, steps 3\n    for r in [0, 2]:\n" in out
    assert "scan" not in out


def test_nest_marks_one_batch_for_a_compute_at_nest(capsys):
    # blur_x computed in each row of blur_y's parallel loop: the whole nest,
    # producer and consumer, is one batch, with nothing marked beneath it
    argv = [
        "nest",
        str(ROOT / "corpus" / "blur.hal"),
        str(ROOT / "corpus" / "schedules" / "blur" / "rows.sched"),
        "--scale",
        "x=64",
        "--scale",
        "y=64",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "blur_rows_nest.txt").read_text()
    assert [line.strip() for line in out.splitlines() if "# batch" in line] == [
        "parallel y in [0, 63]:  # batch, depth 1"
    ]


def test_check_report_counts_are_json_numbers(capsys, tmp_path):
    # the quantified region permission of a parallel block nested in a
    # parallel split bounds its grid through min/max: its instance count
    # comes out of numpy, and the report still serialises
    sched = tmp_path / "s.sched"
    sched.write_text("out.parallel(x); out.split(x, o2, i2, 4); out.parallel(i2);\n")
    status, reports = check(capsys, "conv1d", sched, "--scale", "n=13")
    assert status == 0
    assert all(r["verdict"] == "pass" for r in reports)
    assert all(type(r["stats"]["instantiations"]) is int for r in reports)
