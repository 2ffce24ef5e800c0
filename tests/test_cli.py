"""The ``minisched`` console script."""

from __future__ import annotations

import pathlib

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
