"""The scripts under tools/."""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_outcome_dump_prints_each_outcome_of_a_case():
    spec = importlib.util.spec_from_file_location("outcome_dump", ROOT / "tools" / "outcome_dump.py")
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    out = io.StringIO()
    dump.dump(["plain-run"], "count/root", out=out)
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
