"""Spans around the public functions of each minisched layer.

Every function is wrapped where the program looks it up at call time:
``lowering.lower`` reads ``apply_directives``, ``infer_bounds`` and
``build_loop_nest`` as module globals, ``check_schedule`` and
``check_lowered`` read the ``checker`` globals, ``check_frontend`` imports
``eval_reference`` from ``checker`` when called, and ``parse_pipeline``
calls ``Pipeline.validated`` through the class.  Spans stay in memory; the
worker writes them out when its pass ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


def _walk(node):
    yield node
    for child in getattr(node, "body", []):
        yield from _walk(child)


def _annotation_count(ap) -> int:
    total = len(ap.top)
    for aset in ap.node.values():
        total += len(aset.invariants) + len(aset.requires)
        total += len(aset.ensures) + len(aset.context)
    return total


def _nest_nodes(lp) -> int:
    return sum(1 for _ in _walk(lp.root))


def _points(res) -> Counter:
    return Counter({"checker.points": res.points, "checker.instantiations": res.instantiations})


def _frontend_points(res) -> Counter:
    return Counter({"encoder.frontend_points": res.points})


def targets():
    """(owner, attribute, layer metric, counter) for every traced function.

    The counter maps the function's return value to counts, or is None.
    """
    from minisched import checker, encoder, lowering, parser
    from minisched.ir import Pipeline

    return [
        (parser, "parse_pipeline", "parser.parse_ms", None),
        (parser, "parse_schedule", "parser.parse_ms", None),
        (Pipeline, "resolve", "ir.validate_ms", None),
        (Pipeline, "validated", "ir.validate_ms", None),
        (lowering, "apply_directives", "lowering.schedule_ms", None),
        (lowering, "infer_bounds", "lowering.bounds_ms", None),
        (
            lowering,
            "build_loop_nest",
            "lowering.nest_ms",
            lambda lp: Counter({"lowering.nest_nodes": _nest_nodes(lp)}),
        ),
        (
            checker,
            "annotate",
            "annotate.annotate_ms",
            lambda ap: Counter({"annotate.annotations": _annotation_count(ap)}),
        ),
        (checker, "make_inputs", "checker.inputs_ms", None),
        (checker, "assert_buffer_requires", "checker.inputs_ms", None),
        (checker, "check_annotations", "checker.check_ms", _points),
        (checker, "run_lowered", "checker.run_ms", _points),
        (checker, "eval_reference", "checker.reference_ms", None),
        (checker, "compare_to_reference", "checker.compare_ms", None),
        (encoder, "encode", "encoder.encode_ms", None),
        (encoder, "check_frontend", "encoder.frontend_ms", _frontend_points),
    ]


class Tracer:
    """Records (name, start, end, parent) spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.layer_of: dict[str, str] = {}

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, layer, counter in targets():
            fn = owner.__dict__[attr]
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            self.layer_of[name] = layer
            setattr(owner, attr, self.wrap(name, fn, counter))

    def self_ms(self) -> dict[int, float]:
        """Self time of every span in ms: its duration minus its children's."""
        own = {i: (s[2] - s[1]) * 1000 for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= (s[2] - s[1]) * 1000
        return own

    def layer_ms(self, root: int) -> dict[str, float]:
        """Self time per layer metric over the spans under span ``root``."""
        own = self.self_ms()
        inside = {root}
        for i, s in enumerate(self.spans):
            if s[3] in inside:
                inside.add(i)
        out: defaultdict[str, float] = defaultdict(float)
        for i in inside:
            layer = self.layer_of.get(self.spans[i][0])
            if layer is not None:
                out[layer] += own[i]
        return dict(out)
