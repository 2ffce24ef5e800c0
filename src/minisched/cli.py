"""Command-line entry point (the ``minisched`` console script).

``minisched annotate <algo.hal> <file.sched> [--scale k=v ...] [--no-user]``
prints the loop nest that the schedule lowers to, with the annotations the
compiler attaches to each node: first the pipeline-level contract, then
every node with its invariants, requires, ensures and context lines.  An
unrolled loop shows its one body, its variable symbolic, as the checker
runs it.  Each line ends with the annotation's origin; a dormant reduction
annotation names the loop it waits for.  ``--scale`` overrides pipeline
parameters, and ``--no-user`` keeps only the generated memory-safety
annotations.

``minisched encode <algo.hal> [--scale k=v ...]`` prints the algorithm's
encoding as PVL pure functions with the pipeline lemma.

``minisched nest <algo.hal> <file.sched> [--scale k=v ...]`` prints the
plain loop nest that the schedule lowers to, an unrolled loop's body once
per step with its variable replaced by the step's value.  Each loop that
the checker runs in batches is marked; everything beneath it,
producer-consumer sequences and their private storage included, runs in
those batches.  There a serial loop, unrolled or not,
whose variable a store index mentions runs its iterations side by side,
and any other, a step loop, one iteration at a time.  The mark shows
``depth N``, the batch's loop and the chain of side-by-side loops below it
that are each the only node of their parent's body; a batch with step
loops also shows ``steps M``, the statement slots of one execution of the
body of that chain's innermost loop.  A step loop that runs all its steps at
once, as one prefix sum, is marked ``scan``.

``minisched check <algo.hal> <file.sched> [--scale k=v ...] [--seeds N ...]
[--no-user | --plain]`` checks the schedule on one input set per seed and
prints one JSON report per seed, with its findings and statistics.
``--no-user`` keeps only the generated memory-safety annotations, and
``--plain`` runs the nest without annotations.  The exit status is 1 when
any seed fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .annotate import AnnotatedPipeline, RegionPerm, annotate
from .checker import batch_heads, check_lowered, check_schedule, to_reports
from .encoder import encode
from .lowering import Chain, Consume, If, Loop, Produce, Store, StoreStmt, lower, print_loop_nest
from .parser import parse_pipeline, parse_schedule
from .printing import ExprPrinter, quantified

_PR = ExprPrinter(dialect="cann")


def ann_text(a) -> str:
    """One annotation as ``kind: body  <origin>``."""
    if isinstance(a, RegionPerm):
        a = a.quantified()
    body = _PR.print(a.body)
    if a.quants:
        body = quantified(a.quants, None, body, _PR)
    tag = "" if a.live else f"  [dormant until {a.until}]"
    return f"{a.kind}: {body}{tag}  <{a.origin}>"


def _label(n) -> str:
    match n:
        case Loop(dim, owner, _):
            return f"{dim.kind} loop {dim.var} [{_PR.print(dim.lo)}, +{dim.extent}) owner={owner}"
        case Produce(func, _) | Consume(func, _) | Store(func, _, _):
            return f"{type(n).__name__.lower()} {func}"
        case If(cond, _, _):
            return f"if {_PR.print(cond)}"
        case StoreStmt():
            return f"stmt {n.func}.s{n.stage} {_PR.print(n.index)} = {_PR.print(n.value)}"
        case Chain():
            return "chain"
    raise TypeError(f"cannot print node {type(n).__name__}")


def annotated_nest(ap: AnnotatedPipeline) -> list[str]:
    """The annotated loop nest, one line per node and per annotation."""
    lines = ["== top =="] + [f"  {ann_text(a)}" for a in ap.top]

    def dump(n, depth: int):
        pad = "  " * depth
        lines.append(pad + _label(n))
        aset = ap.at(n)
        for slot in ("invariants", "requires", "ensures", "context"):
            for a in getattr(aset, slot):
                lines.append(f"{pad}  | {slot[:3]} {ann_text(a)}")
        for c in getattr(n, "body", []):
            dump(c, depth + 1)

    dump(ap.lp.root, 0)
    return lines


def _scale(text: str) -> tuple[str, int]:
    name, sep, value = text.partition("=")
    try:
        if not sep or not name:
            raise ValueError
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=INT, got {text!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="minisched", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    algo = argparse.ArgumentParser(add_help=False)
    algo.add_argument("algo", type=Path, help="the algorithm (.hal)")
    algo.add_argument(
        "--scale", type=_scale, action="append", default=[], metavar="NAME=INT",
        help="override a pipeline parameter (repeatable)",
    )
    sub.add_parser("encode", parents=[algo], help="print the PVL encoding of an algorithm")
    sched = argparse.ArgumentParser(add_help=False, parents=[algo])
    sched.add_argument("schedule", type=Path, help="the schedule (.sched)")
    no_user = dict(action="store_true", help="generated memory-safety annotations only")
    sub.add_parser("nest", parents=[sched], help="print the loop nest of a schedule, marking its batches")
    cmd = sub.add_parser("annotate", parents=[sched], help="print the annotated loop nest of a schedule")
    cmd.add_argument("--no-user", **no_user)
    cmd = sub.add_parser("check", parents=[sched], help="check a schedule; print one JSON report per seed")
    cmd.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], metavar="N", help="input seeds")
    mode = cmd.add_mutually_exclusive_group()
    mode.add_argument("--no-user", **no_user)
    mode.add_argument("--plain", action="store_true", help="run the nest without annotations")
    args = ap.parse_args(argv)

    p = parse_pipeline(args.algo.read_text()).validated(dict(args.scale))
    if args.command == "encode":
        sys.stdout.write(encode(p).render())
        return 0
    directives = parse_schedule(args.schedule.read_text())
    if args.command == "check":
        if args.plain:
            result = check_lowered(p, directives, args.seeds)
        else:
            result = check_schedule(p, directives, args.seeds, include_user=not args.no_user)
        reports = to_reports(p.name, args.schedule.stem, args.seeds, result)
        print(json.dumps(reports, indent=2))
        return int(any(r["verdict"] == "fail" for r in reports))
    lp = lower(p, directives)
    if args.command == "nest":
        heads = batch_heads(lp.root)
        scans = {id(x) for plan in heads.values() for scan in plan.scans.values() for x in scan.chain}

        def mark(loop) -> str:
            plan = heads.get(id(loop))
            if plan is None:
                return "  # scan" if id(loop) in scans else ""
            chain = [loop]
            while len(chain[-1].body) == 1 and id(chain[-1].body[0]) in plan.expanded:
                chain.append(chain[-1].body[0])
            steps = sum(plan.spans[id(c)] for c in chain[-1].body)
            return f"  # batch, depth {len(chain)}" + (f", steps {steps}" if plan.stepped else "")

        sys.stdout.write(print_loop_nest(lp, mark))
        return 0
    for line in annotated_nest(annotate(lp, include_user=not args.no_user)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
