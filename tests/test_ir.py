"""Expression helpers and pipeline validation."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from minisched.ir import (
    BinOp,
    BufAccess,
    Const,
    Frac,
    FuncAccess,
    MaxOf,
    MemTarget,
    MinOf,
    Not,
    PermAtom,
    Select,
    TableRead,
    ValidationError,
    Var,
    _fold,
    compiled,
    eval_const,
    free_vars,
    substitute,
)
from minisched.parser import _Parser, parse_pipeline


def codes(err: ValidationError) -> set[str]:
    return {d.code for d in err.diagnostics}


def test_substitute_folds_constant_tails():
    # (x + 1) with x := xo*2 + 1 must merge the two constants.
    e = BinOp("+", Var("x"), Const(1))
    out = substitute(e, {"x": BinOp("+", BinOp("*", Var("xo"), Const(2)), Const(1))})
    assert out == BinOp("+", BinOp("*", Var("xo"), Const(2)), Const(2))


def test_substitute_erases_additive_zero():
    e = BinOp("+", BinOp("*", Var("x"), Const(1)), Const(0))
    assert substitute(e, {"x": Var("y")}) == Var("y")


def test_substitute_is_simultaneous_when_folding_exposes_a_key():
    # r := r - 1 in r + 1 folds back to r, which must not be substituted again
    e = BinOp("+", Var("r"), Const(1))
    assert substitute(e, {"r": BinOp("-", Var("r"), Const(1))}) == Var("r")


def test_substitute_does_not_chain_through_values():
    # x := y, y := 0 in x + y gives y + 0 = y, not 0
    e = BinOp("+", Var("x"), Var("y"))
    assert substitute(e, {"x": Var("y"), "y": Const(0)}) == Var("y")


def reference_substitute(e, mapping):
    """The match-ladder substitute that the node-shape table replaced: it
    rebuilds the whole tree and folds every BinOp, hit or miss."""
    if not mapping:
        return e
    match e:
        case Var(name):
            return mapping.get(name, e)
        case BinOp(op, l, r):
            return _fold(BinOp(op, reference_substitute(l, mapping), reference_substitute(r, mapping)))
        case Not(x):
            return Not(reference_substitute(x, mapping))
        case Select(c, t, f):
            return Select(*(reference_substitute(x, mapping) for x in (c, t, f)))
        case MinOf(l, r):
            return MinOf(reference_substitute(l, mapping), reference_substitute(r, mapping))
        case MaxOf(l, r):
            return MaxOf(reference_substitute(l, mapping), reference_substitute(r, mapping))
        case FuncAccess(f, args):
            return FuncAccess(f, tuple(reference_substitute(a, mapping) for a in args))
        case BufAccess(b, args):
            return BufAccess(b, tuple(reference_substitute(a, mapping) for a in args))
        case TableRead(t, idx):
            return TableRead(t, reference_substitute(idx, mapping))
        case PermAtom(t, idx, frac):
            return PermAtom(t, reference_substitute(idx, mapping), frac)
        case _:
            return e


TABLE = MemTarget("buffer", "t")
# Raw trees, built without folding, so ``x + 0``, ``1 + 2`` and ``x * 1``
# occur as they come from the parser.
raw_trees = st.recursive(
    st.one_of(st.sampled_from([Var("x"), Var("y"), Var("z")]), st.integers(-2, 3).map(Const)),
    lambda kids: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "hdiv", "<", "&&"]), kids, kids),
        st.builds(Not, kids),
        st.builds(Select, kids, kids, kids),
        st.builds(MinOf, kids, kids),
        st.builds(MaxOf, kids, kids),
        st.builds(FuncAccess, st.just("f"), st.tuples(kids, kids)),
        st.builds(BufAccess, st.just("b"), st.tuples(kids)),
        st.builds(TableRead, st.just(TABLE), kids),
        st.builds(PermAtom, st.just(TABLE), kids, st.just(Frac(1, 2))),
    ),
    max_leaves=12,
)
# Keys that occur (x, y) and one that never does (w).
mappings = st.dictionaries(st.sampled_from(["x", "y", "w"]), raw_trees, max_size=3)


@given(raw_trees, mappings)
def test_substitute_matches_the_reference(e, mapping):
    want = reference_substitute(e, mapping)
    assert substitute(e, mapping) == want
    assert substitute(e, mapping) == want  # again, with the node facts cached
    miss = {"w": Const(7)}
    if reference_substitute(e, miss) == e:  # e is folded
        assert substitute(e, miss) is e


def test_substitute_returns_a_folded_tree_that_the_mapping_misses():
    e = Select(Var("c"), BinOp("+", BinOp("*", Var("x"), Const(4)), Const(3)), TableRead(TABLE, Var("x")))
    assert substitute(e, {"y": Const(1)}) is e
    # a raw tree still comes out folded, hit or miss
    raw = BinOp("*", BinOp("+", Var("x"), Const(0)), BinOp("+", Const(1), Const(2)))
    assert substitute(raw, {"y": Const(1)}) == BinOp("*", Var("x"), Const(3))
    assert substitute(raw, {"x": Var("y")}) == BinOp("*", Var("y"), Const(3))


def test_node_caches_are_invisible():
    def build():
        return BinOp("+", BinOp("*", Var("x"), Const(2)), Select(Var("c"), TableRead(TABLE, Var("x")), Const(1)))

    e, twin = build(), build()
    compiled(e)
    names = free_vars(e)
    assert {"_fn", "_facts"} <= e.__dict__.keys()
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
    copy = dataclasses.replace(e)
    assert copy == e and not {"_fn", "_facts"} & copy.__dict__.keys()
    names.add("w")
    names.discard("x")
    assert free_vars(e) == {"x", "c"}


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_folding_preserves_value(a: int, b: int, c: int):
    e = BinOp("+", BinOp("-", BinOp("+", Var("x"), Const(a)), Const(b)), Const(c))
    folded = substitute(e, {})
    env = {"x": 17}
    assert eval_const(folded, env) == 17 + a - b + c


def test_free_vars_sees_through_operators():
    e = BinOp("&&", BinOp("<", Var("a"), Const(3)), BinOp("==", Var("b"), Var("a")))
    assert free_vars(e) == {"a", "b"}


def test_eval_const_euclidean_ops():
    assert eval_const(BinOp("hdiv", Const(-7), Const(2))) == -4
    assert eval_const(BinOp("hmod", Const(-7), Const(2))) == 1
    assert eval_const(BinOp("hdiv", Const(5), Const(0))) == 0
    assert eval_const(BinOp("hmod", Const(5), Const(0))) == 5


def test_eval_const_rejects_what_is_not_constant():
    with pytest.raises(ValueError, match="compile-time constant"):
        eval_const(BinOp("+", Var("x"), Const(1)))
    with pytest.raises(ValueError, match="not a constant expression"):
        eval_const(TableRead(MemTarget("buffer", "inp"), Const(0)))
    assert type(eval_const(BinOp("<", Const(1), Const(2)))) is int


class Recorder:
    """An evaluation context that serves reads from a table and records
    what the checked hook sees."""

    def __init__(self, table):
        self.table = np.asarray(table)
        self.loads: list = []
        self.checked: list = []

    def load(self, target, index, env):
        self.loads.append(index)
        return self.table[..., index]

    def check(self, v):
        self.checked.append(v)


def test_compiled_closure_is_cached_on_the_node():
    e = BinOp("+", Var("x"), Const(1))
    assert compiled(e) is compiled(e)
    assert compiled(e, checked=True) is not compiled(e)
    twin = BinOp("+", Var("x"), Const(1))
    assert e == twin and hash(e) == hash(twin)


def test_checked_evaluation_skips_read_indices():
    read = TableRead(MemTarget("buffer", "t"), BinOp("*", Var("x"), Const(2)))
    e = BinOp("+", read, Const(5))
    ctx = Recorder([10, 20, 30, 40, 50])
    assert compiled(e, checked=True)({"x": 2}, ctx) == 55
    assert ctx.loads == [4] and ctx.checked == [55]
    assert compiled(e)({"x": 1}, ctx) == 35 and ctx.checked == [55]


def test_truth_values_are_integers_on_arrays():
    x = np.array([-1, 0, 3])
    lt = compiled(BinOp("<", Var("x"), Const(1)))({"x": x}, None)
    both = compiled(BinOp("+", BinOp("<", Var("x"), Const(1)), Not(Var("x"))))({"x": x}, None)
    assert lt.dtype == np.int64 and lt.tolist() == [1, 1, 0]
    assert both.tolist() == [1, 2, 0]  # a bool + would have been logical or


def test_select_on_a_scalar_condition_evaluates_one_branch():
    taken = TableRead(MemTarget("buffer", "t"), Const(1))
    skipped = TableRead(MemTarget("buffer", "t"), Const(99))
    ctx = Recorder([[7, 8], [9, 10]])
    e = Select(BinOp("==", Var("r"), Const(0)), taken, skipped)
    assert compiled(e)({"r": 0}, ctx).tolist() == [8, 10]
    assert ctx.loads == [1]
    # an array condition selects elementwise, each branch at its own points
    e = Select(BinOp("<", Var("x"), Const(1)), Const(1), Var("x"))
    assert compiled(e)({"x": np.array([0, 5])}, None).tolist() == [1, 5]


T = MemTarget("buffer", "t")


def test_select_reads_each_branch_only_at_the_points_that_take_it():
    ctx = Recorder(np.arange(100, 120))
    e = Select(BinOp("<", Var("x"), Const(2)), TableRead(T, Var("x")), TableRead(T, Var("x") + 10))
    assert compiled(e)({"x": np.arange(4)}, ctx).tolist() == [100, 101, 112, 113]
    assert [i.tolist() for i in ctx.loads] == [[0, 1], [12, 13]]
    # all points on one side: the other branch is not read at all
    ctx.loads.clear()
    assert compiled(e)({"x": np.arange(2)}, ctx).tolist() == [100, 101]
    assert [i.tolist() for i in ctx.loads] == [[0, 1]]


def test_select_on_a_storage_condition_reads_both_branches():
    ctx = Recorder(np.arange(20))
    cond = BinOp("<", TableRead(T, Var("x")), Const(2))
    e = Select(cond, TableRead(T, Var("x")), TableRead(T, Var("x") + 10))
    assert compiled(e)({"x": np.arange(4)}, ctx).tolist() == [0, 1, 12, 13]
    assert [i.tolist() for i in ctx.loads] == [[0, 1, 2, 3]] * 2 + [[10, 11, 12, 13]]


def test_implication_reads_its_right_side_only_where_the_left_holds():
    ctx = Recorder(np.arange(20))
    e = BinOp("==>", BinOp("<", Var("x"), Const(3)), BinOp("<", TableRead(T, Var("x") + 10), Const(11)))
    assert compiled(e)({"x": np.arange(5)}, ctx).tolist() == [1, 0, 0, 1, 1]
    assert [i.tolist() for i in ctx.loads] == [[10, 11, 12]]
    ctx.loads.clear()
    assert compiled(e)({"x": 4}, ctx) == 1 and ctx.loads == []


MINIMAL = """
pipeline tiny(inp) -> out {
  param n = 8;
  buffer inp(x in [0, n));
  func out(x in [0, n)) {
    out(x) = inp(x) + 1;
  }
}
"""


def test_minimal_pipeline_validates():
    p = parse_pipeline(MINIMAL).validated()
    assert p.output == "out"
    assert p.func("out").dims[0][1].extent == 8


def test_guard_rejected_on_pure_stage():
    src = MINIMAL.replace("out(x) = inp(x) + 1;", "out(x) = inp(x) + 1 if x < 4;")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "GuardNotUpdate" in codes(exc.value)


def test_arity_mismatch_detected():
    src = MINIMAL.replace("inp(x) + 1", "inp(x, x) + 1")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "ArityMismatch" in codes(exc.value)


def test_unknown_func_detected():
    src = MINIMAL.replace("inp(x) + 1", "inp(x) + ghost(x)")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "UnknownFunc" in codes(exc.value)


def test_a_func_declared_twice_is_a_duplicate_name():
    src = MINIMAL.replace("  func out", "  func out(x in [0, n)) {\n    out(x) = inp(x);\n  }\n  func out", 1)
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    # at the second declaration
    assert [str(d) for d in exc.value.diagnostics] == ["DuplicateName at 8:3: func 'out' redeclared"]


@pytest.mark.parametrize("output", ["ghost", "inp"])
def test_an_output_that_is_not_a_declared_func_is_unknown(output):
    src = MINIMAL.replace("-> out", f"-> {output}")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    # at the name after "->"
    assert [str(d) for d in exc.value.diagnostics] == [f"UnknownFunc at 2:23: output {output!r} is not a declared func"]


def test_a_node_shared_by_a_chained_comparison_is_reported_once():
    # both halves of -1000 <= h(x) <= 1000 hold the one node h(x), which
    # names x at an update of h(0)
    src = """pipeline t(inp) -> h {
  buffer inp(x in [0, 4));
  func h(x in [0, 4)) {
    h(x) = inp(x);
    h(0) = h(0) + h(1);
    h.ensures(-1000 <= h(x) <= 1000);
  }
}"""
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert [str(d) for d in exc.value.diagnostics] == [
        "UnboundVar at 6:7: h stage 1 spec: unknown variable 'x'",
        "SpecNotCanonical at 6:7: h stage 1: specs reference h at the defined point only",
    ]


def test_self_reference_in_pure_stage_rejected():
    src = MINIMAL.replace("inp(x) + 1", "inp(x) + out(x)")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "SelfReference" in codes(exc.value)


def test_unbound_variable_detected():
    src = MINIMAL.replace("inp(x) + 1", "inp(x) + q")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "UnboundVar" in codes(exc.value)


def test_empty_interval_detected():
    src = MINIMAL.replace("buffer inp(x in [0, n));", "buffer inp(x in [4, 4));")
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "EmptyInterval" in codes(exc.value)


def test_bound_above_limit_detected():
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(MINIMAL).validated({"n": 2**20 + 1})
    assert "BoundTooLarge" in codes(exc.value)


def test_scale_override_changes_extent():
    p = parse_pipeline(MINIMAL).validated({"n": 32})
    assert p.func("out").dims[0][1].extent == 32
    # overrides are matched case-insensitively
    p2 = parse_pipeline(MINIMAL).validated({"N": 16})
    assert p2.func("out").dims[0][1].extent == 16


def test_update_stage_may_pin_a_dimension():
    src = """
pipeline pinned(inp) -> grid {
  param n = 8;
  buffer inp(x in [0, n), y in [0, 4));
  func grid(x in [0, n), y in [0, 4)) {
    grid(x, y) = inp(x, y);
    grid(x, 0) = grid(x, 0) + grid(x, 3);
  }
}
"""
    p = parse_pipeline(src).validated()
    stages = p.func("grid").stages
    assert stages[0].kind == "pure"
    assert stages[1].kind == "update"


def test_update_rhs_must_not_use_pinned_dimension():
    src = """
pipeline pinned(inp) -> grid {
  param n = 8;
  buffer inp(x in [0, n), y in [0, 4));
  func grid(x in [0, n), y in [0, 4)) {
    grid(x, y) = inp(x, y);
    grid(x, 0) = grid(x, y) + 1;
  }
}
"""
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "UnboundVar" in codes(exc.value)


def test_pipeline_requires_must_hold_at_default_scale():
    src = MINIMAL.replace(
        "buffer inp(x in [0, n));",
        "buffer inp(x in [0, n));\n  requires inp.x.max == out.x.max + 5;",
    )
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(src).validated()
    assert "RequiresUnsatisfied" in codes(exc.value)


BOUNDS = """
pipeline bounds(inp) -> out {{
  param n = {param};
  param m = 8;
  buffer inp(x in [0, {buf}));
  func out(x in [0, m)) {{
    out(x) = 0;
    out(x) = out(x) + inp(r) over (r in [0, {red}));
  }}
}}
"""


@pytest.mark.parametrize(
    "param, buf, red",
    [("8", "m", "inp(0)"), ("8", "m", "q"), ("8", "inp(1)", "m"), ("inp(2)", "m", "m")],
    ids=["reduction-applies-input", "reduction-unknown-name", "buffer-applies-input", "param-applies-input"],
)
def test_a_bound_that_is_not_a_constant_is_a_typed_rejection(param, buf, red):
    text = BOUNDS.format(param=param, buf=buf, red=red)
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(text)
    assert [d.code for d in exc.value.diagnostics] == ["NonConcreteBound"]
    # the same pipeline parsed without parse_pipeline's default-size check
    with pytest.raises(ValidationError) as exc:
        _Parser(text).pipeline().validated({"m": 4})
    assert [d.code for d in exc.value.diagnostics] == ["NonConcreteBound"]
    assert parse_pipeline(BOUNDS.format(param="8", buf="m", red="m")).validated({"m": 4})


DOMAINS = """
pipeline dom(inp) -> out {{
  buffer inp(x in {buf});
  func out(x in {func}) {{
    out(x) = inp(x);
  }}
}}
"""


@pytest.mark.parametrize(
    "buf, func, found",
    [
        ("[0, q)", "[0, 4)", ("NonConcreteBound", "3:3")),
        ("[4, 0)", "[0, 4)", ("EmptyInterval", "3:3")),
        ("[0, 4)", "[0, q)", ("NonConcreteBound", "4:3")),
        ("[0, 4)", "[4, 0)", ("EmptyInterval", "4:3")),
    ],
    ids=["buffer-not-constant", "buffer-empty", "func-not-constant", "func-empty"],
)
def test_a_domain_diagnostic_is_at_its_declaration(buf, func, found):
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(DOMAINS.format(buf=buf, func=func))
    assert [(d.code, str(d.span)) for d in exc.value.diagnostics] == [found]


REDUCTION = """
pipeline red(inp) -> out {{
  buffer inp(x in [0, 4));
  func out(x in [0, 4)) {{
    out(x) = 0;
    {stage}
    {spec}
  }}
}}
"""


@pytest.mark.parametrize(
    "domain, code",
    [("r in [0, 2), r in [0, 3)", "DuplicateDim"), ("r in [2, 0)", "EmptyInterval"), ("r in [0, 0)", "EmptyInterval")],
    ids=["repeated", "reversed", "extent-0"],
)
def test_a_reduction_domain_follows_the_domain_rule(domain, code):
    stage = f"out(x) = out(x) + inp(r) over ({domain});"
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(REDUCTION.format(stage=stage, spec=""))
    assert [(d.code, str(d.span)) for d in exc.value.diagnostics] == [(code, "6:5")]


@pytest.mark.parametrize(
    "stage, spec, code, span",
    [
        ("out(x) = out(x) + inp(r) over (r in [0, 4));", "out.invariant(q, out(x) >= 0);", "UnknownRVar", "7:9"),
        ("out(x) = out(x) + 1;", "out.invariant(r, out(x) >= 0);", "UnknownRVar", "6:5"),
        (
            "out(x) = out(x) + inp(rk + rt) over (rk in [0, 2), rt in [0, 2));",
            "out.invariant(rt, out(x) <= rk);",
            "InvariantVarOrder",
            "7:9",
        ),
        ("out(x) = out(0) + inp(r) over (r in [0, 4));", "", "SelfReferenceNotCanonical", "6:5"),
    ],
    ids=["invariant-unknown-variable", "invariant-off-a-reduction", "invariant-names-inner", "self-reference-elsewhere"],
)
def test_reduction_diagnostics_carry_their_code_and_span(stage, spec, code, span):
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(REDUCTION.format(stage=stage, spec=spec))
    assert [(d.code, str(d.span)) for d in exc.value.diagnostics] == [(code, span)]


def test_a_pinned_argument_that_names_no_reduction_variable_is_unbound():
    # out(r) = 2 names an r no domain of the stage declares.  Lowering's
    # closed-nest check and the reference would meet it only as a run
    # fails; validation rejects it at parse, before any check can run.
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(REDUCTION.format(stage="out(r) = 2;", spec="out.ensures(1 == 1);"))
    assert [str(d) for d in exc.value.diagnostics] == ["UnboundVar at 6:5: out stage 1 lhs: unknown variable 'r'"]
    # a pinned reduction variable stays in scope
    parse_pipeline(REDUCTION.format(stage="out(r) = out(r) + 2 over (r in [0, 4));", spec=""))


DIAGNOSED = """
pipeline t(inp, aux) -> out {{
  buffer inp(x in [0, 4));
  buffer aux(x in [0, 4));
  {spec}
  func g(x in [0, 4)) {{
    g(x) = inp(x);
  }}
  func out(x in [0, 4)) {{
    {stage}
  }}
}}
"""


@pytest.mark.parametrize(
    "spec, stage, found",
    [
        ("requires inp(0) > 0;", "out(x) = g(x);", [("PipelineSpecNotBounds", "5:3"), ("NonConcreteBound", "5:3")]),
        ("requires ghost.x.max > 0;", "out(x) = g(x);", [("UnknownFunc", "5:3")]),
        ("requires q > 0;", "out(x) = g(x);", [("NonConcreteBound", "5:3")]),
        (
            "ensures forall (y in [0, ghost.x.max)) out(y) >= 0;",
            "out(x) = g(x);",
            [("UnknownFunc", "5:3"), ("NonConcreteBound", "5:3")],
        ),
        ("ensures forall (y in [0, q)) out(y) >= 0;", "out(x) = g(x);", [("NonConcreteBound", "5:3")]),
        ("ensures forall (y in [0, 4)) g(y) >= 0;", "out(x) = g(x);", [("PipelineSpecScope", "5:3")]),
        ("ensures out(q) >= 0;", "out(x) = g(x);", [("UnboundVar", "5:3")]),
        ("", "out(x, x) = g(x);", [("ArityMismatch", "10:5")]),
        ("", "out(0) = g(0);", [("LhsNotCanonical", "10:5")]),
        ("", "out(x) = g(x);\n    out(x + 1) = 2;", [("LhsNotCanonical", "11:5")]),
        ("", "out(x) = g(x);\n    out(x) = out(x, 0) + 1;", [("ArityMismatch", "11:5")]),
        ("", "out(x) = g(x, 0);", [("ArityMismatch", "10:5")]),
        ("inp.requires(q > 0);", "out(x) = g(x);", [("UnboundVar", "5:3")]),
        ("inp.requires(aux(x) > 0);", "out(x) = g(x);", [("PipelineSpecScope", "5:3")]),
        ("inp.requires(inp(0) > 0);", "out(x) = g(x);", [("SpecNotCanonical", "5:3")]),
        ("inp.requires(g(x) > 0);", "out(x) = g(x);", [("PipelineSpecScope", "5:3")]),
    ],
    ids=[
        "requires-reads-a-buffer",
        "requires-unknown-entity",
        "requires-not-closed",
        "ensures-range-unknown-entity",
        "ensures-range-not-closed",
        "ensures-reads-another-func",
        "ensures-unquantified-variable",
        "lhs-arity",
        "pure-lhs-pinned",
        "update-lhs-names-a-dimension",
        "self-application-arity",
        "other-application-arity",
        "buffer-requires-unknown-variable",
        "buffer-requires-other-buffer",
        "buffer-requires-other-cell",
        "buffer-requires-calls-a-func",
    ],
)
def test_validation_diagnostics_carry_their_code_and_span(spec, stage, found):
    with pytest.raises(ValidationError) as exc:
        parse_pipeline(DIAGNOSED.format(spec=spec, stage=stage))
    assert [(d.code, str(d.span)) for d in exc.value.diagnostics] == found
