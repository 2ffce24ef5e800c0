"""Surface syntax: round-trips, desugaring, and rejection behaviour."""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisched.ir import (
    BinOp,
    Const,
    FuncAccess,
    MaxOf,
    MinOf,
    Not,
    ParseError,
    PipelineError,
    Select,
    ValidationError,
    Var,
)
from minisched.parser import (
    _Parser,
    parse_pipeline,
    parse_schedule,
    print_pipeline,
    print_schedule,
)
from minisched.printing import ExprPrinter

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "corpus", "*.hal")))


@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_round_trips(path):
    with open(path) as fh:
        first = parse_pipeline(fh.read())
    again = parse_pipeline(print_pipeline(first))
    assert again == first


@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_validates(path):
    with open(path) as fh:
        parse_pipeline(fh.read()).validated()


SKEL = """
pipeline t(inp) -> out {{
  param n = 8;
  buffer inp(x in [0, n));
  func out(x in [0, n)) {{
    out(x) = {expr};
  }}
}}
"""


def rhs(expr: str):
    p = parse_pipeline(SKEL.format(expr=expr))
    return p.func("out").stages[0].rhs


def test_comparison_normalized_to_less_than():
    # Only < and <= exist in the tree; > and >= arrive swapped.
    assert rhs("select(inp(x) > 0, 1, 0)") == rhs("select(0 < inp(x), 1, 0)")
    assert rhs("select(inp(x) >= 0, 1, 0)") == rhs("select(0 <= inp(x), 1, 0)")


def test_chained_comparison_becomes_conjunction():
    chained = rhs("select(0 <= inp(x) < 8, 1, 0)")
    spelled = rhs("select(0 <= inp(x) && inp(x) < 8, 1, 0)")
    assert chained == spelled


def test_division_sugar_is_euclidean():
    e = rhs("inp(x) / 3 + inp(x) % 3")
    ops = set()

    def collect(n):
        if isinstance(n, BinOp):
            ops.add(n.op)
            collect(n.left)
            collect(n.right)

    collect(e)
    assert "hdiv" in ops and "hmod" in ops
    assert "/" not in ops and "%" not in ops


def test_precedence_mul_binds_tighter_than_add():
    assert rhs("inp(x) + 2 * 3") == rhs("inp(x) + (2 * 3)")
    assert rhs("inp(x) + 2 * 3") != rhs("(inp(x) + 2) * 3")


def test_implication_binds_loosest():
    a = rhs("select(0 < x && x < 4 ==> 0 < inp(x), 1, 0)")
    b = rhs("select((0 < x && x < 4) ==> (0 < inp(x)), 1, 0)")
    assert a == b


def test_listing_style_schedule_parses_to_eight_directives():
    ds = parse_schedule(
        "blur_y.split(y, yo, yi, 8).parallel(yo).split(x, xo, xi, 2).unroll(xi);\n"
        "blur_x.store_at(blur_y, yo).compute_at(blur_y, yi).split(x, xo, xi, 2).unroll(xi);\n"
    )
    assert [d.kind for d in ds] == [
        "split",
        "parallel",
        "split",
        "unroll",
        "store_at",
        "compute_at",
        "split",
        "unroll",
    ]
    assert ds[0].func == "blur_y" and ds[0].args == ("y", "yo", "yi", 8)
    assert ds[4].func == "blur_x" and ds[4].args == ("blur_y", "yo")


def test_schedule_round_trips():
    text = "f.split(x, xo, xi, 4).reorder(xi, xo).parallel(xo);\ng.fuse(x, y, t).unroll(t);\n"
    ds = parse_schedule(text)
    assert parse_schedule(print_schedule(ds)) == ds


def test_reserved_word_rejected_as_name():
    with pytest.raises(ParseError):
        parse_pipeline(SKEL.format(expr="1").replace("func out", "func select"))


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_schedule("f.tile(x, y, xo, yo, 4, 4);")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_pipeline(SKEL.format(expr="1") + "wat")


def test_unterminated_statement_rejected():
    with pytest.raises(ParseError):
        parse_pipeline(SKEL.format(expr="1").replace("out(x) = 1;", "out(x) = 1"))


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("pipeline p(inp) -> out {\n  param n = ;\n}", 2, 13),
        # an unexpected character after a comment line
        ("pipeline p(inp) -> out {\n  // a comment line\n  param n = 4 $ 2;\n}", 3, 15),
        # a tab counts as one column
        ("pipeline p(inp) -> out {\n\tparam n = 1;\n\t\tparam m = ;\n}", 3, 13),
        # the end of a last line with no trailing newline
        ("pipeline p(inp) -> out {\n  param n = 1;\n  param m = 2 +", 3, 16),
        # the end of an unterminated block, after its last newline
        ("pipeline p(inp) -> out {\n  param n = 1;\n", 3, 1),
        ("pipeline p(inp) -> out {\n  func out(x in [0, 4)) {\n    out(x) = 1;\n", 4, 1),
        # carriage returns are whitespace; only newlines start a line
        ("pipeline p(inp) -> out {\r\n  param n = 1; // tail\r\n  out(x) = inp(x) @ 1;\r\n}\r\n", 3, 19),
    ],
    ids=["param-value", "after-comment", "tab", "no-final-newline", "open-pipeline", "open-func", "carriage-return"],
)
def test_error_carries_location(text, line, col):
    with pytest.raises(ParseError) as info:
        parse_pipeline(text)
    assert (info.value.span.line, info.value.span.col) == (line, col)


@pytest.mark.parametrize(
    "decls, found",
    [
        (
            "  buffer inp(x in [0, 4));\n  buffer inp(x in [0, 2));\n  func out(x in [0, 4)) {\n    out(x) = inp(x);\n  }\n",
            "ParseError at 3:3: buffer 'inp' redeclared",
        ),
        # at the token after the func's closing brace
        ("  buffer inp(x in [0, 4));\n  func out(x in [0, 4)) {\n  }\n", "ParseError at 5:1: func 'out' has no stages"),
    ],
    ids=["buffer-redeclared", "func-without-stages"],
)
def test_the_parser_rejects_a_repeated_buffer_and_an_empty_func(decls, found):
    with pytest.raises(ParseError) as info:
        parse_pipeline("pipeline p(inp) -> out {\n" + decls + "}\n")
    assert str(info.value) == found


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet="pipeline func buffer param ensures requires over select forall"
        " xyriot0123456789()[]{};=<>&|!+-*/%.,\n ",
        max_size=160,
    )
)
def test_parser_is_total(text: str):
    """Arbitrary input either parses or raises a diagnostic, never crashes."""
    try:
        parse_pipeline(text)
    except PipelineError:
        pass
    try:
        parse_schedule(text)
    except PipelineError:
        pass


# Expression trees with every node the DSL spells and every operator the
# printer ranks, negative constants among the leaves.
trees = st.recursive(
    st.one_of(
        st.builds(Const, st.integers(-9, 9)),
        st.sampled_from([Var("x"), Var("n"), FuncAccess("f", (Var("x"),))]),
    ),
    lambda sub: st.one_of(
        st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "hdiv", "hmod", "<", "<=", "==", "!=", "&&", "||", "==>"]),
            sub,
            sub,
        ),
        st.builds(Not, sub),
        st.builds(Select, sub, sub, sub),
        st.builds(MinOf, sub, sub),
        st.builds(MaxOf, sub, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None)
@given(trees)
def test_a_printed_expression_parses_back_to_its_tree(e):
    """The DSL printer parenthesizes exactly enough: a comparison that is
    an operand of another comparison among the rest."""
    parser = _Parser(ExprPrinter("dsl").print(e))
    assert parser.written_expr() == e
    assert parser.toks[parser.pos][0] == "eof"


def test_a_comparison_of_a_comparison_is_parenthesized():
    x = FuncAccess("inp", (Var("x"),))
    printed = [
        ExprPrinter("dsl").print(e)
        for e in (
            BinOp("==", BinOp("==", x, Const(1)), Const(1)),
            BinOp("!=", x, BinOp("<", x, Const(2))),
            BinOp("<", BinOp("<", x, Const(1)), Const(1)),
        )
    ]
    assert printed == ["(inp(x) == 1) == 1", "inp(x) != (inp(x) < 2)", "(inp(x) < 1) < 1"]
    # PVL keeps Java's ranks
    assert ExprPrinter("pvl").print(BinOp("==", BinOp("<", x, Const(1)), Const(1))) == "inp(x) < 1 == 1"


# A small expression grammar over integers, the template's parameters, a
# name that nothing declares, and a read of the input.
exprs = st.recursive(
    st.sampled_from(["0", "1", "3", "8", "n", "m", "q", "inp(0)"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%", "<", "<=", ">", "==", "!="]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub, sub).map(lambda t: f"select({t[0]}, {t[1]}, {t[2]})"),
    ),
    max_leaves=5,
)

TEMPLATE = """
pipeline t(inp) -> out {{
  param n = {param};
  param m = 4;
  buffer inp(x in [0, {buf}));
  func out(x in [0, {func})) {{
    out(x) = {rhs};
    out(x) = out(x) + inp(r) over (r in [0, {red}));
  }}
}}
"""


@settings(max_examples=300, deadline=None)
@given(param=exprs, buf=exprs, func=exprs, red=exprs, rhs=exprs)
def test_filled_pipelines_validate_or_raise_a_diagnostic(param, buf, func, red, rhs):
    """Well-formed pipelines whose bounds, parameter and body are drawn
    expressions validate at both sizes or raise a typed error."""
    text = TEMPLATE.format(param=param, buf=buf, func=func, red=red, rhs=rhs)
    try:
        parse_pipeline(text).validated({"m": 6})
    except PipelineError:
        pass


def test_diagnostics_carry_the_spans_of_their_stage_and_annotation():
    text = (
        "pipeline p(inp) -> out {\n"
        "  buffer inp(x in [0, 4));\n"
        "  func out(x in [0, 4)) {\n"
        "\tout(x) = inp(x);\n"
        "    // a reduction may not take a guard\n"
        "\t  out(x) = out(x) + inp(r) if x < 2 over (r in [0, 4));\n"
        "  // a spec reads its func at the defined point only\n"
        "\t\tout.ensures(out(0) > 0);\n"
        "  }\n"
        "}\n"
    )
    with pytest.raises(ValidationError) as info:
        parse_pipeline(text)
    assert [(d.code, str(d.span)) for d in info.value.diagnostics] == [
        ("GuardNotUpdate", "6:4"),
        ("SpecNotCanonical", "8:7"),
    ]
