"""Pure-function encoding: golden output, recursion shape, front-end check.

The golden files were frozen from reviewed runs and pin the rendering byte
for byte.  Structural assertions are whitespace-insensitive so they
express the shape (base case, contract, entry wiring) rather than the
formatter.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisched import checker as C
from minisched.encoder import (
    EncodedProgram,
    _FrontEval,
    check_decreases_static,
    check_frontend,
    encode,
)
from minisched.ir import (
    BinOp,
    Const,
    EncodeError,
    FuncAccess,
    Result,
    Select,
    Var,
    eq,
    walk,
)
from minisched.parser import parse_pipeline

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SCALES = {
    "blur": {"x": 8, "y": 8},
    "count": {"w": 16},
    "matmul": {"n": 8},
    "conv1d": {"n": 8},
    "chain3": {"n": 8},
    "update2": {"n": 8},
}

ALGOS = sorted(SCALES)

SEEDS = [0, 1, 2]


def source(algo: str) -> str:
    return (CORPUS / f"{algo}.hal").read_text()


def load(algo: str, scale=None):
    return parse_pipeline(source(algo)).resolve(scale or SCALES[algo]).validated()


def squash(text: str) -> str:
    return "".join(text.split())


# ---------------------------------------------------------------------------
# Golden renderings at the default scales


@pytest.mark.parametrize("algo", ["count", "blur"])
def test_rendering_matches_golden(algo):
    p = parse_pipeline(source(algo)).resolve().validated()
    assert encode(p).render() == (GOLDEN / f"{algo}.pvl").read_text()


def test_rendering_is_deterministic():
    a = encode(parse_pipeline(source("matmul")).resolve().validated()).render()
    b = encode(parse_pipeline(source("matmul")).resolve().validated()).render()
    assert a == b


def test_count_recursion_shape():
    p = parse_pipeline(source("count")).resolve().validated()
    text = squash(encode(p).render())
    assert "r==0?count0(x)" in text
    assert "requires0<=r&&r<=10;" in text
    assert "ensures(0<=\\result&&\\result<=r);" in text
    assert "decreasesr;" in text
    assert "intcount(intx)=count1r(x,10);" in text


def test_blur_encoding_shape():
    p = parse_pipeline(source("blur")).resolve().validated()
    text = squash(encode(p).render())
    assert "intblur_x(intx,inty)=(inp(x,y)+inp(x+1,y)+inp(x+2,y))/3;" in text
    assert "inp_x_max()==blur_y_x_max()+2" in text
    assert text.endswith("voidpipeline(){}")


def test_declarations_precede_their_callers():
    p = load("matmul")
    prog = encode(p)
    seen: set[str] = set()
    for d in prog.declarations:
        if d.body is not None:
            for n in walk(d.body):
                if isinstance(n, FuncAccess) and n.func != d.name:
                    assert n.func in seen, f"{d.name} calls {n.func} before its declaration"
        seen.add(d.name)


# ---------------------------------------------------------------------------
# Stage encodings


def test_single_stage_funcs_keep_their_names():
    prog = encode(load("chain3"))
    names = {d.name for d in prog.declarations}
    assert {"base", "mid", "lift"} <= names
    assert "lift0" not in names


def test_update_stage_becomes_a_point_match():
    prog = encode(load("update2"))
    d = prog.decl("grid1")
    assert isinstance(d.body, Select)
    calls = {n.func for n in walk(d.body) if isinstance(n, FuncAccess)}
    assert calls == {"grid0"}
    # the stage postcondition only binds on the pinned row
    [post] = d.ensures
    assert isinstance(post, BinOp) and post.op == "==>"
    assert post.left == eq(Var("y"), 0)
    entry = prog.decl("grid")
    assert isinstance(entry.body, FuncAccess) and entry.body.func == "grid1"


def test_two_variable_reduction_unrolls_into_a_chain():
    prog = encode(load("matmul"))
    inner = prog.decl("prod1rk")
    outer = prog.decl("prod1rt")
    assert inner.decreases == ("rt", "rk")
    assert outer.decreases == ("rt",)
    entry = prog.decl("prod")
    assert entry.body == FuncAccess("prod1rt", (Var("i"), Var("j"), Const(2)))
    # the outer step hands the inner recursion a completed sweep
    assert FuncAccess("prod1rk", (Var("i"), Var("j"), Const(4), Var("rt") - 1)) in set(
        walk(outer.body)
    )


def test_buffer_value_bounds_become_result_bounds():
    prog = encode(load("matmul"))
    for name in ("a", "b"):
        d = prog.decl(name)
        assert d.body is None
        assert any(isinstance(n, Result) for e in d.ensures for n in walk(e))


def test_bound_functions_carry_concrete_bounds():
    prog = encode(load("conv1d"))
    assert prog.decl("sig_x_min").body == Const(0)
    assert prog.decl("sig_x_max").body == Const(10)
    assert prog.decl("w_k_max").body == Const(3)


def test_missing_reduction_invariant_is_an_error():
    src = "\n".join(l for l in source("count").splitlines() if "invariant" not in l)
    p = parse_pipeline(src).resolve().validated()
    with pytest.raises(EncodeError) as exc:
        encode(p)
    assert exc.value.code == "MissingReductionInvariant"


def test_autogen_needs_an_output_postcondition():
    src = source("count").replace("count.ensures(0 <= count(x) <= 10);", "")
    p = parse_pipeline(src).resolve().validated()
    with pytest.raises(EncodeError) as exc:
        encode(p)
    assert exc.value.code == "NoIntermediateAnnotation"


def test_pipelines_without_a_contract_get_one_derived():
    prog = encode(load("count"))
    assert prog.lemma.requires == ()
    [post] = prog.lemma.ensures
    assert [q.var for q in post.quants] == ["x"]
    text = squash(encode(load("count")).render())
    assert "count_x_min()<=x&&x<count_x_max()" in text


def test_stated_pipeline_contracts_pass_through():
    p = load("blur")
    prog = encode(p)
    assert len(prog.lemma.requires) == len(p.requires)
    assert prog.lemma.ensures == p.ensures


# ---------------------------------------------------------------------------
# The front-end check


@pytest.mark.parametrize("algo", ALGOS)
def test_frontend_check_passes_the_corpus(algo):
    p = load(algo)
    r = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert r.passed, [f.message for f in r.findings]
    assert r.points > 0


@pytest.mark.parametrize("algo", ALGOS)
def test_static_termination_check_passes_the_corpus(algo):
    assert check_decreases_static(encode(load(algo))) == []


@settings(max_examples=8, deadline=None)
@given(w=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_count_encoding_is_faithful_at_any_width(w, seed):
    p = parse_pipeline(source("count")).resolve({"w": w}).validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, [seed]))
    assert r.passed, [f.message for f in r.findings]


def test_tightened_invariant_is_detected():
    src = source("count").replace("0 <= count(x) <= r", "0 <= count(x) <= 0")
    p = parse_pipeline(src).resolve().validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert {f.kind for f in r.findings} == {"contract_violation"}


def test_false_output_postcondition_fails_the_lemma():
    false_claim = (
        "ensures forall(x in [lift.x.min, lift.x.max), y in [lift.y.min, lift.y.max))"
        " lift(x, y) == lift(x, y) + 1;\n  "
    )
    src = source("chain3").replace("ensures forall", false_claim + "ensures forall", 1)
    p = parse_pipeline(src).resolve({"n": 4}).validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert "postcondition_violation" in {f.kind for f in r.findings}


def test_miswired_entry_point_is_a_mismatch():
    p = load("count")
    prog = encode(p)
    decls = tuple(
        dataclasses.replace(d, body=FuncAccess("count1r", (Var("x"), Const(9))))
        if d.name == "count"
        else d
        for d in prog.declarations
    )
    bad = dataclasses.replace(prog, declarations=decls)
    r = check_frontend(bad, p, C.make_inputs(p, SEEDS))
    assert "mismatch" in {f.kind for f in r.findings}


def test_growing_recursion_is_flagged_statically():
    p = load("count")
    prog = encode(p)

    def grow(d):
        def widen(e):
            if isinstance(e, FuncAccess) and e.func == "count1r":
                return FuncAccess("count1r", (e.args[0], Var("r") + 1))
            return None

        from minisched.ir import rewrite

        return dataclasses.replace(d, body=rewrite(d.body, widen))

    decls = tuple(grow(d) if d.name == "count1r" else d for d in prog.declarations)
    bad = dataclasses.replace(prog, declarations=decls)
    assert [name for name, _ in check_decreases_static(bad)] == ["count1r"]
    r = check_frontend(bad, p, C.make_inputs(p, SEEDS))
    assert "termination" in {f.kind for f in r.findings}


def test_stalled_recursion_is_flagged_statically():
    p = load("count")
    prog = encode(p)

    def stall(d):
        def fix(e):
            if isinstance(e, FuncAccess) and e.func == "count1r":
                return FuncAccess("count1r", (e.args[0], Var("r")))
            return None

        from minisched.ir import rewrite

        return dataclasses.replace(d, body=rewrite(d.body, fix))

    decls = tuple(stall(d) if d.name == "count1r" else d for d in prog.declarations)
    bad = dataclasses.replace(prog, declarations=decls)
    reasons = [reason for _, reason in check_decreases_static(bad)]
    assert reasons and all("drops" in r for r in reasons)


def test_dynamic_recursion_monitor_catches_a_stall():
    p = load("count")
    prog = encode(p)

    def stall(d):
        # recurse one extra time at r == 1 without shrinking the measure
        body = Select(
            eq(Var("r"), 1),
            BinOp(
                "+",
                FuncAccess("count1r", (Var("x"), Var("r") - 1)),
                BinOp("*", FuncAccess("count1r", (Var("x"), Var("r"))), Const(0)),
            ),
            d.body,
        )
        return dataclasses.replace(d, body=body)

    decls = tuple(stall(d) if d.name == "count1r" else d for d in prog.declarations)
    bad = dataclasses.replace(prog, declarations=decls)
    ev = _FrontEval(bad, p, C.make_inputs(p, SEEDS))
    ev.call("count1r", (0, 2))
    assert any(f.kind == "termination" for f in ev.findings)


def test_out_of_domain_buffer_read_is_reported():
    src = source("conv1d").replace("w(r) * sig(x + r)", "w(r) * sig(x + r + 1)")
    p = parse_pipeline(src).resolve({"n": 8}).validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert "out_of_bounds" in {f.kind for f in r.findings}


# ---------------------------------------------------------------------------
# Front-end edge cases: call cycles, calls outside a domain, untaken branches


def replace_bodies(prog: EncodedProgram, bodies) -> EncodedProgram:
    decls = tuple(
        dataclasses.replace(d, body=bodies[d.name]) if d.name in bodies else d
        for d in prog.declarations
    )
    return dataclasses.replace(prog, declarations=decls)


def test_self_call_without_a_measure_is_a_termination_finding():
    p = load("count")
    bad = replace_bodies(encode(p), {"count": FuncAccess("count", (Var("x"),))})
    r = check_frontend(bad, p, C.make_inputs(p, SEEDS))
    messages = [f.message for f in r.findings if f.kind == "termination"]
    assert messages == [
        "count: recursive but carries no decreases clause",
        "count(0,) is called while it is being evaluated",
    ]


def test_mutual_recursion_is_a_termination_finding():
    p = load("chain3")
    bodies = {
        "base": FuncAccess("mid", (Var("x"), Var("y"))),
        "mid": BinOp("+", FuncAccess("base", (Var("x"), Var("y"))), Var("x")),
    }
    bad = replace_bodies(encode(p), bodies)
    # no declaration calls itself, so only the dynamic check can see the cycle
    assert check_decreases_static(bad) == []
    r = check_frontend(bad, p, C.make_inputs(p, SEEDS))
    assert [f.message for f in r.findings if f.kind == "termination"] == [
        "base(0, 0) is called while it is being evaluated"
    ]


def test_call_outside_a_declaration_domain_is_out_of_bounds():
    # f(4, y) lies outside f's domain; the reference reads its flat layout
    # at a cell that exists, so only the domain check can see the fault
    src = """
    pipeline t(inp) -> g {
      buffer inp(x in [0, 5), y in [0, 4));
      func f(x in [0, 4), y in [0, 4)) {
        f(x, y) = inp(x, y);
      }
      func g(x in [0, 4), y in [0, 3)) {
        g(x, y) = f(x + 1, y);
        g.ensures(g(x, y) == inp(x + 1, y));
      }
    }
    """
    p = parse_pipeline(src).resolve().validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    oob = [f.message for f in r.findings if f.kind == "out_of_bounds"]
    assert oob == ["encoded program calls f at x=4, outside [0, 4)"]


def test_untaken_select_branch_reads_are_not_reported():
    # at x = 7 the untaken branch reads inp(8, y), outside inp's domain
    src = """
    pipeline t(inp) -> out {
      buffer inp(x in [0, 8), y in [0, 4));
      func out(x in [0, 8), y in [0, 3)) {
        out(x, y) = select(x < 7, inp(x + 1, y), inp(x, y));
        out.ensures(out(x, y) == select(x < 7, inp(x + 1, y), inp(x, y)));
      }
    }
    """
    p = parse_pipeline(src).resolve().validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert r.passed, [f.message for f in r.findings]
    assert r.points == 8 * 3 + 4


def test_data_dependent_index_is_a_typed_error():
    src = """
    pipeline t(inp) -> out {
      buffer inp(x in [0, 4));
      func out(x in [0, 4)) {
        out(x) = inp(inp(x));
        out.ensures(out(x) == inp(inp(x)));
      }
    }
    """
    p = parse_pipeline(src).resolve().validated()
    with pytest.raises(EncodeError) as exc:
        check_frontend(encode(p), p, C.make_inputs(p, SEEDS))
    assert exc.value.code == "DataDependentIndex"


# ---------------------------------------------------------------------------
# Contracts: an ensures is read only where its requires hold

ONE_ROW = """
pipeline t(inp) -> out {
  buffer inp(x in [0, 8));
  func out(x in [0, 8)) {
    out(x) = inp(x);
    out.ensures(out(x) == inp(x));
  }
}
"""

# reads inp at x = 8, outside its domain, at the point x = 7
READS_PAST_THE_END = BinOp("<", Const(-1000), FuncAccess("inp", (Var("x") + 1,)))


def with_contract(requires, ensures):
    p = parse_pipeline(ONE_ROW).resolve().validated()
    prog = encode(p)
    decls = tuple(
        dataclasses.replace(d, requires=requires, ensures=ensures) if d.name == "out" else d
        for d in prog.declarations
    )
    return check_frontend(dataclasses.replace(prog, declarations=decls), p, C.make_inputs(p, SEEDS))


def test_ensures_is_not_read_where_its_requires_fail():
    r = with_contract((BinOp("<", Var("x"), Const(7)),), (READS_PAST_THE_END,))
    assert r.passed, [f.message for f in r.findings]


def test_ensures_fault_after_the_first_failing_point_is_reported():
    # the postcondition fails at x = 2; the read at x = 7 is taken all the same
    r = with_contract((), (BinOp("!=", Var("x"), Const(2)), READS_PAST_THE_END))
    assert [(f.kind, f.message) for f in r.findings] == [
        ("out_of_bounds", "encoded program reads inp at x=8, outside [0, 8)"),
        ("contract_violation", "postcondition of out fails at (2,)"),
    ]


# ---------------------------------------------------------------------------
# One template for every stage: any arity, pinned coordinates, and an update
# after a reduction

# counts the steps of a three-variable reduction at the point P: the
# invariant at each variable's boundary counts the sweeps completed so far
DEEP = """
pipeline deep(inp) -> acc {
  buffer inp(x in [0, 4));
  func acc(x in [0, 4)) {
    acc(x) = inp(x);
    acc(P) = acc(P) + 1 over (r1 in [0, 2), r2 in [1, 4), r3 in [0, 3));
    acc.invariant(r1, acc(P) == inp(P) + r3 * 6 + (r2 - 1) * 2 + r1);
    acc.invariant(r2, acc(P) == inp(P) + r3 * 6 + (r2 - 1) * 2);
    acc.invariant(r3, acc(P) == inp(P) + r3 * 6);
    acc.ensures(acc(P) == inp(P) + 18);
  }
}
"""

PINNED = """
pipeline pin(inp) -> h {
  buffer inp(x in [0, 4));
  func h(x in [0, 4)) {
    h(x) = inp(x);
    h(0) = h(0) + inp(r) over (r in [0, 4));
    h.invariant(r, -100 * (r + 1) <= h(0) <= 100 * (r + 1));
    h.ensures(-500 <= h(0) <= 500);
  }
}
"""

AFTER = """
pipeline after(inp) -> h {
  buffer inp(x in [0, 4));
  func h(x in [0, 4)) {
    h(x) = 0;
    h(x) = h(x) + inp(r) over (r in [0, 4));
    h.invariant(r, -100 * r <= h(x) <= 100 * r);
    h(0) = h(0) * 2;
    h.ensures(-800 <= h(0) <= 800);
  }
}
"""

SHAPES = {
    "three-variables": DEEP.replace("P", "x"),
    "three-variables-pinned": DEEP.replace("P", "1"),
    "pinned": PINNED,
    "update-after-reduction": AFTER,
}


def frontend_findings(src: str) -> list[str]:
    p = parse_pipeline(src).resolve().validated()
    return [f.message for f in check_frontend(encode(p), p, C.make_inputs(p, SEEDS)).findings]


def test_three_variable_reduction_checks_clean():
    assert frontend_findings(SHAPES["three-variables"]) == []


def test_three_variable_reduction_catches_a_wrong_middle_invariant():
    src = SHAPES["three-variables"].replace("(r2 - 1) * 2);", "(r2 - 1) * 3);")
    assert frontend_findings(src) == ["postcondition of acc1r2 fails at (0, 2, 0)"]


def test_pinned_reduction_steps_the_pinned_point_only():
    assert frontend_findings(PINNED) == []
    text = squash(encode(parse_pipeline(PINNED).resolve().validated()).render())
    assert "ensuresx==0==>-100*(r+1)<=\\result" in text
    assert "x==0?h1r(0,r-1)+inp(r-1):h1r(x,r-1)" in text


def test_update_after_a_reduction_reads_its_last_sweep():
    assert frontend_findings(AFTER) == []
    prog = encode(parse_pipeline(AFTER).resolve().validated())
    assert FuncAccess("h1r", (Const(0), Const(4))) in set(walk(prog.decl("h2").body))


def test_a_reduction_followed_by_an_update_keeps_its_own_ensures():
    # the reduction's postcondition sits on its outermost declaration, at
    # the end of the sweep; the back end reports the false one too
    reduction = "h.invariant(r, -100 * r <= h(x) <= 100 * r);"
    wrong = AFTER.replace(reduction, reduction + "\n    h.ensures(h(x) == 12345);")
    assert frontend_findings(wrong) == ["postcondition of h1r fails at (0, 4)"]
    p = parse_pipeline(wrong).resolve().validated()
    assert not C.check_schedule(p, [], SEEDS, include_user=True).passed
    right = AFTER.replace(reduction, reduction + "\n    h.ensures(-400 <= h(x) <= 400);")
    assert frontend_findings(right) == []
    text = squash(encode(parse_pipeline(right).resolve().validated()).render())
    assert "ensuresr==4==>-400<=\\result&&\\result<=400;decreasesr;pureinth1r(" in text


SCATTER = """
pipeline scatter(inp) -> h {
  buffer inp(x in [0, 4));
  func h(x in [0, 4)) {
    h(x) = inp(x);
    h(r) = h(r) + 1 over (r in [0, 4));
    h.invariant(r, -1000 <= h(r) <= 1000);
    h.ensures(-1000 <= h(r) <= 1000);
  }
}
"""


def test_an_ensures_that_names_a_reduction_variable_is_a_typed_error():
    # once the stage is done r has no value: the entry declaration and the
    # lemma would keep the pin x == r with r bound nowhere
    p = parse_pipeline(SCATTER).resolve().validated()
    with pytest.raises(EncodeError) as exc:
        encode(p)
    assert exc.value.code == "ReductionVariableInEnsures"
    assert C.check_lowered(p, [], SEEDS).passed


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_new_shapes_check_clean_in_the_back_end(shape):
    p = parse_pipeline(SHAPES[shape]).resolve().validated()
    assert C.check_lowered(p, [], SEEDS).passed
    for include_user in (True, False):
        r = C.check_schedule(p, [], SEEDS, include_user=include_user)
        assert r.passed, [f.message for f in r.findings]


@pytest.mark.parametrize("src", [source(a) for a in ALGOS] + list(SHAPES.values()), ids=ALGOS + list(SHAPES))
def test_every_called_function_is_declared(src):
    prog = encode(parse_pipeline(src).resolve().validated())
    declared = {d.name for d in prog.declarations}
    for d in prog.declarations:
        for n in walk(d.body) if d.body is not None else ():
            if isinstance(n, FuncAccess):
                assert n.func in declared, f"{d.name} calls the undeclared {n.func}"


def test_three_variable_pinned_rendering_matches_golden():
    p = parse_pipeline(SHAPES["three-variables-pinned"]).resolve().validated()
    assert encode(p).render() == (GOLDEN / "deep_pinned.pvl").read_text()


@st.composite
def reductions(draw):
    """A reduction over 1 to 3 variables, each with its own lower bound and
    extent, at every point or at one pinned point, optionally followed by an
    update of one point or of all of them."""
    n = draw(st.integers(1, 3))
    rvars = [f"r{k + 1}" for k in range(n)]
    ranges = [(draw(st.integers(-2, 2)), draw(st.integers(1, 3))) for _ in rvars]
    at = draw(st.sampled_from(["x", "0", "2"]))
    update = draw(st.sampled_from([None, "x", "1"]))
    domain = ", ".join(f"{r} in [{lo}, {lo + ext})" for r, (lo, ext) in zip(rvars, ranges))
    w_dims = ", ".join(f"a{k} in [{lo}, {lo + ext})" for k, (lo, ext) in enumerate(ranges))
    w_cell = ", ".join(f"a{k}" for k in range(n))
    # halving what is there before adding makes the result depend on the
    # order of the steps, and keeps it within [-300, 300]
    lines = [
        "h(x) = inp(x);",
        f"h({at}) = h({at}) - h({at}) / 2 + w({', '.join(rvars)}) + {rvars[-1]}"
        f" over ({domain});",
    ]
    lines += [f"h.invariant({r}, -300 <= h({at}) <= 300);" for r in rvars]
    last = at
    if update is not None:
        lines.append(f"h({update}) = h({update}) * 2 + inp(1);")
        last = update
    lines.append(f"h.ensures(-800 <= h({last}) <= 800);")
    return f"""
    pipeline hyp(inp, w) -> h {{
      buffer inp(x in [0, 3));
      buffer w({w_dims});
      func h(x in [0, 3)) {{
        {chr(10).join(lines)}
      }}
    }}
    """


@settings(max_examples=100, deadline=None)
@given(src=reductions(), seed=st.integers(0, 2**32 - 1))
def test_any_reduction_encodes_faithfully(src, seed):
    p = parse_pipeline(src).resolve().validated()
    r = check_frontend(encode(p), p, C.make_inputs(p, [seed]))
    assert r.passed, [f.message for f in r.findings]
