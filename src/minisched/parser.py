"""Parser for `.hal` algorithm files and `.sched` schedule files.

The language is deliberately small.  An algorithm file holds exactly one
``pipeline name(inputs) -> output { ... }`` block containing ``param``,
``buffer`` and ``func`` declarations plus pipeline-level ``requires`` and
``ensures`` statements.  Inside a ``func`` block, stages are written as
``f(x, y) = expr;`` (optionally ``if guard`` for updates or
``over (r in [lo, hi), ...)`` for reductions, innermost variable first) and
annotations as ``f.requires(...)``, ``f.ensures(...)`` and
``f.invariant(r, ...)``, each attaching to the nearest preceding stage.

Schedule files are chains like ``blur_y.split(y, yo, yi, 8).parallel(yo);``
applied strictly in file order.

Parsing is total: any input either yields a value or raises
:class:`~minisched.ir.ParseError` with a position, never an unhandled
exception.  See docs/grammar.ebnf for the grammar.
"""

from __future__ import annotations

import re

from .ir import (
    BinOp,
    BoundRef,
    BufAccess,
    Buffer,
    Cond,
    Const,
    Directive,
    Expr,
    Func,
    FuncAccess,
    Interval,
    MaxOf,
    MinOf,
    Not,
    ParseError,
    Pipeline,
    QuantCond,
    Quantifier,
    RDom,
    Select,
    Span,
    Stage,
    Var,
    _fold,
)
from .printing import ExprPrinter

_TOKEN_RE = re.compile(
    r"""\s* (?://[^\n]*\s*)*
    (?: (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==>|==|!=|<=|>=|&&|\|\||[-+*/%!<>=(){}\[\],;.])
      | (?P<bad>.)
      | (?P<eof>\Z))
    """,
    re.VERBOSE,
)

_BUILTINS = {"select": 3, "min": 2, "max": 2, "hdiv": 2, "hmod": 2}  # name -> arity
_RESERVED = _BUILTINS.keys() | {"forall"}
_STMT_KEYWORDS = {"pipeline", "param", "buffer", "func", "requires", "ensures", "forall", "over", "if", "in"}

# Binary operators by binding power, loosest first: ``==>`` groups to the
# right, a comparison not at all (see ``_compare``), the rest to the left.
_POWER = {"==>": 1, "||": 2, "&&": 3, **dict.fromkeys(("==", "!=", "<", "<=", ">", ">="), 4), "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
_CMP = 4
_ATOM = 7  # the power of an operand no binary operator built
_TREE_OP = {"/": "hdiv", "%": "hmod"}
_SWAPPED = {">": "<", ">=": "<="}  # a > b is the tree of b < a


def _span(text: str, off: int) -> Span:
    """The line and column of offset ``off`` in ``text``."""
    return Span(text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """One scan: each match skips whitespace and comments, then takes a
    token ``(kind, text, offset)``, an unexpected character, or the end."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = (kind, m[kind], m.start(kind))
        if kind == "bad":
            raise ParseError(f"unexpected character {tok[1]!r}", _span(text, tok[2]))
        toks.append(tok)
        if kind == "eof":
            return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        # A body expression is folded as it is built, and its calls of the
        # pipeline's inputs read the buffer; a parameter value or an
        # interval bound is kept as written.
        self.inputs: set[str] = set()
        self.as_written = False

    # -- token plumbing ----------------------------------------------------

    def span(self, off: int) -> Span:
        return _span(self.text, off)

    def fail(self, what: str) -> ParseError:
        """The error for a current token that is not ``what``."""
        _, text, off = self.toks[self.pos]
        return ParseError(f"expected {what}, found {text!r}", self.span(off))

    # No caller asks for the end token's text "".
    def at(self, text: str) -> bool:
        return self.toks[self.pos][1] == text

    def eat(self, text: str) -> bool:
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.toks[self.pos][1] != text:
            raise self.fail(repr(text))
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        kind, text, _ = self.toks[self.pos]
        if kind != "ident":
            raise self.fail(what)
        self.pos += 1
        return text

    def decl_ident(self, what: str) -> str:
        off = self.toks[self.pos][2]
        name = self.ident(what)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved and cannot be declared", self.span(off))
        return name

    def integer(self) -> int:
        neg = self.eat("-")
        kind, text, _ = self.toks[self.pos]
        if kind != "int":
            raise self.fail("integer")
        self.pos += 1
        return -int(text) if neg else int(text)

    # -- expressions -------------------------------------------------------

    def written_expr(self) -> Expr:
        self.as_written = True
        e = self.expr()
        self.as_written = False
        return e

    def _arith(self, op: str, left: Expr, right: Expr) -> Expr:
        e = BinOp(op, left, right)
        return e if self.as_written else _fold(e)

    def expr(self, floor: int = 0) -> Expr:
        """Precedence climbing over the operators binding tighter than
        ``floor``.  ``last`` is the power of ``left``'s root: a comparison
        takes no operand that a comparison or a looser operator built."""
        left, last = self._operand(), _ATOM
        while True:
            op = self.toks[self.pos][1]
            power = _POWER.get(op, 0)
            if power <= floor or (power == _CMP and last <= _CMP):
                return left
            self.pos += 1
            if power == _CMP:
                left = self._compare(op, left)
            elif power > _CMP:
                left = self._arith(_TREE_OP.get(op, op), left, self.expr(power))
            else:
                left = BinOp(op, left, self.expr(power - (op == "==>")))
            last = power

    def _compare(self, op: str, a: Expr) -> Expr:
        """``==`` and ``!=`` take two operands; ``a <= b < c`` means ``a <= b && b < c``."""
        if op in ("==", "!="):
            return BinOp(op, a, self.expr(_CMP))
        conj = None
        while True:
            b = self.expr(_CMP)
            part = BinOp(_SWAPPED[op], b, a) if op in _SWAPPED else BinOp(op, a, b)
            conj = part if conj is None else BinOp("&&", conj, part)
            op = self.toks[self.pos][1]
            if op not in ("<", "<=", ">", ">="):
                return conj
            self.pos += 1
            a = b

    def _operand(self) -> Expr:
        """An atom, or a unary operator and its operand."""
        kind, name, off = self.toks[self.pos]
        self.pos += 1
        if kind == "int":
            return Const(int(name))
        if kind == "ident":
            if name in _BUILTINS:
                return self._builtin(name, off)
            nxt = self.toks[self.pos][1]
            if nxt == "(":
                self.pos += 1
                args = self._expr_list(")")
                if name in self.inputs and not self.as_written:
                    return BufAccess(name, args)
                return FuncAccess(name, args)
            if nxt == ".":
                self.pos += 1
                dim = self.ident("dimension name")
                self.expect(".")
                end = self.toks[self.pos]
                if self.ident("'min' or 'max'") not in ("min", "max"):
                    raise ParseError(f"expected 'min' or 'max', found {end[1]!r}", self.span(end[2]))
                return BoundRef(name, dim, end[1])
            return Var(name)
        if name == "(":
            e = self.expr()
            self.expect(")")
            return e
        if name == "!":
            return Not(self._operand())
        if name == "-":
            inner = self._operand()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return self._arith("-", Const(0), inner)
        self.pos -= 1  # the error points at this token
        raise self.fail("expression")

    def _builtin(self, name: str, off: int) -> Expr:
        self.expect("(")
        args = self._expr_list(")")
        arity = _BUILTINS[name]
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} arguments, found {len(args)}", self.span(off))
        if name in ("hdiv", "hmod"):
            return BinOp(name, *args)
        return {"select": Select, "min": MinOf, "max": MaxOf}[name](*args)

    def _expr_list(self, close: str) -> tuple[Expr, ...]:
        if self.eat(close):
            return ()
        args = [self.expr()]
        while self.toks[self.pos][1] == ",":
            self.pos += 1
            args.append(self.expr())
        self.expect(close)
        return tuple(args)

    # -- declarations ------------------------------------------------------

    def interval(self) -> Interval:
        self.expect("[")
        lo = self.written_expr()
        self.expect(",")
        hi = self.written_expr()
        self.expect(")")
        return Interval(lo, hi)

    def dim_list(self) -> tuple[tuple[str, Interval], ...]:
        self.expect("(")
        dims = []
        while True:
            name = self.decl_ident("dimension name")
            self.expect("in")
            dims.append((name, self.interval()))
            if not self.eat(","):
                break
        self.expect(")")
        return tuple(dims)

    def pipeline(self) -> Pipeline:
        self.expect("pipeline")
        name = self.ident("pipeline name")
        self.expect("(")
        inputs = []
        if not self.at(")"):
            inputs.append(self.ident("input buffer name"))
            while self.eat(","):
                inputs.append(self.ident("input buffer name"))
        self.expect(")")
        self.expect("-")  # "->" arrives as two tokens
        self.expect(">")
        output_span = self.span(self.toks[self.pos][2])
        output = self.ident("output func name")
        self.expect("{")
        self.inputs = set(inputs)

        params: list[tuple[str, Expr]] = []
        buffers: dict[str, Buffer] = {}
        funcs: list[Func] = []
        pipe_req: list[Cond] = []
        pipe_ens: list[QuantCond] = []

        while not self.at("}"):
            kind, text, off = self.toks[self.pos]
            if kind == "eof":
                raise ParseError("unterminated pipeline block", self.span(off))
            if self.eat("param"):
                pname = self.decl_ident("parameter name")
                self.expect("=")
                params.append((pname, self.written_expr()))
                self.expect(";")
            elif self.eat("buffer"):
                bname = self.decl_ident("buffer name")
                dims = self.dim_list()
                self.expect(";")
                if bname in buffers:
                    raise ParseError(f"buffer {bname!r} redeclared", self.span(off))
                buffers[bname] = Buffer(bname, dims, span=self.span(off))
            elif self.eat("requires"):
                pipe_req.append(Cond(self.expr(), self.span(off)))
                self.expect(";")
            elif self.eat("ensures"):
                quants: tuple[Quantifier, ...] = ()
                if self.eat("forall"):
                    quants = tuple(Quantifier(n, iv.lo, iv.hi) for n, iv in self.dim_list())
                pipe_ens.append(QuantCond(quants, self.expr(), self.span(off)))
                self.expect(";")
            elif self.eat("func"):
                funcs.append(self._func_block(self.span(off)))
            elif kind == "ident" and text not in _STMT_KEYWORDS:
                # buffer value precondition: `inp.requires(expr);`
                self.pos += 1
                self.expect(".")
                kw = self.toks[self.pos]
                if self.ident("'requires'") != "requires":
                    raise ParseError(f"only 'requires' applies to a buffer, found {kw[1]!r}", self.span(kw[2]))
                self.expect("(")
                cond = Cond(self.expr(), self.span(off))
                self.expect(")")
                self.expect(";")
                if text not in buffers:
                    raise ParseError(f"{text!r} is not a declared buffer", self.span(off))
                b = buffers[text]
                buffers[text] = Buffer(b.name, b.dims, b.requires + (cond,), b.span)
            else:
                raise self.fail("declaration")
        self.expect("}")
        if self.toks[self.pos][0] != "eof":
            raise ParseError(f"trailing input after pipeline block: {self.toks[self.pos][1]!r}", self.span(self.toks[self.pos][2]))

        for b in inputs:
            if b not in buffers:
                raise ParseError(f"input {b!r} has no buffer declaration", Span(1, 1))
        for b in buffers:
            if b not in inputs:
                raise ParseError(f"buffer {b!r} is not listed in the pipeline inputs", Span(1, 1))

        return Pipeline(
            name=name,
            params=tuple(params),
            buffers=tuple(buffers[b] for b in inputs),
            funcs=tuple(funcs),
            output=output,
            requires=tuple(pipe_req),
            ensures=tuple(pipe_ens),
            output_span=output_span,
        )

    def _func_block(self, span: Span) -> Func:
        fname = self.decl_ident("func name")
        dims = self.dim_list()
        self.expect("{")
        stages: list[Stage] = []
        while not self.at("}"):
            kind, name, off = self.toks[self.pos]
            if kind == "eof":
                raise ParseError(f"unterminated func block for {fname!r}", self.span(off))
            self.ident("stage or annotation")
            if name != fname:
                raise ParseError(f"statement must start with {fname!r}, found {name!r}", self.span(off))
            if self.eat("."):
                self._annotation(fname, stages)
            elif self.at("("):
                stages.append(self._stage(fname, len(stages), self.span(off)))
            else:
                raise self.fail("'(' or '.'")
        self.expect("}")
        if not stages:
            raise ParseError(f"func {fname!r} has no stages", self.span(self.toks[self.pos][2]))
        return Func(fname, dims, tuple(stages), span)

    def _stage(self, fname: str, index: int, span: Span) -> Stage:
        self.expect("(")
        lhs = self._expr_list(")")
        self.expect("=")
        rhs = self.expr()
        guard = None
        rdom = None
        if self.eat("if"):
            guard = self.expr()
        if self.eat("over"):
            rdom = RDom(self.dim_list())
        self.expect(";")
        return Stage(func=fname, index=index, lhs_args=lhs, rhs=rhs, rdom=rdom, guard=guard, span=span)

    def _annotation(self, fname: str, stages: list[Stage]) -> None:
        off = self.toks[self.pos][2]
        kw = self.ident("'requires', 'ensures' or 'invariant'")
        if kw not in ("requires", "ensures", "invariant"):
            raise ParseError(f"unknown annotation {kw!r}", self.span(off))
        if not stages:
            raise ParseError(f"annotation before any stage of {fname!r}", self.span(off))
        self.expect("(")
        rvar = None
        if kw == "invariant":
            rvar = self.ident("reduction variable")
            self.expect(",")
        cond = Cond(self.expr(), self.span(off))
        self.expect(")")
        self.expect(";")
        s = stages[-1]
        req, ens, inv = s.requires, s.ensures, s.invariants
        if kw == "requires":
            req += (cond,)
        elif kw == "ensures":
            ens += (cond,)
        else:
            inv += ((rvar, cond),)
        stages[-1] = Stage(s.func, s.index, s.lhs_args, s.rhs, s.rdom, s.guard, req, ens, inv, s.span)

    # -- schedules ---------------------------------------------------------

    def schedule(self) -> list[Directive]:
        out: list[Directive] = []
        while self.toks[self.pos][0] != "eof":
            fname = self.ident("func name")
            while True:
                self.expect(".")
                off = self.toks[self.pos][2]
                kind = self.ident("directive name")
                self.expect("(")
                out.append(self._directive(kind, fname, self.span(off)))
                if not self.at("."):
                    break
            self.eat(";")
        return out

    def _directive(self, kind: str, func: str, span: Span) -> Directive:
        if kind == "split":
            old = self.ident("dimension")
            self.expect(",")
            outer = self.decl_ident("outer name")
            self.expect(",")
            inner = self.decl_ident("inner name")
            self.expect(",")
            factor = self.integer()
            args = (old, outer, inner, factor)
        elif kind == "fuse":
            a = self.ident("inner dimension")
            self.expect(",")
            b = self.ident("outer dimension")
            self.expect(",")
            args = (a, b, self.decl_ident("fused name"))
        elif kind == "reorder":
            dims = [self.ident("dimension")]
            while self.eat(","):
                dims.append(self.ident("dimension"))
            args = tuple(dims)
        elif kind in ("parallel", "unroll"):
            args = (self.ident("dimension"),)
        elif kind in ("compute_at", "store_at"):
            consumer = self.ident("consumer func")
            self.expect(",")
            args = (consumer, self.ident("dimension"))
        else:
            raise ParseError(f"unknown directive {kind!r}", span)
        self.expect(")")
        return Directive(kind, func, args, span)


def parse_pipeline(text: str) -> Pipeline:
    """Parse one pipeline and check it (with default parameter values).

    The returned pipeline keeps parameters symbolic so it prints back to
    source form; call :meth:`Pipeline.validated` to get concrete bounds.
    """
    p = _Parser(text).pipeline()
    p.validated()  # raises ValidationError on bad scoping/structure
    return p


def parse_schedule(text: str) -> list[Directive]:
    return _Parser(text).schedule()


# ---------------------------------------------------------------------------
# Pretty-printing back to source form


def print_pipeline(p: Pipeline) -> str:
    pr = ExprPrinter("dsl")

    def iv(i: Interval) -> str:
        return f"[{pr(i.lo)}, {pr(i.hi)})"

    def dims(ds: tuple[tuple[str, Interval], ...]) -> str:
        return ", ".join(f"{n} in {iv(i)}" for n, i in ds)

    lines = [f"pipeline {p.name}({', '.join(b.name for b in p.buffers)}) -> {p.output} {{"]
    for name, e in p.params:
        lines.append(f"  param {name} = {pr(e)};")
    for b in p.buffers:
        lines.append(f"  buffer {b.name}({dims(b.dims)});")
        for c in b.requires:
            lines.append(f"  {b.name}.requires({pr(c.expr)});")
    for c in p.requires:
        lines.append(f"  requires {pr(c.expr)};")
    for q in p.ensures:
        if q.quants:
            qs = ", ".join(f"{qt.var} in [{pr(qt.lo)}, {pr(qt.hi)})" for qt in q.quants)
            lines.append(f"  ensures forall({qs}) {pr(q.body)};")
        else:
            lines.append(f"  ensures {pr(q.body)};")
    for f in p.funcs:
        lines.append(f"  func {f.name}({dims(f.dims)}) {{")
        for s in f.stages:
            head = f"    {f.name}({', '.join(pr(a) for a in s.lhs_args)}) = {pr(s.rhs)}"
            if s.guard is not None:
                head += f" if {pr(s.guard)}"
            if s.rdom is not None:
                head += f" over ({dims(s.rdom.vars)})"
            lines.append(head + ";")
            for c in s.requires:
                lines.append(f"    {f.name}.requires({pr(c.expr)});")
            for c in s.ensures:
                lines.append(f"    {f.name}.ensures({pr(c.expr)});")
            for rv, c in s.invariants:
                lines.append(f"    {f.name}.invariant({rv}, {pr(c.expr)});")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_schedule(directives: list[Directive]) -> str:
    lines: list[str] = []
    chain: list[str] = []
    cur: str | None = None

    def flush() -> None:
        if cur is not None and chain:
            lines.append(f"{cur}." + ".".join(chain) + ";")

    for d in directives:
        if d.func != cur:
            flush()
            cur, chain = d.func, []
        chain.append(f"{d.kind}({', '.join(str(a) for a in d.args)})")
    flush()
    return "\n".join(lines) + ("\n" if lines else "")
