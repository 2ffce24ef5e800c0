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
from bisect import bisect
from dataclasses import replace
from typing import NamedTuple

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

_BUILTINS = {"select", "min", "max", "hdiv", "hmod"}
_RESERVED = _BUILTINS | {"forall"}
_STMT_KEYWORDS = {"pipeline", "param", "buffer", "func", "requires", "ensures", "forall", "over", "if", "in"}


class _Tok(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    off: int
    newlines: list[int]  # the offset of every newline in the source

    @property
    def span(self) -> Span:
        line = bisect(self.newlines, self.off)
        return Span(line + 1, self.off - (self.newlines[line - 1] if line else -1))


def _tokenize(text: str) -> list[_Tok]:
    """One scan: each match skips whitespace and comments, then takes a
    token, an unexpected character, or the end."""
    newlines = [m.start() for m in re.finditer("\n", text)]
    toks: list[_Tok] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = _Tok(kind, m[kind], m.start(kind), newlines)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}", tok.span)
        toks.append(tok)
        if kind == "eof":
            return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        # A body expression is folded as it is built, and its calls of the
        # pipeline's inputs read the buffer; a parameter value or an
        # interval bound is kept as written.
        self.inputs: set[str] = set()
        self.as_written = False

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
        return t

    # The end token's text is "", which no caller asks for.
    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def eat(self, text: str) -> bool:
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Tok:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {self.cur.text!r}", self.cur.span)
        return self.advance()

    def ident(self, what: str = "identifier") -> _Tok:
        if self.cur.kind != "ident":
            raise ParseError(f"expected {what}, found {self.cur.text!r}", self.cur.span)
        return self.advance()

    def decl_ident(self, what: str) -> _Tok:
        t = self.ident(what)
        if t.text in _RESERVED:
            raise ParseError(f"{t.text!r} is reserved and cannot be declared", t.span)
        return t

    def integer(self) -> int:
        neg = self.eat("-")
        if self.cur.kind != "int":
            raise ParseError(f"expected integer, found {self.cur.text!r}", self.cur.span)
        v = int(self.advance().text)
        return -v if neg else v

    # -- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        return self._implies()

    def written_expr(self) -> Expr:
        self.as_written = True
        e = self.expr()
        self.as_written = False
        return e

    def _arith(self, op: str, left: Expr, right: Expr) -> Expr:
        e = BinOp(op, left, right)
        return e if self.as_written else _fold(e)

    def _implies(self) -> Expr:
        left = self._or()
        if self.eat("==>"):
            return BinOp("==>", left, self._implies())
        return left

    def _or(self) -> Expr:
        e = self._and()
        while self.eat("||"):
            e = BinOp("||", e, self._and())
        return e

    def _and(self) -> Expr:
        e = self._cmp()
        while self.eat("&&"):
            e = BinOp("&&", e, self._cmp())
        return e

    def _cmp(self) -> Expr:
        first = self._add()
        op = self.cur.text
        if op not in ("<", "<=", ">", ">=", "==", "!="):
            return first
        if op in ("==", "!="):
            self.advance()
            return BinOp(op, first, self._add())
        # Relational operators chain: a <= b < c means a <= b && b < c.
        terms = [first]
        ops = []
        while self.cur.text in ("<", "<=", ">", ">="):
            ops.append(self.advance().text)
            terms.append(self._add())
        conj = None
        for i, op in enumerate(ops):
            a, b = terms[i], terms[i + 1]
            if op == ">":
                a, b, op = b, a, "<"
            elif op == ">=":
                a, b, op = b, a, "<="
            part = BinOp(op, a, b)
            conj = part if conj is None else BinOp("&&", conj, part)
        return conj

    def _add(self) -> Expr:
        e = self._mul()
        while self.cur.text in ("+", "-") and self.cur.kind == "op":
            op = self.advance().text
            e = self._arith(op, e, self._mul())
        return e

    def _mul(self) -> Expr:
        e = self._unary()
        while self.cur.text in ("*", "/", "%") and self.cur.kind == "op":
            op = self.advance().text
            op = {"*": "*", "/": "hdiv", "%": "hmod"}[op]
            e = self._arith(op, e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.eat("!"):
            return Not(self._unary())
        if self.eat("-"):
            inner = self._unary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return self._arith("-", Const(0), inner)
        return self._atom()

    def _atom(self) -> Expr:
        t = self.cur
        if t.kind == "int":
            self.advance()
            return Const(int(t.text))
        if self.eat("("):
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            name = self.advance().text
            if name in _BUILTINS:
                return self._builtin(name, t.span)
            if self.at("("):
                self.advance()
                args = self._expr_list(")")
                if name in self.inputs and not self.as_written:
                    return BufAccess(name, args)
                return FuncAccess(name, args)
            if self.at("."):
                self.advance()
                dim = self.ident("dimension name").text
                self.expect(".")
                end = self.ident("'min' or 'max'")
                if end.text not in ("min", "max"):
                    raise ParseError(f"expected 'min' or 'max', found {end.text!r}", end.span)
                return BoundRef(name, dim, end.text)
            return Var(name)
        raise ParseError(f"expected expression, found {t.text!r}", t.span)

    def _builtin(self, name: str, span: Span) -> Expr:
        self.expect("(")
        args = self._expr_list(")")
        arity = {"select": 3, "min": 2, "max": 2, "hdiv": 2, "hmod": 2}[name]
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} arguments, found {len(args)}", span)
        if name == "select":
            return Select(*args)
        if name == "min":
            return MinOf(*args)
        if name == "max":
            return MaxOf(*args)
        return BinOp(name, args[0], args[1])

    def _expr_list(self, close: str) -> tuple[Expr, ...]:
        if self.eat(close):
            return ()
        args = [self.expr()]
        while self.eat(","):
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
            name = self.decl_ident("dimension name").text
            self.expect("in")
            dims.append((name, self.interval()))
            if not self.eat(","):
                break
        self.expect(")")
        return tuple(dims)

    def pipeline(self) -> Pipeline:
        self.expect("pipeline")
        name = self.ident("pipeline name").text
        self.expect("(")
        inputs = []
        if not self.at(")"):
            inputs.append(self.ident("input buffer name").text)
            while self.eat(","):
                inputs.append(self.ident("input buffer name").text)
        self.expect(")")
        self.expect("-")  # "->" arrives as two tokens
        self.expect(">")
        output = self.ident("output func name").text
        self.expect("{")
        self.inputs = set(inputs)

        params: list[tuple[str, Expr]] = []
        buffers: dict[str, Buffer] = {}
        funcs: list[Func] = []
        pipe_req: list[Cond] = []
        pipe_ens: list[QuantCond] = []

        while not self.at("}"):
            t = self.cur
            if t.kind == "eof":
                raise ParseError("unterminated pipeline block", t.span)
            if self.eat("param"):
                pname = self.decl_ident("parameter name").text
                self.expect("=")
                params.append((pname, self.written_expr()))
                self.expect(";")
            elif self.eat("buffer"):
                bname = self.decl_ident("buffer name").text
                dims = self.dim_list()
                self.expect(";")
                if bname in buffers:
                    raise ParseError(f"buffer {bname!r} redeclared", t.span)
                buffers[bname] = Buffer(bname, dims)
            elif self.eat("requires"):
                pipe_req.append(Cond(self.expr(), t.span))
                self.expect(";")
            elif self.eat("ensures"):
                quants: tuple[Quantifier, ...] = ()
                if self.at("forall"):
                    self.advance()
                    quants = tuple(Quantifier(n, iv.lo, iv.hi) for n, iv in self.dim_list())
                pipe_ens.append(QuantCond(quants, self.expr(), t.span))
                self.expect(";")
            elif self.eat("func"):
                funcs.append(self._func_block())
            elif t.kind == "ident" and t.text not in _STMT_KEYWORDS:
                # buffer value precondition: `inp.requires(expr);`
                self.advance()
                self.expect(".")
                kw = self.ident("'requires'")
                if kw.text != "requires":
                    raise ParseError(f"only 'requires' applies to a buffer, found {kw.text!r}", kw.span)
                self.expect("(")
                cond = Cond(self.expr(), t.span)
                self.expect(")")
                self.expect(";")
                if t.text not in buffers:
                    raise ParseError(f"{t.text!r} is not a declared buffer", t.span)
                b = buffers[t.text]
                buffers[t.text] = Buffer(b.name, b.dims, b.requires + (cond,))
            else:
                raise ParseError(f"expected declaration, found {t.text!r}", t.span)
        self.expect("}")
        if self.cur.kind != "eof":
            raise ParseError(f"trailing input after pipeline block: {self.cur.text!r}", self.cur.span)

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
        )

    def _func_block(self) -> Func:
        fname = self.decl_ident("func name").text
        dims = self.dim_list()
        self.expect("{")
        stages: list[Stage] = []
        while not self.at("}"):
            t = self.cur
            if t.kind == "eof":
                raise ParseError(f"unterminated func block for {fname!r}", t.span)
            name_tok = self.ident("stage or annotation")
            if name_tok.text != fname:
                raise ParseError(f"statement must start with {fname!r}, found {name_tok.text!r}", name_tok.span)
            if self.eat("."):
                self._annotation(fname, stages)
            elif self.at("("):
                stages.append(self._stage(fname, len(stages), name_tok.span))
            else:
                raise ParseError(f"expected '(' or '.', found {self.cur.text!r}", self.cur.span)
        self.expect("}")
        if not stages:
            raise ParseError(f"func {fname!r} has no stages", self.cur.span)
        return Func(fname, dims, tuple(stages))

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
            rvars = self.dim_list()
            rdom = RDom(rvars)
        self.expect(";")
        return Stage(func=fname, index=index, lhs_args=lhs, rhs=rhs, rdom=rdom, guard=guard, span=span)

    def _annotation(self, fname: str, stages: list[Stage]) -> None:
        kw = self.ident("'requires', 'ensures' or 'invariant'")
        if kw.text not in ("requires", "ensures", "invariant"):
            raise ParseError(f"unknown annotation {kw.text!r}", kw.span)
        if not stages:
            raise ParseError(f"annotation before any stage of {fname!r}", kw.span)
        self.expect("(")
        rvar = None
        if kw.text == "invariant":
            rvar = self.ident("reduction variable").text
            self.expect(",")
        cond = Cond(self.expr(), kw.span)
        self.expect(")")
        self.expect(";")
        s = stages[-1]
        if kw.text == "requires":
            stages[-1] = replace(s, requires=s.requires + (cond,))
        elif kw.text == "ensures":
            stages[-1] = replace(s, ensures=s.ensures + (cond,))
        else:
            stages[-1] = replace(s, invariants=s.invariants + ((rvar, cond),))

    # -- schedules ---------------------------------------------------------

    def schedule(self) -> list[Directive]:
        out: list[Directive] = []
        while self.cur.kind != "eof":
            fname_tok = self.ident("func name")
            while True:
                self.expect(".")
                d = self.ident("directive name")
                self.expect("(")
                out.append(self._directive(d.text, fname_tok.text, d.span))
                if self.at("."):
                    continue
                break
            self.eat(";")
        return out

    def _directive(self, kind: str, func: str, span: Span) -> Directive:
        def close() -> None:
            self.expect(")")

        if kind == "split":
            old = self.ident("dimension").text
            self.expect(",")
            outer = self.decl_ident("outer name").text
            self.expect(",")
            inner = self.decl_ident("inner name").text
            self.expect(",")
            factor = self.integer()
            close()
            return Directive("split", func, (old, outer, inner, factor), span)
        if kind == "fuse":
            a = self.ident("inner dimension").text
            self.expect(",")
            b = self.ident("outer dimension").text
            self.expect(",")
            fused = self.decl_ident("fused name").text
            close()
            return Directive("fuse", func, (a, b, fused), span)
        if kind == "reorder":
            dims = [self.ident("dimension").text]
            while self.eat(","):
                dims.append(self.ident("dimension").text)
            close()
            return Directive("reorder", func, tuple(dims), span)
        if kind in ("parallel", "unroll"):
            dim = self.ident("dimension").text
            close()
            return Directive(kind, func, (dim,), span)
        if kind in ("compute_at", "store_at"):
            consumer = self.ident("consumer func").text
            self.expect(",")
            dim = self.ident("dimension").text
            close()
            return Directive(kind, func, (consumer, dim), span)
        raise ParseError(f"unknown directive {kind!r}", span)


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
