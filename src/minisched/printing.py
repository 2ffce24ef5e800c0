"""Expression and contract rendering.

One printer serves three surfaces: the scheduling DSL itself (so parsed
trees round-trip), PVL-style pure-function encodings, and the annotation
comments embedded in emitted C.  The dialects differ only in how calls,
selects, division, and storage reads are spelled; operator precedence is
shared and parentheses are inserted to reproduce the exact tree shape,
which the parser round-trip property relies on.  Only the DSL also
parenthesizes a comparison that is an operand of a comparison, since its
parser takes none.
"""

from __future__ import annotations

from .ir import (
    BinOp,
    BoundRef,
    BufAccess,
    Const,
    Expr,
    Frac,
    FuncAccess,
    MaxOf,
    MinOf,
    Not,
    PermAtom,
    Quantifier,
    Result,
    Select,
    TableRead,
    Var,
    and_,
    le,
    lt,
)

# Higher binds tighter.  Select ("?:") and "==>" sit below "||"; both are
# right-associative.
_PREC = {
    "?:": 1,
    "==>": 2,
    "||": 3,
    "&&": 4,
    "==": 5,
    "!=": 5,
    "<": 6,
    "<=": 6,
    "+": 7,
    "-": 7,
    "*": 8,
    "/": 8,
    "%": 8,
}
_RIGHT_ASSOC = {"==>", "?:"}
# The DSL parser gives every comparison one level and lets none take a
# comparison operand, so there a comparison inside a comparison is
# parenthesized; PVL and the C annotations keep the ranks above.
_COMPARISONS = {"==", "!=", "<", "<="}
_COMPARISON_RANKS = {_PREC[op] for op in _COMPARISONS}
_ATOM = 100


def frac_text(f: Frac) -> str:
    parts = [str(f.den)] if f.den != 1 else []
    parts += [str(p) for p in f.par]
    if not parts:
        return f"{f.num}\\1"
    if len(parts) == 1:
        return f"{f.num}\\{parts[0]}"
    return f"{f.num}\\({'*'.join(parts)})"


class ExprPrinter:
    """Render expressions in one dialect.

    ``dialect`` is "dsl", "pvl", or "cann" (annotation comments inside
    emitted C, which keep Euclidean division in call form so the text reads
    as mathematics rather than as the runtime helper).  A storage region
    prints as ``_<name>``.
    """

    def __init__(self, dialect: str = "dsl"):
        assert dialect in ("dsl", "pvl", "cann")
        self.dialect = dialect

    def __call__(self, e: Expr) -> str:
        return self.print(e)

    def print(self, e: Expr) -> str:
        text, _ = self._p(e)
        return text

    def _args(self, args: tuple[Expr, ...]) -> str:
        return ", ".join(self.print(a) for a in args)

    def _p(self, e: Expr) -> tuple[str, int]:
        match e:
            case Const(v):
                return (str(v), _ATOM) if v >= 0 else (str(v), 9)
            case Var(name):
                return name, _ATOM
            case Result():
                return "\\result", _ATOM
            case BoundRef(entity, dim, end):
                if self.dialect == "pvl":
                    return f"{entity}_{dim}_{end}()", _ATOM
                return f"{entity}.{dim}.{end}", _ATOM
            case FuncAccess(func, args):
                return f"{func}({self._args(args)})", _ATOM
            case BufAccess(buf, args):
                return f"{buf}({self._args(args)})", _ATOM
            case TableRead(target, index):
                return f"_{target.name}[{self.print(index)}]", _ATOM
            case PermAtom(target, index, frac):
                cell = f"_{target.name}[{self.print(index)}]"
                if self.dialect == "cann":
                    cell = "&" + cell
                return f"Perm({cell}, {frac_text(frac)})", _ATOM
            case MinOf(l, r) | MaxOf(l, r):
                name = "min" if isinstance(e, MinOf) else "max"
                if self.dialect == "dsl":
                    return f"{name}({self.print(l)}, {self.print(r)})", _ATOM
                a, b = self.print(l), self.print(r)
                cmp = "<" if name == "min" else ">"
                return f"({a} {cmp} {b} ? {a} : {b})", _ATOM
            case Not(x):
                inner, prec = self._p(x)
                if prec < 9:
                    inner = f"({inner})"
                return f"!{inner}", 9
            case Select(c, t, f):
                if self.dialect == "dsl":
                    return f"select({self.print(c)}, {self.print(t)}, {self.print(f)})", _ATOM
                return self._binary_like("?:", (c, t, f))
            case BinOp(op, l, r):
                if op in ("hdiv", "hmod"):
                    if self.dialect in ("dsl", "pvl"):
                        return self._binary_like({"hdiv": "/", "hmod": "%"}[op], (l, r))
                    return f"{op}({self.print(l)}, {self.print(r)})", _ATOM
                return self._binary_like(op, (l, r))
        raise TypeError(f"cannot print {type(e).__name__}")

    def _binary_like(self, op: str, operands: tuple[Expr, ...]) -> tuple[str, int]:
        prec = _PREC[op]
        right_assoc = op in _RIGHT_ASSOC
        compares = self.dialect == "dsl" and op in _COMPARISONS

        def side(x: Expr, is_right: bool) -> str:
            text, p = self._p(x)
            if p < prec:
                return f"({text})"
            if p == prec and (is_right != right_assoc):
                return f"({text})"
            if compares and p in _COMPARISON_RANKS:
                return f"({text})"
            return text

        if op == "?:":
            c, t, f = operands
            # The middle operand is self-delimiting; only the arms matter.
            return f"{side(c, False)} ? {side(t, True)} : {side(f, True)}", prec
        l, r = operands
        return f"{side(l, False)} {op} {side(r, True)}", prec


def quantified(quants: tuple[Quantifier, ...], body_text: str, printer: ExprPrinter) -> str:
    """``(\\forall int x, int y; range; body)``, the range the conjunction of
    the quantifier ranges."""
    decls = ", ".join(f"int {q.var}" for q in quants)
    guard = and_(*(and_(le(q.lo, Var(q.var)), lt(Var(q.var), q.hi)) for q in quants))
    return f"(\\forall {decls}; {printer.print(guard)}; {body_text})"
