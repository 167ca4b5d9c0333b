"""Symbolic expressions in z_1..z_n and conj(z_1)..conj(z_n).

The grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' UINT)?
    base   := NUMBER | 'i' | VAR | 'conj(' expr ')' | 'Re(' expr ')'
            | 'Im(' expr ')' | '(' expr ')' | '-' base
    VAR    := 'z' UINT

Normalization pushes conj to the leaves and eliminates Re/Im, after which the
expression is a polynomial in the 2n independent variables z_j, conj(z_j).
Expansion and Wirtinger differentiation belong to realpoly.ZPoly; diff_z and
diff_zbar here are thin wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .intervals import ParamBox, Rect


class ParseError(ValueError):
    """Syntax or semantic error in an expression string, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Const:
    value: complex


@dataclass(frozen=True, slots=True)
class Var:
    """Variable z_index (1-based); `conjugated` marks conj(z_index)."""

    index: int
    conjugated: bool = False


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Conj:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Re:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Im:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expr"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("negative exponent")


Expr = Union[Const, Var, Neg, Conj, Re, Im, Add, Sub, Mul, Pow]
#: An Expr in which conj applies only to variables and Re/Im do not occur.
NormalExpr = Expr


def max_var_index(e: Expr) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Const):
        return 0
    if isinstance(e, (Neg, Conj, Re, Im)):
        return max_var_index(e.operand)
    if isinstance(e, (Add, Sub, Mul)):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Pow):
        return max_var_index(e.base)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Tok:
    __slots__ = ("kind", "value", "pos", "text")

    def __init__(self, kind, value, pos, text=""):
        self.kind = kind
        self.value = value
        self.pos = pos
        self.text = text


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, m = 0, len(text)
    while i < m:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()":
            kind = {"+": "PLUS", "-": "MINUS", "*": "STAR",
                    "^": "CARET", "(": "LP", ")": "RP"}[c]
            toks.append(_Tok(kind, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < m and text[j].isdigit():
                j += 1
            if j < m and text[j] == ".":
                j += 1
                while j < m and text[j].isdigit():
                    j += 1
            lexeme = text[i:j]
            if lexeme == ".":
                raise ParseError("malformed number", i)
            toks.append(_Tok("NUM", float(lexeme), i, lexeme))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < m and (text[j].isalnum() or text[j] == "_"):
                j += 1
            ident = text[i:j]
            if ident == "i":
                toks.append(_Tok("I", 1j, i))
            elif ident == "conj":
                toks.append(_Tok("CONJ", ident, i))
            elif ident == "Re":
                toks.append(_Tok("RE", ident, i))
            elif ident == "Im":
                toks.append(_Tok("IM", ident, i))
            elif len(ident) > 1 and ident[0] == "z" and ident[1:].isdigit():
                toks.append(_Tok("VAR", int(ident[1:]), i, ident))
            else:
                raise ParseError(f"unknown variable '{ident}'", i)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("EOF", None, m))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], n: int):
        self.toks = toks
        self.pos = 0
        self.n = n

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        if self.cur.kind != kind:
            raise ParseError(f"expected {what}", self.cur.pos)
        return self.advance()

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.cur.kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.parse_term()
            e = Add(e, rhs) if op.kind == "PLUS" else Sub(e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.cur.kind == "STAR":
            self.advance()
            e = Mul(e, self.parse_factor())
        return e

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.cur.kind == "CARET":
            caret = self.advance()
            if self.cur.kind == "MINUS":
                raise ParseError("negative exponent", self.cur.pos)
            if self.cur.kind != "NUM":
                raise ParseError("expected integer exponent", self.cur.pos)
            tok = self.advance()
            if "." in tok.text:
                raise ParseError("exponent must be a non-negative integer", tok.pos)
            return Pow(base, int(tok.value))
        return base

    def parse_base(self) -> Expr:
        t = self.cur
        if t.kind == "NUM":
            self.advance()
            return Const(complex(t.value, 0.0))
        if t.kind == "I":
            self.advance()
            return Const(1j)
        if t.kind == "VAR":
            self.advance()
            if not (1 <= t.value <= self.n):
                raise ParseError(
                    f"variable index out of range: z{t.value} (n={self.n})", t.pos)
            return Var(t.value)
        if t.kind in ("CONJ", "RE", "IM"):
            self.advance()
            self.expect("LP", "'(' after function name")
            inner = self.parse_expr()
            self.expect("RP", "')'")
            return {"CONJ": Conj, "RE": Re, "IM": Im}[t.kind](inner)
        if t.kind == "LP":
            self.advance()
            inner = self.parse_expr()
            self.expect("RP", "')'")
            return inner
        if t.kind == "MINUS":
            self.advance()
            return Neg(self.parse_base())
        raise ParseError(f"unexpected token {t.value!r}" if t.value is not None
                         else "unexpected end of input", t.pos)


def parse(text: str, n: int) -> Expr:
    """Parse `text` into an AST with variables drawn from z1..zn."""
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    p = _Parser(_tokenize(text), n)
    e = p.parse_expr()
    if p.cur.kind != "EOF":
        raise ParseError(f"unexpected token {p.cur.value!r}", p.cur.pos)
    return e


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse for parser-producible ASTs)
# ---------------------------------------------------------------------------

def _fmt_num(x: float) -> str:
    return repr(x)


def _is_atom(e: Expr) -> bool:
    return (isinstance(e, (Var, Conj, Re, Im))
            or (isinstance(e, Const) and (e.value == 1j or (e.value.imag == 0.0
                                                            and e.value.real >= 0.0))))


def format_expr(e: Expr) -> str:
    """Render an AST back to grammar text."""
    if isinstance(e, Const):
        v = e.value
        if v == 1j:
            return "i"
        if v.imag == 0.0 and v.real >= 0.0:
            return _fmt_num(v.real)
        # general complex constants (post-normalization) need composite syntax
        re_part = _fmt_num(abs(v.real))
        im_part = f"{_fmt_num(abs(v.imag))}*i"
        rs = f"-{re_part}" if v.real < 0 else re_part
        op = "-" if v.imag < 0 else "+"
        return f"({rs}{op}{im_part})"
    if isinstance(e, Var):
        return f"conj(z{e.index})" if e.conjugated else f"z{e.index}"
    if isinstance(e, Conj):
        return f"conj({format_expr(e.operand)})"
    if isinstance(e, Re):
        return f"Re({format_expr(e.operand)})"
    if isinstance(e, Im):
        return f"Im({format_expr(e.operand)})"
    if isinstance(e, Neg):
        inner = format_expr(e.operand)
        return f"-{inner}" if _is_atom(e.operand) else f"-({inner})"
    if isinstance(e, Add):
        rhs = format_expr(e.right)
        if isinstance(e.right, (Add, Sub, Neg)):
            rhs = f"({rhs})"
        return f"{format_expr(e.left)} + {rhs}"
    if isinstance(e, Sub):
        rhs = format_expr(e.right)
        if isinstance(e.right, (Add, Sub, Neg)):
            rhs = f"({rhs})"
        return f"{format_expr(e.left)} - {rhs}"
    if isinstance(e, Mul):
        lhs = format_expr(e.left)
        if isinstance(e.left, (Add, Sub)):
            lhs = f"({lhs})"
        rhs = format_expr(e.right)
        if isinstance(e.right, (Add, Sub, Neg, Mul)):
            rhs = f"({rhs})"
        return f"{lhs}*{rhs}"
    if isinstance(e, Pow):
        base = format_expr(e.base)
        if not _is_atom(e.base):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _norm(e: Expr, conjugating: bool) -> Expr:
    if isinstance(e, Const):
        return Const(e.value.conjugate()) if conjugating else e
    if isinstance(e, Var):
        return Var(e.index, e.conjugated ^ conjugating)
    if isinstance(e, Neg):
        return Neg(_norm(e.operand, conjugating))
    if isinstance(e, Conj):
        return _norm(e.operand, not conjugating)
    if isinstance(e, Add):
        return Add(_norm(e.left, conjugating), _norm(e.right, conjugating))
    if isinstance(e, Sub):
        return Sub(_norm(e.left, conjugating), _norm(e.right, conjugating))
    if isinstance(e, Mul):
        return Mul(_norm(e.left, conjugating), _norm(e.right, conjugating))
    if isinstance(e, Pow):
        return Pow(_norm(e.base, conjugating), e.exponent)
    # Re/Im produce real values, so an outer conj is a no-op.
    if isinstance(e, Re):
        return Mul(Add(_norm(e.operand, False), _norm(e.operand, True)),
                   Const(0.5 + 0j))
    if isinstance(e, Im):
        return Mul(Sub(_norm(e.operand, False), _norm(e.operand, True)),
                   Const(-0.5j))
    raise TypeError(f"not an Expr node: {e!r}")


def normalize(e: Expr) -> NormalExpr:
    """Push conj to the leaves and eliminate Re/Im.

    Idempotent, and preserves eval_point exactly up to floating-point
    reassociation.
    """
    return _norm(e, False)


def is_normal(e: Expr) -> bool:
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, (Conj, Re, Im)):
        return False
    if isinstance(e, Neg):
        return is_normal(e.operand)
    if isinstance(e, (Add, Sub, Mul)):
        return is_normal(e.left) and is_normal(e.right)
    if isinstance(e, Pow):
        return is_normal(e.base)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_point(e: Expr, z: Sequence[complex]) -> complex:
    """Evaluate at a point of C^n (works on normalized and raw ASTs alike)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        v = z[e.index - 1]
        v = complex(v)
        return v.conjugate() if e.conjugated else v
    if isinstance(e, Neg):
        return -eval_point(e.operand, z)
    if isinstance(e, Conj):
        return eval_point(e.operand, z).conjugate()
    if isinstance(e, Re):
        return complex(eval_point(e.operand, z).real, 0.0)
    if isinstance(e, Im):
        return complex(eval_point(e.operand, z).imag, 0.0)
    if isinstance(e, Add):
        return eval_point(e.left, z) + eval_point(e.right, z)
    if isinstance(e, Sub):
        return eval_point(e.left, z) - eval_point(e.right, z)
    if isinstance(e, Mul):
        return eval_point(e.left, z) * eval_point(e.right, z)
    if isinstance(e, Pow):
        return eval_point(e.base, z) ** e.exponent
    raise TypeError(f"not an Expr node: {e!r}")


def eval_interval(e: Expr, box: ParamBox) -> Rect:
    """Sound rectangle enclosure of e, as expanded, over the box.

    The expression is canonicalized to a polynomial in the real coordinates
    (Re z_j, Im z_j) with complex coefficients (rounded to nearest), so that
    correlated occurrences of z_j and conj(z_j) combine in the coefficients
    before rectangle arithmetic is applied.
    """
    from .realpoly import RealPoly

    k = max_var_index(e)
    if k > box.n:
        raise ValueError(f"expression uses z{k} but box has n={box.n}")
    return RealPoly.from_expr(e, box.n).eval_box(box)


# ---------------------------------------------------------------------------
# Wirtinger differentiation (z_j and conj(z_j) as independent variables)
# ---------------------------------------------------------------------------

def diff_z(e: Expr, j: int):
    """d/dz_j of e as a realpoly.ZPoly, a polynomial in z and conj(z)."""
    from .realpoly import ZPoly

    return ZPoly.from_expr(normalize(e), max(max_var_index(e), j)).diff_z(j)


def diff_zbar(e: Expr, j: int):
    """d/dconj(z_j) of e as a realpoly.ZPoly; exactly zero when the
    expansion of e in z and conj(z) is free of conj(z_j)."""
    from .realpoly import ZPoly

    return ZPoly.from_expr(normalize(e), max(max_var_index(e), j)).diff_zbar(j)
