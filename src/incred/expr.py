"""Expression language for system definitions.

Three small sublanguages share one tokenizer and evaluate over an
environment mapping variable names to floats:

* scalar expressions -- infix arithmetic over ``x1..x9``, ``t`` (plus any
  declared parameter names), with functions ``abs, max, min, sgn, sgn1,
  exp, sin, cos``;
* set expressions -- interval-valued: singletons ``{expr}``, interval
  literals ``[lo, hi]``, ``hull(a, b)``, Minkowski sums ``A + B`` and
  scalar multiples ``c * A``;
* guards -- comparisons combined with ``and`` / ``or`` / ``not``. The
  word ``otherwise`` by itself is the catch-all guard.

Grammar (normative)::

    scalar  := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := ['-'] atom
    atom    := number | ident | ident '(' args ')' | '(' scalar ')'
    set     := setatom ('+' setatom)*
    setatom := '{' scalar '}' | '[' scalar ',' scalar ']'
             | 'hull' '(' scalar ',' scalar ')' | factor '*' setatom
             | '(' set ')'
    guard   := andg ('or' andg)* ; andg := noty ('and' noty)*
    noty    := 'not' noty | '(' guard ')' | scalar cmp scalar

(The scalar multiplier in ``setatom`` binds at ``factor`` level; use
parentheses for compound coefficients, e.g. ``(x1+1)*[0,1]``.)

Comparison semantics are exact floating-point comparisons: ``==`` is
value equality after evaluation, with no tolerance. Guard surfaces such
as ``abs(x1) == 1`` are therefore hit only by deliberately placed
points, never by fuzz. ``sgn(0) = 0``; ``sgn1(y)`` is 0 on ``(-1, 1)``
and ``sgn(y)`` elsewhere. Division by a denominator smaller than 1e-300
in magnitude raises instead of returning inf.

ASTs are immutable; evaluation is pure. ``compile_scalar`` /
``compile_sets`` (all sets of a piece at once) / ``compile_guard``
produce plain Python closures: the package's pointwise evaluators, and
the reference the array closures are tested against.

The ``*_array`` compilers emit the same code over numpy arrays of rows:
variables are arrays (or floats), a set evaluates to ``lo``/``hi``
endpoint arrays and a guard to a boolean mask. Every row gets the bits
the scalar closure gives it: ``max``/``min``/``hull`` keep Python's
first-argument rule on ties and signed zeros, and ``exp``/``sin``/``cos``
go element by element through :mod:`math`. ``and``/``or`` do not short
circuit. Where a scalar closure could raise (near-zero denominator,
inverted interval literal, math range error), the array closure raises
:class:`~incred.errors.ArrayHazard` for the whole batch instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ArrayHazard, DslEvalError, DslSyntaxError
from .intervals import Interval

__all__ = [
    "ScalarExpr", "SetExpr", "GuardExpr",
    "Num", "Var", "Neg", "BinOp", "Call",
    "SingletonSet", "IntervalSet", "HullSet", "SumSet", "ScaledSet",
    "Comparison", "AndGuard", "OrGuard", "NotGuard", "TrueGuard",
    "parse_scalar", "parse_set", "parse_guard",
    "compile_scalar", "compile_sets", "compile_guard",
    "compile_scalar_array", "compile_set_array", "compile_guard_array",
    "pretty_scalar", "pretty_set", "pretty_guard",
    "free_vars", "substitute", "DEFAULT_VARIABLES",
]

DEFAULT_VARIABLES = frozenset({f"x{i}" for i in range(1, 10)} | {"t"})

_RESERVED = frozenset({"and", "or", "not", "hull", "otherwise"})

_FUNCTION_ARITY = {
    "abs": 1, "max": 2, "min": 2, "sgn": 1, "sgn1": 1,
    "exp": 1, "sin": 1, "cos": 1,
}

_DIV_FLOOR = 1e-300


def _sgn(y: float) -> float:
    if y == 0.0:
        return 0.0
    return 1.0 if y > 0.0 else -1.0


def _sgn1(y: float) -> float:
    if -1.0 < y < 1.0:
        return 0.0
    return _sgn(y)


def _checked_div(a: float, b: float) -> float:
    if abs(b) < _DIV_FLOOR:
        raise DslEvalError(f"division by near-zero denominator {b!r}")
    return a / b


def _interval_value(lo: float, hi: float) -> Interval:
    if lo > hi:
        raise DslEvalError(
            f"interval literal evaluated with lo > hi ({lo} > {hi})")
    return Interval(lo, hi)


def _checked_math(name: str) -> Callable[[float], float]:
    """``math.<name>``, raising DslEvalError where it has no finite value."""
    fn = getattr(math, name)

    def call(v: float) -> float:
        try:
            return fn(v)
        except (OverflowError, ValueError):
            raise DslEvalError(f"{name}({v!r}) has no finite value") from None
    return call


# --- AST nodes ---------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ScalarExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ScalarExpr"
    right: "ScalarExpr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["ScalarExpr", ...]


ScalarExpr = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class SingletonSet:
    value: ScalarExpr


@dataclass(frozen=True)
class IntervalSet:
    lo: ScalarExpr
    hi: ScalarExpr


@dataclass(frozen=True)
class HullSet:
    a: ScalarExpr
    b: ScalarExpr


@dataclass(frozen=True)
class SumSet:
    terms: tuple["SetExpr", ...]


@dataclass(frozen=True)
class ScaledSet:
    coeff: ScalarExpr
    operand: "SetExpr"


SetExpr = Union[SingletonSet, IntervalSet, HullSet, SumSet, ScaledSet]


@dataclass(frozen=True)
class Comparison:
    op: str  # == != < <= > >=
    left: ScalarExpr
    right: ScalarExpr


@dataclass(frozen=True)
class AndGuard:
    terms: tuple["GuardExpr", ...]


@dataclass(frozen=True)
class OrGuard:
    terms: tuple["GuardExpr", ...]


@dataclass(frozen=True)
class NotGuard:
    operand: "GuardExpr"


@dataclass(frozen=True)
class TrueGuard:
    """The catch-all guard, written ``otherwise``."""


GuardExpr = Union[Comparison, AndGuard, OrGuard, NotGuard, TrueGuard]


# --- tokenizer ---------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_PUNCT = {
    "(": "lparen", ")": "rparen", "{": "lbrace", "}": "rbrace",
    "[": "lbracket", "]": "rbracket", ",": "comma",
}


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(_Token(_PUNCT[c], c, i))
            i += 1
            continue
        if c in "+-*/":
            toks.append(_Token("op", c, i))
            i += 1
            continue
        if c in "=!<>":
            two = src[i:i + 2]
            if two in ("==", "!=", "<=", ">="):
                toks.append(_Token("cmp", two, i))
                i += 2
                continue
            if c in "<>":
                toks.append(_Token("cmp", c, i))
                i += 1
                continue
            raise DslSyntaxError(f"stray {c!r}", i, src)
        m = _NUM_RE.match(src, i)
        if m:
            toks.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            toks.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", i, src)
    toks.append(_Token("end", "", n))
    return toks


# --- parser ------------------------------------------------------------

class _Parser:
    def __init__(self, src: str, variables: frozenset[str]):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, msg: str) -> None:
        raise DslSyntaxError(msg, self.peek().pos, self.src)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, found {tok.text!r}")
        return self.advance()

    def expect_end(self) -> None:
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")

    # scalar grammar

    def scalar(self) -> ScalarExpr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ScalarExpr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> ScalarExpr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.scalar()
            self.expect("rparen")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name in _RESERVED:
                self.fail(f"reserved word {name!r} is not a scalar")
            self.advance()
            if self.peek().kind == "lparen":
                if name not in _FUNCTION_ARITY:
                    raise DslSyntaxError(
                        f"unknown function {name!r}", tok.pos, self.src)
                self.advance()
                args = [self.scalar()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.scalar())
                self.expect("rparen")
                if len(args) != _FUNCTION_ARITY[name]:
                    raise DslSyntaxError(
                        f"{name} takes {_FUNCTION_ARITY[name]} argument(s), "
                        f"got {len(args)}", tok.pos, self.src)
                return Call(name, tuple(args))
            if name not in self.variables:
                raise DslSyntaxError(
                    f"unknown identifier {name!r}", tok.pos, self.src)
            return Var(name)
        self.fail(f"expected a scalar atom, found {tok.text!r}")
        raise AssertionError  # unreachable

    # set grammar

    def set_expr(self) -> SetExpr:
        terms = [self.set_atom()]
        while self.peek().kind == "op" and self.peek().text == "+":
            self.advance()
            terms.append(self.set_atom())
        if len(terms) == 1:
            return terms[0]
        return SumSet(tuple(terms))

    def set_atom(self) -> SetExpr:
        tok = self.peek()
        if tok.kind == "lbrace":
            self.advance()
            value = self.scalar()
            self.expect("rbrace")
            return SingletonSet(value)
        if tok.kind == "lbracket":
            self.advance()
            lo = self.scalar()
            self.expect("comma")
            hi = self.scalar()
            self.expect("rbracket")
            return IntervalSet(lo, hi)
        if tok.kind == "ident" and tok.text == "hull":
            self.advance()
            self.expect("lparen")
            a = self.scalar()
            self.expect("comma")
            b = self.scalar()
            self.expect("rparen")
            return HullSet(a, b)
        if tok.kind == "lparen":
            mark = self.i
            try:
                self.advance()
                inner = self.set_expr()
                self.expect("rparen")
                if self.peek().kind == "op" and self.peek().text == "*":
                    # a parenthesized set cannot be a multiplier; reparse
                    # the parenthesized text as a scalar coefficient
                    raise DslSyntaxError("set used as multiplier",
                                         self.peek().pos, self.src)
                return inner
            except DslSyntaxError:
                self.i = mark
        coeff = self.factor()
        if self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            return ScaledSet(coeff, self.set_atom())
        self.fail("expected a set atom")
        raise AssertionError  # unreachable

    # guard grammar

    def guard(self) -> GuardExpr:
        terms = [self.guard_and()]
        while self.peek().kind == "ident" and self.peek().text == "or":
            self.advance()
            terms.append(self.guard_and())
        if len(terms) == 1:
            return terms[0]
        return OrGuard(tuple(terms))

    def guard_and(self) -> GuardExpr:
        terms = [self.guard_unary()]
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.advance()
            terms.append(self.guard_unary())
        if len(terms) == 1:
            return terms[0]
        return AndGuard(tuple(terms))

    def guard_unary(self) -> GuardExpr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            self.advance()
            return NotGuard(self.guard_unary())
        if tok.kind == "lparen":
            mark = self.i
            try:
                self.advance()
                inner = self.guard()
                self.expect("rparen")
                return inner
            except DslSyntaxError:
                self.i = mark
        return self.comparison()

    def comparison(self) -> GuardExpr:
        left = self.scalar()
        tok = self.peek()
        if tok.kind != "cmp":
            self.fail(f"expected a comparison operator, found {tok.text!r}")
        self.advance()
        right = self.scalar()
        return Comparison(tok.text, left, right)


def _varset(variables: Iterable[str] | None) -> frozenset[str]:
    return DEFAULT_VARIABLES if variables is None else frozenset(variables)


def parse_scalar(src: str, variables: Iterable[str] | None = None) -> ScalarExpr:
    p = _Parser(src, _varset(variables))
    node = p.scalar()
    p.expect_end()
    return node


def parse_set(src: str, variables: Iterable[str] | None = None) -> SetExpr:
    p = _Parser(src, _varset(variables))
    node = p.set_expr()
    p.expect_end()
    return node


def parse_guard(src: str, variables: Iterable[str] | None = None) -> GuardExpr:
    p = _Parser(src, _varset(variables))
    if p.peek().kind == "ident" and p.peek().text == "otherwise":
        p.advance()
        p.expect_end()
        return TrueGuard()
    node = p.guard()
    p.expect_end()
    return node


# --- compilation to Python closures ------------------------------------

# compiled code calls function ``f`` as ``_f``
_COMPILE_NS = {
    "_abs": abs, "_max": max, "_min": min, "_sgn": _sgn, "_sgn1": _sgn1,
    **{f"_{name}": _checked_math(name) for name in ("exp", "sin", "cos")},
    "_div": _checked_div, "_pt": Interval.point, "_intv": _interval_value,
    "_hullv": Interval.hull,
}


def _scalar_code(node: ScalarExpr) -> str:
    if isinstance(node, Num):
        return repr(node.value) if math.isfinite(node.value) \
            else f"float('{node.value}')"  # a literal such as 1e999 is inf
    if isinstance(node, Var):
        return f"_e[{node.name!r}]"
    if isinstance(node, Neg):
        return f"(-{_scalar_code(node.operand)})"
    if isinstance(node, BinOp):
        a = _scalar_code(node.left)
        b = _scalar_code(node.right)
        if node.op == "/":
            return f"_div({a}, {b})"
        return f"({a} {node.op} {b})"
    if isinstance(node, Call):
        args = ", ".join(_scalar_code(a) for a in node.args)
        return f"_{node.func}({args})"
    raise TypeError(f"not a scalar expression: {node!r}")


def _set_code(node: SetExpr) -> str:
    if isinstance(node, SingletonSet):
        return f"_pt({_scalar_code(node.value)})"
    if isinstance(node, IntervalSet):
        return f"_intv({_scalar_code(node.lo)}, {_scalar_code(node.hi)})"
    if isinstance(node, HullSet):
        return f"_hullv({_scalar_code(node.a)}, {_scalar_code(node.b)})"
    if isinstance(node, SumSet):
        code = _set_code(node.terms[0])
        for term in node.terms[1:]:
            code = f"{code}.add({_set_code(term)})"
        return code
    if isinstance(node, ScaledSet):
        return f"{_set_code(node.operand)}.scale({_scalar_code(node.coeff)})"
    raise TypeError(f"not a set expression: {node!r}")


_JOINERS = {(AndGuard, False): " and ", (OrGuard, False): " or ",
            (AndGuard, True): " & ", (OrGuard, True): " | "}


def _guard_code(node: GuardExpr, masks: bool = False) -> str:
    """Guard code with ``and/or/not``, or mask code with ``& | _not``."""
    if isinstance(node, TrueGuard):
        return "True"
    if isinstance(node, Comparison):
        return f"({_scalar_code(node.left)} {node.op} {_scalar_code(node.right)})"
    if isinstance(node, (AndGuard, OrGuard)):
        word = _JOINERS[type(node), masks]
        return "(" + word.join(_guard_code(t, masks) for t in node.terms) + ")"
    if isinstance(node, NotGuard):
        if masks:
            return f"_not({_guard_code(node.operand, masks)})"
        return f"(not {_guard_code(node.operand)})"
    raise TypeError(f"not a guard expression: {node!r}")


def _build(code: str, namespace: dict = _COMPILE_NS) -> Callable:
    return eval(f"lambda _e: {code}", dict(namespace))


def compile_scalar(node: ScalarExpr) -> Callable[[Mapping[str, float]], float]:
    return _build(_scalar_code(node))


def _nan_endpoint(node: SetExpr, env: Mapping[str, float]) -> DslEvalError:
    """The error for a set expression whose value has a NaN endpoint: the
    only ValueError in set evaluation, raised by ``Interval`` and its
    ``scale`` and ``hull`` (inverted literals raise DslEvalError)."""
    x = tuple(env[f"x{i}"] for i in range(1, 10) if f"x{i}" in env)
    return DslEvalError(f"set expression {pretty_set(node)} has a NaN "
                        f"endpoint at x={x}, t={env.get('t')!r}")


def compile_sets(nodes: Sequence[SetExpr],
                 ) -> Callable[[Mapping[str, float]], tuple[Interval, ...]]:
    """One closure returning the values of ``nodes``, evaluated in order.

    A NaN endpoint raises a DslEvalError naming the first set that has
    one: each set's own code runs again, in order, until one raises.
    """
    nodes = tuple(nodes)
    sets = _build("(" + "".join(f"{_set_code(n)}, " for n in nodes) + ")")

    def checked(env: Mapping[str, float]) -> tuple[Interval, ...]:
        try:
            return sets(env)
        except ValueError:
            for node in nodes:
                try:
                    _build(_set_code(node))(env)
                except ValueError:
                    raise _nan_endpoint(node, env) from None
            raise
    return checked


def compile_guard(node: GuardExpr) -> Callable[[Mapping[str, float]], bool]:
    return _build(_guard_code(node))


# --- compilation to numpy array closures --------------------------------

def _array_max(a, b):
    return np.where(b > a, b, a)


def _array_min(a, b):
    return np.where(b < a, b, a)


def _array_sgn(y):
    return np.where(y == 0.0, 0.0, np.where(y > 0.0, 1.0, -1.0))


def _array_div(a, b):
    if np.any(np.abs(b) < _DIV_FLOOR):
        raise ArrayHazard
    return a / b


def _elementwise(fn: Callable[[float], float]) -> Callable:
    def apply(a):
        try:
            if np.ndim(a) == 0:
                return fn(float(a))
            return np.array([fn(v) for v in a.tolist()], dtype=float)
        except (OverflowError, ValueError):
            raise ArrayHazard from None
    return apply


class _Span:
    """Endpoint arrays of a set expression over a batch of rows."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def add(self, other: "_Span") -> "_Span":
        return _Span(self.lo + other.lo, self.hi + other.hi)

    def scale(self, c) -> "_Span":
        return _array_hull(c * self.lo, c * self.hi)


def _array_interval(lo, hi) -> _Span:
    if np.any(lo > hi):
        raise ArrayHazard
    return _Span(lo, hi)


def _array_hull(a, b) -> _Span:
    if np.isnan(a).any() or np.isnan(b).any():  # np.where skips a NaN b
        raise ArrayHazard
    return _Span(_array_min(a, b), _array_max(a, b))


_ARRAY_NS = {
    "_div": _array_div, "_abs": np.abs, "_max": _array_max,
    "_min": _array_min, "_sgn": _array_sgn,
    "_sgn1": lambda y: np.where((-1.0 < y) & (y < 1.0), 0.0, _array_sgn(y)),
    "_exp": _elementwise(math.exp), "_sin": _elementwise(math.sin),
    "_cos": _elementwise(math.cos), "_pt": lambda v: _Span(v, v),
    "_intv": _array_interval,
    "_hullv": _array_hull,
    "_not": np.logical_not,
}


def compile_scalar_array(node: ScalarExpr) -> Callable:
    return _build(_scalar_code(node), _ARRAY_NS)


def compile_set_array(node: SetExpr) -> Callable:
    """Closure returning an object with ``lo`` and ``hi`` endpoint arrays."""
    return _build(_set_code(node), _ARRAY_NS)


def compile_guard_array(node: GuardExpr) -> Callable:
    return _build(_guard_code(node, masks=True), _ARRAY_NS)


# --- free variables -----------------------------------------------------

def free_vars(node) -> frozenset[str]:
    """The variable names ``node`` reads: a ``Var`` is a leaf, any other
    node the union over its child nodes."""
    if isinstance(node, Var):
        return frozenset({node.name})
    out: frozenset[str] = frozenset()
    for field in fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if is_dataclass(child):
                out |= free_vars(child)
    return out


def substitute(node: ScalarExpr,
               names: Mapping[str, ScalarExpr]) -> ScalarExpr:
    """``node`` with every variable listed in ``names`` replaced."""
    if isinstance(node, Var):
        return names.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(substitute(node.operand, names))
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, names),
                     substitute(node.right, names))
    if isinstance(node, Call):
        return Call(node.func, tuple(substitute(a, names) for a in node.args))
    return node


# --- pretty printers ----------------------------------------------------

def _fmt_num(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # inf has no int
        return str(int(v))
    return repr(v)


def _scalar_level(node: ScalarExpr) -> int:
    if isinstance(node, (Num, Var, Call)):
        return 4
    if isinstance(node, Neg):
        return 3
    return 2 if node.op in "*/" else 1


def _wrap_scalar(node: ScalarExpr, min_level: int) -> str:
    s = pretty_scalar(node)
    return f"({s})" if _scalar_level(node) < min_level else s


def pretty_scalar(node: ScalarExpr) -> str:
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap_scalar(node.operand, 4)
    if isinstance(node, BinOp):
        if node.op in "+-":
            return (f"{_wrap_scalar(node.left, 1)} {node.op} "
                    f"{_wrap_scalar(node.right, 2)}")
        return f"{_wrap_scalar(node.left, 2)}{node.op}{_wrap_scalar(node.right, 3)}"
    if isinstance(node, Call):
        return f"{node.func}(" + ", ".join(pretty_scalar(a) for a in node.args) + ")"
    raise TypeError(f"not a scalar expression: {node!r}")


def _set_atom_str(node: SetExpr) -> str:
    s = pretty_set(node)
    return f"({s})" if isinstance(node, SumSet) else s


def pretty_set(node: SetExpr) -> str:
    if isinstance(node, SingletonSet):
        return "{" + pretty_scalar(node.value) + "}"
    if isinstance(node, IntervalSet):
        return f"[{pretty_scalar(node.lo)}, {pretty_scalar(node.hi)}]"
    if isinstance(node, HullSet):
        return f"hull({pretty_scalar(node.a)}, {pretty_scalar(node.b)})"
    if isinstance(node, SumSet):
        return " + ".join(_set_atom_str(t) for t in node.terms)
    if isinstance(node, ScaledSet):
        return f"{_wrap_scalar(node.coeff, 3)}*{_set_atom_str(node.operand)}"
    raise TypeError(f"not a set expression: {node!r}")


def pretty_guard(node: GuardExpr) -> str:
    if isinstance(node, TrueGuard):
        return "otherwise"
    if isinstance(node, Comparison):
        return f"{pretty_scalar(node.left)} {node.op} {pretty_scalar(node.right)}"
    if isinstance(node, AndGuard):
        parts = []
        for t in node.terms:
            s = pretty_guard(t)
            parts.append(f"({s})" if isinstance(t, OrGuard) else s)
        return " and ".join(parts)
    if isinstance(node, OrGuard):
        return " or ".join(pretty_guard(t) for t in node.terms)
    if isinstance(node, NotGuard):
        s = pretty_guard(node.operand)
        if isinstance(node.operand, (AndGuard, OrGuard, Comparison)):
            return f"not ({s})"
        return f"not {s}"
    raise TypeError(f"not a guard expression: {node!r}")
