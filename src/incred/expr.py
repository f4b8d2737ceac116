"""Expression language for system definitions.

Three small sublanguages share one tokenizer and evaluate over an
environment mapping variable names to floats:

* scalar expressions -- infix arithmetic over ``x1..x9``, ``t`` (plus any
  declared parameter names), with functions ``abs, max, min, sgn, sgn1,
  exp, sin, cos``;
* set expressions -- interval-valued: singletons ``{expr}``, interval
  literals ``[lo, hi]``, ``hull(a, b)``, Minkowski sums ``A + B`` and
  scalar multiples ``c * A``; a set evaluates to a ``(lo, hi)`` pair;
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
the reference the array closures are tested against. A NaN set endpoint
raises; a sum is one call, which evaluates every term before it adds.

The ``*_array`` compilers emit the same code over numpy arrays of rows:
variables are arrays (or floats), a set evaluates to ``(lo, hi)``
endpoint arrays and a guard to a mask. Every row gets the bits the
scalar closure gives it: ``max``/``min``/``hull`` keep Python's
first-argument rule on ties and signed zeros, and ``exp``/``sin``/``cos``
go element by element through :mod:`math`. ``and``/``or`` do not short
circuit. Where a scalar closure could raise, the row gets NaN, which the
array ``max``/``min``/``sgn``/``sgn1``/``hull`` keep, and a comparison on
a ``_POISONS`` call leaves it undecided (mask 1.0/0.0, NaN on that row).
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError
from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DslEvalError, DslSyntaxError

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

# bounds on brackets, calls and ``not`` nested in the text, and on the
# syntax tree's depth (a chain of k terms is k deep): the parser, compiled
# code (200 parentheses) and tree walks stay within Python's limits
_MAX_NESTING, _MAX_DEPTH = 32, 256


def _sgn(y: float) -> float:
    if y == 0.0:
        return 0.0
    return 1.0 if y > 0.0 else -1.0


def _sgn1(y: float) -> float:
    if -1.0 < y < 1.0:
        return 0.0
    return _sgn(y)


def _checked_den(b: float) -> float:
    if abs(b) < _DIV_FLOOR:
        raise DslEvalError(f"division by near-zero denominator {b!r}")
    return b


def _pair(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)``; a NaN endpoint raises ValueError (see compile_sets)."""
    if lo != lo or hi != hi:
        raise ValueError("a set endpoint is NaN")
    return lo, hi


def _interval_value(lo: float, hi: float) -> tuple[float, float]:
    if lo > hi:
        raise DslEvalError(
            f"interval literal evaluated with lo > hi ({lo} > {hi})")
    return _pair(lo, hi)


def _hull_value(a: float, b: float) -> tuple[float, float]:
    """``(min(a, b), max(a, b))``; a NaN raises even where min/max skip it."""
    _pair(a, b)
    return min(a, b), max(a, b)


def _add(s: tuple, t: tuple) -> tuple:
    """The Minkowski sum of two ``(lo, hi)`` pairs."""
    return s[0] + t[0], s[1] + t[1]


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

class _Node:
    """An immutable record of the ``fields`` its subclass names, kept in one
    slotted tuple: compared and hashed by type and values, dataclass repr."""

    __slots__ = ("_values",)

    def __init_subclass__(cls, fields: tuple[str, ...] = ()):
        cls._fields = fields
        for i, name in enumerate(fields):
            setattr(cls, name, property(lambda self, i=i: self._values[i]))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {self._fields}")
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self._values == other._values
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):  # copy and pickle without __setattr__
        return type(self), self._values

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values)) + ")"


class Num(_Node, fields=("value",)):
    __slots__ = ()


class Var(_Node, fields=("name",)):
    __slots__ = ()


class Neg(_Node, fields=("operand",)):
    __slots__ = ()


class BinOp(_Node, fields=("op", "left", "right")):
    __slots__ = ()  # op is one of + - * /


class Call(_Node, fields=("func", "args")):
    __slots__ = ()  # args: a tuple of ScalarExpr


ScalarExpr = Union[Num, Var, Neg, BinOp, Call]


class SingletonSet(_Node, fields=("value",)):
    __slots__ = ()


class IntervalSet(_Node, fields=("lo", "hi")):
    __slots__ = ()


class HullSet(_Node, fields=("a", "b")):
    __slots__ = ()


class SumSet(_Node, fields=("terms",)):
    __slots__ = ()  # a tuple of SetExpr


class ScaledSet(_Node, fields=("coeff", "operand")):
    __slots__ = ()


SetExpr = Union[SingletonSet, IntervalSet, HullSet, SumSet, ScaledSet]


class Comparison(_Node, fields=("op", "left", "right")):
    __slots__ = ()  # op is one of == != < <= > >=


class AndGuard(_Node, fields=("terms",)):
    __slots__ = ()  # a tuple of GuardExpr


class OrGuard(_Node, fields=("terms",)):
    __slots__ = ()


class NotGuard(_Node, fields=("operand",)):
    __slots__ = ()


class TrueGuard(_Node):
    """The catch-all guard, written ``otherwise``."""

    __slots__ = ()


GuardExpr = Union[Comparison, AndGuard, OrGuard, NotGuard, TrueGuard]


# --- tokenizer ---------------------------------------------------------

_Token = NamedTuple("_Token", [("kind", str), ("text", str), ("pos", int)])


# one named alternative per token kind, tried in order, after any spaces
_TOKEN_RE = re.compile(r"\s*(?:%s)" % "|".join(f"(?P<{k}>{p})" for k, p in (
    ("num", r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"),
    ("ident", r"[A-Za-z_][A-Za-z_0-9]*"), ("op", r"[-+*/]"),
    ("cmp", r"[=!<>]=|[<>]"), ("stray", r"[=!]"),
    ("lparen", r"\("), ("rparen", r"\)"), ("lbrace", r"\{"), ("rbrace", r"\}"),
    ("lbracket", r"\["), ("rbracket", r"\]"), ("comma", ","),
    ("unexpected", "."))), re.DOTALL)
_LEX_ERRORS = {"stray": "stray", "unexpected": "unexpected character"}


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(src.rstrip()):  # each match ends in a token
        kind = m.lastgroup
        text, pos = m.group(kind), m.start(kind)
        if kind in _LEX_ERRORS:
            raise DslSyntaxError(f"{_LEX_ERRORS[kind]} {text!r}", pos, src)
        toks.append(_Token(kind, text, pos))
    toks.append(_Token("end", "", len(src)))
    return toks


# --- parser ------------------------------------------------------------

class _Parser:
    def __init__(self, src: str, variables: Iterable[str] | None):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.variables = DEFAULT_VARIABLES if variables is None \
            else frozenset(variables)
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, msg: str) -> DslSyntaxError:
        return DslSyntaxError(msg, self.peek().pos, self.src)

    def expect(self, kind: str) -> _Token:
        if self.peek().kind != kind:
            raise self.error(f"expected {kind!r}, found {self.peek().text!r}")
        return self.advance()

    def inner(self, parse):
        """``parse()`` one nesting level deeper: every recursion does this."""
        if self.depth == _MAX_NESTING:  # no backtracking catches this
            raise RecursionError
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def joined(self, parse, kind: str, text: str, node_type):
        """``parse`` items separated by the token ``text``: the one item,
        or a ``node_type`` of them all."""
        terms = [parse()]
        while self.peek().kind == kind and self.peek().text == text:
            self.advance()
            terms.append(parse())
        return terms[0] if len(terms) == 1 else node_type(tuple(terms))

    def chain(self, parse, ops: str) -> ScalarExpr:
        """``parse`` items separated by operators in ``ops``, as
        left-associative BinOps."""
        node = parse()
        while self.peek().kind == "op" and self.peek().text in ops:
            node = BinOp(self.advance().text, node, parse())
        return node

    # scalar grammar

    def scalar(self) -> ScalarExpr:
        return self.chain(self.term, "+-")

    def term(self) -> ScalarExpr:
        return self.chain(self.factor, "*/")

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
            node = self.inner(self.scalar)
            self.expect("rparen")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name in _RESERVED:
                raise self.error(f"reserved word {name!r} is not a scalar")
            self.advance()
            if self.peek().kind == "lparen":
                if name not in _FUNCTION_ARITY:
                    raise DslSyntaxError(
                        f"unknown function {name!r}", tok.pos, self.src)
                self.advance()
                args = [self.inner(self.scalar)]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.inner(self.scalar))
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
        raise self.error(f"expected a scalar atom, found {tok.text!r}")

    # set grammar

    def set_expr(self) -> SetExpr:
        return self.joined(self.set_atom, "op", "+", SumSet)

    def set_atom(self) -> SetExpr:
        tok = self.peek()
        if tok.kind == "lbrace":
            self.advance()
            value = self.inner(self.scalar)
            self.expect("rbrace")
            return SingletonSet(value)
        if tok.kind == "lbracket":
            self.advance()
            lo = self.inner(self.scalar)
            self.expect("comma")
            hi = self.inner(self.scalar)
            self.expect("rbracket")
            return IntervalSet(lo, hi)
        if tok.kind == "ident" and tok.text == "hull":
            self.advance()
            self.expect("lparen")
            a = self.inner(self.scalar)
            self.expect("comma")
            b = self.inner(self.scalar)
            self.expect("rparen")
            return HullSet(a, b)
        if tok.kind == "lparen":
            mark = self.i, self.depth
            try:
                self.advance()
                inner = self.inner(self.set_expr)
                self.expect("rparen")
                if self.peek().kind == "op" and self.peek().text == "*":
                    # a parenthesized set cannot be a multiplier; reparse
                    # the parenthesized text as a scalar coefficient
                    raise DslSyntaxError("set used as multiplier",
                                         self.peek().pos, self.src)
                return inner
            except DslSyntaxError:
                self.i, self.depth = mark
        coeff = self.factor()
        if self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            return ScaledSet(coeff, self.inner(self.set_atom))
        raise self.error("expected a set atom")

    # guard grammar

    def guard_or_otherwise(self) -> GuardExpr:
        if self.peek().kind == "ident" and self.peek().text == "otherwise":
            self.advance()
            return TrueGuard()
        return self.guard()

    def guard(self) -> GuardExpr:
        return self.joined(self.guard_and, "ident", "or", OrGuard)

    def guard_and(self) -> GuardExpr:
        return self.joined(self.guard_unary, "ident", "and", AndGuard)

    def guard_unary(self) -> GuardExpr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            self.advance()
            return NotGuard(self.inner(self.guard_unary))
        if tok.kind == "lparen":
            mark = self.i, self.depth
            try:
                self.advance()
                inner = self.inner(self.guard)
                self.expect("rparen")
                return inner
            except DslSyntaxError:
                self.i, self.depth = mark
        return self.comparison()

    def comparison(self) -> GuardExpr:
        left = self.scalar()
        if self.peek().kind != "cmp":
            raise self.error("expected a comparison operator, found "
                             f"{self.peek().text!r}")
        return Comparison(self.advance().text, left, self.scalar())


def _parse(src: str, variables: Iterable[str] | None, rule):
    p = _Parser(src, variables)
    try:
        node = rule(p)
    except RecursionError:
        raise DslSyntaxError(f"more than {_MAX_NESTING} nested brackets, "
                             "function calls, scaled sets or 'not'",
                             p.peek().pos, src) from None
    if p.peek().kind != "end":
        raise p.error(f"unexpected trailing input {p.peek().text!r}")
    if len(p.toks) > _MAX_DEPTH:  # each node has a token of its own
        level, depth = [node], 0  # the tree's depth, level by level
        while level:
            depth += 1
            level = [c for n in level for c in _children(n)]
        if depth > _MAX_DEPTH:
            raise DslSyntaxError(
                f"syntax tree deeper than {_MAX_DEPTH} levels", 0, src)
    return node


def parse_scalar(src: str, variables: Iterable[str] | None = None) -> ScalarExpr:
    return _parse(src, variables, _Parser.scalar)


def parse_set(src: str, variables: Iterable[str] | None = None) -> SetExpr:
    return _parse(src, variables, _Parser.set_expr)


def parse_guard(src: str, variables: Iterable[str] | None = None) -> GuardExpr:
    return _parse(src, variables, _Parser.guard_or_otherwise)


# --- compilation to Python closures ------------------------------------

# compiled code calls function ``f`` as ``_f``
_COMPILE_NS = {
    "_abs": abs, "_max": max, "_min": min, "_sgn": _sgn, "_sgn1": _sgn1,
    **{f"_{name}": _checked_math(name) for name in ("exp", "sin", "cos")},
    "_den": _checked_den, "_pt": lambda v: _pair(v, v),
    "_intv": _interval_value, "_hullv": _hull_value,
    "_scale": lambda s, c: _hull_value(c * s[0], c * s[1]),
    "_sum": lambda *terms: _pair(*reduce(_add, terms)),
}


def _scalar_code(node: ScalarExpr) -> str:
    if isinstance(node, Num):
        return repr(node.value) if math.isfinite(node.value) \
            else f"float('{node.value}')"  # a literal such as 1e999 is inf
    if isinstance(node, Var):
        return f"_e[{node.name!r}]"
    if isinstance(node, Neg):
        return f"(-{_scalar_code(node.operand)})"
    if isinstance(node, BinOp):  # a chain a + b - c, or a * b / c, flat
        ops, terms = ("+-" if node.op in "+-" else "*/"), []
        while isinstance(node, BinOp) and node.op in ops:
            op, b = node.op, _scalar_code(node.right)
            terms.append(f"/ _den({b})" if op == "/" else f"{op} {b}")
            node = node.left
        return f"({_scalar_code(node)} " + " ".join(reversed(terms)) + ")"
    if isinstance(node, Call):
        args = ", ".join(_scalar_code(a) for a in node.args)
        return f"_{node.func}({args})"
    raise TypeError(f"not a scalar expression: {node!r}")


def _set_code(node: SetExpr, to: tuple[str, str] | None = None) -> str:
    """An expression for ``node``'s ``(lo, hi)`` pair, or, given ``to``,
    lines that set those two local names to its endpoints. They raise
    where the expression does: a singleton or a sum runs ``_intv`` on
    endpoints that fail ``lo <= hi`` (a NaN); other sets keep their call."""
    if to is not None:
        lo, hi = to
        if isinstance(node, SingletonSet):
            code = f"{lo} = {hi} = {_scalar_code(node.value)}\n"
        elif isinstance(node, SumSet):  # adds left to right, as _sum does
            code, part = _set_code(node.terms[0], to), (lo + "_", hi + "_")
            for term in node.terms[1:]:
                code += (_set_code(term, part)
                         + f"{lo} += {part[0]}; {hi} += {part[1]}\n")
        else:
            code = f"{lo}, {hi} = {_set_code(node)}\n"
        return code + f"if not {lo} <= {hi}: _intv({lo}, {hi})\n"
    if isinstance(node, SingletonSet):
        return f"_pt({_scalar_code(node.value)})"
    if isinstance(node, IntervalSet):
        return f"_intv({_scalar_code(node.lo)}, {_scalar_code(node.hi)})"
    if isinstance(node, HullSet):
        return f"_hullv({_scalar_code(node.a)}, {_scalar_code(node.b)})"
    if isinstance(node, SumSet):  # one n-ary call, as _and/_or in masks
        return "_sum(" + ", ".join(map(_set_code, node.terms)) + ")"
    if isinstance(node, ScaledSet):  # the operand first, then the factor
        return f"_scale({_set_code(node.operand)}, {_scalar_code(node.coeff)})"
    raise TypeError(f"not a set expression: {node!r}")


def _guard_code(node: GuardExpr, masks: bool = False) -> str:
    """Guard code with ``and/or/not``, or mask code (see ``_ARRAY_NS``)."""
    if isinstance(node, TrueGuard):
        return "True"
    if isinstance(node, Comparison):
        a, b = _scalar_code(node.left), _scalar_code(node.right)
        if masks and _POISONS.search(a + b):
            return f"_cmp({a}, {b}, lambda a, b: a {node.op} b)"
        return f"({a} {node.op} {b})"
    if isinstance(node, (AndGuard, OrGuard)):
        terms = [_guard_code(t, masks) for t in node.terms]
        word = "and" if isinstance(node, AndGuard) else "or"
        if masks:  # one n-ary call: nesting would hit the parser's limit
            return f"_{word}(" + ", ".join(terms) + ")"
        return "(" + f" {word} ".join(terms) + ")"
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
    """The error for a set value with a NaN endpoint: the only ValueError
    in set evaluation, raised by ``_pair``."""
    x = tuple(env[f"x{i}"] for i in range(1, 10) if f"x{i}" in env)
    return DslEvalError(f"set expression {pretty_set(node)} has a NaN "
                        f"endpoint at x={x}, t={env.get('t')!r}")


def compile_sets(nodes: Sequence[SetExpr]) -> Callable[
        [Mapping[str, float]], tuple[tuple[float, float], ...]]:
    """One closure returning the ``(lo, hi)`` values of ``nodes``, in order.

    A NaN endpoint raises a DslEvalError naming the first set that has
    one: each set's own code runs again, in order, until one raises.
    """
    nodes = tuple(nodes)
    sets = _build("(" + "".join(f"{_set_code(n)}, " for n in nodes) + ")")

    def checked(env: Mapping[str, float]) -> tuple[tuple[float, float], ...]:
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
    """Python's ``max(a, b)`` on each row, which drops a NaN ``b``."""
    return np.where(b > a, b, a)


def _array_min(a, b):
    return np.where(b < a, b, a)


def _nan_max(a, b):  # keeps a NaN b, so that a NaN row stays NaN
    return np.where((b > a) | (b != b), b, a)


def _nan_min(a, b):
    return np.where((b < a) | (b != b), b, a)


def _array_den(b):
    """``b``, NaN where ``|b| < 1e-300`` (the scalar code raises)."""
    near_zero = np.abs(b) < _DIV_FLOOR
    return np.where(near_zero, np.nan, b) if near_zero.any() else b


def _elementwise(fn: Callable[[float], float]) -> Callable:
    """``fn`` on each row, NaN where it has no finite value."""
    def value(v: float) -> float:
        try:
            return fn(v)
        except (OverflowError, ValueError):
            return math.nan
    return np.vectorize(value, otypes=[float])


def _array_compare(a, b, op: Callable):
    """``op(a, b)`` as a mask, NaN (undecided) where ``a`` or ``b`` is."""
    nan = np.isnan(a) | np.isnan(b)
    return np.where(nan, np.nan, op(a, b)) if nan.any() else op(a, b)


def _array_interval(lo, hi) -> tuple:
    """``[lo, hi]``, NaN where ``lo > hi`` (the scalar code raises)."""
    inverted = lo > hi
    return np.where(inverted, np.nan, lo) if np.any(inverted) else lo, hi


def _array_hull(a, b) -> tuple:
    return _nan_min(a, b), _nan_max(a, b)


_ARRAY_NS = {
    "_den": _array_den, "_abs": np.abs, "_max": _nan_max, "_min": _nan_min,
    "_sgn": np.sign,  # NaN stays NaN, and sign(-0.0) is 0.0
    "_sgn1": lambda y: np.where((-1.0 < y) & (y < 1.0), 0.0, np.sign(y)),
    "_exp": _elementwise(math.exp), "_sin": _elementwise(math.sin),
    "_cos": _elementwise(math.cos), "_pt": lambda v: (v, v),
    "_intv": _array_interval, "_hullv": _array_hull,
    "_scale": lambda s, c: _array_hull(c * s[0], c * s[1]),
    "_sum": lambda *terms: reduce(_add, terms),  # NaN stays on its row
    "_cmp": _array_compare, "_and": lambda *m: reduce(np.minimum, m),
    "_or": lambda *m: reduce(np.maximum, m),
    "_not": lambda m: 1.0 - m if np.asarray(m).dtype.kind == "f"
    else np.logical_not(m),  # an undecided (NaN) row stays undecided
}
# the calls whose array form can give a row a NaN that the scalar code lacks
_POISONS = re.compile(r"_(den|exp|sin|cos|max|min|sgn|sgn1)\(")


def compile_scalar_array(node: ScalarExpr) -> Callable:
    return _build(_scalar_code(node), _ARRAY_NS)


def compile_set_array(node: SetExpr) -> Callable:
    """Closure returning a pair of ``lo`` and ``hi`` endpoint arrays."""
    return _build(_set_code(node), _ARRAY_NS)


def compile_guard_array(node: GuardExpr) -> Callable:
    return _build(_guard_code(node, masks=True), _ARRAY_NS)


# --- free variables -----------------------------------------------------

def _children(node: _Node) -> list[_Node]:
    return [child for value in node._values
            for child in (value if isinstance(value, tuple) else (value,))
            if isinstance(child, _Node)]


def free_vars(node) -> frozenset[str]:
    """The variable names ``node`` reads: a ``Var`` is a leaf, any other
    node the union over its child nodes."""
    if isinstance(node, Var):
        return frozenset({node.name})
    out: frozenset[str] = frozenset()
    for child in _children(node):
        out |= free_vars(child)
    return out


def substitute(node: ScalarExpr,
               names: Mapping[str, ScalarExpr]) -> ScalarExpr:
    """``node`` with every variable listed in ``names`` replaced."""
    if isinstance(node, Var):
        return names.get(node.name, node)
    if isinstance(node, (Neg, BinOp, Call)):  # op and func map to themselves
        return type(node)(*(tuple(substitute(a, names) for a in v)
                            if isinstance(v, tuple) else substitute(v, names)
                            for v in node._values))
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
