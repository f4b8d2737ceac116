import copy
import functools
import itertools
import json
import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incred.expr as ex
from incred.errors import DslEvalError, DslSyntaxError
from incred.fixtures import available_fixtures, fixture_path
from incred.setmaps import Piece, PiecewiseBoxMap


def ev(src, **env):
    return ex.compile_scalar(ex.parse_scalar(src))(env)


def evset(src, **env):
    return ex.compile_sets((ex.parse_set(src),))(env)[0]


def evguard(src, **env):
    return ex.compile_guard(ex.parse_guard(src))(env)


class TestScalar:
    def test_abs(self):
        assert ev("abs(x1)", x1=-2.0) == 2.0

    def test_sgn1_zero_inside_open_interval(self):
        assert ev("sgn1(0.5)") == 0.0
        assert ev("sgn1(1)") == 1.0
        assert ev("sgn1(-1)") == -1.0
        assert ev("sgn1(-2)") == -1.0
        assert ev("sgn1(0.999)") == 0.0

    def test_sgn_at_zero(self):
        assert ev("sgn(0)") == 0.0
        assert ev("sgn(-0.5)") == -1.0

    def test_ramp_combination(self):
        assert ev("max(x1 - 1, 0) - min(x1 + 1, 0)", x1=2.0) == 1.0
        assert ev("max(x1 - 1, 0) - min(x1 + 1, 0)", x1=-2.0) == 1.0
        assert ev("max(x1 - 1, 0) - min(x1 + 1, 0)", x1=0.5) == 0.0

    def test_precedence(self):
        assert ev("2 + 3*4") == 14.0
        assert ev("-2*3") == -6.0
        assert ev("2*(3 + 4)") == 14.0
        assert ev("8/2/2") == 2.0

    def test_transcendentals(self):
        assert ev("exp(0)") == 1.0
        assert ev("sin(0) + cos(0)") == 1.0

    def test_division_guard(self):
        with pytest.raises(DslEvalError):
            ev("1/x1", x1=0.0)
        with pytest.raises(DslEvalError):
            ev("1/x1", x1=1e-301)

    @pytest.mark.parametrize("src, x1, message", [
        ("exp(1000*x1)", 1.0, "exp(1000.0) has no finite value"),
        ("sin(x1*1e308*10)", 1.0, "sin(inf) has no finite value"),
        ("cos(x1*1e308*10)", -1.0, "cos(-inf) has no finite value"),
    ])
    def test_transcendental_without_finite_value(self, src, x1, message):
        node = ex.parse_scalar(src)
        with pytest.raises(DslEvalError, match=re.escape(message)):
            ex.compile_scalar(node)({"x1": x1})
        # the array path gives the row NaN, for the pointwise reference
        with np.errstate(all="ignore"):
            value = ex.compile_scalar_array(node)({"x1": np.array([x1])})
        assert np.isnan(value).tolist() == [True]

    def test_overflowing_literal_is_inf(self):
        node = ex.parse_scalar("1e999 - x1")
        assert ex.compile_scalar(node)({"x1": 1.0}) == math.inf
        assert ex.compile_scalar_array(node)({"x1": np.ones(2)}).tolist() \
            == [math.inf, math.inf]
        assert ex.pretty_scalar(node) == "inf - x1"


class TestScalarErrors:
    def test_unknown_identifier_with_offset(self):
        with pytest.raises(DslSyntaxError) as err:
            ex.parse_scalar("x1 + foo")
        assert err.value.offset == 5

    def test_unknown_function(self):
        with pytest.raises(DslSyntaxError):
            ex.parse_scalar("tan(x1)")

    def test_arity_mismatch(self):
        with pytest.raises(DslSyntaxError):
            ex.parse_scalar("max(x1)")
        with pytest.raises(DslSyntaxError):
            ex.parse_scalar("abs(x1, x2)")

    def test_reserved_words(self):
        with pytest.raises(DslSyntaxError):
            ex.parse_scalar("hull + 1")

    def test_trailing_input(self):
        with pytest.raises(DslSyntaxError):
            ex.parse_scalar("x1 x2")

    def test_restricted_variables(self):
        assert ex.parse_scalar("x1", variables={"x1"})
        with pytest.raises(DslSyntaxError):
            ex.parse_scalar("x2", variables={"x1"})


class TestSet:
    def test_singleton_plus_interval(self):
        assert evset("{-x1 + x2} + [-1, 1]", x1=1.0, x2=0.0) == (-2.0, 0.0)

    def test_singleton_zero(self):
        assert evset("{0}") == (0.0, 0.0)

    def test_scaled_hull(self):
        assert evset("x2*hull(0, sgn(x1))", x1=2.0, x2=3.0) == (0.0, 3.0)

    def test_hull_orders_endpoints(self):
        assert evset("hull(1, -1)") == (-1.0, 1.0)

    def test_interval_literal_inverted_is_an_error(self):
        with pytest.raises(DslEvalError):
            evset("[x1, 0]", x1=1.0)

    @pytest.mark.parametrize("src", [
        "{(1e308*10) - (1e308*10)}", "{1e308*10} + {-1e308*10}",
        "[(1e308*10) - (1e308*10), 1]", "(1e308*10)*[0, 1]",
        "0*[1, 1e308*10]", "hull(0, (1e308*10) - (1e308*10))",
        "{1e999 - 1e999}"])
    def test_nan_endpoint_is_an_eval_error(self, src):
        node = ex.parse_set(src)
        message = (f"set expression {ex.pretty_set(node)} has a NaN "
                   "endpoint at x=(1.0,), t=0.5")
        with pytest.raises(DslEvalError, match=re.escape(message)):
            ex.compile_sets((node,))({"x1": 1.0, "t": 0.5})
        # the array closure keeps the NaN (scaled sets and hulls too, whose
        # min/max would skip it), and chunk_arrays flags the rows as bad
        lo, hi = ex.compile_set_array(node)({"x1": np.ones(2), "t": 0.5})
        assert np.isnan([lo, hi]).any()
        m = PiecewiseBoxMap(1, 1, [Piece(ex.TrueGuard(), (node,))])
        cols = [np.ones(2)]
        assert m.chunk_arrays(cols)(*m.env_arrays(cols, 0.5))[3].tolist() \
            == [True, True]

    @pytest.mark.parametrize("srcs, named", [
        (["{x1}", "{(1e308*10) - (1e308*10)}", "[0, 1]"], 1),
        (["{x1}", "[0, 1]", "0*[1, 1e308*10]"], 2),
        (["0*[1, 1e308*10]", "{(1e308*10) - (1e308*10)}"], 0),
    ])
    def test_nan_endpoint_names_the_first_nan_set(self, srcs, named):
        nodes = [ex.parse_set(src) for src in srcs]
        message = (f"set expression {ex.pretty_set(nodes[named])} has a NaN "
                   "endpoint at x=(1.0,), t=0.5")
        with pytest.raises(DslEvalError, match=re.escape(message)):
            ex.compile_sets(nodes)({"x1": 1.0, "t": 0.5})

    def test_parenthesized_coefficient(self):
        assert evset("(x1 + 1)*[0, 1]", x1=1.0) == (0.0, 2.0)

    def test_negative_coefficient(self):
        assert evset("-2*[1, 2]") == (-4.0, -2.0)

    def test_bare_scalar_is_not_a_set(self):
        with pytest.raises(DslSyntaxError):
            ex.parse_set("x1 + [0, 1]")


class TestGuard:
    def test_conjunction(self):
        assert evguard("abs(x1) == 1 and abs(x2) != 1", x1=1.0, x2=0.5)
        assert not evguard("abs(x1) == 1 and abs(x2) != 1", x1=1.0, x2=1.0)

    def test_negation(self):
        assert evguard("not (x1 < 0)", x1=0.0)

    def test_exact_equality_semantics(self):
        # grids must place nodes exactly on guards; fuzz never hits them
        assert not evguard("abs(x1) == 1", x1=1.0 + 1e-12)
        assert evguard("abs(x1) == 1", x1=1.0)

    def test_or_precedence(self):
        g = "x1 == 0 and x2 == 0 or x1 == 1 and x2 == 1"
        assert evguard(g, x1=1.0, x2=1.0)
        assert evguard(g, x1=0.0, x2=0.0)
        assert not evguard(g, x1=1.0, x2=0.0)

    def test_otherwise(self):
        assert isinstance(ex.parse_guard("otherwise"), ex.TrueGuard)

    def test_division_error_propagates(self):
        with pytest.raises(DslEvalError):
            evguard("1/x1 > 0", x1=0.0)

    @pytest.mark.parametrize("src", ["sgn(x2*1e999) < 0",
                                     "sgn1(x2*1e999) < 0",
                                     "max(x1, x2*1e999) > 0",
                                     "min(x1, x2*1e999) < 5"])
    def test_a_dropped_nan_leaves_the_row_undecided(self, src):
        # 0*1e999 is NaN on both paths; the scalar sgn, sgn1, max and min
        # drop it and take the piece, the array ones keep it
        assert evguard(src, x1=1.0, x2=0.0)
        env = {"x1": np.ones(2), "x2": np.array([0.0, 1.0])}
        with np.errstate(all="ignore"):
            mask = ex.compile_guard_array(ex.parse_guard(src))(env)
        assert np.isnan(mask).tolist() == [True, False]

    def test_and_or_masks_are_left_folds(self):
        # one n-ary _and/_or call gives the bits of the nested fold,
        # undecided (NaN) rows included
        env = {"x1": np.array([0.0, 1.0, 2.0, -1.0]),
               "x2": np.array([0.0, 1.0, 0.0, 1.0])}
        a, b, c, d = ["x1 > 0", "max(x1, x2*1e999) > 0", "x2 < 1",
                      "x1 == 0"]
        with np.errstate(all="ignore"):
            m = {g: ex.compile_guard_array(ex.parse_guard(g))(env)
                 for g in (a, b, c, d)}
            got = ex.compile_guard_array(ex.parse_guard(
                f"{a} and {b} and {c} or {d} or {c}"))(env)
        want = np.maximum(np.maximum(np.minimum(np.minimum(m[a], m[b]), m[c]),
                                     m[d]), m[c])
        assert np.isnan(want).any()
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name", ["abs", "max", "min", "sgn", "sgn1",
                                      "exp", "sin", "cos", "den"])
    def test_poisons_are_the_calls_that_can_disagree(self, name):
        """A comparison reads a call through ``_cmp`` (NaN rows undecided)
        exactly when the call's scalar code raises, or gives other bits
        than its array code, on some row."""
        scalar, array = ex._COMPILE_NS[f"_{name}"], ex._ARRAY_NS[f"_{name}"]
        edges = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-301, 0.5,
                 1.0, -1.0, 1e3)
        agree = True
        for args in itertools.product(edges, repeat=2 if name in
                                      ("max", "min") else 1):
            try:
                want = scalar(*args)
            except DslEvalError:
                agree = False
                continue
            with np.errstate(all="ignore"):
                got = array(*(np.array([a]) for a in args))
            agree &= repr(float(got[0])) == repr(want)
        assert bool(ex._POISONS.search(f"_{name}(")) is not agree


# --- round-trip corpus ---------------------------------------------------

def _fixture_strings():
    scalars, sets, guards = [], [], []
    for name in available_fixtures():
        with open(fixture_path(name), "r", encoding="utf-8") as fh:
            doc = json.load(fh)

        def walk_function(spec):
            scalars.append(spec["value"])
            walk_pieces(spec["gradient"])
            for u in spec.get("U", []):
                walk_function(u)

        def walk_pieces(pieces):
            for piece in pieces:
                guards.append(piece["guard"])
                if piece["value"] != "empty":
                    sets.extend(piece["value"])

        walk_pieces(doc["F"]["pieces"])
        walk_function(doc["V"])
        for u in doc.get("U", []):
            walk_function(u)
        scalars.extend(doc.get("params", {}).values())
        if "matrosov" in doc:
            scalars.extend(doc["matrosov"]["Y"])
            scalars.extend(doc["matrosov"]["phi"])
            for w in doc["matrosov"]["W"]:
                walk_function(w)
        for key in ("W", "W_semidef", "Wlower", "Wupper"):
            if key in doc.get("certify", {}):
                scalars.append(doc["certify"][key])
    return scalars, sets, guards


EXTRA_SCALARS = [
    "x1 + x2*x3 - 4/x4",
    "-x1*(x2 - 3)",
    "exp(-t)*sin(x1) + cos(x2)",
    "max(min(x1, x2), -1)",
    "sgn1(x1*x2) - sgn(t)",
    "0.125*x1 - 17",
]
EXTRA_SETS = [
    "{x1} + [-1, 1] + hull(0, x2)",
    "x1*{x2}",
    "-0.5*hull(x1, -x1)",
    "(x1 + 1)*[0, 1]",
    "{0} + ({x1} + [2, 3])",
]
EXTRA_GUARDS = [
    "not (x1 < 0)",
    "x1 <= 0 or x2 >= 1 and t > 0",
    "not (x1 == 0 and x2 == 0)",
    "(x1 < 0 or x2 < 0) and t != 1",
]


def _strip(s):
    return "".join(s.split())


class TestRoundTrip:
    def test_corpus_is_large_enough(self):
        scalars, sets, guards = _fixture_strings()
        corpus = set(scalars) | set(sets) | set(guards)
        corpus |= set(EXTRA_SCALARS) | set(EXTRA_SETS) | set(EXTRA_GUARDS)
        assert len(corpus) >= 50

    def test_scalar_round_trip(self):
        scalars, _, _ = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot", "z1"}
        for src in set(scalars) | set(EXTRA_SCALARS):
            node = ex.parse_scalar(src, issue_vars)
            printed = ex.pretty_scalar(node)
            assert _strip(printed) == _strip(src), src
            assert ex.pretty_scalar(ex.parse_scalar(printed, issue_vars)) \
                == printed

    def test_set_round_trip(self):
        _, sets, _ = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot"}
        for src in set(sets) | set(EXTRA_SETS):
            node = ex.parse_set(src, issue_vars)
            printed = ex.pretty_set(node)
            assert _strip(printed) == _strip(src), src
            assert ex.pretty_set(ex.parse_set(printed, issue_vars)) == printed

    def test_guard_round_trip(self):
        _, _, guards = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot"}
        for src in set(guards) | set(EXTRA_GUARDS):
            node = ex.parse_guard(src, issue_vars)
            printed = ex.pretty_guard(node)
            assert _strip(printed) == _strip(src), src
            assert ex.pretty_guard(ex.parse_guard(printed, issue_vars)) \
                == printed

    def test_dropping_any_closing_paren_fails(self):
        scalars, sets, guards = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot", "z1"}
        cases = ([(s, ex.parse_scalar) for s in set(scalars) | set(EXTRA_SCALARS)]
                 + [(s, ex.parse_set) for s in set(sets) | set(EXTRA_SETS)]
                 + [(s, ex.parse_guard) for s in set(guards) | set(EXTRA_GUARDS)])
        mutations = 0
        for src, parser in cases:
            for i, c in enumerate(src):
                if c != ")":
                    continue
                mutated = src[:i] + src[i + 1:]
                mutations += 1
                with pytest.raises(DslSyntaxError):
                    parser(mutated, issue_vars)
        assert mutations > 100


# --- AST nodes ------------------------------------------------------------

# parsed fixture-style expressions and the repr a frozen dataclass gives them
NODE_REPRS = [
    (ex.parse_scalar, "-x1 + 2*max(x2, 0.5)",
     "BinOp(op='+', left=Neg(operand=Var(name='x1')), right=BinOp(op='*', "
     "left=Num(value=2.0), right=Call(func='max', args=(Var(name='x2'), "
     "Num(value=0.5)))))"),
    (ex.parse_scalar, "x1/(t - 1)",
     "BinOp(op='/', left=Var(name='x1'), right=BinOp(op='-', "
     "left=Var(name='t'), right=Num(value=1.0)))"),
    (ex.parse_set, "hull(0, x1) + 2*[x1, 1]",
     "SumSet(terms=(HullSet(a=Num(value=0.0), b=Var(name='x1')), "
     "ScaledSet(coeff=Num(value=2.0), operand=IntervalSet("
     "lo=Var(name='x1'), hi=Num(value=1.0)))))"),
    (ex.parse_set, "{sgn1(x2)}",
     "SingletonSet(value=Call(func='sgn1', args=(Var(name='x2'),)))"),
    (ex.parse_guard, "x1 > 0 and not (x2 <= 1) or t < 2",
     "OrGuard(terms=(AndGuard(terms=(Comparison(op='>', left=Var(name='x1'), "
     "right=Num(value=0.0)), NotGuard(operand=Comparison(op='<=', "
     "left=Var(name='x2'), right=Num(value=1.0))))), Comparison(op='<', "
     "left=Var(name='t'), right=Num(value=2.0))))"),
    (ex.parse_guard, "otherwise", "TrueGuard()"),
    (ex._tokenize, "x1 >= 2",
     "[_Token(kind='ident', text='x1', pos=0), _Token(kind='cmp', "
     "text='>=', pos=3), _Token(kind='num', text='2', pos=6), "
     "_Token(kind='end', text='', pos=7)]"),
]

# an identifier that is not a function name or a keyword is a variable
_IDENT = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?!\w|\s*\()")
_KEYWORDS = {"and", "or", "not", "otherwise"}


class TestNodes:
    @pytest.mark.parametrize("parse, src, want", NODE_REPRS)
    def test_repr_is_the_dataclass_form(self, parse, src, want):
        assert repr(parse(src)) == want

    def test_equality_is_type_strict(self):
        a, b = ex.parse_guard("x1 > 0"), ex.parse_guard("x2 < 1")
        assert ex.AndGuard((a, b)) != ex.OrGuard((a, b))
        assert ex.Num(1.0) != ex.Var("x1")
        assert ex.Num(1.0) != 1.0 and ex.TrueGuard() == ex.TrueGuard()
        assert ex.AndGuard((a, b)) == ex.AndGuard((a, b))

    def test_equal_nodes_hash_equal(self):
        for parse, src, _ in NODE_REPRS[:-1]:
            one, two = parse(src), parse(src)
            assert one is not two and one == two and hash(one) == hash(two)
        assert len({ex.parse_scalar("x1*x1"), ex.parse_scalar("x1 * x1")}) == 1

    def test_nodes_are_immutable_and_copyable(self):
        node = ex.parse_scalar("x1 - 2")
        with pytest.raises(AttributeError):
            node.op = "+"
        with pytest.raises(AttributeError):
            del node.left
        with pytest.raises(AttributeError):
            node.extra = 1  # slotted: no instance dict either
        assert copy.deepcopy(node) == node
        assert pickle.loads(pickle.dumps(node)) == node
        assert ex.pretty_scalar(node) == "x1 - 2"

    def test_free_vars_on_every_fixture_expression(self):
        scalars, sets, guards = _fixture_strings()
        names = set(ex.DEFAULT_VARIABLES) | {"g", "gdot", "z1"}
        cases = ([(s, ex.parse_scalar) for s in scalars]
                 + [(s, ex.parse_set) for s in sets]
                 + [(s, ex.parse_guard) for s in guards])
        for src, parse in cases:
            want = set(_IDENT.findall(src)) - _KEYWORDS
            assert ex.free_vars(parse(src, names)) == want, src
        assert ex.free_vars(ex.parse_set("hull(t, 1) + x2*[g, 1]", names)) \
            == {"t", "x2", "g"}
        assert ex.free_vars(ex.parse_guard("otherwise")) == frozenset()


class TestNestingLimits:
    """Text nests at most ``_MAX_NESTING`` deep and a syntax tree is at
    most ``_MAX_DEPTH`` deep; beyond either the parser raises a
    DslSyntaxError, never a RecursionError or Python's SyntaxError."""

    # each form nests its argument one level deeper; the last opens the
    # most parentheses per level in the compiled code (5)
    SCALAR_LEVELS = ["({})", "abs({})", "2/-({}) - 3", "max(-{}*x1, 1)",
                     "1 + 2/-abs({})*3"]

    @pytest.mark.parametrize("form", SCALAR_LEVELS)
    def test_scalar_at_the_limit_compiles_and_one_more_is_rejected(self,
                                                                   form):
        src = "x1"
        for _ in range(ex._MAX_NESTING):
            src = form.format(src)
        node = ex.parse_scalar(src)
        with np.errstate(all="ignore"):
            ex.compile_scalar(node)({"x1": 0.5})
            ex.compile_scalar_array(node)({"x1": np.array([0.5, 2.0])})
        with pytest.raises(DslSyntaxError, match="more than 32 nested"):
            ex.parse_scalar(form.format(src))

    @pytest.mark.parametrize("parse, src", [
        (ex.parse_guard, "not " * 33 + "x1 > 0"),
        (ex.parse_guard, "(" * 33 + "x1 > 0" + ")" * 33),
        (ex.parse_guard, "not (x1 > 1 or " * 33 + "x1 > 0" + ")" * 33),
        (ex.parse_set, "2*" * 33 + "[0, 1]"),
        (ex.parse_set, "{" + "(" * 32 + "x1" + ")" * 32 + "}"),
    ])
    def test_deeper_guards_and_sets_are_rejected(self, parse, src):
        with pytest.raises(DslSyntaxError, match="more than 32 nested"):
            parse(src)

    def test_a_chain_at_the_depth_limit_compiles_flat(self):
        node = ex.parse_set("{" + " - ".join(["x1"] * 255) + "}")
        assert ex.compile_sets((node,))({"x1": 1.0})[0] == (-253.0, -253.0)
        assert ex.compile_set_array(node)({"x1": np.ones(2)})[0].tolist() \
            == [-253.0, -253.0]
        assert ex.parse_scalar("x1" + " / x1" * 255)  # tree depth 256
        with pytest.raises(DslSyntaxError, match="tree deeper than 256"):
            ex.parse_scalar("x1" + " * x1" * 256)


# --- tokenizer ------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = {
    "(": "lparen", ")": "rparen", "{": "lbrace", "}": "rbrace",
    "[": "lbracket", "]": "rbracket", ",": "comma",
}


def reference_tokenize(src):
    """The per-character tokenizer that the one-pattern lexer replaced."""
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(ex._Token(_PUNCT[c], c, i))
            i += 1
            continue
        if c in "+-*/":
            toks.append(ex._Token("op", c, i))
            i += 1
            continue
        if c in "=!<>":
            two = src[i:i + 2]
            if two in ("==", "!=", "<=", ">="):
                toks.append(ex._Token("cmp", two, i))
                i += 2
                continue
            if c in "<>":
                toks.append(ex._Token("cmp", c, i))
                i += 1
                continue
            raise DslSyntaxError(f"stray {c!r}", i, src)
        m = _NUM_RE.match(src, i)
        if m:
            toks.append(ex._Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            toks.append(ex._Token("ident", m.group(), i))
            i = m.end()
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", i, src)
    toks.append(ex._Token("end", "", n))
    return toks


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except DslSyntaxError as e:
        return e.message, e.offset


# the DSL's own lexemes, junk characters, Unicode whitespace and digits
LEXEMES = ["x1", "t", "g_2", "and", "not", "hull", "0", "12", "0.5", ".5",
           "1.", "1e5", "2E-3", "1e", "e", ".", "+", "-", "*", "/", "(",
           ")", "[", "]", "{", "}", ",", "==", "!=", "<=", ">=", "<", ">",
           "=", "!", "=>", " ", "\t", "\n", "\x0b", "\u00a0", "\u2003",
           "\u0663", "\u0967", "\U0001d7d7", "\u00e9", "$", "\x00", "\x85"]


class TestTokenizer:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(LEXEMES) | st.characters(),
                    max_size=16).map("".join))
    def test_matches_the_per_character_reference(self, src):
        assert _tokens_or_error(ex._tokenize, src) \
            == _tokens_or_error(reference_tokenize, src)


# --- compiled closures match Python's evaluation of the source ----------

def _sgn(y):
    return 0.0 if y == 0.0 else (1.0 if y > 0.0 else -1.0)


# the DSL's precedence and and/or/not are Python's, so Python evaluates
# scalar and guard source text as written
PY_FUNCTIONS = {"abs": abs, "max": max, "min": min, "sgn": _sgn,
                "sgn1": lambda y: 0.0 if -1.0 < y < 1.0 else _sgn(y),
                "exp": math.exp, "sin": math.sin, "cos": math.cos}


def py_eval(src, env):
    return eval(src, {"__builtins__": {}, **PY_FUNCTIONS}, dict(env))


def _set_reference(node, env):
    """``(lo, hi)`` of a set by interval arithmetic written out here, on
    compiled scalar leaves, raising where interval objects did: ValueError
    on a NaN endpoint of each value built, singleton, literal, hull,
    scaled set and every partial Minkowski sum, and DslEvalError on an
    inverted literal or a failing scalar leaf. A scaled set evaluates its
    operand before its coefficient, and a sum all its terms before it
    adds."""
    def scalar(e):
        return _compiled_scalar(e)(env)

    def checked(lo, hi):
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("NaN endpoint")
        return lo, hi

    def hull(a, b):
        checked(a, b)  # min and max would drop a NaN b
        return min(a, b), max(a, b)

    if isinstance(node, ex.SingletonSet):
        return checked(scalar(node.value), scalar(node.value))
    if isinstance(node, ex.IntervalSet):
        lo, hi = scalar(node.lo), scalar(node.hi)
        if lo > hi:
            raise DslEvalError(
                f"interval literal evaluated with lo > hi ({lo} > {hi})")
        return checked(lo, hi)
    if isinstance(node, ex.HullSet):
        return hull(scalar(node.a), scalar(node.b))
    if isinstance(node, ex.SumSet):
        terms = [_set_reference(term, env) for term in node.terms]
        lo, hi = terms[0]
        for t_lo, t_hi in terms[1:]:
            lo, hi = checked(lo + t_lo, hi + t_hi)
        return lo, hi
    lo, hi = _set_reference(node.operand, env)
    c = scalar(node.coeff)
    return hull(c * lo, c * hi)


class TestCompiled:
    def test_scalar_equivalence(self):
        rng = np.random.default_rng(0)
        scalars, _, _ = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot", "z1"}
        for src in set(scalars) | set(EXTRA_SCALARS):
            fn = ex.compile_scalar(ex.parse_scalar(src, issue_vars))
            for _ in range(20):
                env = {v: float(rng.uniform(-3, 3)) for v in issue_vars}
                env["x4"] = float(rng.uniform(1, 2))  # avoid division guards
                assert repr(fn(env)) == repr(float(py_eval(src, env))), src

    def test_set_and_guard_equivalence(self):
        rng = np.random.default_rng(1)
        _, sets, guards = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot"}
        for src in set(sets) | set(EXTRA_SETS):
            node = ex.parse_set(src, issue_vars)
            fn = ex.compile_sets((node,))
            for _ in range(20):
                env = {v: float(rng.uniform(-3, 3)) for v in issue_vars}
                assert tuple(map(repr, fn(env)[0])) == tuple(
                    map(repr, _set_reference(node, env))), src
        for src in set(guards) | set(EXTRA_GUARDS):
            fn = ex.compile_guard(ex.parse_guard(src, issue_vars))
            for _ in range(20):
                env = {v: float(rng.uniform(-3, 3)) for v in issue_vars}
                expected = True if src == "otherwise" else py_eval(src, env)
                assert fn(env) is expected, src


# scalar leaves with signed zeros and rounding, and hostile ones with
# infinities, overflow to inf, inf - inf cancellations and denominators
# near 0; the coordinates of an env come from the matching value list
SAFE_LEAVES = ["x1", "-x2", "0", "-0.0", "0.1", "x1/3", "2.5", "x2*0.7"]
HOSTILE_LEAVES = ["1e999", "-1e999", "1e308*10", "x1*1e308*10",
                  "(1e308*10) - (1e308*10)", "x2 - x2*1e308*10", "1/x1",
                  "1/(x2 - 1e-300)"]
SAFE_VALUES = [0.5, -2.0, 1 / 3, 0.1, 7.0, 1e308]
HOSTILE_VALUES = [0.0, -0.0, 1e-301, 1e-300, -1e-300, math.inf, -math.inf]


@st.composite
def set_cases(draw):
    """The source of a sum of 1 to 300 terms, each one of up to four
    nested set atoms, and an env: half the cases draw from the hostile
    leaves and values too."""
    hostile = draw(st.booleans())
    leaf = st.sampled_from(SAFE_LEAVES + HOSTILE_LEAVES * hostile)
    value = st.sampled_from(SAFE_VALUES + HOSTILE_VALUES * hostile)
    two = st.tuples(leaf, leaf)
    atoms = st.recursive(st.one_of(
        leaf.map("{{{}}}".format), two.map(lambda p: "[{}, {}]".format(*p)),
        two.map(lambda p: "hull({}, {})".format(*p))),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(
                lambda terms: "(" + " + ".join(terms) + ")"),
            st.tuples(leaf, inner).map(lambda p: "({})*{}".format(*p))),
        max_leaves=6)
    pool, count = draw(st.lists(atoms, min_size=1, max_size=4)), draw(
        st.integers(1, 300))
    terms = draw(st.lists(st.sampled_from(pool), min_size=count,
                          max_size=count))
    return " + ".join(terms), {"x1": draw(value), "x2": draw(value),
                               "t": 0.5}


def _bits_or_error(evaluate, node, env):
    """The bits of a set value, or the error, as compile_sets reports it."""
    try:
        return tuple(struct.pack("d", v) for v in evaluate(node, env))
    except ValueError:
        x = (env["x1"], env["x2"])
        return DslEvalError, (f"set expression {ex.pretty_set(node)} has a "
                              f"NaN endpoint at x={x}, t={env['t']!r}")
    except DslEvalError as e:
        return DslEvalError, str(e)


class TestSetDifferential:
    @settings(max_examples=150, deadline=None)
    @given(case=set_cases())
    @example(case=("(0)*[-2.5, x1]", {"x1": 0.5, "x2": 0.5, "t": 0.5}))
    @example(case=("{(1e308*10) - (1e308*10)}", {"x1": 0.5, "x2": 0.5,
                                                  "t": 0.5}))
    def test_compiled_sets_match_the_reference(self, case):
        """``compile_sets`` gives the reference's bits, or its error; the
        array closure gives the row the same bits, or a non-finite
        endpoint (a row to redo pointwise)."""
        src, env = case
        node = ex.parse_set(src)
        want = _bits_or_error(_set_reference, node, env)
        got = _bits_or_error(
            lambda n, e: ex.compile_sets((n,))(e)[0], node, env)
        assert got == want
        with np.errstate(all="ignore"):
            row = [float(np.broadcast_to(v, 1)[0]) for v in
                   ex.compile_set_array(node)(
                       {k: np.array([v]) for k, v in env.items()})]
        if all(map(math.isfinite, row)):
            assert tuple(struct.pack("d", v) for v in row) == want
        else:
            assert want[0] is DslEvalError or not all(
                math.isfinite(struct.unpack("d", v)[0]) for v in want)

    def test_a_sum_evaluates_every_term_before_it_adds(self):
        """A term that raises reports its own error, even after a partial
        sum that is NaN (inf + -inf)."""
        node = ex.parse_set("{1e308*10} + {-1e308*10} + {1/x1}")
        with pytest.raises(DslEvalError,
                           match=re.escape("near-zero denominator 0.0")):
            ex.compile_sets((node,))({"x1": 0.0, "t": 0.5})
        with pytest.raises(DslEvalError, match="has a NaN endpoint"):
            ex.compile_sets((node,))({"x1": 1.0, "t": 0.5})


# --- set evaluation equals the hull of sampled realizations ---------------

# AST nodes are hashable; the test realizes each set about a million times
_compiled_scalar = functools.lru_cache(maxsize=None)(ex.compile_scalar)


def _realize(node, env, rng):
    """One admissible element of the set, endpoint-biased."""
    def pick(lo, hi):
        u = rng.integers(3)
        if u == 0:
            return lo
        if u == 1:
            return hi
        return lo + (hi - lo) * rng.random()

    def scalar(e):
        return _compiled_scalar(e)(env)

    if isinstance(node, ex.SingletonSet):
        return scalar(node.value)
    if isinstance(node, ex.IntervalSet):
        return pick(scalar(node.lo), scalar(node.hi))
    if isinstance(node, ex.HullSet):
        a = scalar(node.a)
        b = scalar(node.b)
        return pick(min(a, b), max(a, b))
    if isinstance(node, ex.SumSet):
        return sum(_realize(t, env, rng) for t in node.terms)
    if isinstance(node, ex.ScaledSet):
        return scalar(node.coeff) * _realize(node.operand, env, rng)
    raise AssertionError(node)


class TestRealizationHull:
    def test_hull_of_realizations_matches_evaluation(self):
        rng = np.random.default_rng(42)
        _, sets, _ = _fixture_strings()
        issue_vars = set(ex.DEFAULT_VARIABLES) | {"g", "gdot"}
        srcs = sorted(set(sets) | set(EXTRA_SETS))
        points = 0
        while points < 1000:
            for src in srcs:
                node = ex.parse_set(src, issue_vars)
                env = {v: float(rng.uniform(-2, 2)) for v in issue_vars}
                lo, hi = ex.compile_sets((node,))(env)[0]
                samples = [_realize(node, env, rng) for _ in range(1000)]
                assert min(samples) >= lo - 1e-9
                assert max(samples) <= hi + 1e-9
                assert min(samples) <= lo + 1e-9
                assert max(samples) >= hi - 1e-9
                points += 1
                if points >= 1000:
                    break
