import functools
import json
import math
import re

import numpy as np
import pytest

import incred.expr as ex
from incred.errors import ArrayHazard, DslEvalError, DslSyntaxError
from incred.fixtures import available_fixtures, fixture_path
from incred.intervals import Interval
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
        # the array path leaves the row to the pointwise reference
        with pytest.raises(ArrayHazard), np.errstate(all="ignore"):
            ex.compile_scalar_array(node)({"x1": np.array([x1])})


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
        assert evset("{-x1 + x2} + [-1, 1]", x1=1.0, x2=0.0) == Interval(-2, 0)

    def test_singleton_zero(self):
        assert evset("{0}") == Interval(0, 0)

    def test_scaled_hull(self):
        assert evset("x2*hull(0, sgn(x1))", x1=2.0, x2=3.0) == Interval(0, 3)

    def test_hull_orders_endpoints(self):
        assert evset("hull(1, -1)") == Interval(-1, 1)

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
        # the array closure raises (scaled sets and hulls, whose min/max
        # would skip a NaN) or keeps the NaN, which value_arrays rejects
        try:
            span = ex.compile_set_array(node)({"x1": np.ones(2), "t": 0.5})
        except ArrayHazard:
            pass
        else:
            assert np.isnan([span.lo, span.hi]).any()
        m = PiecewiseBoxMap(1, 1, [Piece(ex.TrueGuard(), (node,))])
        with pytest.raises(ArrayHazard):
            m.value_arrays([np.ones(2)], 0.5)

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
        assert evset("(x1 + 1)*[0, 1]", x1=1.0) == Interval(0, 2)

    def test_negative_coefficient(self):
        assert evset("-2*[1, 2]") == Interval(-4, -2)

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
    compiled scalar leaves."""
    def scalar(e):
        return ex.compile_scalar(e)(env)

    if isinstance(node, ex.SingletonSet):
        return scalar(node.value), scalar(node.value)
    if isinstance(node, ex.IntervalSet):
        return scalar(node.lo), scalar(node.hi)
    if isinstance(node, ex.HullSet):
        a, b = scalar(node.a), scalar(node.b)
        return min(a, b), max(a, b)
    if isinstance(node, ex.SumSet):
        lo, hi = _set_reference(node.terms[0], env)
        for term in node.terms[1:]:
            t_lo, t_hi = _set_reference(term, env)
            lo, hi = lo + t_lo, hi + t_hi
        return lo, hi
    lo, hi = _set_reference(node.operand, env)
    c = scalar(node.coeff)
    return min(c * lo, c * hi), max(c * lo, c * hi)


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
                iv = fn(env)[0]
                assert (repr(iv.lo), repr(iv.hi)) == tuple(
                    map(repr, _set_reference(node, env))), src
        for src in set(guards) | set(EXTRA_GUARDS):
            fn = ex.compile_guard(ex.parse_guard(src, issue_vars))
            for _ in range(20):
                env = {v: float(rng.uniform(-3, 3)) for v in issue_vars}
                expected = True if src == "otherwise" else py_eval(src, env)
                assert fn(env) is expected, src


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
                iv = ex.compile_sets((node,))(env)[0]
                samples = [_realize(node, env, rng) for _ in range(1000)]
                assert min(samples) >= iv.lo - 1e-9
                assert max(samples) <= iv.hi + 1e-9
                assert min(samples) <= iv.lo + 1e-9
                assert max(samples) >= iv.hi - 1e-9
                points += 1
                if points >= 1000:
                    break
