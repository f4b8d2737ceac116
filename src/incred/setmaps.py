"""Piecewise box-valued maps, declared-gradient function specs, and the
system definition format.

A :class:`PiecewiseBoxMap` is an ordered list of guarded pieces mapping
``(x, t)`` to an :class:`~incred.intervals.IntervalBox`; the first
matching guard wins and a final ``otherwise`` piece is mandatory, so
evaluation is total. Inclusions, declared Clarke-gradient tables, and
reduced inclusions are all expressed this way.

A :class:`RegularFunctionSpec` couples a scalar value expression with a
*declared* gradient map of dimension ``n + 1`` (state axes then a time
axis) and a regularity flag. Gradients are declared, not derived:
symbolic nonsmooth differentiation is out of scope, and
:func:`validate_gradient` cross-checks declarations against central
finite differences instead.

The JSON system-definition format (one UTF-8 document) uses top-level
keys ``n``, ``F``, ``V``, ``U``, ``domain``, ``params``, ``grid``,
``matrosov`` plus the optional analysis blocks ``certify`` and
``simulate``; unknown keys are rejected. See the README for the full
schema.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr
from .errors import (DimensionMismatchError, DslEvalError, DslSyntaxError,
                     EmptySetError, InputFileError, SchemaError)
from .expr import GuardExpr, ScalarExpr, SetExpr, TrueGuard
from .grids import GridSpec, check_size
from .intervals import Annulus, Interval, IntervalBox

__all__ = [
    "Piece", "PiecewiseBoxMap", "RegularFunctionSpec", "MatrosovData",
    "CheckSpec", "SimSpec", "SystemDef", "GradientValidationReport",
    "eval_map", "eval_gradient", "validate_gradient",
    "load_system", "system_from_dict",
]

_MAX_STATE_DIM = 9  # variable names x1..x9
_STRATEGY_KINDS = ("midpoint", "reduced-descent", "random-extreme")  # SimSpec
_INFLATE = 1e-4  # validate_gradient's margin around the declared box
_PASS_FRACTION = 0.99  # and the share of estimates it needs inside it

ParamTable = tuple[tuple[str, ScalarExpr], ...]


def _compile_params(params: ParamTable, build=expr.compile_scalar):
    return tuple((name, build(node)) for name, node in params)


@dataclass(frozen=True)
class Piece:
    guard: GuardExpr
    values: tuple[SetExpr, ...] | None  # None: the piece is empty-valued


class PiecewiseBoxMap:
    """Ordered guarded pieces mapping ``(x, t)`` to a box in ``R^n_out``."""

    __slots__ = ("n_in", "n_out", "pieces", "params", "time_dependent",
                 "_var_names", "_param_fns", "_first", "_sets",
                 "_array_compiled", "_param_array_fns", "_state_only")

    def __init__(self, n_in: int, n_out: int, pieces: Sequence[Piece],
                 params: ParamTable = ()):
        pieces = tuple(pieces)
        if not pieces:
            raise SchemaError("a piecewise map needs at least one piece")
        for k, piece in enumerate(pieces):
            is_last = k == len(pieces) - 1
            if isinstance(piece.guard, TrueGuard) != is_last:
                raise SchemaError(
                    "exactly one 'otherwise' piece is required and it must "
                    "be last")
            if piece.values is not None and len(piece.values) != n_out:
                raise SchemaError(
                    f"piece {k} has {len(piece.values)} components, "
                    f"expected {n_out}")
        self.n_in = n_in
        self.n_out = n_out
        self.pieces = pieces
        self.params = params
        self._var_names = tuple(f"x{i+1}" for i in range(n_in))
        self._param_fns = _compile_params(params)
        exec("def first(_e):\n" + "".join(  # the first piece whose guard holds
            f" if {expr._guard_code(p.guard)}: return {k}\n"
            for k, p in enumerate(pieces[:-1]))
            + f" return {len(pieces) - 1}", chain := dict(expr._COMPILE_NS))
        self._first = chain["first"]
        self._sets = tuple(None if p.values is None
                           else expr.compile_sets(p.values) for p in pieces)
        self._array_compiled = self._param_array_fns = None
        reads = [(expr.free_vars(p.guard), [expr.free_vars(v) for v in
                                            p.values or ()]) for p in pieces]
        x = set(self._var_names)  # what reads only the state: chunk_arrays
        self._state_only = all(g <= x for g, _ in reads), tuple(
            tuple(v <= x for v in sets) for _, sets in reads)
        used = set().union(*(g.union(*sets) for g, sets in reads))
        time_names = {"t"} | {name for name, _ in params}
        self.time_dependent = bool(used & time_names)

    def env(self, x: Sequence[float], t: float) -> dict[str, float]:
        env = {"t": float(t)}
        for name, v in zip(self._var_names, x):
            env[name] = float(v)
        for name, fn in self._param_fns:
            try:
                env[name] = fn(env)
            except DslEvalError as e:
                raise DslEvalError(f"parameter {name} at t={env['t']!r}: "
                                   f"{e}") from None
        return env

    def value(self, x: Sequence[float], t: float) -> IntervalBox:
        if len(x) != self.n_in:
            raise DimensionMismatchError(
                f"point has {len(x)} coordinates, map expects {self.n_in}")
        sets = self._sets[self._first(env := self.env(x, t))]
        return IntervalBox.empty(self.n_out) if sets is None \
            else IntervalBox(Interval(lo, hi) for lo, hi in sets(env))

    def env_arrays(self, cols: Sequence[np.ndarray], t):
        """The time and parameters of :meth:`env` on the rows of ``cols``
        (one array per axis), and the NaN-parameter rows.

        ``t`` is one time, whose parameters the scalar closures evaluate
        once, or an array of one time per row for the array closures.
        """
        per_row = isinstance(t, np.ndarray)
        if per_row and self._param_array_fns is None:  # compiled on first use
            self._param_array_fns = _compile_params(self.params,
                                                    expr.compile_scalar_array)
        env = {"t": t} if per_row else self.env((), t)
        bad = np.zeros(len(cols[0]), dtype=bool)
        for name, fn in self._param_array_fns if per_row else ():
            env[name] = fn(env)
            bad |= np.isnan(env[name])
        return env, bad

    def chunk_arrays(self, cols: Sequence[np.ndarray]):
        """``at(env, bad)``: :meth:`value` at every row of ``cols`` (one
        array per axis) at the time of ``env`` (as :meth:`env` or
        :meth:`env_arrays` gives it), as ``(lo, hi, empty, bad)``:
        ``(n_out, rows)`` endpoints (zeros on empty rows), the empty-piece
        rows, and ``bad`` with the rows of an undecided guard (see
        :mod:`incred.expr`; it takes its piece) or a non-finite endpoint.
        Each guard is tested only on the rows no earlier piece matched,
        and each piece's sets only on its own rows.

        When no guard reads t or a parameter, the rows are routed to their
        pieces here, once for every ``at``, and the sets that read neither
        are filled here too; ``at`` evaluates the rest. Elementwise array
        code gives each row the bits of a whole evaluation at each call.
        When no set reads t or a parameter either, every ``at`` returns
        the same read-only endpoint arrays, uncopied.
        """
        if self._array_compiled is None:  # compiled on first use
            self._array_compiled = tuple(
                (expr.compile_guard_array(p.guard), None if p.values is None
                 else tuple(zip(map(expr.compile_set_array, p.values), flags)))
                for p, flags in zip(self.pieces, self._state_only[1]))
        rows, x_env = len(cols[0]), dict(zip(self._var_names, cols))
        route = self._state_only[0] and self._route(x_env, rows)
        lo0, hi0 = np.zeros((self.n_out, rows)), np.zeros((self.n_out, rows))
        for mine, sub, sets in route[0] if route else ():
            for j, (fn, state_only) in enumerate(sets):
                if state_only:
                    lo0[j][mine], hi0[j][mine] = fn(sub)
        shared = route and all(s for *_, sets in route[0] for _, s in sets)
        if shared:
            lo0.flags.writeable = hi0.flags.writeable = False

        def at(env, bad):
            pieces, empty, undecided = route or self._route({**env, **x_env},
                                                            rows)
            lo, hi = (lo0, hi0) if shared else (lo0.copy(), hi0.copy())
            for mine, sub, sets in pieces:
                for j, (fn, state_only) in enumerate(sets):
                    if not (route and state_only):
                        lo[j][mine], hi[j][mine] = fn(
                            {**_take(env, mine), **sub} if route else sub)
            bad = bad | undecided
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                bad |= ~(np.isfinite(lo) & np.isfinite(hi)).all(axis=0)
            return lo, hi, empty, bad
        return at

    def _route(self, env: dict, rows: int):
        """``(pieces, empty, undecided)``: each matched valued piece's rows
        (all as a slice), env and set closures, first match first, and the
        masks of the empty-piece rows and of the undecided-guard rows."""
        empty, undecided = np.zeros(rows, dtype=bool), np.zeros(rows, bool)
        left, pieces = np.arange(rows), []
        for guard_fn, set_fns in self._array_compiled:
            hit = np.broadcast_to(guard_fn(env), left.shape)
            if hit.dtype.kind == "f":
                undecided[left[np.isnan(hit)]] = True
                hit = hit != 0.0
            mine = left[hit]
            if set_fns is None:
                empty[mine] = True
            elif mine.size:
                pieces.append((mine if mine.size < rows else slice(None),
                               env if mine.size == left.size
                               else _take(env, hit), set_fns))
            if mine.size == left.size:
                break
            env, left = _take(env, ~hit), left[~hit]
        return pieces, empty, undecided


def _take(env: dict, rows) -> dict:
    return {k: v[rows] if isinstance(v, np.ndarray) else v
            for k, v in env.items()}


def eval_map(m: PiecewiseBoxMap, x: Sequence[float], t: float) -> IntervalBox:
    """Value of the first matching piece at ``(x, t)``; may be empty."""
    return m.value(x, t)


class RegularFunctionSpec:
    """Scalar function with a declared piecewise gradient box.

    The gradient map produces boxes of dimension ``n + 1``: state axes
    1..n followed by the time axis. Time-independent functions must
    declare the degenerate time axis ``{0}``. The ``regular`` flag is a
    declaration (convex functions qualify); it gates which operations
    accept the function, and is not verified symbolically.
    """

    __slots__ = ("name", "n", "value", "gradient", "regular", "_value_fn")

    def __init__(self, name: str, n: int, value: ScalarExpr,
                 gradient: PiecewiseBoxMap, regular: bool):
        if gradient.n_in != n or gradient.n_out != n + 1:
            raise SchemaError(
                f"{name}: gradient must map R^{n} to boxes in R^{n+1}")
        self.name = name
        self.n = n
        self.value = value
        self.gradient = gradient
        self.regular = bool(regular)
        self._value_fn = expr.compile_scalar(value)

    @property
    def time_dependent(self) -> bool:
        time_names = {"t"} | {name for name, _ in self.gradient.params}
        return bool(expr.free_vars(self.value) & time_names) \
            or self.gradient.time_dependent

    def value_at(self, x: Sequence[float], t: float) -> float:
        return self._value_fn(self.gradient.env(x, t))


def eval_gradient(f: RegularFunctionSpec, x: Sequence[float],
                  t: float) -> IntervalBox:
    """Declared gradient box in ``R^{n+1}``; empty declarations are invalid."""
    box = f.gradient.value(x, t)
    if box.is_empty:
        raise EmptySetError(
            f"{f.name}: declared gradient is empty at x={tuple(x)}, t={t}")
    return box


@dataclass(frozen=True)
class GradientValidationReport:
    name: str
    point: tuple[float, ...]
    t: float
    radius: float
    samples: int
    fraction_inside: float
    estimate_hull: IntervalBox
    declared: IntervalBox
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "point": list(self.point),
            "t": self.t,
            "radius": self.radius,
            "samples": self.samples,
            "fraction_inside": self.fraction_inside,
            "estimate_hull_lo": list(self.estimate_hull.lo_corner()),
            "estimate_hull_hi": list(self.estimate_hull.hi_corner()),
            "declared_lo": list(self.declared.lo_corner()),
            "declared_hi": list(self.declared.hi_corner()),
            "passed": self.passed,
        }


def validate_gradient(f: RegularFunctionSpec, x: Sequence[float], t: float,
                      radius: float, samples: int, *, seed: int = 0,
                      ) -> GradientValidationReport:
    """Cross-check a declared gradient against finite differences.

    Draws ``samples`` points uniformly from the ball of the given radius
    around ``(x, t)`` in ``R^{n+1}``, estimates the classical gradient at
    each by central differences with step ``radius / 100``, and reports
    the fraction of estimates inside the *declared* box at ``(x, t)``
    inflated by 1e-4, together with the hull of the estimates. PASS
    requires the fraction to reach 0.99. A step that rounding changes by
    over a thousandth near a sample raises, as a NaN estimate does.

    Near kink surfaces the difference quotient straddles two smooth
    pieces and lands between their slopes, which is inside the declared
    box precisely when the declaration is a correct gradient hull; probe
    points should sit either exactly on a kink or at least ~10 radii away
    from one, otherwise one-sided samples legitimately disagree with the
    box declared at the probe.
    """
    step = radius / 100.0
    if not 0.0 < step < math.inf:
        raise SchemaError("validate_gradient requires a finite radius > 0 "
                          f"with radius/100 > 0, got {radius!r}")
    if samples < 10:
        raise SchemaError("validate_gradient requires samples >= 10")
    check_size(samples, "validate_gradient samples")
    if seed < 0:
        raise SchemaError(f"validate_gradient requires seed >= 0, got {seed}")
    n = f.n
    dims = n + 1
    center = np.array([float(v) for v in x] + [float(t)])
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((samples, dims))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(samples) ** (1.0 / dims)
    points = center + directions / norms[:, None] * radii[:, None]

    declared = eval_gradient(f, x, t)
    inflated = declared.inflate(_INFLATE)

    inside = 0
    lo = [math.inf] * dims
    hi = [-math.inf] * dims
    for p in points:
        estimate, spans = [], []
        for j in range(dims):
            fwd = p.copy()
            bwd = p.copy()
            fwd[j] += step
            bwd[j] -= step
            vf = f.value_at(fwd[:n], fwd[n])
            vb = f.value_at(bwd[:n], bwd[n])
            estimate.append((vf - vb) / (2.0 * step))
            spans.append(fwd[j] - bwd[j])
        if any(map(math.isnan, estimate)):  # min and max would drop it
            raise DslEvalError(f"{f.name}: a finite-difference gradient "
                               f"estimate is NaN near x={tuple(x)}, t={t}")
        if not all(abs(s - 2.0 * step) <= step / 1e3 for s in spans):
            raise DslEvalError(f"{f.name}: the step {step!r} is lost in "
                               f"rounding near x={tuple(x)}, t={t}")
        if all(iv.lo <= e <= iv.hi for e, iv in zip(estimate, inflated.axes)):
            inside += 1
        for j, e in enumerate(estimate):
            lo[j] = min(lo[j], e)
            hi[j] = max(hi[j], e)

    fraction = inside / samples
    hull = IntervalBox.from_bounds(lo, hi)
    return GradientValidationReport(
        name=f.name, point=tuple(float(v) for v in x), t=float(t),
        radius=radius, samples=samples, fraction_inside=fraction,
        estimate_hull=hull, declared=declared,
        passed=fraction >= _PASS_FRACTION)


@dataclass(frozen=True)
class MatrosovData:
    """Raw Matrosov block of a system definition.

    ``aux`` holds the auxiliary bound expressions Y_1..Y_M in the
    variables ``z1..zm`` and ``x1..xn``; ``functions`` the comparison
    functions W_1..W_M, each paired with its own reducer collection in
    ``collections``; ``phi`` the m expressions defining z from (x, t).
    """
    delta: float
    big_delta: float
    gamma: float
    phi: tuple[ScalarExpr, ...]
    aux: tuple[ScalarExpr, ...]
    functions: tuple["RegularFunctionSpec", ...]
    collections: tuple[tuple["RegularFunctionSpec", ...], ...]
    z_counts: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.phi)

    @property
    def count(self) -> int:
        return len(self.aux)

    def annulus(self) -> Annulus:
        return Annulus(self.delta, self.big_delta)

    def aux_uses_z(self) -> bool:
        zvars = {f"z{i+1}" for i in range(self.m)}
        return any(expr.free_vars(y) & zvars for y in self.aux)


@dataclass(frozen=True)
class CheckSpec:
    decrease_bound: ScalarExpr | None = None   # W in  derivative <= -W
    semidef_bound: ScalarExpr | None = None    # positive semidefinite W
    lower_envelope: ScalarExpr | None = None   # sandwich bounds on V
    upper_envelope: ScalarExpr | None = None
    zero_tol: float = 1e-6
    candidates: tuple[tuple[float, ...], ...] = ()

    @property
    def sandwich(self) -> tuple[ScalarExpr, ScalarExpr] | None:
        """``(lower, upper)`` envelopes, or None when neither is given."""
        if self.lower_envelope is None:
            return None
        return (self.lower_envelope, self.upper_envelope)


@dataclass(frozen=True)
class SimSpec:
    x0: tuple[float, ...] | None = None
    t0: float = 0.0
    h: float = 1e-3
    horizon: float = 10.0
    strategy: str = "midpoint"
    seed: int = 0
    tail_fraction: float = 0.2
    tail_threshold: float = 1e-3

    def __post_init__(self):  # checked whether a W_semidef block uses it
        if not 0.0 < self.tail_fraction < 1.0:
            raise SchemaError(
                "tail_fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SystemDef:
    """A differential inclusion plus everything the pipeline needs.

    ``reducers`` is the collection of regular functions used to prune
    infeasible directions; it is user input, never searched for.
    """
    n: int
    inclusion: PiecewiseBoxMap
    candidate: RegularFunctionSpec
    reducers: tuple[RegularFunctionSpec, ...]
    domain: IntervalBox
    grid: GridSpec | None = None
    matrosov: MatrosovData | None = None
    checks: CheckSpec | None = None
    sim: SimSpec | None = None

    @property
    def time_dependent(self) -> bool:
        if self.inclusion.time_dependent or self.candidate.time_dependent:
            return True
        return any(u.time_dependent for u in self.reducers)

    def require_grid(self) -> GridSpec:
        if self.grid is None:
            raise SchemaError("this operation needs a grid specification")
        return self.grid


# --- JSON loading -------------------------------------------------------

_TOP_KEYS = {"n", "F", "V", "U", "domain", "params", "grid", "matrosov",
             "certify", "simulate"}
_REQUIRED_TOP = {"n", "F", "V", "domain"}


def _check_keys(d: dict, allowed: set[str], required: set[str],
                where: str) -> None:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise SchemaError(f"{where}: missing key(s) {sorted(missing)}")


def _parse_in(where: str, parse_fn, src, variables):
    if not isinstance(src, str):
        raise SchemaError(f"{where}: expected an expression string")
    try:
        return parse_fn(src, variables)
    except DslSyntaxError as e:
        raise DslSyntaxError(f"{where}: {e.message}", e.offset, src) from None


def _number(value, where: str, kind: type = float):
    """A JSON number as ``kind``: finite for float, integral for int.
    Anything else (a boolean, a string, NaN, an infinity) is a
    SchemaError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)) \
            or not abs(value) <= sys.float_info.max:
        what = "an integer" if kind is int else "a finite number"
        raise SchemaError(f"{where}: expected {what}")
    return kind(value)


def _tolerance(value, where: str) -> float:
    """A :func:`_number` that is not negative, as a tolerance must be."""
    if (value := _number(value, where)) < 0:
        raise SchemaError(f"{where}: expected a number >= 0")
    return value


def _float_list(values, length: int | None, where: str) -> tuple[float, ...]:
    """A JSON list of numbers, of ``length`` entries unless None."""
    if not isinstance(values, list) or length not in (None, len(values)):
        count = "" if length is None else f"{length} "
        raise SchemaError(f"{where}: expected a list of {count}numbers")
    return tuple(_number(v, f"{where}[{k}]") for k, v in enumerate(values))


def _parse_pieces(doc, n_out: int, variables, params: ParamTable,
                  n_in: int, where: str) -> PiecewiseBoxMap:
    if not isinstance(doc, list) or not doc:
        raise SchemaError(f"{where}: expected a nonempty list of pieces")
    pieces = []
    for k, entry in enumerate(doc):
        pw = f"{where}[{k}]"
        _check_keys(entry, {"guard", "value"}, {"guard", "value"}, pw)
        guard = _parse_in(f"{pw}.guard", expr.parse_guard, entry["guard"],
                          variables)
        raw = entry["value"]
        if raw == "empty":
            pieces.append(Piece(guard, None))
            continue
        if not isinstance(raw, list) or len(raw) != n_out:
            raise SchemaError(
                f"{pw}.value: expected {n_out} set expressions or \"empty\"")
        values = tuple(
            _parse_in(f"{pw}.value[{j}]", expr.parse_set, s, variables)
            for j, s in enumerate(raw))
        pieces.append(Piece(guard, values))
    return PiecewiseBoxMap(n_in, n_out, pieces, params)


def _parse_function(doc, n: int, variables, params: ParamTable,
                    where: str, default_name: str,
                    allow_collection: bool = False) -> RegularFunctionSpec:
    keys = {"name", "value", "gradient", "regular"}
    if allow_collection:
        keys.add("U")
    _check_keys(doc, keys, {"value", "gradient", "regular"}, where)
    name = doc.get("name", default_name)
    value = _parse_in(f"{where}.value", expr.parse_scalar, doc["value"],
                      variables)
    gradient = _parse_pieces(doc["gradient"], n + 1, variables, params, n,
                             f"{where}.gradient")
    regular = doc["regular"]
    if not isinstance(regular, bool):
        raise SchemaError(f"{where}.regular: expected true or false")
    return RegularFunctionSpec(name, n, value, gradient, regular)


def _parse_collection(doc, n: int, variables, params: ParamTable,
                      where: str, name: str) -> tuple:
    """A reduction collection: a list of regular function specs, the k-th
    named ``f"{name}{k}"`` unless it names itself."""
    if not isinstance(doc, list):
        raise SchemaError(f"{where}: expected a list of function specs")
    coll = tuple(_parse_function(u, n, variables, params, f"{where}[{j}]",
                                 f"{name}{j+1}") for j, u in enumerate(doc))
    for u in coll:
        if not u.regular:
            raise SchemaError(f"{where}: reduction collection entries must "
                              f"be regular ({u.name})")
    return coll


def _parse_grid(doc, n: int, where: str) -> GridSpec:
    _check_keys(doc, {"counts", "nodes", "include", "time_nodes"},
                {"include"}, where)
    if ("counts" in doc) == ("nodes" in doc):
        raise SchemaError(f"{where}: give exactly one of 'counts' or 'nodes'")
    if "counts" in doc:
        counts = doc["counts"]
        if not isinstance(counts, list) or len(counts) != n:
            raise SchemaError(f"{where}.counts: expected {n} integers")
        axes = tuple(_number(c, f"{where}.counts[{i}]", int)
                     for i, c in enumerate(counts))
    else:
        nodes = doc["nodes"]
        if not isinstance(nodes, list) or len(nodes) != n:
            raise SchemaError(f"{where}.nodes: expected {n} node lists")
        axes = tuple(_float_list(axis, None, f"{where}.nodes[{i}]")
                     for i, axis in enumerate(nodes))
    include = doc["include"]
    if not isinstance(include, list) or len(include) != n:
        raise SchemaError(f"{where}.include: expected {n} node lists")
    include = tuple(_float_list(axis, None, f"{where}.include[{i}]")
                    for i, axis in enumerate(include))
    time_nodes = _float_list(doc.get("time_nodes", [0.0]), None,
                             f"{where}.time_nodes")
    return GridSpec(axes, include, time_nodes)


def _parse_matrosov(doc, n: int, variables, params: ParamTable,
                    where: str) -> MatrosovData:
    _check_keys(doc, {"delta", "Delta", "gamma", "phi", "W", "Y", "z_counts"},
                {"delta", "Delta", "gamma", "phi", "W", "Y"}, where)
    delta, big_delta, gamma = (_number(doc[key], f"{where}.{key}")
                               for key in ("delta", "Delta", "gamma"))
    if not 0 < delta < big_delta:
        raise SchemaError(f"{where}: need 0 < delta < Delta")
    if gamma <= 0:
        raise SchemaError(f"{where}: need gamma > 0")
    phi_doc = doc["phi"]
    if not isinstance(phi_doc, list) or not phi_doc:
        raise SchemaError(f"{where}.phi: expected a nonempty expression list")
    phi = tuple(_parse_in(f"{where}.phi[{k}]", expr.parse_scalar, s, variables)
                for k, s in enumerate(phi_doc))
    m = len(phi)
    z_vars = frozenset(f"z{i+1}" for i in range(m))
    y_vars = frozenset(f"x{i+1}" for i in range(n)) | z_vars
    y_doc = doc["Y"]
    w_doc = doc["W"]
    if not isinstance(y_doc, list) or not y_doc:
        raise SchemaError(f"{where}.Y: expected a nonempty expression list")
    if not isinstance(w_doc, list) or len(w_doc) != len(y_doc):
        raise SchemaError(f"{where}.W: expected one entry per Y expression")
    aux = tuple(_parse_in(f"{where}.Y[{k}]", expr.parse_scalar, s, y_vars)
                for k, s in enumerate(y_doc))
    functions = []
    collections = []
    for k, entry in enumerate(w_doc):
        fw = f"{where}.W[{k}]"
        spec = _parse_function(entry, n, variables, params, fw, f"W{k+1}",
                               allow_collection=True)
        functions.append(spec)
        collections.append(_parse_collection(
            entry.get("U", []), n, variables, params, f"{fw}.U", f"W{k+1}_U"))
    z_counts = doc.get("z_counts", [5] * m)
    if not isinstance(z_counts, list) or len(z_counts) != m or \
            not all(isinstance(c, int) and c >= 2 for c in z_counts):
        raise SchemaError(f"{where}.z_counts: expected {m} integers >= 2")
    return MatrosovData(delta, big_delta, gamma, phi, aux, tuple(functions),
                        tuple(collections), tuple(z_counts))


def _parse_checks(doc, n: int, variables, where: str) -> CheckSpec:
    _check_keys(doc, {"W", "W_semidef", "Wlower", "Wupper", "zero_tol",
                      "candidates"}, set(), where)
    if ("Wlower" in doc) != ("Wupper" in doc):
        missing = "Wupper" if "Wlower" in doc else "Wlower"
        raise SchemaError(f"{where}: missing key '{missing}' (the sandwich "
                          "envelopes come as a pair)")
    def opt(key):
        if key not in doc:
            return None
        return _parse_in(f"{where}.{key}", expr.parse_scalar, doc[key],
                         variables)
    candidates = doc.get("candidates", [])
    if not isinstance(candidates, list):
        raise SchemaError(f"{where}.candidates: expected a list of points")
    candidates = tuple(_float_list(c, n, f"{where}.candidates[{k}]")
                       for k, c in enumerate(candidates))
    return CheckSpec(
        decrease_bound=opt("W"),
        semidef_bound=opt("W_semidef"),
        lower_envelope=opt("Wlower"),
        upper_envelope=opt("Wupper"),
        zero_tol=_tolerance(doc.get("zero_tol", CheckSpec.zero_tol),
                            f"{where}.zero_tol"),
        candidates=candidates)


def _parse_sim(doc, n: int, where: str) -> SimSpec:
    """The ``simulate`` block; SimSpec holds the default of each key."""
    numbers = ("t0", "h", "T", "seed", "tail_fraction", "tail_threshold")
    _check_keys(doc, {"x0", "strategy", *numbers}, set(), where)
    spec = {}
    if "x0" in doc:
        spec["x0"] = _float_list(doc["x0"], n, f"{where}.x0")
    if "strategy" in doc:
        spec["strategy"] = str(doc["strategy"])
    for key in filter(doc.__contains__, numbers):
        spec["horizon" if key == "T" else key] = _number(
            doc[key], f"{where}.{key}", int if key == "seed" else float)
    return SimSpec(**spec)


def system_from_dict(doc: dict) -> SystemDef:
    if not isinstance(doc, dict):
        raise SchemaError("system definition must be a JSON object")
    _check_keys(doc, _TOP_KEYS, _REQUIRED_TOP, "system")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) \
            or not 1 <= n <= _MAX_STATE_DIM:
        raise SchemaError(f"n must be an integer in 1..{_MAX_STATE_DIM}")

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise SchemaError("params: expected an object of name -> expression")
    state_vars = {f"x{i+1}" for i in range(n)} | {"t"}
    params: list[tuple[str, ScalarExpr]] = []
    for name in sorted(params_doc):
        if not name.isidentifier() or name == "t" \
                or re.match(r"[xz]\d+$", name) or name in expr._RESERVED \
                or name in expr._FUNCTION_ARITY:
            raise SchemaError(f"params: invalid parameter name {name!r}")
        params.append((name, _parse_in(f"params.{name}", expr.parse_scalar,
                                       params_doc[name], {"t"})))
    params_t: ParamTable = tuple(params)
    variables = frozenset(state_vars | {name for name, _ in params_t})

    fdoc = doc["F"]
    if not isinstance(fdoc, dict):
        raise SchemaError("F: expected an object with a 'pieces' list")
    _check_keys(fdoc, {"pieces"}, {"pieces"}, "F")
    inclusion = _parse_pieces(fdoc["pieces"], n, variables, params_t, n,
                              "F.pieces")

    candidate = _parse_function(doc["V"], n, variables, params_t, "V", "V")

    reducers = _parse_collection(doc.get("U", []), n, variables, params_t,
                                 "U", "U")

    dom_doc = doc["domain"]
    if not isinstance(dom_doc, dict):
        raise SchemaError("domain: expected an object with 'lo' and 'hi'")
    _check_keys(dom_doc, {"lo", "hi"}, {"lo", "hi"}, "domain")
    lo = _float_list(dom_doc["lo"], n, "domain.lo")
    hi = _float_list(dom_doc["hi"], n, "domain.hi")
    for i, (a, b) in enumerate(zip(lo, hi)):
        if a > b:
            raise SchemaError(f"domain.lo[{i}] = {a!r} is above "
                              f"domain.hi[{i}] = {b!r}")
    domain = IntervalBox.from_bounds(lo, hi)

    grid = _parse_grid(doc["grid"], n, "grid") if "grid" in doc else None
    matrosov = (_parse_matrosov(doc["matrosov"], n, variables, params_t,
                                "matrosov")
                if "matrosov" in doc else None)
    checks = (_parse_checks(doc["certify"], n, variables, "certify")
              if "certify" in doc else None)
    sim = _parse_sim(doc["simulate"], n, "simulate") if "simulate" in doc \
        else None

    return SystemDef(n=n, inclusion=inclusion, candidate=candidate,
                     reducers=reducers, domain=domain, grid=grid,
                     matrosov=matrosov, checks=checks, sim=sim)


def _read_json(path):
    """The JSON document in the file ``path``; a file that is not UTF-8
    or not JSON raises InputFileError, which names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InputFileError(f"{path}: malformed JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise InputFileError(f"{path}: {e}") from None


def load_system(path) -> SystemDef:
    return system_from_dict(_read_json(path))
