"""Target functions on an interval, with boundary clamping and a trial catalog.

Evaluation clamps the argument to the interval before calling the evaluator:
for x > b the value f(b) is used, for x < a the value f(a), so every function
extends to the whole line.  For an unbounded interval no upper clamp exists
and the evaluator must be total on [a, inf).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CatalogError, DomainEvaluationError, ParameterError


class Checked:
    """Mixin for a NamedTuple record whose ``__new__`` checks its fields:
    ``_make``, and so ``_replace``, builds through ``cls(...)`` and runs it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Interval(NamedTuple):
    a: float
    b: float


class Interval(Checked, _Interval):
    """Finite-left interval [a, b]; b may be math.inf."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not math.isfinite(a):
            raise ParameterError("lower endpoint must be finite")
        if not a < b:
            raise ParameterError(f"need a < b, got [{a}, {b}]")
        return super().__new__(cls, a, b)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.b)


UNIT_INTERVAL = Interval(0.0, 1.0)
HALF_LINE = Interval(0.0, math.inf)


class _HolderSpec(NamedTuple):
    alpha: float
    seminorm: float


class HolderSpec(Checked, _HolderSpec):
    """Smoothness tag: omega(delta) <= seminorm * delta**alpha."""

    __slots__ = ()

    def __new__(cls, alpha: float, seminorm: float):
        if not (0.0 < alpha <= 1.0):
            raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
        if seminorm < 0:
            raise ParameterError("seminorm must be nonnegative")
        return super().__new__(cls, alpha, seminorm)


class TargetFunction(NamedTuple):
    """Immutable evaluable function with optional analytic metadata.

    ``evaluator`` must accept scalars and numpy arrays alike.  ``sup_abs``
    and ``holder`` are advisory; computations needing them fail loudly when
    they are absent rather than estimating silently.
    """

    interval: Interval
    evaluator: Callable
    name: str = "custom"
    sup_abs: Optional[float] = None
    holder: Optional[HolderSpec] = None

    def __call__(self, x):
        return eval_clamped(self, x)


def eval_clamped(f: TargetFunction, x):
    """Evaluate f at x after clamping x into the interval.

    Accepts scalars or arrays; raises DomainEvaluationError identifying the
    offending point when the evaluator returns a non-finite value.
    """
    arr = np.asarray(x, dtype=float)
    # one copy, clamped in place; np.clip would keep a -0.0 that np.maximum turns into 0.0
    clamped = np.maximum(arr, f.interval.a, out=np.empty_like(arr))
    if f.interval.finite:
        np.minimum(clamped, f.interval.b, out=clamped)
    with np.errstate(all="ignore"):
        vals = np.asarray(f.evaluator(clamped), dtype=float)
    finite = np.isfinite(vals)
    if not finite.all():
        offending = np.atleast_1d(clamped)[~np.atleast_1d(finite)][0]
        raise DomainEvaluationError(
            f"{f.name}: evaluator returned non-finite value at x={offending!r}",
            x=float(offending),
        )
    if np.isscalar(x) or arr.ndim == 0:
        return float(vals)
    return vals


def trial_function(x0: float, alpha: float, interval: Interval = UNIT_INTERVAL) -> TargetFunction:
    """Cusp g(x) = |x - x0|**alpha, zero exactly at x0, used for lower bounds.

    x0 must lie strictly inside the interval.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if not (interval.a < x0 < interval.b):
        raise ParameterError(f"x0={x0} must lie strictly inside ({interval.a}, {interval.b})")
    if interval.finite:
        sup_abs = max(x0 - interval.a, interval.b - x0) ** alpha
    else:
        sup_abs = None

    def _eval(x, _x0=x0, _a=alpha):
        return np.abs(np.asarray(x) - _x0) ** _a

    return TargetFunction(
        interval=interval,
        evaluator=_eval,
        name=f"trial(x0={x0:g},alpha={alpha:g})",
        sup_abs=sup_abs,
        holder=HolderSpec(alpha, 1.0),
    )


def _require(params: dict, allowed: dict) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ParameterError(f"unknown parameters {sorted(unknown)}; allowed: {sorted(allowed)}")
    out = dict(allowed)
    out.update(params)
    return out


CATALOG_NAMES = ("power-cusp", "constant", "identity", "square", "exp-decay", "sine")


def builtin_catalog(name: str, **params) -> TargetFunction:
    """Construct a named catalog function; parameters are validated eagerly.

    Names: those of ``CATALOG_NAMES``.
    """
    if name == "power-cusp":
        p = _require(params, {"x0": 0.5, "alpha": 1.0})
        return trial_function(float(p["x0"]), float(p["alpha"]))
    if name == "constant":
        p = _require(params, {"c": 1.0})
        c = float(p["c"])
        if not math.isfinite(c):
            raise ParameterError("constant c must be finite")
        return TargetFunction(
            interval=UNIT_INTERVAL,
            evaluator=lambda x, _c=c: np.full_like(np.asarray(x, dtype=float), _c),
            name=f"constant({c:g})",
            sup_abs=abs(c),
            holder=HolderSpec(1.0, 0.0),
        )
    if name == "identity":
        _require(params, {})
        return TargetFunction(
            interval=UNIT_INTERVAL,
            evaluator=lambda x: np.asarray(x, dtype=float) + 0.0,
            name="identity",
            sup_abs=1.0,
            holder=HolderSpec(1.0, 1.0),
        )
    if name == "square":
        _require(params, {})
        return TargetFunction(
            interval=UNIT_INTERVAL,
            evaluator=lambda x: np.square(np.asarray(x, dtype=float)),
            name="square",
            sup_abs=1.0,
            holder=HolderSpec(1.0, 2.0),
        )
    if name == "exp-decay":
        _require(params, {})
        return TargetFunction(
            interval=HALF_LINE,
            evaluator=lambda x: np.exp(-np.asarray(x, dtype=float)),
            name="exp-decay",
            sup_abs=1.0,
            holder=HolderSpec(1.0, 1.0),
        )
    if name == "sine":
        p = _require(params, {"freq": 1.0})
        k = float(p["freq"])
        if not (math.isfinite(k) and k > 0):
            raise ParameterError("sine freq must be positive and finite")
        return TargetFunction(
            interval=UNIT_INTERVAL,
            evaluator=lambda x, _k=k: np.sin(2.0 * np.pi * _k * np.asarray(x, dtype=float)),
            name=f"sine(freq={k:g})",
            sup_abs=1.0,
            holder=HolderSpec(1.0, 2.0 * math.pi * k),
        )
    raise CatalogError(f"unknown catalog function {name!r}; valid names: {', '.join(CATALOG_NAMES)}")

