"""Exact L1 convolution weights, the L1 history operator and
Caputo-derivative evaluation.

The weights are computed in closed form from the antiderivative of the
power-law kernel, so they are exact on non-uniform time grids.  Quadrature
is used only as an independent oracle in the test suite.

``l1_history`` is the L1 history operator.  Given stored times and values
and a new time ``t_n > times[-1]``, it returns ``(c, h)`` with

    D f(t_n) ~= c * (f(t_n) - values[-1]) + h,

``c`` the implicit coefficient of the newest interval and ``h`` the explicit
sum over the stored intervals.  Rows of ``values`` are scalars or vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalOrder",
    "WeightTriple",
    "caputo_weight",
    "caputo_weights",
    "evaluate_caputo",
    "l1_history",
    "weight_sum",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Order of a Caputo derivative, restricted to the open interval (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha}")


def order_value(alpha: float | FractionalOrder) -> float:
    """Return the numeric order, validating it lies in (0, 1)."""
    if isinstance(alpha, FractionalOrder):
        return alpha.alpha
    return FractionalOrder(float(alpha)).alpha


@dataclass(frozen=True)
class WeightTriple:
    """Integration limits of one convolution weight: interval [t_k, t_k1]
    seen from the current time t_n."""

    t_n: float
    t_k: float
    t_k1: float

    def __post_init__(self) -> None:
        if not self.t_k <= self.t_k1 <= self.t_n:
            raise ValueError(
                f"weight triple must satisfy t_k <= t_k1 <= t_n, "
                f"got ({self.t_k}, {self.t_k1}, {self.t_n})"
            )


def caputo_weight(t_n: float, t_k: float, t_k1: float, alpha: float | FractionalOrder) -> float:
    """Closed-form convolution weight over [t_k, t_k1] for current time t_n.

    Integrates (t_n - tau)^(-alpha) exactly:
    [(t_n - t_k)^(1-a) - (t_n - t_k1)^(1-a)] / (1-a).  The case t_k1 == t_n
    is legal (the second term vanishes).
    """
    WeightTriple(t_n, t_k, t_k1)  # validate ordering
    a = order_value(alpha)
    return ((t_n - t_k) ** (1.0 - a) - (t_n - t_k1) ** (1.0 - a)) / (1.0 - a)


def caputo_weights(
    t_n: float,
    t_starts: np.ndarray,
    t_ends: np.ndarray,
    alpha: float | FractionalOrder,
) -> np.ndarray:
    """Vectorized closed-form weights for consecutive intervals.

    No per-interval validation; callers pass sorted grids.
    """
    a = order_value(alpha)
    left = np.asarray(t_n - t_starts, dtype=float)
    right = np.asarray(t_n - t_ends, dtype=float)
    return (left ** (1.0 - a) - right ** (1.0 - a)) / (1.0 - a)


def _check_times(times: np.ndarray, t_n: float | None) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("history must contain at least 2 time points")
    dts = np.diff(times)
    if np.any(dts <= 0.0):
        raise ValueError("history times must be strictly increasing")
    if t_n is not None and times[-1] != t_n:
        raise ValueError(f"last history time {times[-1]} does not match t_n={t_n}")
    return times


def l1_history(
    times: np.ndarray,
    values: np.ndarray,
    t_n: float,
    alpha: float | FractionalOrder,
) -> tuple[float, float | np.ndarray]:
    """L1 history operator: ``(c, h)`` with D f(t_n) ~= c * (f(t_n) - values[-1]) + h.

    ``times`` is strictly increasing with ``times[-1] < t_n``; ``values`` is
    an array with one row per time, 1-D for scalar rows, 2-D for vector
    rows.  ``h`` is a float for scalar rows and an array for vector rows.
    """
    a = order_value(alpha)
    gamma = math.gamma(1.0 - a)
    c = caputo_weight(t_n, times[-1], t_n, a) / (gamma * (t_n - times[-1]))
    if times.size < 2:
        return c, 0.0
    coeff = caputo_weights(t_n, times[:-1], times[1:], a) / np.diff(times)
    if values.ndim == 1:
        # this order of operations is what the frozen creep output repeats
        return c, float(coeff @ np.diff(values)) / gamma
    # summation by parts, sum_j coeff_j (v_(j+1) - v_j) = g @ v: a matvec on
    # the (possibly strided) rows, with no history-sized difference array
    g = np.empty(times.size)
    g[0] = -coeff[0]
    g[1:-1] = coeff[:-1] - coeff[1:]
    g[-1] = coeff[-1]
    return c, g @ values / gamma


def evaluate_caputo(
    times: np.ndarray,
    values: np.ndarray,
    alpha: float | FractionalOrder,
    t_n: float | None = None,
) -> float | np.ndarray:
    """Caputo derivative at times[-1] from a stored history.

    ``values`` has one row per time point; rows may be scalars or vectors
    (one entry per spatial node).  Works identically on uniform and
    non-uniform spacings since the weights are exact.  This is
    ``l1_history`` on ``times[:-1]`` evaluated at ``t_n = times[-1]``.
    """
    a = order_value(alpha)
    times = _check_times(times, t_n)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != times.size:
        raise ValueError("values must have one row per time point")
    c, h = l1_history(times[:-1], values[:-1], times[-1], a)
    result = c * (values[-1] - values[-2]) + h
    if np.ndim(result) == 0:
        return float(result)
    return result


def weight_sum(
    times: np.ndarray,
    alpha: float | FractionalOrder,
    t_n: float | None = None,
) -> float:
    """Sum of weights over a partition; telescopes to
    (t_n - t_0)^(1-a) / (1-a) regardless of spacing."""
    a = order_value(alpha)
    times = np.asarray(times, dtype=float)
    if times.size == 1:
        # single instant: empty partition
        if t_n is not None and times[0] != t_n:
            raise ValueError(f"history time {times[0]} does not match t_n={t_n}")
        return 0.0
    times = _check_times(times, t_n)
    w = caputo_weights(times[-1], times[:-1], times[1:], a)
    return float(np.sum(w))
