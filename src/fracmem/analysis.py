"""Analytic error bounds and operation-count models for the memory policies.

Includes the fixed-memory truncation bound, the per-subset bound of the
adaptive method with its A(m, alpha) / B(m, alpha) coefficient sums, the
power-law approximation bracket for B, closed-form operation counts, and a
log-log slope fit used by the order-of-accuracy studies.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_count, check_finite, check_nonnegative, check_positive, order_value, real
from .memory import PolicyKind

__all__ = [
    "MAX_LEVEL",
    "MAX_M",
    "fixed_memory_bound",
    "a_func",
    "b_func",
    "adaptive_bound",
    "adaptive_bound_terms",
    "b_approx_bracket",
    "op_count",
    "interval_error_term",
    "fit_loglog_slope",
]


def fixed_memory_bound(M: float, t: float, T: float, alpha) -> float:
    """Truncation-error bound of the fixed memory method:
    M / Gamma(2-a) * (t^(1-a) - T^(1-a)), with M = max |f'| on [0, t]."""
    a = order_value(alpha)
    # M is a maximum of |f'| or |f''|, so a bound from a negative M is no bound
    M, t, T = check_nonnegative("M", M), check_finite("t", t), check_positive("T", T)
    if T > t:
        raise ValueError(f"memory length T={T} exceeds elapsed time t={t}")
    return M / math.gamma(2.0 - a) * (t ** (1.0 - a) - T ** (1.0 - a))


def _closed_order(alpha: float) -> float:
    # the A/B coefficient sums are defined on the closed interval [0, 1]
    a = real("fractional order", alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {a}")
    return a


def _interval_terms(left, right, h, a: float):
    # left^(1-a) (2 right + h a) - right^(1-a) (2 left - h a) for intervals
    # of length h at lags left > right >= 0 from t_n, with the
    # 0^(1-a) -> 0 convention so the alpha=1 identities hold
    right_a = np.where(right == 0.0, 0.0, right ** (1.0 - a))
    return left ** (1.0 - a) * (2.0 * right + h * a) - right_a * (2.0 * left - h * a)


def _unit_interval_sum(lags: np.ndarray, alpha: float) -> float:
    # the terms summed over the unit intervals [x - 1, x] at the given lags x
    x = lags.astype(float)
    return float(np.sum(_interval_terms(x, x - 1.0, 1.0, alpha)))


def a_func(m: int, alpha: float) -> float:
    """Coefficient sum of the U_0 contribution to the adaptive bound.
    Defined for alpha in [0, 1]; A(m, 0) = 0 and A(m, 1) = 1."""
    m = check_count("m", m, 1)
    return _unit_interval_sum(m - np.arange(m), _closed_order(alpha))


def b_func(m: int, alpha: float) -> float:
    """Coefficient sum of the per-subset U_l contribution to the adaptive
    bound.  Defined for alpha in [0, 1]; B(m, 0) = 0 and B(m, 1) = 0."""
    m = check_count("m", m, 1)
    return _unit_interval_sum(2 * m - np.arange(m), _closed_order(alpha))


def adaptive_bound_terms(M: float, dt: float, m: int, L: int, alpha) -> np.ndarray:
    """Per-subset contributions [U_0, U_1, .., U_L] to the adaptive bound."""
    a = order_value(alpha)
    M, dt, L = check_nonnegative("M", M), check_positive("dt", dt), check_count("L", L, 0)
    pref = M / (2.0 * math.gamma(3.0 - a))
    terms = [pref * dt ** (2.0 - a) * a_func(m, a)]
    ls = np.arange(1, L + 1)
    terms.extend(pref * (2.0 ** (ls - 1) * dt) ** (2.0 - a) * b_func(m, a))
    return np.asarray(terms)


def adaptive_bound(M: float, dt: float, m: int, L: int, alpha) -> float:
    """Total error bound of the adaptive memory method after the power-law
    layout has grown L coarsened subsets (T = m * dt)."""
    return float(np.sum(adaptive_bound_terms(M, dt, m, L, alpha)))


def b_approx_bracket(m: int, alpha: float) -> tuple[float, float]:
    """Bracket for the power-law approximation B(m, a) ~ c(a) * m^(-a).

    The proportionality constant is only bracketed, not pinned:
    c(a) = a(1-a)(2-a)/6 * s with s in (2^(-a-1), 1); alpha lies in [0, 1].
    """
    m = check_count("m", m, 1)
    alpha = _closed_order(alpha)
    base = alpha * (1.0 - alpha) * (2.0 - alpha) / 6.0 * m ** (-alpha)
    return (base * 2.0 ** (-alpha - 1.0), base)


# the largest count, the full history's ~4^L m^2 / 2, has ~2466 + 2 log10(m)
# digits at this level: it prints within Python's 4300-digit int-to-string
# limit for any m up to MAX_M, and 2^L stays quick to compute
MAX_LEVEL = 4096
MAX_M = 10**900 - 1


def op_count(policy: PolicyKind | str, m: int, L: int) -> int:
    """Closed-form convolution-operation counts accumulated from t = 0 to
    2^L * T with T = m * dt; L is at most ``MAX_LEVEL`` and m at most
    ``MAX_M``."""
    # Python ints: numpy integers would overflow in 2**L and the products below
    m, L = check_count("m", m, 1, MAX_M), check_count("L", L, 0, MAX_LEVEL)
    kind = PolicyKind(policy) if isinstance(policy, str) else policy
    if kind is PolicyKind.FULL:
        n = 2**L * m
        return n * (n + 1) // 2
    if kind is PolicyKind.FIXED:
        return m * (m + 1) // 2 + m * m * (2**L - 1)
    if kind is PolicyKind.ADAPTIVE_PRESENT:
        # twice the count, m(m+1) + sum_{l=1..L} 2^(l-1) ((2l+1) m^2 + m),
        # summed in closed form in exact integers; it is even
        twice = m * (m + 1) + ((2 * L - 1) * 2**L + 1) * m * m + (2**L - 1) * m
        return twice // 2
    raise ValueError(f"no operation-count model for policy {kind}")


def _check_interval(t_n: float, t_k: float, t_k1: float) -> tuple[float, float, float]:
    # the lags t_n - t_k and t_n - t_k1 and the length t_k1 - t_k of a
    # checked interval
    t_n, t_k, t_k1 = real("t_n", t_n), real("t_k", t_k), real("t_k1", t_k1)
    if not -math.inf < t_k < t_k1 <= t_n < math.inf:
        raise ValueError(f"need finite t_k < t_k1 <= t_n, got ({t_k}, {t_k1}, {t_n})")
    return t_n - t_k, t_n - t_k1, t_k1 - t_k


def interval_error_term(t_n: float, t_k: float, t_k1: float, alpha) -> float:
    """Per-interval summand of the adaptive error bound: 2 * (2 - a) times
    the exact trapezoid-rule error of (t_n - tau)^(1-a) over [t_k, t_k1],
    positive for every admissible interval since that integrand is concave
    there."""
    a = order_value(alpha)
    return float(_interval_terms(*_check_interval(t_n, t_k, t_k1), a))


def fit_loglog_slope(points) -> float:
    """Least-squares slope of log(err) versus log(h) over 3 or more pairs of
    positive, finite numbers with distinct h (``ValueError`` otherwise)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ValueError("need at least 3 (h, err) pairs")
    if np.any(pts <= 0.0):
        raise ValueError("slope fit requires positive abscissae and errors")
    if not np.all(np.isfinite(pts)):
        raise ValueError("slope fit requires finite abscissae and errors")
    if np.unique(pts[:, 0]).size < pts.shape[0]:
        raise ValueError(f"slope fit requires distinct abscissae, got {pts[:, 0].tolist()}")
    slope, _ = np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)
    return float(slope)
