"""Analytic error bounds and operation-count models for the memory policies.

Includes the fixed-memory truncation bound, the per-subset bound of the
adaptive method with its A(m, alpha) / B(m, alpha) coefficient sums, the
power-law approximation bracket for B, closed-form operation counts, and a
log-log slope fit used by the order-of-accuracy studies.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_count, check_positive, order_value, real
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
    "trapezoid_gap",
    "interval_error_term",
    "fit_loglog_slope",
]


def _check_finite(name: str, value: float) -> float:
    value = real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_max(M: float) -> float:
    # M is a maximum of |f'| or |f''|, so a bound from a negative M is no bound
    M = _check_finite("M", M)
    if M < 0.0:
        raise ValueError(f"M must be non-negative, got {M}")
    return M


def fixed_memory_bound(M: float, t: float, T: float, alpha) -> float:
    """Truncation-error bound of the fixed memory method:
    M / Gamma(2-a) * (t^(1-a) - T^(1-a)), with M = max |f'| on [0, t]."""
    a = order_value(alpha)
    M, t = _check_max(M), _check_finite("t", t)
    T = check_positive("T", _check_finite("T", T))
    if T > t:
        raise ValueError(f"memory length T={T} exceeds elapsed time t={t}")
    return M / math.gamma(2.0 - a) * (t ** (1.0 - a) - T ** (1.0 - a))


def _closed_order(alpha: float) -> float:
    # the A/B coefficient sums are defined on the closed interval [0, 1]
    a = real("fractional order", alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {a}")
    return a


def _ab_sum(base: np.ndarray, alpha: float) -> float:
    # sum of x^(1-a){2(x-1)+a} - (x-1)^(1-a){2x-a} over the given bases,
    # with the 0^(1-a) -> 0 convention so the alpha=1 identities hold
    x = base.astype(float)
    y = x - 1.0
    xa = x ** (1.0 - alpha)
    ya = np.where(y == 0.0, 0.0, y ** (1.0 - alpha))
    return float(np.sum(xa * (2.0 * y + alpha) - ya * (2.0 * x - alpha)))


def a_func(m: int, alpha: float) -> float:
    """Coefficient sum of the U_0 contribution to the adaptive bound.
    Defined for alpha in [0, 1]; A(m, 0) = 0 and A(m, 1) = 1."""
    m = check_count("m", m, 1)
    return _ab_sum(m - np.arange(m), _closed_order(alpha))


def b_func(m: int, alpha: float) -> float:
    """Coefficient sum of the per-subset U_l contribution to the adaptive
    bound.  Defined for alpha in [0, 1]; B(m, 0) = 0 and B(m, 1) = 0."""
    m = check_count("m", m, 1)
    return _ab_sum(2 * m - np.arange(m), _closed_order(alpha))


def adaptive_bound_terms(M: float, dt: float, m: int, L: int, alpha) -> np.ndarray:
    """Per-subset contributions [U_0, U_1, .., U_L] to the adaptive bound."""
    a = order_value(alpha)
    M, dt, L = _check_max(M), check_positive("dt", dt), check_count("L", L, 0)
    pref = M / (2.0 * math.gamma(3.0 - a))
    terms = [pref * dt ** (2.0 - a) * a_func(m, a)]
    if L > 0:
        b = b_func(m, a)
        ls = np.arange(1, L + 1)
        terms.extend(pref * (2.0 ** (ls - 1) * dt) ** (2.0 - a) * b)
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


def trapezoid_gap(t_n: float, t_k: float, t_k1: float, alpha) -> float:
    """Exact trapezoid-rule error for the kernel antiderivative
    (t_n - tau)^(1-a) over [t_k, t_k1]; positive for every admissible
    interval since the integrand is concave there."""
    a = order_value(alpha)
    left, right, h = _check_interval(t_n, t_k, t_k1)
    exact = (left ** (2.0 - a) - right ** (2.0 - a)) / (2.0 - a)
    trap = 0.5 * (left ** (1.0 - a) + right ** (1.0 - a)) * h
    return exact - trap


def interval_error_term(t_n: float, t_k: float, t_k1: float, alpha) -> float:
    """Per-interval summand of the adaptive error bound; equals
    2 * (2 - a) * trapezoid_gap and is non-negative."""
    a = order_value(alpha)
    left, right, h = _check_interval(t_n, t_k, t_k1)
    return left ** (1.0 - a) * (2.0 * right + h * a) - right ** (1.0 - a) * (
        2.0 * left - h * a
    )


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
