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
``check_samples`` checks samples passed in from outside, and
``newest_derivative`` applies any history operator at its newest time.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "caputo_weight",
    "caputo_weights",
    "evaluate_caputo",
    "l1_history",
]


def order_value(alpha: float) -> float:
    """Return the order as a float: ``TypeError`` when it is not a real
    number (``real``'s rule), ``ValueError`` unless it lies in (0, 1).  A
    Python float skips the type check, since the history operators call
    this every step."""
    if alpha.__class__ is not float:
        alpha = real("fractional order", alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")
    return alpha


def _is_real(value) -> bool:
    # a Python or numpy real scalar; Python makes a bool an int, but a bool
    # is no parameter value
    return isinstance(value, numbers.Real) and value.__class__ is not bool


def real(name: str, value) -> float:
    """``value`` as a float, or ``TypeError`` naming ``name`` when it is not
    a real number: the one rule for a scalar parameter.  Python and numpy
    real scalars pass; a bool, a string, bytes, a complex number, ``None``
    and an array do not."""
    if not _is_real(value):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_positive(name: str, value: float) -> float:
    """Return ``value`` as a float (``real``, whose ``TypeError`` names
    ``name``); raise ``ValueError`` naming ``name`` unless it is positive and
    finite, ``None`` included."""
    x = value if value is None else real(name, value)
    if x is None or not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return x


def check_count(name: str, value: int, least: int, most: int | None = None) -> int:
    """Return ``value`` as a Python int; raise ``ValueError`` naming ``name``
    unless it is an integer that ``real``'s rule takes (so not a bool,
    though Python makes it an int), >= ``least`` and, when ``most`` is
    given, <= ``most``."""
    if not (_is_real(value) and isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {_shown(most)}, got {_shown(value)}")
    return int(value)


# relative, since the rounding of a decimal x / step grows with its size
GRID_RTOL = 1e-9


def grid_steps(x: float, step: float) -> int | None:
    """The whole number n nearest ``x / step``, or None when that ratio is
    not finite or lies more than ``GRID_RTOL * max(|n|, 1)`` from n."""
    r = x / step
    if not math.isfinite(r):
        return None
    n = round(r)
    return n if abs(r - n) <= GRID_RTOL * max(abs(n), 1) else None


def _shown(n: int) -> str:
    # a count too long to read is shown by its first digits and its length
    text = str(n)
    return text if len(text) <= 20 else f"{text[:3]}... ({len(text)} digits)"


def caputo_weight(t_n: float, t_k: float, t_k1: float, alpha: float) -> float:
    """Closed-form convolution weight over [t_k, t_k1] for current time t_n.

    Integrates (t_n - tau)^(-alpha) exactly:
    [(t_n - t_k)^(1-a) - (t_n - t_k1)^(1-a)] / (1-a).  The case t_k1 == t_n
    is legal (the second term vanishes); the limits must satisfy
    t_k <= t_k1 <= t_n.
    """
    if not t_k <= t_k1 <= t_n:
        raise ValueError(
            f"weight limits must satisfy t_k <= t_k1 <= t_n, got ({t_k}, {t_k1}, {t_n})"
        )
    a = order_value(alpha)
    return ((t_n - t_k) ** (1.0 - a) - (t_n - t_k1) ** (1.0 - a)) / (1.0 - a)


def caputo_weights(
    t_n: float,
    t_starts: np.ndarray,
    t_ends: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Vectorized closed-form weights for consecutive intervals.

    No per-interval validation; callers pass sorted grids.
    """
    a = order_value(alpha)
    left = np.asarray(t_n - t_starts, dtype=float)
    right = np.asarray(t_n - t_ends, dtype=float)
    return (left ** (1.0 - a) - right ** (1.0 - a)) / (1.0 - a)


def check_samples(times, values, after: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """``times`` and ``values`` as float arrays, checked by the one rule for
    a block of samples, which ``HistoryBuffer.extend`` and ``check_history``
    apply: the times are real numbers (``TypeError``), one-dimensional,
    finite, strictly increasing and after ``after`` (``ValueError``);
    ``values`` has one row per time, each a scalar or a non-empty vector of
    one shape (``ValueError``, naming the first ragged row) that holds real
    numbers (``TypeError``, naming the first row, as passed, that does not:
    ``None``, complex, string, bytes or object rows or entries, which numpy
    would convert).  Values may be non-finite."""
    times = np.asarray(times)
    if times.dtype.kind not in "biuf":
        raise TypeError(f"history times must be real numbers, got {times!r}")
    times = times.astype(float, copy=False)
    try:
        rows = np.asarray(values)
    except ValueError:
        # numpy refuses rows of unequal shape: name the first ragged one
        for bad in values:
            try:
                if np.shape(bad) != np.shape(values[0]):
                    break
            except ValueError:
                break
        raise ValueError(f"history rows must each be a scalar or a non-empty vector: {bad!r}") from None
    if rows.dtype.kind not in "biuf":
        bad = values if rows.ndim == 0 else next(
            (row for row in values if np.asarray(row).dtype.kind not in "biuf"), values
        )
        raise TypeError(f"history rows must hold real numbers, got {bad!r}")
    if times.ndim != 1 or rows.shape[:1] != times.shape or rows.ndim > 2 or 0 in rows.shape[1:]:
        raise ValueError(
            f"history values must have one row per time point, each a scalar or a non-empty vector, "
            f"got shape {rows.shape} for times of shape {times.shape}"
        )
    if times.size and not (after < times[0] and times[-1] < math.inf and (times[1:] > times[:-1]).all()):
        if not np.isfinite(times).all():
            raise ValueError("history times must be finite")
        if not after < times[0]:
            raise ValueError(f"history times must be after the newest stored time {after}, got {times[0]}")
        raise ValueError("history times must be strictly increasing")
    return times, rows.astype(float, copy=False)


def check_history(times, values) -> tuple[np.ndarray, np.ndarray]:
    """``check_samples`` plus the evaluators' rules: at least 2 times, finite values."""
    times, values = check_samples(times, values)
    if times.size < 2:
        raise ValueError("history must contain at least 2 time points")
    if not np.isfinite(values).all():
        raise ValueError("history values must be finite")
    return times, values


def newest_derivative(history, times: np.ndarray, values: np.ndarray, *args) -> float | np.ndarray:
    """D f(times[-1]) by the history operator ``history(times, values, t_n,
    *args) -> (c, h)`` on the points before the newest one: a float for
    scalar rows, an array for vector rows."""
    c, h = history(times[:-1], values[:-1], times[-1], *args)
    result = c * (values[-1] - values[-2]) + h
    return float(result) if np.ndim(result) == 0 else result


# OpenBLAS splits a dot product over its threads above 10 000 elements and a
# matrix-vector product above ~450k, and each split changes the summation
# order; below these block sizes it runs on one thread, so the bits of a
# contraction do not depend on the BLAS thread count
_DOT_BLOCK = 8192
_MATVEC_BLOCK = 2**18


def weighted_rows(w: np.ndarray, rows: np.ndarray) -> float | np.ndarray:
    """``w @ rows``, summed over blocks of rows that a BLAS contracts on one
    thread; a history of one block is contracted by a single ``w.dot(rows)``,
    which has the bits of ``@`` at a smaller fixed cost per call."""
    step = _DOT_BLOCK if rows.ndim == 1 else max(1, _MATVEC_BLOCK // rows.shape[1])
    if rows.shape[0] <= step:
        return w.dot(rows)
    total = w[:step] @ rows[:step]
    for lo in range(step, rows.shape[0], step):
        total = total + w[lo : lo + step] @ rows[lo : lo + step]
    return total


def l1_history(
    times: np.ndarray,
    values: np.ndarray,
    t_n: float,
    alpha: float,
) -> tuple[float, float | np.ndarray]:
    """L1 history operator: ``(c, h)`` with D f(t_n) ~= c * (f(t_n) - values[-1]) + h.

    ``times`` is strictly increasing with ``times[-1] < t_n``; ``values`` is
    an array with one row per time, 1-D for scalar rows, 2-D for vector
    rows.  ``h`` is a float for scalar rows and an array for vector rows.
    """
    a = order_value(alpha)
    gamma = math.gamma(1.0 - a)
    if not times[-1] < t_n < math.inf:
        raise ValueError(f"t_n={t_n} must be finite and after the last history time {times[-1]}")
    # the newest interval's weight is (t_n - t_last)^(1-a) / (1-a), taken as
    # a Python float power: numpy's vectorised power can differ from it by an
    # ulp, and a numpy scalar c would make the solvers' arithmetic warn
    dt_n = t_n - float(times[-1])
    c = dt_n ** (1.0 - a) / (1.0 - a) / (gamma * dt_n)
    if times.size < 2:
        return c, 0.0 if values.ndim == 1 else np.zeros(values.shape[1:])
    # one power per stored point: the weight of [t_k, t_(k+1)] is
    # (p_k - p_(k+1)) / (1-a); coeff_k is that weight over the interval,
    # computed in place inside z, which pads it with a zero at each end
    p = (t_n - times) ** (1.0 - a)
    z = np.zeros(times.size + 1)
    coeff = z[1:-1]
    np.subtract(p[:-1], p[1:], out=coeff)
    coeff /= 1.0 - a
    coeff /= times[1:] - times[:-1]
    if values.ndim == 1:
        # this order of operations is what the frozen creep output repeats
        return c, float(weighted_rows(coeff, values[1:] - values[:-1])) / gamma
    # summation by parts, sum_j coeff_j (v_(j+1) - v_j) = g @ v with
    # g = (-coeff_0, coeff_0 - coeff_1, ..., coeff_last), the differences of
    # z: a matvec on the (possibly strided) rows, with no history-sized
    # difference array
    return c, weighted_rows(z[:-1] - z[1:], values) / gamma


def evaluate_caputo(
    times: np.ndarray,
    values: np.ndarray,
    alpha: float,
) -> float | np.ndarray:
    """Caputo derivative at times[-1] from a stored history.

    ``values`` has one row per time point; rows may be scalars or vectors
    (one entry per spatial node).  Works identically on uniform and
    non-uniform spacings since the weights are exact.  This is
    ``l1_history`` on ``times[:-1]`` evaluated at ``t_n = times[-1]``.
    """
    times, values = check_history(times, values)
    return newest_derivative(l1_history, times, values, alpha)
