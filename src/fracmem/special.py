"""Mittag-Leffler function E_alpha(z) for 0 < alpha <= 1.

Two evaluation routes:

* a completely monotone spectral representation, integrated in floating
  point with a fixed tanh-sinh rule (Takahasi & Mori, 1974) in numpy:

      E_a(-x) = sin(a*pi)/(a*pi) *
                int_0^inf exp(-(x v)^(1/a)) / (v^2 + 2 v cos(a*pi) + 1) dv;

  the integral stops at v_cut = 40^a / x, where the integrand is below
  exp(-40), and each piece takes 449 nodes, step 2^-6 on |t| <= 3.5, placed
  by their offsets from the piece's nearer end.  The same sum at step 2^-5
  is the error estimate;

* the defining power series, summed in adaptive-precision arithmetic so that
  the cancellation of its terms on the negative axis is harmless.

Route rule:

* z < -1 with alpha <= 0.999: the spectral integral.  Its denominator,
  evaluated as (v + cos(a*pi))^2 + sin(a*pi)^2, has its minimum sin(a*pi)^2
  at v = -cos(a*pi): the integrand has a peak of width ~pi*(1 - a) there,
  and the integral is split at it.
* -1 <= z < 0: the series.  There it returns the correctly rounded value;
  the float routes miss the last bit at about half of such points, and the
  creep reference data pin those bits.  At small alpha near z = -1 its terms
  shrink only like |z|^k (1e4 of them at alpha = 0.001, z = -0.997): where
  it would need more than ``_SERIES_MAX_TERMS`` (alpha below ~0.05 near
  z = -1) the spectral integral, within an ulp of it, takes over.
* z > 0: the series, while the index of its largest term stays below
  ``_SERIES_PEAK_LIMIT``; larger positive arguments are unsupported.
* alpha > 0.999: the series, because the peak grows too narrow and too tall
  for the fixed rule (its error estimate passes 1e-10 near z = -1 from
  alpha = 1 - 1e-6 on, and the peak height 1/sin(a*pi)^2 is ~1e23 at
  alpha = 1 - 1e-12).

Negative arguments beyond the series' reach fall back to the spectral
integral.  A rule whose error estimate, scaled to E, exceeds 1e-10 raises
``ArithmeticError``, as a series that does not converge does.  Verified
region: alpha in (0, 0.999] with z in [-1e4, 0], small alpha down to 0.001
just inside z = -1 included, and alpha in (0.999, 1] with z in [-50, 0];
absolute error below 1e-10.  The spectral integral agrees with an adaptive
quadrature to 1.6e-13 relative for alpha in [0.01, 0.999] and -z in
(1, 1e4], and with the series to an ulp where both apply.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .core import real

__all__ = ["mittag_leffler"]

# series is used while the index of its largest term stays below this
_SERIES_PEAK_LIMIT = 400.0
# spectral route up to this order; beyond it the integrand's peak at
# v = -cos(alpha*pi) is too narrow for the fixed rule
_SPECTRAL_MAX_ALPHA = 0.999
# the documented absolute accuracy; a larger error estimate of the rule raises
_SPECTRAL_ABS_TOL = 1e-10
# on -1 <= z < 0 the series is summed while it needs at most this many terms
_SERIES_MAX_TERMS = 500

# The tanh-sinh rule (Takahasi & Mori, 1974) on a piece [lo, hi] of length L:
# nodes lo + L/2 (1 + tanh(pi/2 sinh t)) at t = k h, |t| <= 3.5, h = 2^-6,
# 449 a piece.  Each node is stored as its offset from the nearer end, as a
# fraction of L (signed: + from lo, - from hi), with its weight over L.
_TS_T = np.arange(-224, 225) * 2.0**-6
_TS_U = 0.5 * math.pi * np.sinh(_TS_T)
_TS_FROM_LO = _TS_T < 0.0
_TS_OFFSET = np.where(_TS_FROM_LO, 1.0, -1.0) / (1.0 + np.exp(2.0 * np.abs(_TS_U)))
_TS_WEIGHT = 2.0**-6 * 0.25 * math.pi * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2


def _series_peak(alpha: float, absz: float) -> float:
    # index of the largest series term: alpha*k ~ |z|^(1/alpha); infinite
    # where that power overflows (positive z at tiny alpha)
    try:
        return absz ** (1.0 / alpha) / alpha
    except OverflowError:
        return math.inf


def _series_is_long(alpha: float, x: float) -> bool:
    # whether the series at z = -x, 0 < x <= 1, needs more than
    # _SERIES_MAX_TERMS terms: its term there, x^k / Gamma(alpha k + 1),
    # still exceeds the 1e-20 the series stops at inside the unit disk
    k = _SERIES_MAX_TERMS
    return k * math.log(x) - math.lgamma(alpha * k + 1.0) > math.log(1e-20)


def _series(alpha: float, z: float) -> float:
    # working precision sized to the largest intermediate term
    peak = _series_peak(alpha, abs(z))
    k_star = max(int(peak), 1)
    log10_peak = (k_star * math.log(abs(z)) - math.lgamma(alpha * k_star + 1.0)) / math.log(10.0)
    dps = 25 + max(0, int(log10_peak) + 1)
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        # the gamma argument must be formed in working precision: a float
        # argument loses ~1 ulp which the huge cancelling terms amplify
        aa = mpmath.mpf(alpha)
        total = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-(dps - 5))
        # inside the unit disk the terms shrink at least like |z|^k / 0.88
        # (0.88 < Gamma on [1, inf)), however slowly Gamma(alpha k + 1) grows
        limit = 100 * (k_star + 10)
        if abs(z) < 1.0:
            limit += math.ceil((math.log(0.88) - (dps - 5) * math.log(10.0)) / math.log(abs(z)))
        k = 1
        while True:
            term = zz**k / mpmath.gamma(aa * k + 1)
            total += term
            if abs(term) < tol and k > peak:
                break
            k += 1
            if k > limit:
                raise ArithmeticError(
                    f"Mittag-Leffler series failed to converge for alpha={alpha}, z={z}"
                )
        return float(total)


def _tanh_sinh(integrand, knots) -> tuple[float, float]:
    """The integral over the consecutive pieces between ``knots`` with the
    fixed tanh-sinh rule, and its error estimate: the difference from the
    same sum at twice the step.  ``integrand(end, delta)`` evaluates the
    integrand at the nodes ``end + delta``, where ``end`` is the nearer end
    of each node's piece, so that it can shift ``end`` first and keep the
    digits of a small ``delta``."""
    lo = np.array(knots[:-1])[:, None]
    hi = np.array(knots[1:])[:, None]
    length = hi - lo
    f = integrand(np.where(_TS_FROM_LO, lo, hi), length * _TS_OFFSET) * (length * _TS_WEIGHT)
    total = float(f.sum())
    return total, abs(total - 2.0 * float(f[:, ::2].sum()))


def _spectral(alpha: float, x: float) -> float:
    # E_alpha(-x) via the spectral density of the completely monotone
    # representation; valid for 0 < alpha < 1, x > 0
    c = math.cos(math.pi * alpha)
    s2 = math.sin(math.pi * alpha) ** 2
    inv_alpha = 1.0 / alpha

    def integrand(end, delta):
        # v^2 + 2 v c + 1 written as (v + c)^2 + s2 keeps its relative
        # accuracy near its minimum s2; the expanded form loses ~1e-16 / s2
        # there.  end + c is exactly 0 at the peak's knot.
        w = (end + c) + delta
        return np.exp(-((x * (end + delta)) ** inv_alpha)) / (w * w + s2)

    # the integrand is O(exp(-40)) beyond v_cut, where the integral stops;
    # the rest is split at the denominator's minimum, v = -c, when that
    # peak lies inside it, so that the rule's nodes crowd around it
    v_cut = 40.0**alpha / x
    knots = (0.0, -c, v_cut) if 0.0 < -c < v_cut else (0.0, v_cut)
    total, err = _tanh_sinh(integrand, knots)
    scale = math.sin(math.pi * alpha) / (alpha * math.pi)
    if scale * err > _SPECTRAL_ABS_TOL:
        raise ArithmeticError(
            f"Mittag-Leffler spectral quadrature failed for alpha={alpha}, x={x}: "
            f"error estimate {scale * err:.3g}"
        )
    return scale * total


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) for alpha in (0, 1]
    and finite real z: the real axis z <= 0, plus the small positive
    arguments the series reaches.  ``alpha`` and ``z`` are real numbers
    (``core.real``, whose ``TypeError`` names them)."""
    alpha, z = real("alpha", alpha), real("z", z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"Mittag-Leffler order must lie in (0, 1], got {alpha}")
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    if z < 0.0 and alpha <= _SPECTRAL_MAX_ALPHA and (z < -1.0 or _series_is_long(alpha, -z)):
        return _spectral(alpha, -z)
    if _series_peak(alpha, abs(z)) <= _SERIES_PEAK_LIMIT:
        return _series(alpha, z)
    if z < 0.0:
        return _spectral(alpha, -z)
    raise ValueError(
        f"Mittag-Leffler evaluation unsupported for alpha={alpha}, z={z}: "
        "positive arguments are only reachable by the series"
    )
