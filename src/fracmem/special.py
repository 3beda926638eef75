"""Mittag-Leffler function E_alpha(z) for 0 < alpha <= 1.

Two evaluation routes:

* a completely monotone spectral representation, integrated in floating
  point with ``scipy.integrate.quad``:

      E_a(-x) = sin(a*pi)/(a*pi) *
                int_0^inf exp(-(x v)^(1/a)) / (v^2 + 2 v cos(a*pi) + 1) dv;

* the defining power series, summed in adaptive-precision arithmetic so that
  the cancellation of its terms on the negative axis is harmless.

Route rule:

* z < -1 with alpha <= 0.999: the spectral integral.  Its denominator,
  evaluated as (v + cos(a*pi))^2 + sin(a*pi)^2, has its minimum sin(a*pi)^2
  at v = -cos(a*pi): the integrand has a peak of width ~pi*(1 - a) there,
  and the head quadrature is split at it.
* -1 <= z < 0: the series.  There it returns the correctly rounded value;
  the float routes miss the last bit at about half of such points, and the
  creep reference data pin those bits.  At small alpha near z = -1 its terms
  shrink only like |z|^k (1e4 of them at alpha = 0.001, z = -0.997), and
  its term cap follows that bound.
* z > 0: the series, while the index of its largest term stays below
  ``_SERIES_PEAK_LIMIT``; larger positive arguments are unsupported.
* alpha > 0.999: the series, because the peak grows too narrow and too tall
  for the quadrature (it warns from alpha ~ 0.9999 on, and the peak height
  1/sin(a*pi)^2 is ~1e23 at alpha = 1 - 1e-12).

Negative arguments beyond the series' reach fall back to the spectral
integral.  A quadrature whose summed error estimate exceeds 1e-10 raises
``ArithmeticError``, as a series that does not converge does.  Verified
region: alpha in (0, 0.999] with z in [-1e4, 0], small alpha down to 0.001
just inside z = -1 included, and alpha in (0.999, 1] with z in [-50, 0];
absolute error below 1e-10.
"""

from __future__ import annotations

import math

import mpmath
from scipy.integrate import quad

__all__ = ["mittag_leffler"]

# series is used while the index of its largest term stays below this
_SERIES_PEAK_LIMIT = 400.0
# spectral route for z < -1 up to this order; beyond it the integrand's peak
# at v = -cos(alpha*pi) is too narrow for the quadrature
_SPECTRAL_MAX_ALPHA = 0.999
# the documented absolute accuracy; a larger quadrature error estimate raises
_SPECTRAL_ABS_TOL = 1e-10


def _series_peak(alpha: float, absz: float) -> float:
    # index of the largest series term: alpha*k ~ |z|^(1/alpha); infinite
    # where that power overflows (positive z at tiny alpha)
    try:
        return absz ** (1.0 / alpha) / alpha
    except OverflowError:
        return math.inf


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


def _spectral(alpha: float, x: float) -> float:
    # E_alpha(-x) via the spectral density of the completely monotone
    # representation; valid for 0 < alpha < 1, x > 0
    c = math.cos(math.pi * alpha)
    s2 = math.sin(math.pi * alpha) ** 2
    inv_alpha = 1.0 / alpha
    # exp(-(x v)^(1/alpha)) is below exp(-700) once x v passes u_max; the
    # test comes first so that the power cannot overflow for small alpha
    u_max = 700.0**alpha

    def integrand(v: float) -> float:
        u = x * v
        if u > u_max:
            return 0.0
        # v^2 + 2 v c + 1 written so that it keeps its relative accuracy
        # near its minimum s2; the expanded form loses ~1e-16 / s2 there
        return math.exp(-(u**inv_alpha)) / ((v + c) ** 2 + s2)

    # integrand is O(exp(-40)) beyond v_cut; the head is split at the
    # denominator's minimum, v = -c, when that peak lies inside it
    v_cut = 40.0**alpha / x
    knots = [0.0, -c, v_cut, math.inf] if 0.0 < -c < v_cut else [0.0, v_cut, math.inf]
    total = err = 0.0
    for lo, hi in zip(knots, knots[1:]):
        piece, piece_err = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
        total += piece
        err += piece_err
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
    arguments the series reaches."""
    alpha, z = float(alpha), float(z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"Mittag-Leffler order must lie in (0, 1], got {alpha}")
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    if z < -1.0 and alpha <= _SPECTRAL_MAX_ALPHA:
        return _spectral(alpha, -z)
    if _series_peak(alpha, abs(z)) <= _SERIES_PEAK_LIMIT:
        return _series(alpha, z)
    if z < 0.0:
        return _spectral(alpha, -z)
    raise ValueError(
        f"Mittag-Leffler evaluation unsupported for alpha={alpha}, z={z}: "
        "positive arguments are only reachable by the series"
    )
