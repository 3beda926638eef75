"""Mittag-Leffler evaluation against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx, rgamma

from fracmem import mittag_leffler, special
from fracmem.special import _series, _series_peak, _spectral


def spectral_by_quad(alpha, x):
    """E_alpha(-x) from the spectral integral by adaptive quadrature, on the
    pieces the rule uses plus the tail beyond v_cut."""
    c = math.cos(math.pi * alpha)
    s2 = math.sin(math.pi * alpha) ** 2

    def integrand(v):
        u = x * v
        if u > 700.0**alpha:
            return 0.0
        return math.exp(-(u ** (1.0 / alpha))) / ((v + c) ** 2 + s2)

    v_cut = 40.0**alpha / x
    knots = [0.0, -c, v_cut, math.inf] if 0.0 < -c < v_cut else [0.0, v_cut, math.inf]
    total = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
                for lo, hi in zip(knots, knots[1:]))
    return math.sin(math.pi * alpha) / (alpha * math.pi) * total


class TestQueryValidation:
    def test_order_range(self):
        assert mittag_leffler(1.0, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        for bad in (0.0, 1.5, -0.2, math.nan):
            with pytest.raises(ValueError, match="order must lie in"):
                mittag_leffler(bad, 0.0)

    def test_rejects_non_finite_argument(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="argument must be finite"):
                mittag_leffler(0.5, bad)

    def test_large_positive_argument_unsupported_for_small_order(self):
        # the second one overflows the peak-index power |z|^(1/alpha)
        for alpha, z in ((0.2, 1e12), (0.0005, 2.0)):
            with pytest.raises(ValueError, match="unsupported"):
                mittag_leffler(alpha, z)


class TestKnownValues:
    def test_value_at_zero_is_one(self):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            assert mittag_leffler(alpha, 0.0) == 1.0

    @pytest.mark.parametrize("z", [-30.0, -5.0, -1.0, -0.1, 0.5, 3.0])
    def test_order_one_is_exponential(self, z):
        assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.0, 4.0, 7.0])
    def test_half_order_is_scaled_complementary_error_function(self, x):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        assert mittag_leffler(0.5, -x) == pytest.approx(float(erfcx(x)), abs=1e-10)

    def test_small_order_near_zero(self):
        # leading behavior 1 + z / Gamma(1 + a)
        alpha, z = 0.3, -1e-8
        expect = 1.0 + z / math.gamma(1.0 + alpha)
        assert mittag_leffler(alpha, z) == pytest.approx(expect, abs=1e-14)


class TestBehavior:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_decreasing_and_bounded_on_negative_axis(self, alpha):
        zs = -np.linspace(0.0, 50.0, 251)
        vals = [mittag_leffler(alpha, float(z)) for z in zs]
        assert vals[0] == 1.0
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b < a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))

    @given(alpha=st.floats(0.05, 1.0), x=st.floats(0.0, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_completely_monotone_range(self, alpha, x):
        v = mittag_leffler(alpha, -x)
        assert 0.0 < v <= 1.0

    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.6])
    def test_series_and_integral_routes_agree_in_overlap(self, alpha):
        # both routes are usable for moderate arguments; they must agree
        for x in (1.0, 2.0, 5.0):
            if (x ** (1.0 / alpha)) / alpha > 400.0:
                continue
            assert _series(alpha, -x) == pytest.approx(_spectral(alpha, x), abs=1e-10)

    @pytest.mark.parametrize("alpha, z", [
        (0.001, -0.99), (0.001, -0.997), (0.002, -0.99), (0.003, -0.99),
    ])
    def test_small_order_just_inside_unit_disk_converges(self, alpha, z):
        # Gamma(alpha k + 1) grows slowly here: the series terms shrink only
        # like |z|^k, ~1e4 of them at z = -0.997, so the spectral integral
        # answers; the series still converges there and is the oracle
        assert mittag_leffler(alpha, z) == pytest.approx(_series(alpha, z), abs=1e-12)

    def test_deep_negative_small_order_stays_accurate(self):
        # the integral route against the half-order oracle far from zero
        got = mittag_leffler(0.5, -40.0)
        assert got == pytest.approx(float(erfcx(40.0)), rel=1e-8)


class TestSpectralRoute:
    def test_half_order_matches_erfcx_far_out(self):
        for x in np.geomspace(1.0, 1e4, 41):
            assert _spectral(0.5, float(x)) == pytest.approx(float(erfcx(x)), rel=1e-13)

    @given(alpha=st.floats(0.05, 0.999), x=st.floats(1.0, 50.0, exclude_min=True))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_series(self, alpha, x):
        assume(_series_peak(alpha, x) <= 400.0)
        assert _spectral(alpha, x) == pytest.approx(_series(alpha, -x), rel=1e-11)

    # 0.005: x^(1/alpha) alone overflows a float from x ~ 35 on
    @pytest.mark.parametrize("alpha", [0.005, 0.3, 0.7, 0.9, 0.99, 0.999])
    def test_large_argument_asymptotic(self, alpha):
        # E_a(-x) ~ sum_{k=1}^{8} (-1)^(k+1) x^(-k) / Gamma(1 - a k)
        for x in (1e2, 1e3, 1e4):
            expect = sum((-1) ** (k + 1) * x**-k * float(rgamma(1.0 - alpha * k))
                         for k in range(1, 9))
            assert _spectral(alpha, x) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999])
    def test_agrees_with_adaptive_quadrature(self, alpha):
        for x in np.geomspace(1.0001, 1e4, 25):
            assert _spectral(alpha, float(x)) == pytest.approx(
                spectral_by_quad(alpha, float(x)), rel=1e-12
            )

    def test_unresolved_peak_raises(self):
        # past the routed orders the peak at v = -cos(alpha pi) outgrows the
        # fixed rule, and its error estimate says so
        with pytest.raises(ArithmeticError, match="error estimate"):
            _spectral(1.0 - 1e-9, 1.5)

    def test_large_error_estimate_raises(self, monkeypatch):
        real = special._tanh_sinh
        monkeypatch.setattr(special, "_tanh_sinh", lambda *a: (real(*a)[0], 1e-9))
        with pytest.raises(ArithmeticError, match=r"alpha=0\.5, x=3\.0"):
            _spectral(0.5, 3.0)


class TestRoutes:
    @staticmethod
    def forbid(monkeypatch, name):
        def fail(*args):
            raise AssertionError(f"{name}{args} called")
        monkeypatch.setattr(special, name, fail)

    def test_negative_axis_beyond_one_skips_series(self, monkeypatch):
        self.forbid(monkeypatch, "_series")
        for alpha in (0.005, 0.05, 0.5, 0.9, 0.999):
            for z in (-1.0000001, -3.0, -50.0, -1e4):
                assert 0.0 < mittag_leffler(alpha, z) < 1.0

    def test_series_keeps_unit_disk_positive_axis_and_orders_near_one(self, monkeypatch):
        self.forbid(monkeypatch, "_spectral")
        # small orders too while the series needs 500 terms or fewer: 425 at
        # alpha = 0.05, z = -1
        for alpha, z in ((0.5, -1.0), (0.7, -0.3), (0.3, 2.0), (0.9995, -20.0),
                         (0.05, -1.0), (0.001, -0.9)):
            assert mittag_leffler(alpha, z) == _series(alpha, z)

    @pytest.mark.parametrize("alpha", [0.9995, 0.99999])
    def test_orders_near_one_beyond_series_reach_take_spectral_route(self, monkeypatch, alpha):
        # above the routed orders, a series peak past 400 falls back to the
        # spectral rule; E_a(-x) ~ sum_{k=1}^{8} (-1)^(k+1) x^(-k) / Gamma(1 - a k)
        self.forbid(monkeypatch, "_series")
        for x in (1e3, 1e4):
            assert _series_peak(alpha, x) > 400.0
            expect = sum((-1) ** (k + 1) * x**-k * float(rgamma(1.0 - alpha * k))
                         for k in range(1, 9))
            assert mittag_leffler(alpha, -x) == pytest.approx(expect, rel=1e-9)

    def test_long_series_inside_unit_disk_skips_series(self, monkeypatch):
        # more than 500 terms: ~1e4 at alpha = 0.001, z = -0.99, ~2e4 at z = -1
        self.forbid(monkeypatch, "_series")
        for alpha, z in ((0.001, -0.99), (0.001, -1.0), (0.01, -0.99), (0.04, -1.0)):
            assert 0.0 < mittag_leffler(alpha, z) < 1.0
