"""Convolution weights and Caputo evaluation against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracmem import (
    FractionalOrder,
    WeightTriple,
    caputo_weight,
    evaluate_caputo,
    weight_sum,
)
from fracmem.core import caputo_weights, order_value


def quad_weight(t_n, t_k, t_k1, alpha):
    """Oracle: numerically integrate the kernel (t_n - tau)^(-alpha).

    When the interval touches the current time, substitute s = t_n - tau
    and let QUADPACK handle the algebraic endpoint weight s^(-alpha).
    """
    if t_k1 == t_n:
        val, _ = quad(lambda s: 1.0, 0.0, t_n - t_k, weight="alg", wvar=(-alpha, 0.0))
    else:
        val, _ = quad(lambda tau: (t_n - tau) ** (-alpha), t_k, t_k1, limit=200)
    return val


class TestValidation:
    def test_order_must_be_in_open_interval(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                FractionalOrder(bad)

    def test_order_value_accepts_both_forms(self):
        assert order_value(0.5) == 0.5
        assert order_value(FractionalOrder(0.25)) == 0.25

    def test_weight_triple_ordering(self):
        WeightTriple(2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            WeightTriple(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            WeightTriple(2.0, 0.5, 2.5)

    def test_evaluate_needs_two_points(self):
        with pytest.raises(ValueError):
            evaluate_caputo([1.0], [1.0], 0.5)

    def test_evaluate_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            evaluate_caputo([0.0, 2.0, 1.0], [0.0, 2.0, 1.0], 0.5)

    def test_evaluate_checks_t_n(self):
        with pytest.raises(ValueError):
            evaluate_caputo([0.0, 1.0], [0.0, 1.0], 0.5, t_n=2.0)


class TestWeights:
    def test_known_value_half_order(self):
        # integral of (2 - tau)^(-1/2) over [0, 1] = 2(sqrt(2) - 1)
        w = caputo_weight(2.0, 0.0, 1.0, 0.5)
        assert w == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-14)

    def test_newest_interval_touches_current_time(self):
        w = caputo_weight(1.0, 0.9, 1.0, 0.3)
        assert w == pytest.approx(0.1**0.7 / 0.7, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_quadrature_oracle(self, alpha):
        for (t_n, t_k, t_k1) in [(1.0, 0.0, 0.5), (3.0, 1.0, 2.5), (10.0, 9.9, 10.0)]:
            expect = quad_weight(t_n, t_k, t_k1, alpha)
            assert caputo_weight(t_n, t_k, t_k1, alpha) == pytest.approx(expect, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        times = np.array([0.0, 0.3, 1.1, 2.0, 2.5])
        w = caputo_weights(2.5, times[:-1], times[1:], 0.4)
        for i in range(4):
            assert w[i] == pytest.approx(caputo_weight(2.5, times[i], times[i + 1], 0.4))

    @given(
        alpha=st.floats(0.01, 0.99),
        gaps=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_telescoping_sum(self, alpha, gaps):
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        t_n = times[-1]
        expect = t_n ** (1.0 - alpha) / (1.0 - alpha)
        assert weight_sum(times, alpha) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    @given(
        alpha=st.floats(0.01, 0.99),
        t_k=st.floats(0.0, 5.0),
        width=st.floats(1e-6, 3.0),
        tail=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_are_positive(self, alpha, t_k, width, tail):
        t_k1 = t_k + width
        t_n = t_k1 + tail
        assert caputo_weight(t_n, t_k, t_k1, alpha) > 0.0


class TestEvaluate:
    def test_exact_on_affine_function(self):
        # derivative of a + b*t is b * t^(1-alpha) / Gamma(2-alpha)
        times = np.array([0.0, 0.2, 0.7, 1.3, 2.0])
        a, b, alpha = 3.0, -1.5, 0.6
        got = evaluate_caputo(times, a + b * times, alpha)
        expect = b * 2.0 ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_constant_has_zero_derivative(self):
        times = np.array([0.0, 1.0, 1.5, 4.0])
        assert evaluate_caputo(times, np.full(4, 7.0), 0.3) == pytest.approx(0.0, abs=1e-13)

    @given(
        alpha=st.floats(0.05, 0.95),
        slope=st.floats(-5.0, 5.0),
        offset=st.floats(-5.0, 5.0),
        gaps=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine_exactness_property(self, alpha, slope, offset, gaps):
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        got = evaluate_caputo(times, offset + slope * times, alpha)
        expect = slope * times[-1] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_vector_valued_history(self):
        times = np.array([0.0, 0.5, 1.0])
        values = np.column_stack([times, 2.0 * times, np.zeros(3)])
        got = evaluate_caputo(times, values, 0.5)
        base = 1.0 ** 0.5 / math.gamma(1.5)
        assert np.allclose(got, [base, 2.0 * base, 0.0], rtol=1e-13, atol=1e-14)

    def test_near_first_order_limit_recovers_classical_derivative(self):
        # alpha -> 1 should approach f'(t) for smooth f on a fine grid
        alpha = 1.0 - 1e-8
        times = np.linspace(0.0, 1.0, 2001)
        got = evaluate_caputo(times, times**2, alpha)
        assert got == pytest.approx(2.0, abs=1e-3)

    def test_quadratic_against_quadrature_oracle(self):
        # piecewise-linear interpolant of t^2 convolved with the kernel
        alpha = 0.35
        times = np.array([0.0, 0.4, 0.9, 1.7, 2.2])
        vals = times**2
        total = 0.0
        for k in range(len(times) - 1):
            rate = (vals[k + 1] - vals[k]) / (times[k + 1] - times[k])
            total += rate * quad_weight(times[-1], times[k], times[k + 1], alpha)
        expect = total / math.gamma(1.0 - alpha)
        assert evaluate_caputo(times, vals, alpha) == pytest.approx(expect, rel=1e-9)


class TestMonotoneLoad:
    """A non-decreasing history has a non-negative fractional derivative."""

    @given(
        alpha=st.floats(0.05, 0.95),
        gaps=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8),
        increments=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_for_nondecreasing_values(self, alpha, gaps, increments):
        n = min(len(gaps), len(increments))
        times = np.concatenate([[0.0], np.cumsum(gaps[:n])])
        values = np.concatenate([[0.0], np.cumsum(increments[:n])])
        assert evaluate_caputo(times, values, alpha) >= -1e-12
