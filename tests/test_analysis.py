"""Error bounds, coefficient sums, and cost models."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmem import (
    a_func,
    adaptive_bound,
    b_approx_bracket,
    b_func,
    fit_loglog_slope,
    fixed_memory_bound,
    op_count,
)
from fracmem.analysis import (
    MAX_LEVEL,
    MAX_M,
    adaptive_bound_terms,
    interval_error_term,
    trapezoid_gap,
)
from fracmem.memory import PolicyKind


class TestFixedBound:
    def test_half_order_example(self):
        # M=1, t=2, T=1, a=1/2: (sqrt(2)-1)/Gamma(3/2)
        got = fixed_memory_bound(1.0, 2.0, 1.0, 0.5)
        assert got == pytest.approx((math.sqrt(2.0) - 1.0) / math.gamma(1.5), rel=1e-14)
        assert got == pytest.approx(0.46738995, abs=1e-7)

    def test_zero_when_window_covers_everything(self):
        assert fixed_memory_bound(1.0, 3.0, 3.0, 0.3) == 0.0

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_rejects_a_window_that_is_not_positive(self, T):
        with pytest.raises(ValueError, match=re.escape(f"T must be positive and finite, got {T}")):
            fixed_memory_bound(1.0, 2.0, T, 0.5)

    def test_rejects_a_negative_M(self):
        # M = max |f'| is not negative; unchecked, M = -1 gives -0.467
        with pytest.raises(ValueError, match=re.escape("M must be non-negative, got -1.0")):
            fixed_memory_bound(-1.0, 2.0, 1.0, 0.5)
        assert fixed_memory_bound(0.0, 2.0, 1.0, 0.5) == 0.0

    def test_rejects_window_longer_than_elapsed(self):
        with pytest.raises(ValueError):
            fixed_memory_bound(1.0, 1.0, 2.0, 0.5)

    @pytest.mark.parametrize("M, t, T, name", [
        (1.0, 2.0, math.nan, "T"),
        (1.0, math.nan, 1.0, "t"),
        (1.0, math.inf, 1.0, "t"),
        (math.nan, 2.0, 1.0, "M"),
    ])
    def test_rejects_non_finite_arguments(self, M, t, T, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fixed_memory_bound(M, t, T, 0.5)

    @given(
        M=st.floats(0.1, 10.0),
        t=st.floats(1.0, 100.0),
        frac=st.floats(0.01, 1.0),
        alpha=st.floats(0.05, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_time_and_window(self, M, t, frac, alpha):
        T = frac * t
        b = fixed_memory_bound(M, t, T, alpha)
        assert b >= 0.0
        assert fixed_memory_bound(M, t * 1.5, T, alpha) >= b
        if T < t:
            assert fixed_memory_bound(M, t, min(T * 1.5, t), alpha) <= b + 1e-12


class TestCoefficientSums:
    def test_integer_order_identities(self):
        # at a=1 the sums collapse: A(m,1) = 1 and B(m,1) = 0
        for m in (1, 5, 50):
            assert a_func(m, 1.0) == pytest.approx(1.0, abs=1e-9)
            assert b_func(m, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_order_identities(self):
        for m in (1, 5, 50):
            assert a_func(m, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert b_func(m, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_interior_orders(self):
        for alpha in (0.1, 0.5, 0.9):
            assert a_func(20, alpha) > 0.0
            assert b_func(20, alpha) > 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_b_power_law_decay(self, alpha):
        ms = [50, 100, 200, 400, 800]
        pts = [(m, b_func(m, alpha)) for m in ms]
        slope = fit_loglog_slope(pts)
        assert slope == pytest.approx(-alpha, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [50, 100, 200, 400, 800])
    def test_b_inside_power_law_bracket(self, alpha, m):
        lo, hi = b_approx_bracket(m, alpha)
        assert lo < b_func(m, alpha) < hi

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("func", [a_func, b_func, b_approx_bracket])
    @pytest.mark.parametrize("alpha", [math.nan, 1.5, -0.5, math.inf])
    def test_order_outside_the_closed_unit_interval_is_named(self, func, alpha):
        with pytest.raises(ValueError, match=re.escape(f"alpha must lie in [0, 1], got {alpha}")):
            func(10, alpha)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bracket_accepts_the_interval_ends(self):
        assert b_approx_bracket(10, 0.0) == (0.0, 0.0)
        assert b_approx_bracket(10, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: b_func(2.5, 0.5), "m must be an integer, got 2.5"),
        (lambda: a_func(0, 0.5), "m must be >= 1, got 0"),
        (lambda: b_approx_bracket(3.0, 0.5), "m must be an integer, got 3.0"),
        (lambda: adaptive_bound(1.0, 0.01, 10, 1.5, 0.5), "L must be an integer, got 1.5"),
        (lambda: adaptive_bound(1.0, 0.01, 10, -1, 0.5), "L must be >= 0, got -1"),
        (lambda: op_count("full", 10, 2.0), "L must be an integer, got 2.0"),
        (lambda: op_count("fixed", 0, 2), "m must be >= 1, got 0"),
        (lambda: op_count(PolicyKind.FULL, True, False), "m must be an integer, got True"),
        (lambda: op_count(PolicyKind.FULL, 10, False), "L must be an integer, got False"),
    ], ids=["b-m-fraction", "a-m-zero", "bracket-m-float", "bound-L-fraction", "bound-L-negative",
            "op-L-float", "op-m-zero", "op-m-bool", "op-L-bool"])
    def test_counts_are_whole_numbers_from_their_least(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_subset_ratio_approaches_geometric_factor(self):
        # consecutive coarsened-subset contributions differ by 2^(2-a)
        terms = adaptive_bound_terms(1.0, 0.01, 10, 5, 0.5)
        ratios = terms[2:] / terms[1:-1]
        assert np.allclose(ratios, 2.0 ** 1.5, rtol=1e-12)


class TestAdaptiveBound:
    def test_reduces_to_discretization_term_when_no_coarsening(self):
        a = adaptive_bound(2.0, 0.01, 10, 0, 0.5)
        pref = 2.0 / (2.0 * math.gamma(2.5))
        assert a == pytest.approx(pref * 0.01**1.5 * a_func(10, 0.5), rel=1e-14)

    def test_terms_sum_to_total(self):
        terms = adaptive_bound_terms(1.5, 0.02, 8, 4, 0.3)
        assert terms.size == 5
        assert adaptive_bound(1.5, 0.02, 8, 4, 0.3) == pytest.approx(float(terms.sum()))

    def test_rejects_negative_level_count(self):
        with pytest.raises(ValueError):
            adaptive_bound(1.0, 0.01, 10, -1, 0.5)

    @pytest.mark.parametrize("M, dt, message", [
        (1.0, math.nan, "dt must be positive and finite"),
        (1.0, math.inf, "dt must be positive and finite"),
        (1.0, 0.0, "dt must be positive and finite"),
        (1.0, -0.01, "dt must be positive and finite"),
        (math.nan, 0.01, "M must be finite"),
    ])
    def test_rejects_bad_arguments(self, M, dt, message):
        for bound in (adaptive_bound, adaptive_bound_terms):
            with pytest.raises(ValueError, match=message):
                bound(M, dt, 10, 2, 0.5)

    def test_rejects_a_negative_M(self):
        # M = max |f''| is not negative; unchecked, M = -1 gives -0.0075
        for bound in (adaptive_bound, adaptive_bound_terms):
            with pytest.raises(ValueError, match=re.escape("M must be non-negative, got -1.0")):
                bound(-1.0, 0.1, 10, 2, 0.5)
        assert adaptive_bound(0.0, 0.1, 10, 2, 0.5) == 0.0
        assert adaptive_bound_terms(0.0, 0.1, 10, 2, 0.5).tolist() == [0.0, 0.0, 0.0]


class TestIntervalTerms:
    def test_positive_on_seeded_random_triples(self):
        # concavity of the kernel antiderivative makes every per-interval
        # term positive (10^4 random triples)
        rng = np.random.default_rng(20240817)
        for _ in range(10_000):
            t_k = rng.uniform(0.0, 10.0)
            t_k1 = t_k + rng.uniform(1e-6, 5.0)
            t_n = t_k1 + rng.uniform(0.0, 5.0)
            alpha = rng.uniform(0.01, 0.99)
            assert interval_error_term(t_n, t_k, t_k1, alpha) > 0.0

    def test_gap_identity(self):
        # the per-interval summand is 2(2-a) times the trapezoid error
        for alpha in (0.2, 0.5, 0.8):
            gap = trapezoid_gap(3.0, 1.0, 2.0, alpha)
            term = interval_error_term(3.0, 1.0, 2.0, alpha)
            assert term == pytest.approx(2.0 * (2.0 - alpha) * gap, rel=1e-12)
            assert gap > 0.0

    def test_trapezoid_gap_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            trapezoid_gap(2.0, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("term", [trapezoid_gap, interval_error_term])
    @pytest.mark.parametrize("t_n, t_k, t_k1", [
        (1.0, 2.0, 3.0),
        (2.0, 1.0, 1.0),
        (2.0, 1.5, 1.0),
        (math.nan, 1.0, 2.0),
        (3.0, math.nan, 2.0),
        (3.0, 1.0, math.nan),
        (math.inf, 1.0, 2.0),
        (3.0, -math.inf, 2.0),
    ])
    def test_rejects_limits_out_of_order_or_not_finite(self, term, t_n, t_k, t_k1):
        with pytest.raises(ValueError, match="need finite t_k < t_k1 <= t_n"):
            term(t_n, t_k, t_k1, 0.5)


class TestOpCounts:
    def test_reference_counts_at_three_levels(self):
        m, L = 10, 3
        assert op_count(PolicyKind.FULL, m, L) == 3240
        assert op_count(PolicyKind.FIXED, m, L) == 755
        assert op_count(PolicyKind.ADAPTIVE_PRESENT, m, L) == 2140

    def test_accepts_string_policy(self):
        assert op_count("full", 10, 3) == 3240

    def test_full_is_triangular_number(self):
        n = 2**4 * 7
        assert op_count(PolicyKind.FULL, 7, 4) == n * (n + 1) // 2

    def test_adaptive_cheaper_than_full_beyond_first_doubling(self):
        for L in (2, 3, 4, 6):
            assert op_count(PolicyKind.ADAPTIVE_PRESENT, 10, L) < op_count(PolicyKind.FULL, 10, L)

    @pytest.mark.parametrize("L", [3, 45, 60, 1100])
    def test_adaptive_count_is_exact(self, L):
        # the closed form m(m+1)/2 + sum 2^(l-2) ((2l+1) m^2 + m) in exact rationals
        m = 10
        exact = Fraction(m * (m + 1), 2) + sum(
            Fraction(2) ** (l - 2) * ((2 * l + 1) * m * m + m) for l in range(1, L + 1)
        )
        got = op_count(PolicyKind.ADAPTIVE_PRESENT, m, L)
        assert type(got) is int
        assert got == exact

    @pytest.mark.parametrize("m", [*range(1, 40), 10**6 + 7, 10**50 + 3])
    def test_adaptive_count_closed_form_matches_the_level_sum(self, m):
        # oracle: twice the count, m(m+1) + sum 2^(l-1) ((2l+1) m^2 + m),
        # summed level by level in exact integers
        twice = m * (m + 1)
        for L in range(4097):
            if L:
                twice += 2 ** (L - 1) * ((2 * L + 1) * m * m + m)
            if L < 70 or L in (1000, 4096):
                assert op_count(PolicyKind.ADAPTIVE_PRESENT, m, L) == twice // 2

    @pytest.mark.parametrize("L", [62, 63, 70, 4096])
    @pytest.mark.parametrize("kind", [PolicyKind.FULL, PolicyKind.FIXED, PolicyKind.ADAPTIVE_PRESENT])
    def test_numpy_integers_count_as_python_ones(self, kind, L):
        # int64 arithmetic would overflow in 2**L and the products
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = op_count(kind, np.int64(10), np.int64(L))
        assert type(got) is int
        assert got == op_count(kind, 10, L)

    def test_levels_stop_at_the_cap(self):
        # the largest count at the cap still prints for m below 10^900
        assert len(str(op_count(PolicyKind.FULL, 10**900 - 1, MAX_LEVEL))) < 4300
        with pytest.raises(ValueError, match=f"L must be <= {MAX_LEVEL}, got {MAX_LEVEL + 1}"):
            op_count(PolicyKind.ADAPTIVE_PRESENT, 10, MAX_LEVEL + 1)

    def test_m_stops_at_the_cap(self):
        # every count up to the level cap prints at the largest m
        for kind in (PolicyKind.FULL, PolicyKind.FIXED, PolicyKind.ADAPTIVE_PRESENT):
            assert len(str(op_count(kind, MAX_M, MAX_LEVEL))) < 4300
        with pytest.raises(ValueError, match=re.escape("m must be <= 999... (900 digits), got 100... (901 digits)")):
            op_count(PolicyKind.FULL, MAX_M + 1, 0)

    def test_no_model_for_gl_policy(self):
        with pytest.raises(ValueError):
            op_count(PolicyKind.ADAPTIVE_GL, 10, 3)


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        pts = [(h, 3.0 * h**1.7) for h in (0.1, 0.05, 0.025, 0.0125)]
        assert fit_loglog_slope(pts) == pytest.approx(1.7, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(0.1, 1.0), (0.2, 2.0)])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(0.1, 1.0), (0.2, 0.0), (0.4, 2.0)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points", [
        [(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)],
        [(0.1, 1.0), (0.2, 2.0), (0.1, 3.0)],
    ], ids=["all-equal", "one-repeat"])
    def test_rejects_repeated_abscissae(self, points):
        # unchecked, equal abscissae gave a meaningless slope (-0.1297 for
        # the first) after numpy's RankWarning
        with pytest.raises(ValueError, match="slope fit requires distinct abscissae"):
            fit_loglog_slope(points)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pair", [(0.2, math.nan), (0.2, math.inf), (math.nan, 1.5), (math.inf, 1.5)],
                             ids=["nan-error", "inf-error", "nan-step", "inf-step"])
    def test_rejects_non_finite_pairs(self, pair):
        with pytest.raises(ValueError, match="slope fit requires finite abscissae and errors"):
            fit_loglog_slope([(0.1, 1.0), pair, (0.4, 2.0)])
