"""History-buffer maintenance and rescaled binomial weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmem import HistoryBuffer, MemoryPolicy, PolicyKind, evaluate_gl
from fracmem.memory import gl_weights


def push_uniform(policy, dt, n_steps, fn=lambda t: 0.0):
    buf = HistoryBuffer(policy)
    for i in range(n_steps + 1):
        buf.push(i * dt, fn(i * dt))
    return buf


class TestPolicyConstruction:
    def test_full_requires_no_length(self):
        assert MemoryPolicy.full().T is None

    @pytest.mark.parametrize("maker", ["fixed", "adaptive_present", "adaptive_gl"])
    def test_truncating_policies_require_positive_length(self, maker):
        with pytest.raises(ValueError):
            getattr(MemoryPolicy, maker)(0.0)

    @pytest.mark.parametrize("maker", ["fixed", "adaptive_present", "adaptive_gl"])
    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_truncating_policies_require_finite_length(self, maker, T):
        with pytest.raises(ValueError, match="finite"):
            getattr(MemoryPolicy, maker)(T)


class TestBufferBasics:
    def test_push_requires_increasing_time(self):
        buf = HistoryBuffer(MemoryPolicy.full())
        buf.push(0.0, 1.0)
        buf.push(1.0, 2.0)
        with pytest.raises(ValueError):
            buf.push(1.0, 3.0)

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(1.0),
        MemoryPolicy.adaptive_present(1.0),
        MemoryPolicy.adaptive_gl(1.0),
    ], ids=["full", "fixed", "present", "gl"])
    def test_push_rejects_nan_time(self, policy):
        buf = HistoryBuffer(policy)
        buf.push(0.0, 0.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"pushed time {t} is not finite or not after"):
                buf.push(t, 1.0)
        buf.push(0.5, 2.0)
        assert list(buf.times()) == [0.0, 0.5]
        assert list(buf.values()) == [0.0, 2.0]

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_first_push_requires_finite_time(self, t):
        buf = HistoryBuffer(MemoryPolicy.full())
        with pytest.raises(ValueError, match="finite"):
            buf.push(t, 0.0)
        assert buf.count_stored() == 0

    def test_full_policy_keeps_everything(self):
        buf = push_uniform(MemoryPolicy.full(), 0.1, 50)
        assert buf.count_stored() == 51
        assert buf.count_conv_terms() == 50

    def test_fixed_policy_window(self):
        buf = push_uniform(MemoryPolicy.fixed(1.0), 0.1, 50)
        times = buf.times()
        assert times.size == 11
        assert times[-1] - times[0] == pytest.approx(1.0)

    def test_fixed_window_equal_to_step_keeps_one_interval(self):
        buf = push_uniform(MemoryPolicy.fixed(0.1), 0.1, 200)
        assert buf.count_stored() == 2

    def test_initial_value_retained(self):
        buf = push_uniform(MemoryPolicy.adaptive_present(1.0), 0.25, 40, fn=lambda t: t + 3.0)
        assert buf.values()[0] == 3.0
        assert buf.times()[0] == 0.0


class TestAdaptiveMaintenance:
    def test_hand_trace_small_window(self):
        # T = 2 with unit steps: pushing t = 0..6 must land in subsets
        # {4,5,6}, {2,3}, {0} (the t=1 point is thinned away)
        buf = push_uniform(MemoryPolicy.adaptive_present(2.0), 1.0, 6)
        assert buf.subset_times(0) == [4.0, 5.0, 6.0]
        assert buf.subset_times(1) == [2.0, 3.0]
        assert buf.subset_times(2) == [0.0]
        assert list(buf.times()) == [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_no_thinning_until_window_filled(self):
        buf = push_uniform(MemoryPolicy.adaptive_present(1.0), 0.1, 10)
        assert buf.num_active_subsets == 1
        assert buf.count_stored() == 11

    def test_ideal_layout_at_dyadic_horizon(self):
        # after t = 2^L * T each coarsened subset holds m points with
        # spacing doubled per level
        T, dt, L = 1.0, 0.1, 3
        m = round(T / dt)
        buf = push_uniform(MemoryPolicy.adaptive_present(T), dt, round(2**L * T / dt))
        sizes = [len(buf.subset_times(l)) for l in range(buf.num_subsets) if buf.subset_times(l)]
        assert sizes[0] == m + 1
        assert all(s == m for s in sizes[1:])
        for l in range(1, len(sizes)):
            gaps = np.diff(buf.subset_times(l))
            assert np.allclose(gaps, 2 ** (l - 1) * dt)

    @given(
        dt=st.floats(0.01, 0.5),
        m=st.integers(2, 12),
        n_steps=st.integers(1, 400),
    )
    @settings(max_examples=60, deadline=None)
    def test_buffer_invariants(self, dt, m, n_steps):
        T = m * dt
        buf = push_uniform(MemoryPolicy.adaptive_present(T), dt, n_steps)
        times = buf.times()
        # strictly increasing, endpoints retained
        assert np.all(np.diff(times) > 0.0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(n_steps * dt)
        # newest window spans at most T (after maintenance)
        u0 = buf.subset_times(0)
        assert u0[-1] - u0[0] <= T * (1.0 + 1e-9)
        # each coarsened subset spans at most its doubling threshold
        for l in range(1, buf.num_subsets):
            ul = buf.subset_times(l)
            if len(ul) >= 2:
                assert ul[-1] - ul[0] <= 2 ** (l - 1) * T * (1.0 + 1e-9)
        # logarithmic storage: at most ~m+1 points per active subset
        levels = buf.num_active_subsets
        assert buf.count_stored() <= (levels + 1) * (m + 1)

    def test_agrees_with_full_memory_before_thinning_starts(self):
        full = push_uniform(MemoryPolicy.full(), 0.1, 10, fn=lambda t: t * t)
        adap = push_uniform(MemoryPolicy.adaptive_present(1.0), 0.1, 10, fn=lambda t: t * t)
        assert np.array_equal(full.times(), adap.times())
        assert np.array_equal(full.values(), adap.values())


class TestGLWeights:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_recurrence_matches_binomial_product(self, alpha):
        # oracle: (-1)^j C(alpha, j) computed as an explicit product
        for j in range(31):
            prod = 1.0
            for i in range(j):
                prod *= (alpha - i) / (i + 1)
            expect = (-1.0) ** j * prod
            assert gl_weights(30, alpha)[j] == pytest.approx(expect, rel=1e-12)

    def test_first_weights(self):
        a = 0.5
        w = gl_weights(2, a)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-a)
        assert w[2] == pytest.approx(a * (a - 1.0) / 2.0)

    def test_weights_alternate_to_negative_then_shrink(self):
        w = gl_weights(30, 0.4)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0.0)
        assert np.all(np.abs(w[2:]) < np.abs(w[1:-1]))

    def test_weight_sum_partial_unity(self):
        # sum_{j=0}^J w_j = (-1)^J C(alpha-1, J) -> 0, staying positive
        w = gl_weights(200, 0.3)
        partial = np.cumsum(w)
        assert np.all(partial > 0.0)
        assert partial[-1] < partial[0]


class TestEvaluateGL:
    def test_uniform_grid_matches_direct_convolution(self):
        alpha, dt = 0.5, 0.1
        times = np.arange(0.0, 1.05, dt)
        values = times**2
        got = evaluate_gl(times, values, alpha, dt)
        n = times.size - 1
        w = gl_weights(n, alpha)
        direct = sum(w[n - k] * (values[k] - values[0]) for k in range(1, n + 1)) / dt**alpha
        assert got == pytest.approx(direct, rel=1e-12)

    def test_quadratic_accuracy_on_uniform_grid(self):
        # GL derivative of t^2 approaches 2 t^(2-a) / Gamma(3-a)
        alpha, dt = 0.5, 0.001
        times = np.arange(0.0, 1.0 + dt / 2, dt)
        got = evaluate_gl(times, times**2, alpha, dt)
        expect = 2.0 / math.gamma(3.0 - alpha)
        assert got == pytest.approx(expect, rel=2e-2)

    def test_thinned_history_rescales_weights(self):
        alpha, dt = 0.3, 0.1
        full_times = np.arange(0.0, 1.05, dt)
        # the second layout's newest interval spans two grid steps
        for keep in ([0, 2, 4, 6, 8, 9, 10], [0, 2, 4, 6, 8, 10]):
            thinned = full_times[keep]
            values = thinned**2
            got = evaluate_gl(thinned, values, alpha, dt)
            lags = np.rint((thinned[-1] - thinned[1:]) / dt).astype(int)
            w = gl_weights(int(lags.max()), alpha)[lags] * np.diff(thinned) / dt
            expect = float(w @ (values[1:] - values[0])) / dt**alpha
            assert got == pytest.approx(expect, rel=1e-12)

    def test_rejects_off_grid_times(self):
        with pytest.raises(ValueError):
            evaluate_gl([0.0, 0.05, 0.1], [0.0, 1.0, 2.0], 0.5, 0.1)

    def test_gl_buffer_maintenance_matches_present_policy(self):
        dt = 0.1
        gl = push_uniform(MemoryPolicy.adaptive_gl(1.0), dt, 160)
        present = push_uniform(MemoryPolicy.adaptive_present(1.0), dt, 160)
        assert np.array_equal(gl.times(), present.times())
        assert gl.policy.kind is PolicyKind.ADAPTIVE_GL
