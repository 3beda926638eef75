"""Convolution weights and Caputo evaluation against independent oracles."""

import ast
import math
import re
from decimal import Decimal
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracmem import MemoryPolicy, evaluate_caputo, evaluate_gl
from fracmem.core import (
    caputo_weight,
    caputo_weights,
    check_count,
    check_finite,
    check_nonnegative,
    check_positive,
    grid_steps,
    l1_history,
    order_value,
    weighted_rows,
)
from fracmem import special
from fracmem.analysis import a_func, adaptive_bound, fixed_memory_bound, interval_error_term
from fracmem.experiments import run_derivative_error, time_grid
from fracmem.memory import gl_history
from fracmem.solvers import (
    DiffusionConfig,
    KelvinVoigtConfig,
    KelvinVoigtSimulation,
    analytic_creep,
    analytic_diffusion,
)

CREEP = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.125, policy=MemoryPolicy.full())
DIFFUSION = DiffusionConfig(length=1.0, dx=0.25, dt=0.125, mu=1.0, alpha=0.5, policy=MemoryPolicy.full())
GL_TIMES, GL_VALUES = np.array([0.0, 0.125, 0.25]), np.array([0.0, 1.0, 4.0])


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
        for bad in (0.0, 1.0, -0.3, 1.7, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                order_value(bad)

    def test_order_value_returns_python_float(self):
        for given_alpha in (0.5, np.float64(0.25), np.float32(0.5)):
            got = order_value(given_alpha)
            assert type(got) is float
            assert got == float(given_alpha)

    ORDER_CALLS = [
        order_value,
        lambda a: evaluate_caputo([0.0, 0.1, 0.2], [0.0, 1.0, 4.0], a),
        lambda a: DiffusionConfig(length=1.0, dx=0.1, dt=0.01, mu=1.0, alpha=a, policy=MemoryPolicy.full()),
        lambda a: a_func(10, a),
    ]
    ORDER_IDS = ["order_value", "evaluate_caputo", "diffusion", "a_func"]

    @pytest.mark.parametrize("call", ORDER_CALLS, ids=ORDER_IDS)
    @pytest.mark.parametrize("value", ["0.5", b"0.5", None, 0.5j], ids=["str", "bytes", "none", "complex"])
    def test_order_that_is_not_a_real_number_is_named(self, call, value):
        # float() would take the numeric string and bytes
        with pytest.raises(TypeError, match=re.escape(f"fractional order must be a real number, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("call", ORDER_CALLS, ids=ORDER_IDS)
    def test_numpy_order_passes_as_its_float(self, call):
        got, want = call(np.float64(0.5)), call(0.5)
        if isinstance(want, float):
            assert type(got) is float and got == want

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf, None])
    def test_check_positive_names_the_parameter(self, value):
        with pytest.raises(ValueError, match=re.escape(f"width must be positive and finite, got {value}")):
            check_positive("width", value)

    @pytest.mark.parametrize("value", [1e-300, 2.5, np.float64(3.0), 7, np.float32(0.5), np.int64(2)])
    def test_check_positive_accepts_positive_finite_numbers(self, value):
        check_positive("width", value)

    @pytest.mark.parametrize("check, value, rule", [
        (check_finite, math.nan, "finite"),
        (check_finite, math.inf, "finite"),
        (check_finite, -math.inf, "finite"),
        (check_nonnegative, math.nan, "finite"),
        (check_nonnegative, math.inf, "finite"),
        (check_nonnegative, -math.inf, "finite"),
        (check_nonnegative, -1e-300, "non-negative"),
        (check_finite, 0.0, None),
        (check_finite, -0.0, None),
        (check_nonnegative, 0.0, None),
        (check_nonnegative, -0.0, None),
    ])
    def test_finite_rules_name_the_parameter(self, check, value, rule):
        if rule is None:
            # a zero passes with its sign
            assert check("width", value).hex() == value.hex()
            return
        with pytest.raises(ValueError, match=re.escape(f"width must be {rule}, got {value}")):
            check("width", value)

    @pytest.mark.parametrize("name, call", [
        ("width", lambda v: check_positive("width", v)),
        ("T", MemoryPolicy.fixed),
        ("dt", lambda v: time_grid(1.0, v)),
        ("dt", lambda v: evaluate_gl([0.0, 0.1, 0.2], [0.0, 1.0, 2.0], 0.5, v)),
        ("eta", lambda v: KelvinVoigtConfig(eta=v, k=1.0, load=1.0, alpha=0.5, dt=0.01,
                                             policy=MemoryPolicy.full())),
    ], ids=["check_positive", "fixed", "time_grid", "evaluate_gl", "kelvin_voigt"])
    @pytest.mark.parametrize("value", ["1", b"1", 1 + 0j, np.array([0.1, 0.2])],
                             ids=["str", "bytes", "complex", "array"])
    def test_parameter_that_is_not_a_real_number_is_named(self, name, call, value):
        with pytest.raises(TypeError, match=re.escape(f"{name} must be a real number, got {value!r}")):
            call(value)

    # every door of core.real: its id, the parameter named and a call taking the value
    REAL_DOORS = {
        "order_value": ("fractional order", order_value),
        "closed_order": ("fractional order", lambda v: a_func(10, v)),
        "check_positive": ("width", lambda v: check_positive("width", v)),
        "check_finite": ("width", lambda v: check_finite("width", v)),
        "check_nonnegative": ("width", lambda v: check_nonnegative("width", v)),
        "policy": ("T", MemoryPolicy.fixed),
        "time_grid-dt": ("dt", lambda v: time_grid(3.0, v)),
        "time_grid-t_end": ("t_end", lambda v: time_grid(v, 0.5)),
        "gl_history": ("dt", lambda v: gl_history(GL_TIMES, GL_VALUES, 0.375, 0.5, v)),
        "bound-M": ("M", lambda v: fixed_memory_bound(v, 2.0, 1.0, 0.5)),
        "bound-t": ("t", lambda v: fixed_memory_bound(1.0, v, 1.0, 0.5)),
        "bound-T": ("T", lambda v: fixed_memory_bound(1.0, 2.0, v, 0.5)),
        "adaptive_bound": ("dt", lambda v: adaptive_bound(1.0, v, 4, 2, 0.5)),
        "trapezoid-t_n": ("t_n", lambda v: interval_error_term(v, 0.0, 0.5, 0.5)),
        "trapezoid-t_k": ("t_k", lambda v: interval_error_term(2.0, v, 0.5, 0.5)),
        "interval-t_k1": ("t_k1", lambda v: interval_error_term(2.0, 0.0, v, 0.5)),
        "ml-alpha": ("alpha", lambda v: special.mittag_leffler(v, -1.0)),
        "ml-z": ("z", lambda v: special.mittag_leffler(0.5, v)),
        "creep": ("t", lambda v: analytic_creep(v, CREEP)),
        "diffusion": ("t", lambda v: analytic_diffusion(0.5, v, DIFFUSION)),
        "step": ("t_new", lambda v: KelvinVoigtSimulation(CREEP).step(v)),
        "derivative-dt": ("dt", lambda v: run_derivative_error(MemoryPolicy.fixed(1.0), [0.5], v, 1.0)),
    }
    REAL_DOOR_CASES = [pytest.param(*door, True, id=f"{key}-True") for key, door in REAL_DOORS.items()] + [
        pytest.param(*REAL_DOORS["ml-alpha"], "0.5", id="ml-alpha-str"),
        pytest.param(*REAL_DOORS["ml-z"], b"-1", id="ml-z-bytes"),
        pytest.param(*REAL_DOORS["bound-M"], "1", id="bound-M-str"),
        pytest.param(*REAL_DOORS["creep"], "1", id="creep-str"),
        pytest.param(*REAL_DOORS["check_finite"], "1", id="check_finite-str"),
        pytest.param(*REAL_DOORS["check_nonnegative"], b"1", id="check_nonnegative-bytes"),
        # a fixed window compared its T with the string dt before any check
        pytest.param(*REAL_DOORS["derivative-dt"], "0.1", id="derivative-dt-str"),
    ]

    @pytest.mark.parametrize("name, call, value", REAL_DOOR_CASES)
    def test_real_refuses_a_bool_or_a_string_and_names_the_parameter(self, name, call, value):
        # a bool once passed as 0 or 1, and float() took numeric strings
        with pytest.raises(TypeError, match=re.escape(f"{name} must be a real number, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("call, args", [
        (time_grid, (np.int64(3), np.float32(0.25), 4)),
        (time_grid, (np.int64(2), np.float64(0.1), 3)),
        (special.mittag_leffler, (np.float32(0.25), np.float64(-2.5))),
        (special.mittag_leffler, (np.float64(0.7), np.float32(-0.5))),
        (fixed_memory_bound, (np.float32(1.5), np.int64(3), np.float64(0.75), np.float32(0.3))),
        (adaptive_bound, (np.float64(2.0), np.float32(0.125), np.int64(4), np.int64(3), np.float64(0.4))),
        (interval_error_term, (np.float64(2.0), np.int64(0), np.float32(0.5), np.float64(0.5))),
        (analytic_creep, (np.float32(0.75), CREEP)),
        (lambda t, dt: gl_history(GL_TIMES, GL_VALUES, t, 0.5, dt), (0.375, np.float32(0.125))),
        (lambda dt: evaluate_gl([0.0, 0.5, 1.0], [0.0, 1.0, 4.0], np.float32(0.5), dt), (np.float32(0.5),)),
        (lambda v: check_finite("width", v), (np.float32(-0.1),)),
        (lambda v: check_nonnegative("width", v), (np.float32(0.1),)),
    ], ids=["time_grid-f32", "time_grid-f64", "ml-f32-order", "ml-f32-arg", "fixed-bound", "adaptive-bound",
            "interval", "creep", "gl_history-dt", "evaluate_gl", "check_finite", "check_nonnegative"])
    def test_numpy_scalars_pass_real_as_their_floats(self, call, args):
        def bits(result):
            if isinstance(result, list):
                return [bits(part) for part in result]
            if isinstance(result, tuple):
                return tuple(bits(part) for part in result)
            if hasattr(result, "__next__"):
                return [bits(t) for t in result]
            assert type(result) is float
            return np.float64(result).tobytes()

        # each numpy scalar as the equal Python int or float
        plain = [arg.item() if isinstance(arg, np.generic) else arg for arg in args]
        assert bits(call(*args)) == bits(call(*plain))

    @pytest.mark.parametrize("call", [
        order_value, lambda v: check_positive("width", v), MemoryPolicy.fixed,
        lambda v: special.mittag_leffler(v, -1.0), lambda v: time_grid(v, 0.5),
    ], ids=["order_value", "check_positive", "policy", "mittag_leffler", "time_grid"])
    def test_real_refuses_a_numpy_bool(self, call):
        with pytest.raises(TypeError, match=re.escape("must be a real number, got np.True_")):
            call(np.True_)

    def test_the_real_number_rule_has_one_home(self):
        # core.real decides what a real number is; a module that imports
        # numbers would be deciding it again
        src = Path(special.__file__).parent
        importers = sorted(
            path.name
            for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"
        )
        assert importers == ["core.py"]

    @pytest.mark.parametrize("value, least, message", [
        (0, 1, "n must be >= 1, got 0"),
        (-1, 0, "n must be >= 0, got -1"),
        (2.5, 1, "n must be an integer, got 2.5"),
        (2.0, 1, "n must be an integer, got 2.0"),
        (math.nan, 0, "n must be an integer, got nan"),
        ("3", 1, "n must be an integer, got 3"),
        (True, 1, "n must be an integer, got True"),
        (False, 0, "n must be an integer, got False"),
    ], ids=["below-one", "below-zero", "fraction", "integral-float", "nan", "string", "true", "false"])
    def test_check_count_names_the_parameter(self, value, least, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_count("n", value, least)

    @pytest.mark.parametrize("value, least", [(1, 1), (0, 0), (np.int64(5), 1), (10**30, 0)])
    def test_check_count_accepts_whole_numbers_from_least(self, value, least):
        check_count("n", value, least)

    def test_check_count_caps_from_above(self):
        check_count("n", 7, 0, 7)
        with pytest.raises(ValueError, match=re.escape("n must be <= 7, got 8")):
            check_count("n", 8, 0, 7)

    @pytest.mark.parametrize("dt", [0.1, 0.01, 0.001, 0.05, 0.02, 0.2])
    def test_grid_steps_counts_decimal_horizons(self, dt):
        # n * dt as i * dt and as the decimal a user types; near n = 10^7
        # x / dt misses n by over 1e-9 for 1408 of these 12000 decimals
        for n in chain(range(1, 100), range(10**7, 10**7 + 2000), [10**8 - 1, 10**8]):
            assert grid_steps(n * dt, dt) == n
            assert grid_steps(float(Decimal(n) * Decimal(str(dt))), dt) == n

    def test_grid_steps_counts_zero_and_negative_steps(self):
        assert grid_steps(0.0, 0.1) == 0
        assert grid_steps(-0.3, 0.1) == -3

    @pytest.mark.parametrize("x, step", [
        ((3 + 1e-6) * 0.1, 0.1),
        ((99 - 1e-6) * 0.01, 0.01),
        (1e-6 * 0.1, 0.1),
        (0.25, 0.1),
        (math.inf, 0.1),
        (-math.inf, 0.1),
        (math.nan, 0.1),
        (1e300, 1e-300),
    ], ids=["above-3", "below-99", "above-0", "half-step", "inf", "-inf", "nan", "overflow"])
    def test_grid_steps_is_none_off_the_grid(self, x, step):
        assert grid_steps(x, step) is None

    def test_weight_triple_ordering(self):
        assert caputo_weight(2.0, 0.5, 1.0, 0.5) == pytest.approx(
            quad_weight(2.0, 0.5, 1.0, 0.5), rel=1e-12
        )
        with pytest.raises(ValueError, match="t_k <= t_k1 <= t_n"):
            caputo_weight(2.0, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="t_k <= t_k1 <= t_n"):
            caputo_weight(2.0, 0.5, 2.5, 0.5)

    def test_evaluate_needs_two_points(self):
        with pytest.raises(ValueError):
            evaluate_caputo([1.0], [1.0], 0.5)

    def test_evaluate_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            evaluate_caputo([0.0, 2.0, 1.0], [0.0, 2.0, 1.0], 0.5)

    def test_history_needs_t_n_after_last_time(self):
        for t_n in (1.0, 0.5):
            with pytest.raises(ValueError, match="after the last history time"):
                l1_history(np.array([0.0, 1.0]), np.array([0.0, 1.0]), t_n, 0.5)


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
        total = float(np.sum(caputo_weights(t_n, times[:-1], times[1:], alpha)))
        assert total == pytest.approx(expect, rel=1e-12, abs=1e-12)

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


    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_history_operator_repeats_pairwise_weights_bitwise(self, alpha):
        # one power per stored point gives the bits of two powers per interval
        rng = np.random.default_rng(7)
        times = np.cumsum(rng.uniform(0.001, 0.1, 500))
        values = rng.normal(size=500)
        t_n = times[-1] + 0.01
        gamma = math.gamma(1.0 - alpha)
        c, h = l1_history(times, values, t_n, alpha)
        assert c == caputo_weight(t_n, times[-1], t_n, alpha) / (gamma * (t_n - times[-1]))
        coeff = caputo_weights(t_n, times[:-1], times[1:], alpha) / np.diff(times)
        assert h == float(coeff @ np.diff(values)) / gamma


class TestWeightedRows:
    # one block: 8192 scalar rows, or 2^18 // 99 = 2647 rows of 99
    @pytest.mark.parametrize("shape", [(8192,), (2647, 99)], ids=["dot", "matvec"])
    def test_one_block_is_a_single_matmul(self, shape):
        rng = np.random.default_rng(7)
        w, rows = rng.normal(size=shape[0]), rng.normal(size=shape)
        assert np.array_equal(weighted_rows(w, rows), w @ rows)

    @pytest.mark.parametrize("shape", [(3 * 8192 + 5,), (6001, 99)], ids=["dot", "matvec"])
    def test_blocks_sum_to_the_contraction(self, shape):
        rng = np.random.default_rng(8)
        w, rows = rng.normal(size=shape[0]), rng.normal(size=shape)
        expect = [math.fsum(w * col) for col in rows.reshape(shape[0], -1).T]
        got = np.atleast_1d(weighted_rows(w, rows))
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)


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
