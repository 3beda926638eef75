"""Tridiagonal solver and the two application integrators."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmem import (
    DiffusionConfig,
    DiffusionSimulation,
    HistoryBuffer,
    KelvinVoigtConfig,
    KelvinVoigtSimulation,
    MemoryPolicy,
    PolicyKind,
    analytic_creep,
    analytic_diffusion,
    mittag_leffler,
)
from fracmem import solvers
from fracmem.core import caputo_weight, caputo_weights
from fracmem.memory import gl_weights
from fracmem.solvers import thomas_solve


def dense_solve(lower, diag, upper, rhs):
    """Oracle: assemble the full matrix and use the dense solver."""
    n = len(diag)
    A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    return np.linalg.solve(A, rhs)


class TestThomasSolver:
    def test_small_system_against_dense_oracle(self):
        lower = np.array([1.0, 2.0])
        diag = np.array([4.0, 5.0, 6.0])
        upper = np.array([1.5, 0.5])
        rhs = np.array([1.0, -2.0, 3.0])
        got = thomas_solve(lower, diag, upper, rhs)
        assert np.allclose(got, dense_solve(lower, diag, upper, rhs), atol=1e-12)

    def test_single_equation(self):
        got = thomas_solve(np.array([]), np.array([4.0]), np.array([]), np.array([2.0]))
        assert got == pytest.approx([0.5])

    @given(n=st.integers(2, 50), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_random_dominant_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        diag = 3.0 + rng.uniform(0.0, 1.0, n)  # strictly dominant
        rhs = rng.uniform(-5.0, 5.0, n)
        got = thomas_solve(lower, diag, upper, rhs)
        assert np.allclose(got, dense_solve(lower, diag, upper, rhs), atol=1e-12)

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            thomas_solve(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            thomas_solve(np.array([1.0]), np.array([1.0, 1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0, 1.0]))


class TestDiffusionSetup:
    def test_grid_and_initial_condition(self):
        cfg = DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5,
                              policy=MemoryPolicy.full())
        assert cfg.n_nodes == 101
        f0 = cfg.initial_field()
        assert f0[0] == pytest.approx(0.0)
        assert f0[-1] == pytest.approx(0.0, abs=1e-15)
        assert f0[50] == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["length", "dx", "dt", "mu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        kwargs = dict(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5, policy=MemoryPolicy.full())
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            DiffusionConfig(**kwargs)

    def test_counts_a_long_decimal_domain(self):
        # 1000000.2 / 0.1 misses 10000002 by more than 1e-9 and is accepted
        # by the relative rule of core.grid_steps
        cfg = DiffusionConfig(length=1000000.2, dx=0.1, dt=0.01, mu=1.0, alpha=0.5,
                              policy=MemoryPolicy.full())
        assert cfg.n_nodes == 10_000_003

    def test_rejects_incommensurate_grid(self):
        with pytest.raises(ValueError):
            DiffusionConfig(length=1.0, dx=0.3, dt=0.01, mu=1.0, alpha=0.5,
                            policy=MemoryPolicy.full())

    @pytest.mark.parametrize("length, dx", [(1.01, 0.01), (10.0, 10.0 / 3.0), (0.3, 0.1)])
    def test_rejects_an_odd_number_of_intervals(self, length, dx):
        # the benchmark records the node at length / 2, which must be a node
        message = f"domain length {length} with dx={dx} is an odd number of intervals"
        with pytest.raises(ValueError, match=re.escape(message)):
            DiffusionConfig(length=length, dx=dx, dt=0.01, mu=1.0, alpha=0.5,
                            policy=MemoryPolicy.full())

    def test_rejects_grid_without_interior_node(self):
        with pytest.raises(ValueError, match="length 10.0 with dx=10.0 leaves no interior node"):
            DiffusionConfig(length=10.0, dx=10.0, dt=0.01, mu=1.0, alpha=0.5,
                            policy=MemoryPolicy.full())

    def test_rejects_fixed_window_shorter_than_step(self):
        with pytest.raises(ValueError, match="fixed memory_length=0.001 is shorter than dt=0.01"):
            DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5,
                            policy=MemoryPolicy.fixed(0.001))

    def test_single_interior_node_steps(self):
        sim = DiffusionSimulation(DiffusionConfig(length=10.0, dx=5.0, dt=0.01, mu=1.0,
                                                  alpha=0.5, policy=MemoryPolicy.full()))
        sim.step(0.01)
        assert sim.field.shape == (3,)
        assert 0.0 < sim.midpoint_value < 1.0

    def test_analytic_solution_examples(self):
        cfg = DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=(10.0 / math.pi) ** 2,
                              alpha=0.5, policy=MemoryPolicy.full())
        # with mu = (L/pi)^2 the decay rate is exactly 1
        mid = analytic_diffusion(5.0, 4.0, cfg)
        assert float(mid) == pytest.approx(mittag_leffler(0.5, -2.0), rel=1e-12)
        assert float(analytic_diffusion(0.0, 4.0, cfg)) == pytest.approx(0.0, abs=1e-15)

    def test_analytic_solution_classical_limit(self):
        cfg = DiffusionConfig(length=math.pi, dx=math.pi / 10, dt=0.01, mu=1.0,
                              alpha=1.0 - 1e-12, policy=MemoryPolicy.full())
        got = float(analytic_diffusion(math.pi / 2.0, 1.0, cfg))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-6)


class TestDiffusionStepping:
    def make_sim(self, policy, dt=0.05, alpha=0.5):
        cfg = DiffusionConfig(length=10.0, dx=0.1, dt=dt, mu=(10.0 / math.pi) ** 2,
                              alpha=alpha, policy=policy)
        return DiffusionSimulation(cfg)

    def test_full_memory_tracks_analytic_solution(self):
        sim = self.make_sim(MemoryPolicy.full(), dt=0.01)
        for i in range(1, 101):
            sim.step(i * sim.config.dt)
        expect = float(analytic_diffusion(5.0, sim.t, sim.config))
        assert sim.midpoint_value == pytest.approx(expect, abs=2e-3)

    def test_boundary_values_stay_zero(self):
        sim = self.make_sim(MemoryPolicy.adaptive_present(0.5))
        for i in range(1, 41):
            sim.step(i * sim.config.dt)
        assert sim.field[0] == 0.0
        assert sim.field[-1] == 0.0

    def test_field_stays_symmetric(self):
        sim = self.make_sim(MemoryPolicy.adaptive_present(0.5))
        for i in range(1, 61):
            sim.step(i * sim.config.dt)
        assert np.allclose(sim.field, sim.field[::-1], atol=1e-12)

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.5),
        MemoryPolicy.adaptive_present(0.5),
        MemoryPolicy.adaptive_gl(0.5),
    ], ids=["full", "fixed", "present", "gl"])
    def test_sup_norm_never_increases(self, policy):
        sim = self.make_sim(policy, dt=0.05)
        prev = float(np.max(np.abs(sim.field)))
        for i in range(1, 201):
            sim.step(i * sim.config.dt)
            cur = float(np.max(np.abs(sim.field)))
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur

    def test_second_order_in_space_near_classical_limit(self):
        # alpha close to 1 with a one-step memory reduces to backward Euler
        # diffusion; halving dx must shrink the spatial error about 4x
        errors = []
        for dx in (0.5, 0.25):
            cfg = DiffusionConfig(length=10.0, dx=dx, dt=1e-4, mu=(10.0 / math.pi) ** 2,
                                  alpha=1.0 - 1e-10, policy=MemoryPolicy.fixed(1e-4))
            sim = DiffusionSimulation(cfg)
            for i in range(1, 1001):
                sim.step(i * cfg.dt)
            exact = analytic_diffusion(cfg.grid(), sim.t, cfg)
            errors.append(float(np.max(np.abs(sim.field - exact))))
        assert errors[1] < errors[0] / 2.5

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.adaptive_present(0.2),
    ], ids=["full", "present"])
    def test_later_steps_leave_earlier_states_and_stored_rows_alone(self, policy):
        # the solve refills one diagonal pair that dptsv overwrites every
        # step; no state returned or row stored may share memory with it
        sim = self.make_sim(policy)
        states = [sim.step(i * sim.config.dt) for i in range(1, 61)]
        copies = [state.copy() for state in states]
        for i in range(61, 121):
            sim.step(i * sim.config.dt)
        for state, copy in zip(states, copies):
            assert state.tobytes() == copy.tobytes()
        rows = sim.buffer.values()
        checked = 0
        for t, row in zip(sim.buffer.times(), rows):
            k = round(t / sim.config.dt)
            if 1 <= k <= 60:
                assert row.tobytes() == copies[k - 1].tobytes()
                checked += 1
        assert checked >= (60 if policy.kind is PolicyKind.FULL else 3)
        assert rows[-1].tobytes() == sim.field[1:-1].tobytes()

    def test_gl_full_agrees_with_exact_weights_at_unit_time(self):
        l1 = self.make_sim(MemoryPolicy.full(), dt=0.01)
        gl = self.make_sim(MemoryPolicy.adaptive_gl(100.0), dt=0.01)
        for i in range(1, 101):
            l1.step(i * l1.config.dt)
            gl.step(i * gl.config.dt)
        assert gl.midpoint_value == pytest.approx(l1.midpoint_value, abs=1e-2)


class ReferenceDiffusion:
    """Oracle stepper: the Thomas solve and the difference-form history
    contractions, on its own buffer."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.gamma = math.gamma(1.0 - cfg.alpha)
        self.buffer = HistoryBuffer(cfg.policy)
        self.field = cfg.initial_field()
        self.buffer.push(0.0, self.field.copy())
        self.steps = 0

    def step(self):
        cfg, a = self.cfg, self.cfg.alpha
        self.steps += 1
        t_new = self.steps * cfg.dt
        times = self.buffer.times()
        vals = self.buffer.values()[:, 1:-1]
        if cfg.policy.kind is PolicyKind.ADAPTIVE_GL:
            f0 = cfg.initial_field()[1:-1]
            r = cfg.mu * cfg.dt**a / cfg.dx**2
            rhs = f0.copy()
            if times.size > 1:
                lags = self.steps - np.rint(times[1:] / cfg.dt).astype(int)
                w = gl_weights(int(lags.max()), a)[lags]
                rhs -= (w * np.diff(times) / cfg.dt) @ (vals[1:] - f0)
            diag = 1.0 + 2.0 * r
        else:
            w_new = caputo_weight(t_new, times[-1], t_new, a)
            dt_n = t_new - times[-1]
            r = cfg.mu * dt_n / cfg.dx**2
            hist = 0.0
            if times.size > 1:
                coeff = caputo_weights(t_new, times[:-1], times[1:], a) / np.diff(times)
                hist = coeff @ np.diff(vals, axis=0) / self.gamma
            rhs = w_new / self.gamma * vals[-1] - dt_n * hist
            diag = w_new / self.gamma + 2.0 * r
        n = rhs.size
        off = np.full(n - 1, -r)
        self.field = np.zeros_like(self.field)
        self.field[1:-1] = thomas_solve(off, np.full(n, diag), off, rhs)
        self.buffer.push(t_new, self.field.copy())


class TestDiffusionAgainstReference:
    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.1),
        MemoryPolicy.adaptive_present(0.1),
        MemoryPolicy.adaptive_gl(0.1),
    ], ids=["full", "fixed", "present", "gl"])
    def test_every_field_matches_thomas_reference(self, policy):
        cfg = DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=(10.0 / math.pi) ** 2,
                              alpha=0.5, policy=policy)
        sim = DiffusionSimulation(cfg)
        ref = ReferenceDiffusion(cfg)
        for i in range(1, 301):
            sim.step(i * cfg.dt)
            ref.step()
            np.testing.assert_allclose(sim.field, ref.field, rtol=1e-12, atol=0.0)
        assert sim.buffer.count_stored() == ref.buffer.count_stored()
        # the history holds the unknowns only, not the boundary nodes
        assert sim.buffer.values().shape == (sim.buffer.count_stored(), cfg.n_nodes - 2)
        if policy.kind is not PolicyKind.FULL:
            assert sim.buffer.count_stored() < 301

    def test_dptsv_of_an_imported_scipy_linalg_is_used_as_it_is(self, monkeypatch):
        from scipy.linalg.lapack import dptsv

        def no_second_load():
            raise AssertionError("searched for the LAPACK extension again")

        monkeypatch.setattr(solvers, "_flapack_spec", no_second_load)
        assert solvers._lapack_dptsv() is dptsv

    def test_failed_solve_names_step_and_time(self, monkeypatch):
        # a negated diagonal is not positive definite, so LAPACK rejects it
        real = solvers._lapack_dptsv()
        monkeypatch.setattr(
            solvers, "_lapack_dptsv", lambda: lambda d, e, b, **kw: real(-d, e, b, **kw)
        )
        cfg = DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5,
                              policy=MemoryPolicy.full())
        sim = DiffusionSimulation(cfg)
        with pytest.raises(np.linalg.LinAlgError, match=r"step 1 \(t=0\.01\).*info=1"):
            sim.step(0.01)
        assert sim.t == 0.0
        assert sim.buffer.count_stored() == 1


    def test_non_finite_field_names_step_and_time(self, monkeypatch):
        real = solvers._lapack_dptsv()
        calls = []

        def nan_on_second_solve(d, e, b, **kw):
            d, e, x, info = real(d, e, b, **kw)
            calls.append(None)
            if len(calls) == 2:
                x[x.size // 2] = math.nan
            return d, e, x, info

        monkeypatch.setattr(solvers, "_lapack_dptsv", lambda: nan_on_second_solve)
        cfg = DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5,
                              policy=MemoryPolicy.full())
        sim = DiffusionSimulation(cfg)
        sim.step(0.01)
        with pytest.raises(ValueError, match=r"non-finite state at step 2 \(t=0\.02\)"):
            sim.step(0.02)
        assert sim.t == 0.01
        assert sim.buffer.count_stored() == 2
        assert np.all(np.isfinite(sim.field))


class ReferenceKelvinVoigt:
    """Oracle stepper: the difference-form L1 contraction and the rescaled GL
    sum with the newest weight kept apart, on its own buffer."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.gamma = math.gamma(1.0 - cfg.alpha)
        self.buffer = HistoryBuffer(cfg.policy)
        self.x = 0.0
        self.buffer.push(0.0, 0.0)
        self.steps = 0

    def step(self):
        cfg, a = self.cfg, self.cfg.alpha
        self.steps += 1
        t_new = self.steps * cfg.dt
        times = self.buffer.times()
        xs = self.buffer.values()
        hist = 0.0
        if cfg.policy.kind is PolicyKind.ADAPTIVE_GL:
            d = cfg.dt ** (-a)
            if times.size > 1:
                lags = self.steps - np.rint(times[1:] / cfg.dt).astype(int)
                w = gl_weights(int(lags.max()), a)[lags]
                hist = float((w * np.diff(times) / cfg.dt) @ xs[1:])
            self.x = (cfg.load - cfg.eta * d * hist) / (cfg.eta * d + cfg.k)
        else:
            dt_n = t_new - times[-1]
            if times.size > 1:
                coeff = caputo_weights(t_new, times[:-1], times[1:], a) / np.diff(times)
                hist = float(coeff @ np.diff(xs)) / self.gamma
            c = caputo_weight(t_new, times[-1], t_new, a) / (self.gamma * dt_n)
            self.x = (cfg.load - cfg.eta * hist + cfg.eta * c * self.x) / (cfg.eta * c + cfg.k)
        self.buffer.push(t_new, self.x)


class TestKelvinVoigtAgainstReference:
    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.1),
        MemoryPolicy.adaptive_present(0.1),
        MemoryPolicy.adaptive_gl(0.1),
    ], ids=["full", "fixed", "present", "gl"])
    def test_every_step_matches_reference(self, policy):
        # L1 must repeat the reference bit for bit (the frozen creep CSV
        # compares 17 digits); GL may differ by rounding
        cfg = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.7, dt=0.01, policy=policy)
        sim = KelvinVoigtSimulation(cfg)
        ref = ReferenceKelvinVoigt(cfg)
        got, want = [], []
        for i in range(1, 301):
            got.append(sim.step(i * cfg.dt))
            ref.step()
            want.append(ref.x)
        if policy.kind is PolicyKind.ADAPTIVE_GL:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        else:
            np.testing.assert_array_equal(got, want)
        assert sim.buffer.count_stored() == ref.buffer.count_stored()
        if policy.kind is not PolicyKind.FULL:
            assert sim.buffer.count_stored() < 301


class TestKelvinVoigt:
    def make_cfg(self, policy, alpha=0.5, dt=0.01):
        return KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=alpha, dt=dt, policy=policy)

    def test_analytic_creep_limits(self):
        cfg = self.make_cfg(MemoryPolicy.full())
        assert analytic_creep(0.0, cfg) == 0.0
        # saturates toward load / spring constant
        assert analytic_creep(1e6, cfg) == pytest.approx(1.0, abs=1e-2)

    def test_analytic_creep_classical_limit(self):
        cfg = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=1.0 - 1e-12, dt=0.01,
                                policy=MemoryPolicy.full())
        assert analytic_creep(2.0, cfg) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-6)

    def test_full_memory_tracks_analytic_solution(self):
        # the creep curve has unbounded slope at t=0, so the first steps
        # carry an O(dt^alpha) startup error; judge accuracy past it
        sim = KelvinVoigtSimulation(self.make_cfg(MemoryPolicy.full()))
        worst = 0.0
        for i in range(1, 801):
            sim.step(i * sim.config.dt)
            if sim.t >= 0.5:
                worst = max(worst, abs(sim.x - analytic_creep(sim.t, sim.config)))
        assert worst < 2e-3

    def test_elongation_monotone_and_bounded(self):
        sim = KelvinVoigtSimulation(self.make_cfg(MemoryPolicy.adaptive_present(1.0)))
        prev = 0.0
        for i in range(1, 501):
            sim.step(i * sim.config.dt)
            assert prev <= sim.x + 1e-12
            assert sim.x <= 1.0
            prev = sim.x

    def test_gl_policy_runs_and_stays_close(self):
        sim = KelvinVoigtSimulation(self.make_cfg(MemoryPolicy.adaptive_gl(1.0)))
        for i in range(1, 401):
            sim.step(i * sim.config.dt)
        expect = analytic_creep(sim.t, sim.config)
        assert sim.x == pytest.approx(expect, abs=5e-2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_state_names_step_and_time(self):
        # x = load / (eta * c + k) overflows on the first step, in float
        # arithmetic that warns of nothing
        cfg = KelvinVoigtConfig(eta=1e-300, k=1e-300, load=1e300, alpha=0.5, dt=0.01,
                                policy=MemoryPolicy.full())
        sim = KelvinVoigtSimulation(cfg)
        with pytest.raises(ValueError, match=r"non-finite state at step 1 \(t=0\.01\)"):
            sim.step(0.01)
        assert (sim.t, sim.x) == (0.0, 0.0)
        assert sim.buffer.count_stored() == 1

    def test_rejects_fixed_window_shorter_than_step(self):
        # the window would keep one stored point: no history
        with pytest.raises(ValueError, match="fixed memory_length=0.001 is shorter than dt=0.01"):
            self.make_cfg(MemoryPolicy.fixed(0.001))

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            KelvinVoigtConfig(eta=0.0, k=1.0, load=1.0, alpha=0.5, dt=0.01,
                              policy=MemoryPolicy.full())

    @pytest.mark.parametrize("field", ["eta", "k", "load", "dt"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        kwargs = dict(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01, policy=MemoryPolicy.full())
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            KelvinVoigtConfig(**kwargs)


class TestStepTime:
    def make_sims(self, policy):
        diffusion = DiffusionConfig(length=10.0, dx=0.5, dt=0.01, mu=1.0, alpha=0.5, policy=policy)
        creep = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01, policy=policy)
        return DiffusionSimulation(diffusion), KelvinVoigtSimulation(creep)

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.1),
        MemoryPolicy.adaptive_present(0.1),
        MemoryPolicy.adaptive_gl(0.1),
    ], ids=["full", "fixed", "present", "gl"])
    @pytest.mark.parametrize("t", [0.01, 0.005, math.nan, math.inf], ids=["equal", "earlier", "nan", "inf"])
    def test_rejects_a_time_not_after_the_current_one(self, policy, t):
        for sim in self.make_sims(policy):
            sim.step(0.01)
            state, stored = np.copy(sim._state), sim.buffer.count_stored()
            message = re.escape(f"t_n={t} must be finite and after the last history time 0.01")
            with pytest.raises(ValueError, match=message):
                sim.step(t)
            assert sim.t == 0.01
            assert np.array_equal(sim._state, state)
            assert sim.buffer.count_stored() == stored

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(), MemoryPolicy.fixed(0.1), MemoryPolicy.adaptive_present(0.1),
    ], ids=["full", "fixed", "present"])
    def test_l1_policies_step_to_any_later_time(self, policy):
        # the L1 weights are exact on any grid, so the steps need not be dt
        for sim in self.make_sims(policy):
            for t in (0.003, 0.01, 0.025, 0.5):
                sim.step(t)
                assert sim.t == t
            assert list(sim.buffer.times())[-1] == 0.5

    def test_gl_policy_rejects_a_time_off_its_grid(self):
        for sim in self.make_sims(MemoryPolicy.adaptive_gl(0.1)):
            sim.step(0.01)
            with pytest.raises(ValueError, match="t_n=0.015 does not sit on the uniform base grid"):
                sim.step(0.015)
            assert sim.t == 0.01
            assert sim.buffer.count_stored() == 2


class TestParameterChecks:
    @pytest.mark.parametrize("field", ["length", "dx", "dt", "mu"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_diffusion_config_names_the_bad_parameter(self, field, bad):
        kwargs = dict(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5, policy=MemoryPolicy.full())
        kwargs[field] = bad
        with pytest.raises(ValueError, match=re.escape(f"{field} must be positive and finite, got {bad}")):
            DiffusionConfig(**kwargs)

    @pytest.mark.parametrize("field", ["eta", "k", "load", "dt"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_kelvin_voigt_config_names_the_bad_parameter(self, field, bad):
        kwargs = dict(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01, policy=MemoryPolicy.full())
        kwargs[field] = bad
        with pytest.raises(ValueError, match=re.escape(f"{field} must be positive and finite, got {bad}")):
            KelvinVoigtConfig(**kwargs)

    @pytest.mark.parametrize("t", [-1.0, -math.inf, math.nan, math.inf])
    def test_analytic_solutions_reject_a_bad_time(self, t):
        diffusion = DiffusionConfig(length=10.0, dx=0.1, dt=0.01, mu=1.0, alpha=0.5,
                                    policy=MemoryPolicy.full())
        creep = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01,
                                  policy=MemoryPolicy.full())
        message = re.escape(f"t must be non-negative and finite, got {t}")
        with pytest.raises(ValueError, match=message):
            analytic_diffusion(5.0, t, diffusion)
        with pytest.raises(ValueError, match=message):
            analytic_creep(t, creep)
