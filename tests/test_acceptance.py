"""End-to-end acceptance checks for the memory-policy library.

Each test covers one published behavior of the adaptive memory method and
prints a single PASS/FAIL line with the measured numbers.  Expensive
simulations are shared through session-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from fracmem import (
    HistoryBuffer,
    MemoryPolicy,
    evaluate_caputo,
    fit_loglog_slope,
    fixed_memory_bound,
    mittag_leffler,
    thomas_solve,
    weight_sum,
)
from fracmem.analysis import adaptive_bound, interval_error_term, op_count
from fracmem.experiments import (
    accumulated_conv_terms,
    matched_fixed_policy,
    retention_count,
    run_derivative_error,
    run_diffusion,
    run_kelvin_voigt,
)
from fracmem.memory import PolicyKind
from fracmem.solvers import DiffusionConfig, DiffusionSimulation

ALPHAS = (0.1, 0.5, 0.9)
DTS = (0.02, 0.01, 0.005, 0.0025)
EARLY_T_END = 2.0**5
LATE_T_END = 2.0**12
BOUND_SLACK = 1.0 + 1e-8  # the bounds are identities for polynomial inputs


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")


def final_error_slope(runs, alpha):
    pts = [(dt, runs[(alpha, dt)][-1].abs_error) for dt in DTS]
    return fit_loglog_slope(pts)


def alpha_sweep(policy, t_end):
    """Records per (alpha, dt): one push stream per dt serves every alpha."""
    runs = {}
    for dt in DTS:
        sweep = run_derivative_error(policy, ALPHAS, dt, t_end, n_records=16)
        runs.update(((a, dt), recs) for a, recs in zip(ALPHAS, sweep))
    return runs


@pytest.fixture(scope="session")
def early_runs():
    """Quadratic test function under the present adaptive policy, T=1."""
    return alpha_sweep(MemoryPolicy.adaptive_present(1.0), EARLY_T_END)


@pytest.fixture(scope="session")
def late_runs():
    """Same sweep continued to the late-time horizon."""
    return alpha_sweep(MemoryPolicy.adaptive_present(1.0), LATE_T_END)


@pytest.fixture(scope="session")
def fixed_runs():
    """Linear test function under the fixed one-second window."""
    return alpha_sweep(MemoryPolicy.fixed(1.0), 2.0**10)


def test_early_time_order_of_accuracy(early_runs):
    """Error versus step size at t=2^5 follows dt^(2-alpha)."""
    slopes = {a: final_error_slope(early_runs, a) for a in ALPHAS}
    deltas = {a: abs(slopes[a] - (2.0 - a)) for a in ALPHAS}
    ok = all(d <= 0.15 for d in deltas.values())
    report(
        "early-time order of accuracy",
        ok,
        "slopes " + ", ".join(f"alpha={a}: {s:.3f} (want {2 - a:.1f}+-0.15)" for a, s in slopes.items()),
    )
    for a in ALPHAS:
        assert deltas[a] <= 0.15, (
            f"alpha={a}: slope {slopes[a]:.4f} outside {2 - a:.1f}+-0.15; the error "
            "equals the tight analytic bound, so this slope is forced by the "
            "configuration (see the coarsened-subset floor in the bound)"
        )


def test_late_time_order_transition(early_runs, late_runs):
    """By t=2^12 the observed order drifts from 2-alpha toward 2."""
    late = {a: final_error_slope(late_runs, a) for a in (0.5, 0.9)}
    early = {a: final_error_slope(early_runs, a) for a in (0.5, 0.9)}
    grows = all(late[a] > early[a] for a in (0.5, 0.9))
    steep = late[0.9] >= 1.8
    report(
        "late-time order transition",
        grows and steep,
        f"late slopes 0.5: {late[0.5]:.3f}, 0.9: {late[0.9]:.3f} "
        f"(early {early[0.5]:.3f}, {early[0.9]:.3f}; alpha=0.9 needs >= 1.8)",
    )
    for a in (0.5, 0.9):
        assert late[a] > early[a]
    assert steep, (
        f"alpha=0.9 late-time slope {late[0.9]:.4f} < 1.8 at t_end=2^12; the tight "
        "bound gives 1.81 only at t_end=2^14 and 1.90 at 2^15, so this horizon "
        "cannot reach the required slope"
    )


def test_fixed_memory_zeroth_order(fixed_runs):
    """Fixed-window error is independent of the step size."""
    slopes = {a: final_error_slope(fixed_runs, a) for a in ALPHAS}
    ok = all(abs(s) <= 0.1 for s in slopes.values())
    report(
        "fixed-memory zeroth order",
        ok,
        "slopes " + ", ".join(f"alpha={a}: {s:.2e}" for a, s in slopes.items()),
    )
    for a in ALPHAS:
        assert abs(slopes[a]) <= 0.1


def test_error_growth_exponents():
    """Error versus time grows like t^(2-alpha) (adaptive) and t^(1-alpha)
    (fixed window)."""
    present_slopes = {}
    sweep = run_derivative_error(
        MemoryPolicy.adaptive_present(1.0), ALPHAS, 0.2, 2.0**15, n_records=16
    )
    for a, recs in zip(ALPHAS, sweep):
        pts = [(r.t, r.abs_error) for r in recs if r.t >= 2.0**11
               and abs(math.log2(r.t) - round(math.log2(r.t))) < 1e-9]
        present_slopes[a] = fit_loglog_slope(pts)
    fixed_slopes = {}
    sweep = run_derivative_error(
        MemoryPolicy.fixed(0.2), ALPHAS, 0.1, 2.0**14, n_records=64
    )
    for a, recs in zip(ALPHAS, sweep):
        pts = [(r.t, r.abs_error) for r in recs if r.t >= 2.0**8
               and abs(math.log2(r.t) - round(math.log2(r.t))) < 1e-9]
        fixed_slopes[a] = fit_loglog_slope(pts)
    ok = all(abs(present_slopes[a] - (2.0 - a)) <= 0.15 for a in ALPHAS) and all(
        abs(fixed_slopes[a] - (1.0 - a)) <= 0.15 for a in ALPHAS
    )
    report(
        "error-growth exponents",
        ok,
        "adaptive " + ", ".join(f"{a}: {present_slopes[a]:.3f}" for a in ALPHAS)
        + "; fixed " + ", ".join(f"{a}: {fixed_slopes[a]:.3f}" for a in ALPHAS),
    )
    for a in ALPHAS:
        assert abs(present_slopes[a] - (2.0 - a)) <= 0.15
        assert abs(fixed_slopes[a] - (1.0 - a)) <= 0.15


def test_error_bounds_hold(early_runs, late_runs, fixed_runs):
    """Measured errors never exceed the analytic bounds.

    The adaptive bound is stated for the freshly coarsened layout reached
    at memory-doubling times, so it is checked at the recorded doubling
    times (where it is in fact an identity for a quadratic input).
    """
    worst = 0.0
    for (a, dt), recs in list(early_runs.items()) + list(late_runs.items()):
        m = round(1.0 / dt)
        for r in recs:
            level = math.log2(r.t)
            if abs(level - round(level)) > 1e-9:
                continue
            bound = adaptive_bound(2.0, dt, m, max(0, round(level)), a)
            # the measured error carries the summation noise of the
            # evaluation itself, so allow that floor on top of the bound
            floor = 1e-10 * abs(r.analytic)
            worst = max(worst, (r.abs_error - floor) / bound)
    fixed_worst = 0.0
    for (a, dt), recs in fixed_runs.items():
        for r in recs:
            if r.t > 1.0:
                bound = fixed_memory_bound(1.0, r.t, 1.0, a)
                fixed_worst = max(fixed_worst, r.abs_error / bound)
    ok = worst <= BOUND_SLACK and fixed_worst <= BOUND_SLACK
    report(
        "analytic error bounds",
        ok,
        f"worst measured/bound ratios: adaptive {worst:.12f}, fixed {fixed_worst:.12f}",
    )
    assert worst <= BOUND_SLACK
    assert fixed_worst <= BOUND_SLACK


def test_coefficient_power_law():
    """The per-subset coefficient sum decays like m^(-alpha) inside its
    analytic bracket."""
    from fracmem import b_approx_bracket, b_func

    ms = (50, 100, 200, 400, 800)
    ok = True
    details = []
    for a in ALPHAS:
        slope = fit_loglog_slope([(m, b_func(m, a)) for m in ms])
        inside = all(
            b_approx_bracket(m, a)[0] < b_func(m, a) < b_approx_bracket(m, a)[1]
            for m in ms
        )
        ok = ok and abs(slope + a) <= 0.05 and inside
        details.append(f"alpha={a}: slope {slope:.3f} (want {-a}), bracket {inside}")
    report("coefficient power law", ok, "; ".join(details))
    assert ok


@pytest.fixture(scope="session")
def diffusion_runs():
    alpha, dt, T = 0.5, 0.01, 0.1
    full_short, full_summary = run_diffusion(MemoryPolicy.full(), alpha, dt, 12.8, n_records=16)
    truncated_long = {}
    fixed_long = matched_fixed_policy(T, dt, 102.4)
    for name, policy in (
        ("present", MemoryPolicy.adaptive_present(T)),
        ("gl", MemoryPolicy.adaptive_gl(T)),
        ("fixed", fixed_long),
    ):
        truncated_long[name], _ = run_diffusion(policy, alpha, dt, 102.4, n_records=16)
    return {
        "full_short": full_short,
        "long": truncated_long,
        "dt": dt,
        "T": T,
        "alpha": alpha,
    }


def test_diffusion_benchmark(diffusion_runs):
    """Sub-diffusion: memory footprint, accuracy, and error ordering."""
    dt, T = diffusion_runs["dt"], diffusion_runs["T"]
    full_count = retention_count(MemoryPolicy.full(), dt, 12.8)
    counts = {
        "fixed": retention_count(matched_fixed_policy(T, dt, 12.8), dt, 12.8),
        "present": retention_count(MemoryPolicy.adaptive_present(T), dt, 12.8),
        "gl": retention_count(MemoryPolicy.adaptive_gl(T), dt, 12.8),
    }
    frugal = all(c <= 0.10 * full_count for c in counts.values())
    final = {name: recs[-1].abs_error for name, recs in diffusion_runs["long"].items()}
    ordered = final["present"] < final["gl"] and final["present"] < final["fixed"]
    got_mid = diffusion_runs["full_short"][-1].value
    want_mid = mittag_leffler(0.5, -math.sqrt(12.8))
    accurate = abs(got_mid - want_mid) <= 5e-3
    ok = frugal and ordered and accurate
    report(
        "sub-diffusion benchmark",
        ok,
        f"stored {counts} of {full_count}; final errors {final['present']:.2e} (present) "
        f"< {final['gl']:.2e} (gl), {final['fixed']:.2e} (fixed); "
        f"midpoint {got_mid:.4f} vs {want_mid:.4f}",
    )
    assert frugal
    assert ordered
    assert accurate


def test_kelvin_voigt_benchmark():
    """Creep response: one-third memory footprint, accuracy, error ordering."""
    alpha, dt, T, t_end = 0.5, 0.01, 1.0, 16.0
    full_count = retention_count(MemoryPolicy.full(), dt, t_end)
    fixed = matched_fixed_policy(T, dt, t_end)
    counts = {
        "present": retention_count(MemoryPolicy.adaptive_present(T), dt, t_end),
        "gl": retention_count(MemoryPolicy.adaptive_gl(T), dt, t_end),
        "fixed": retention_count(fixed, dt, t_end),
    }
    third = all(abs(c / full_count - 1.0 / 3.0) <= 1.0 / 30.0 for c in counts.values())
    runs = {}
    for name, policy in (
        ("present", MemoryPolicy.adaptive_present(T)),
        ("gl", MemoryPolicy.adaptive_gl(T)),
        ("fixed", fixed),
    ):
        runs[name], _ = run_kelvin_voigt(policy, alpha, dt, t_end, n_records=64)
    present_worst = max(r.abs_error for r in runs["present"])
    accurate = present_worst <= 5e-3
    means = {
        name: float(np.mean([r.abs_error for r in recs if r.t > 2.0 * T]))
        for name, recs in runs.items()
    }
    ordered = means["present"] < means["gl"] < means["fixed"]
    ok = third and accurate and ordered
    report(
        "Kelvin-Voigt benchmark",
        ok,
        f"stored {counts} of {full_count} (want ~1/3); worst present error "
        f"{present_worst:.2e}; mean errors present {means['present']:.2e} "
        f"< gl {means['gl']:.2e} < fixed {means['fixed']:.2e}",
    )
    assert third
    assert accurate
    assert ordered


def test_cost_model_counts():
    """Instrumented convolution-term totals match the closed-form models."""
    m, dt = 10, 0.1
    T = m * dt
    ok = True
    details = []
    for L in (2, 3, 4):
        t_end = 2.0**L * T
        full = accumulated_conv_terms(MemoryPolicy.full(), dt, t_end)
        fixed = accumulated_conv_terms(MemoryPolicy.fixed(T), dt, t_end)
        present = accumulated_conv_terms(MemoryPolicy.adaptive_present(T), dt, t_end)
        full_ok = full == op_count(PolicyKind.FULL, m, L)
        fixed_ok = fixed == op_count(PolicyKind.FIXED, m, L)
        model = op_count(PolicyKind.ADAPTIVE_PRESENT, m, L)
        present_ok = abs(present - model) <= 0.10 * model
        ok = ok and full_ok and fixed_ok and present_ok
        details.append(f"L={L}: full {full} fixed {fixed} present {present}/{model}")
    report("cost model", ok, "; ".join(details))
    assert ok


def _linear_fit_r2(x, y):
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    total = y - np.mean(y)
    return 1.0 - float(resid @ resid) / float(total @ total)


def test_property_suite_and_cost_linearity():
    """Spot-check the core identities and the linear per-step cost."""
    rng = np.random.default_rng(20240817)

    # weight telescoping on a random partition
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, 30))])
    tele = abs(weight_sum(times, 0.5) - times[-1] ** 0.5 / 0.5)
    assert tele < 1e-12

    # exactness on an affine function
    got = evaluate_caputo(times, 2.0 - 3.0 * times, 0.5)
    want = -3.0 * times[-1] ** 0.5 / math.gamma(1.5)
    affine = abs(got - want)
    assert affine < 1e-10 * abs(want)

    # positivity of the per-interval bound term on 10^4 random triples
    t_k = rng.uniform(0.0, 10.0, 10_000)
    width = rng.uniform(1e-6, 5.0, 10_000)
    tail = rng.uniform(0.0, 5.0, 10_000)
    orders = rng.uniform(0.01, 0.99, 10_000)
    positive = all(
        interval_error_term(tk + w + s, tk, tk + w, a) > 0.0
        for tk, w, s, a in zip(t_k, width, tail, orders)
    )
    assert positive

    # diffusion sup norm never increases over 10^3 steps, every policy
    sup_ok = True
    for policy in (
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.5),
        MemoryPolicy.adaptive_present(0.5),
        MemoryPolicy.adaptive_gl(0.5),
    ):
        cfg = DiffusionConfig(length=10.0, dx=0.2, dt=0.02, mu=(10.0 / math.pi) ** 2,
                              alpha=0.5, policy=policy)
        sim = DiffusionSimulation(cfg)
        prev = float(np.max(np.abs(sim.field)))
        for _ in range(1000):
            sim.step()
            cur = float(np.max(np.abs(sim.field)))
            sup_ok = sup_ok and cur <= prev * (1.0 + 1e-12)
            prev = cur
    assert sup_ok

    # special-function oracle identities
    from scipy.special import erfcx

    ml_err = max(
        abs(mittag_leffler(0.5, -x) - float(erfcx(x))) for x in np.linspace(0.0, 7.0, 29)
    )
    ml_exp = max(
        abs(mittag_leffler(1.0, z) - math.exp(z)) for z in np.linspace(-30.0, 0.0, 31)
    )
    assert ml_err < 1e-10
    assert ml_exp < 1e-10

    # tridiagonal solve against the dense oracle
    n = 40
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    dense = np.linalg.solve(
        np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1), rhs
    )
    thomas_err = float(np.max(np.abs(thomas_solve(lower, diag, upper, rhs) - dense)))
    assert thomas_err < 1e-12

    # evaluation cost is linear in the number of stored points; sizes sit
    # beyond cache capacity so every probe is memory-bound alike
    sizes = np.arange(500_000, 4_500_000, 500_000)
    timings = []
    for n_pts in sizes:
        ts = np.linspace(0.0, 1.0, n_pts)
        vals = ts**2
        best = math.inf
        for _ in range(5):
            tic = time.perf_counter()
            evaluate_caputo(ts, vals, 0.5)
            best = min(best, time.perf_counter() - tic)
        timings.append(best)
    r2 = _linear_fit_r2(sizes.astype(float), np.asarray(timings))
    linear = r2 >= 0.95
    report(
        "property suite and cost linearity",
        linear,
        f"telescoping {tele:.1e}, affine {affine:.1e}, positivity {positive}, "
        f"sup-norm {sup_ok}, ML oracles {ml_err:.1e}/{ml_exp:.1e}, "
        f"thomas {thomas_err:.1e}, cost R^2 {r2:.4f}",
    )
    assert linear
