"""Experiment runners: derivative error studies, order-of-accuracy sweeps,
the two application benchmarks, and the operation-count model.

Each runner produces deterministic per-step instrumentation rows; only the
wall-clock column varies between identical runs.  Wall clock measures the
stepping loop alone, not record assembly or I/O.  The derivative studies
push samples that do not depend on the order, so one push stream per time
grid serves every alpha of a sweep; sweeps run serially in one process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import fit_loglog_slope, op_count
from .core import order_value
from .memory import HistoryBuffer, MemoryPolicy, PolicyKind
from .solvers import (
    DiffusionConfig,
    DiffusionSimulation,
    KelvinVoigtConfig,
    KelvinVoigtSimulation,
    analytic_creep,
    analytic_diffusion,
)

__all__ = [
    "SimulationRecord",
    "run_derivative_error",
    "run_order_study",
    "run_diffusion",
    "run_kelvin_voigt",
    "run_cost_model",
    "retention_count",
    "matched_fixed_policy",
    "accumulated_conv_terms",
]


@dataclass(frozen=True)
class SimulationRecord:
    """One instrumentation row behind the benchmark figures."""

    t: float
    value: float
    analytic: float
    abs_error: float
    stored_points: int
    conv_terms: int
    wall_clock: float

    FIELDS = ("t", "value", "analytic", "abs_error", "stored_points", "conv_terms", "wall_clock")

    def __post_init__(self) -> None:
        for name in ("value", "analytic", "abs_error"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} {getattr(self, name)} at t={self.t}")


def _record_steps(n_total: int, n_records: int) -> set[int]:
    stride = max(1, n_total // max(n_records, 1))
    steps = set(range(stride, n_total + 1, stride))
    steps.add(n_total)
    return steps


def retention_count(policy: MemoryPolicy, dt: float, t_end: float) -> int:
    """Stored-point count of a policy after stepping to t_end; depends only
    on the time sequence, not on values."""
    buf = HistoryBuffer(policy)
    n_total = round(t_end / dt)
    for i in range(n_total + 1):
        buf.push(i * dt, 0.0)
    return buf.count_stored()


def matched_fixed_policy(adaptive_T: float, dt: float, t_end: float) -> MemoryPolicy:
    """Fixed policy granted the same steady point budget the adaptive method
    reaches at the experiment horizon (the fair-comparison convention)."""
    count = retention_count(MemoryPolicy.adaptive_present(adaptive_T), dt, t_end)
    return MemoryPolicy.fixed((count - 1) * dt)


# -- derivative error studies -------------------------------------------------

def _test_function(policy: MemoryPolicy) -> str:
    # the fixed method is probed with constant f', the others with constant f''
    return "linear" if policy.kind is PolicyKind.FIXED else "quadratic"


def _exact_derivative(func: str, t: float, a: float) -> float:
    if func == "linear":
        return t ** (1.0 - a) / math.gamma(2.0 - a)
    if func == "quadratic":
        return 2.0 * t ** (2.0 - a) / math.gamma(3.0 - a)
    raise ValueError(f"unknown test function {func!r}")


def _sample(func: str, t: float) -> float:
    return t if func == "linear" else t * t


def run_derivative_error(
    policy: MemoryPolicy,
    alphas,
    dt: float,
    t_end: float,
    n_records: int = 64,
    func: str | None = None,
) -> list[list[SimulationRecord]]:
    """Step a scalar test function under one policy and record the absolute
    error of the evaluated fractional derivative at sampled times, for every
    order in ``alphas``.

    The grid is pushed once; at each record step every order is evaluated
    on the same stored times and values.  Returns one record list per
    order, in input order.
    """
    orders = [order_value(a) for a in alphas]
    func = func or _test_function(policy)
    n_total = round(t_end / dt)
    record_at = _record_steps(n_total, n_records)
    buf = HistoryBuffer(policy)
    buf.push(0.0, _sample(func, 0.0))
    runs: list[list[SimulationRecord]] = [[] for _ in orders]
    elapsed = 0.0
    tic = time.perf_counter()
    for i in range(1, n_total + 1):
        t = i * dt
        buf.push(t, _sample(func, t))
        if i in record_at:
            elapsed += time.perf_counter() - tic
            times, values = buf.times(), buf.values()
            if times.size < 2:
                raise ValueError("history must contain at least 2 time points")
            for a, records in zip(orders, runs):
                # the operator at the newest stored time, from the points before it
                c, h = policy.history(times[:-1], values[:-1], times[-1], a, dt)
                value = float(c * (values[-1] - values[-2]) + h)
                exact = _exact_derivative(func, t, a)
                records.append(
                    SimulationRecord(
                        t=t,
                        value=value,
                        analytic=exact,
                        abs_error=abs(value - exact),
                        stored_points=buf.count_stored(),
                        conv_terms=buf.count_conv_terms(),
                        wall_clock=elapsed,
                    )
                )
            tic = time.perf_counter()
    return runs


def run_order_study(
    policy: MemoryPolicy,
    alphas,
    dts,
    t_end: float,
    func: str | None = None,
) -> tuple[list[SimulationRecord], dict]:
    """Final-time error for every (alpha, dt) pair plus fitted log-log slopes
    of error versus dt per alpha.  Runs serially, one push stream per dt
    serving every alpha; records come in sweep order, alpha-major."""
    per_dt = []
    for dt in dts:
        runs = run_derivative_error(policy, alphas, dt, t_end, n_records=1, func=func)
        per_dt.append([recs[-1] for recs in runs])
    per_alpha = list(zip(*per_dt))
    records = [rec for chunk in per_alpha for rec in chunk]
    slopes = {}
    for a, chunk in zip(alphas, per_alpha):
        pts = [(dt, rec.abs_error) for dt, rec in zip(dts, chunk) if rec.abs_error > 0.0]
        slopes[a] = fit_loglog_slope(pts) if len(pts) >= 3 else float("nan")
    summary = {
        "slopes": slopes,
        "peak_stored": max(r.stored_points for r in records),
    }
    return records, summary


# -- application benchmarks ---------------------------------------------------

def run_diffusion(
    policy: MemoryPolicy,
    alpha: float,
    dt: float,
    t_end: float,
    length: float = 10.0,
    dx: float = 0.1,
    mu: float | None = None,
    n_records: int = 64,
) -> tuple[list[SimulationRecord], dict]:
    """Sub-diffusion benchmark; records track the midpoint value against the
    separable analytic solution."""
    if mu is None:
        mu = (length / math.pi) ** 2
    cfg = DiffusionConfig(length=length, dx=dx, dt=dt, mu=mu, alpha=alpha, policy=policy)
    sim = DiffusionSimulation(cfg)
    n_total = round(t_end / dt)
    record_at = _record_steps(n_total, n_records)
    mid = length / 2.0
    records: list[SimulationRecord] = []
    elapsed = 0.0
    tic = time.perf_counter()
    for i in range(1, n_total + 1):
        sim.step()
        if i in record_at:
            elapsed += time.perf_counter() - tic
            exact = float(analytic_diffusion(mid, sim.t, cfg))
            records.append(
                SimulationRecord(
                    t=sim.t,
                    value=sim.midpoint_value,
                    analytic=exact,
                    abs_error=abs(sim.midpoint_value - exact),
                    stored_points=sim.buffer.count_stored(),
                    conv_terms=sim.buffer.count_conv_terms(),
                    wall_clock=elapsed,
                )
            )
            tic = time.perf_counter()
    summary = {
        "peak_stored": max(r.stored_points for r in records),
        "final_error": records[-1].abs_error,
        "stepping_seconds": records[-1].wall_clock,
    }
    return records, summary


def run_kelvin_voigt(
    policy: MemoryPolicy,
    alpha: float,
    dt: float,
    t_end: float,
    eta: float = 1.0,
    k: float = 1.0,
    load: float = 1.0,
    n_records: int = 64,
) -> tuple[list[SimulationRecord], dict]:
    """Creep benchmark for the fractional Kelvin-Voigt element."""
    cfg = KelvinVoigtConfig(eta=eta, k=k, load=load, alpha=alpha, dt=dt, policy=policy)
    sim = KelvinVoigtSimulation(cfg)
    n_total = round(t_end / dt)
    record_at = _record_steps(n_total, n_records)
    records: list[SimulationRecord] = []
    elapsed = 0.0
    tic = time.perf_counter()
    for i in range(1, n_total + 1):
        sim.step()
        if i in record_at:
            elapsed += time.perf_counter() - tic
            exact = analytic_creep(sim.t, cfg)
            records.append(
                SimulationRecord(
                    t=sim.t,
                    value=sim.x,
                    analytic=exact,
                    abs_error=abs(sim.x - exact),
                    stored_points=sim.buffer.count_stored(),
                    conv_terms=sim.buffer.count_conv_terms(),
                    wall_clock=elapsed,
                )
            )
            tic = time.perf_counter()
    summary = {
        "peak_stored": max(r.stored_points for r in records),
        "final_error": records[-1].abs_error,
        "stepping_seconds": records[-1].wall_clock,
    }
    return records, summary


def run_cost_model(m: int, levels) -> list[dict]:
    """Closed-form operation counts per policy and memory doubling level."""
    rows = []
    for L in levels:
        for kind in (PolicyKind.FULL, PolicyKind.FIXED, PolicyKind.ADAPTIVE_PRESENT):
            rows.append({"policy": kind.value, "m": m, "L": L, "op_count": op_count(kind, m, L)})
    return rows


def accumulated_conv_terms(policy: MemoryPolicy, dt: float, t_end: float) -> int:
    """Instrumented total of convolution terms over a run, one evaluation per
    step; the instrumented counterpart of the closed-form operation counts."""
    buf = HistoryBuffer(policy)
    buf.push(0.0, 0.0)
    total = 0
    for i in range(1, round(t_end / dt) + 1):
        buf.push(i * dt, 0.0)
        total += buf.count_conv_terms()
    return total
