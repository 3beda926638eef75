"""Experiment runners: derivative error studies, order-of-accuracy sweeps,
the two application benchmarks, and the operation-count model.

Each runner produces deterministic per-step instrumentation rows; only the
wall-clock column varies between identical runs.  Wall clock measures the
stepping loop alone, not record assembly or I/O.  The derivative studies
push samples that do not depend on the order, so one push stream per time
grid serves every alpha of a sweep; sweeps run serially in one process.
Every runner walks the step times t = i * dt segment by segment: it times
a segment's steps, then records once.  ``_step_blocks`` computes them, the
one expression for a step time, in blocks of ``_PUSH_BLOCK`` steps
(``_grid_blocks``); the runners that push a grid with no read in between
(``run_derivative_error``, ``retention_count``) push those blocks, which
``HistoryBuffer.extend`` maintains one subset level at a time, and
``time_grid`` yields the same times as Python floats to the runners that
step.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .analysis import fit_loglog_slope, op_count
from .core import check_count, check_positive, grid_steps, newest_derivative, order_value, real
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
    "check_sweep",
    "run_derivative_error",
    "run_order_study",
    "run_diffusion",
    "run_kelvin_voigt",
    "run_cost_model",
    "retention_count",
    "time_grid",
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

    def __post_init__(self) -> None:
        for name in ("value", "analytic", "abs_error"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} {getattr(self, name)} at t={self.t}")


def _record(t: float, value: float, analytic: float, buffer: HistoryBuffer, elapsed: float) -> SimulationRecord:
    """The record of ``value`` against ``analytic`` at ``t``, with the
    counts of ``buffer`` and the stepping time ``elapsed`` so far."""
    return SimulationRecord(
        t, value, analytic, abs(value - analytic), buffer.count_stored(), buffer.count_conv_terms(), elapsed
    )


def time_grid(t_end: float, dt: float, n_records: int = 1) -> list[Iterator[float]]:
    """The step times i * dt, i = 1..n, to ``t_end = n * dt``, as one lazy
    iterator per record step, each ending on its record step.  The record
    steps are ceil(k n / n_records), k = 1..n_records, or every step when
    n_records > n.  Raises ``ValueError`` unless ``t_end`` is a whole
    (``grid_steps``), positive number of steps ``dt`` and ``n_records`` >= 1.
    Each segment yields the blocks of the same segment of ``_grid_blocks``
    as Python floats."""
    return [chain.from_iterable(map(np.ndarray.tolist, blocks)) for blocks in _grid_blocks(t_end, dt, n_records)]


# rows per HistoryBuffer.extend call where a runner pushes a grid with no
# read in between; bounds the block arrays a run holds at once.  The
# level-wise plan pays a fixed cost per subset level and block, and holds
# ~100 B of temporaries per block row: on the derivative-push grid 8192 rows
# run 17% faster than 4096 (best of 11 runs) for +0.5 MB peak RSS, and
# 16384 no faster beyond the noise for +0.8 MB more
# (BENCH_2026-10-22-predict.json)
_PUSH_BLOCK = 8192


def _grid_blocks(t_end: float, dt: float, n_records: int = 1) -> list[Iterator[np.ndarray]]:
    """The record segments of ``time_grid``, after its checks, each as a
    lazy iterator of arrays of up to ``_PUSH_BLOCK`` times: segment k ends
    on record step ceil(k n / n_records)."""
    dt = check_positive("dt", dt)
    n_total = grid_steps(real("t_end", t_end), dt)
    if n_total is None or n_total < 1:
        raise ValueError(f"t_end={t_end} is not a multiple of dt={dt}")
    n = min(check_count("n_records", n_records, 1), n_total)
    ends = [-(-k * n_total // n) for k in range(n + 1)]
    return [_step_blocks(lo + 1, hi + 1, dt) for lo, hi in zip(ends, ends[1:])]


def _step_blocks(lo: int, hi: int, step: float) -> Iterator[np.ndarray]:
    """The times i * step, lo <= i < hi, in arrays of up to ``_PUSH_BLOCK``:
    the one expression for a step time.  numpy converts each index to float
    and multiplies it as Python does, so each time has the bits of the
    Python float i * step."""
    for i in range(lo, hi, _PUSH_BLOCK):
        yield np.arange(i, min(i + _PUSH_BLOCK, hi)) * step


def retention_count(policy: MemoryPolicy, dt: float, t_end: float) -> int:
    """Stored-point count of a policy after stepping to t_end; depends only
    on the time sequence, not on values."""
    buf = HistoryBuffer(policy)
    buf.push(0.0, 0.0)
    for block in chain(*_grid_blocks(t_end, dt)):
        buf.extend(block, np.zeros(block.size))
    return buf.count_stored()


# -- derivative error studies -------------------------------------------------

def _test_function(policy: MemoryPolicy):
    # (f, Df(t, alpha)): the fixed method is probed with constant f', the
    # others with constant f''
    if policy.kind is PolicyKind.FIXED:
        return (lambda t: t), (lambda t, a: t ** (1.0 - a) / math.gamma(2.0 - a))
    return (lambda t: t * t), (lambda t, a: 2.0 * t ** (2.0 - a) / math.gamma(3.0 - a))


def run_derivative_error(
    policy: MemoryPolicy,
    alphas,
    dt: float,
    t_end: float,
    n_records: int = 64,
) -> list[list[SimulationRecord]]:
    """Step a scalar test function under one policy and record the absolute
    error of the evaluated fractional derivative at sampled times, for every
    order in ``alphas``.  The function follows the policy: f(t) = t under
    ``fixed`` (constant f'), f(t) = t^2 under the others (constant f'').

    The grid is pushed once, in blocks of ``_PUSH_BLOCK`` steps
    (``_grid_blocks``) through ``HistoryBuffer.extend``; at each record
    step every order is evaluated on the same stored times and values.
    Returns one record list per order, in input order.
    """
    orders = [order_value(a) for a in alphas]
    if not orders:
        raise ValueError("alphas must hold at least one order, got none")
    # the buffer checks the policy before _test_function reads its kind
    buf = HistoryBuffer(policy)
    f, exact_derivative = _test_function(policy)
    # the grid first: check_step compares dt, which it does not check
    segments = _grid_blocks(t_end, dt, n_records)
    policy.check_step(dt)
    buf.push(0.0, f(0.0))
    runs: list[list[SimulationRecord]] = [[] for _ in orders]
    elapsed = 0.0
    for segment in segments:
        tic = time.perf_counter()
        for block in segment:
            buf.extend(block, f(block))
        elapsed += time.perf_counter() - tic
        t = float(block[-1])
        times, values = buf.times(), buf.values()
        for a, records in zip(orders, runs):
            value = newest_derivative(policy.history, times, values, a, dt)
            records.append(_record(t, value, exact_derivative(t, a), buf, elapsed))
    return runs


def check_sweep(alphas, dts) -> None:
    """Raise ``ValueError`` unless an order study can fit its slopes: the
    slopes are keyed by alpha, so no order repeats, and each fit needs 3 or
    more distinct step sizes."""
    for name, values in (("alpha", alphas), ("dt", dts)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"order-study repeats {name}={value!r}")
    if len(dts) < 3:
        raise ValueError(f"order-study fits its slopes over 3 or more dt values, got {len(dts)}")


def run_order_study(
    policy: MemoryPolicy,
    alphas,
    dts,
    t_end: float,
) -> tuple[list[SimulationRecord], dict]:
    """Final-time error for every (alpha, dt) pair plus fitted log-log slopes
    of error versus dt per alpha.  Runs serially, one push stream per dt
    serving every alpha; records come in sweep order, alpha-major.  The
    sweep must pass ``check_sweep``, and each alpha needs a nonzero error at
    3 or more step sizes, or the fit raises ``ValueError``.  The summary's
    ``peak_stored`` is the largest ``stored_points`` among the final
    records, not over every step."""
    check_sweep(alphas, dts)
    per_dt = []
    for dt in dts:
        runs = run_derivative_error(policy, alphas, dt, t_end, n_records=1)
        per_dt.append([recs[-1] for recs in runs])
    per_alpha = list(zip(*per_dt))
    records = [rec for chunk in per_alpha for rec in chunk]
    slopes = {}
    for a, chunk in zip(alphas, per_alpha):
        pts = [(dt, rec.abs_error) for dt, rec in zip(dts, chunk) if rec.abs_error > 0.0]
        if len(pts) < 3:
            raise ValueError(
                f"order study at alpha={a}: {len(pts)} of {len(dts)} step sizes give a "
                "nonzero error, and the slope fit needs 3"
            )
        slopes[a] = fit_loglog_slope(pts)
    summary = {
        "slopes": slopes,
        "peak_stored": max(r.stored_points for r in records),
    }
    return records, summary


# -- application benchmarks ---------------------------------------------------

def _run_simulation(
    sim, t_end: float, n_records: int, value, exact
) -> tuple[list[SimulationRecord], dict]:
    """Step ``sim`` to ``t_end`` and record ``value()`` against ``exact(t)``
    at ``n_records`` evenly spaced steps; the record loop of both
    application benchmarks.  The summary's ``peak_stored`` is the most
    points the history held after any step."""
    records: list[SimulationRecord] = []
    buffer = sim.buffer
    peak = 0
    elapsed = 0.0
    for segment in time_grid(t_end, sim.config.dt, n_records):
        tic = time.perf_counter()
        for t in segment:
            sim.step(t)
            stored = buffer.count_stored()
            if stored > peak:
                peak = stored
        elapsed += time.perf_counter() - tic
        records.append(_record(t, value(), exact(t), buffer, elapsed))
    summary = {
        "peak_stored": peak,
        "final_error": records[-1].abs_error,
        "stepping_seconds": records[-1].wall_clock,
    }
    return records, summary


def run_diffusion(
    cfg: DiffusionConfig, t_end: float, n_records: int = 64
) -> tuple[list[SimulationRecord], dict]:
    """Sub-diffusion benchmark: step the problem ``cfg`` to ``t_end`` and
    record the midpoint value against the separable analytic solution at
    ``n_records`` evenly spaced steps."""
    sim = DiffusionSimulation(cfg)
    mid = cfg.length / 2.0
    return _run_simulation(
        sim, t_end, n_records,
        lambda: sim.midpoint_value, lambda t: float(analytic_diffusion(mid, t, cfg)),
    )


def run_kelvin_voigt(
    cfg: KelvinVoigtConfig, t_end: float, n_records: int = 64
) -> tuple[list[SimulationRecord], dict]:
    """Creep benchmark for the fractional Kelvin-Voigt element: step the
    problem ``cfg`` to ``t_end`` and record the elongation against the
    analytic creep response at ``n_records`` evenly spaced steps."""
    sim = KelvinVoigtSimulation(cfg)
    return _run_simulation(sim, t_end, n_records, lambda: sim.x, lambda t: analytic_creep(t, cfg))


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
    for t in chain(*time_grid(t_end, dt)):
        buf.push(t, 0.0)
        total += buf.count_conv_terms()
    return total
