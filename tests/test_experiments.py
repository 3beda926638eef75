"""Experiment runners: one push stream serving an alpha sweep."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from fracmem import DiffusionConfig, HistoryBuffer, KelvinVoigtConfig, MemoryPolicy, PolicyKind
from fracmem.core import newest_derivative
from fracmem.experiments import (
    _PUSH_BLOCK,
    SimulationRecord,
    accumulated_conv_terms,
    check_sweep,
    retention_count,
    run_derivative_error,
    run_diffusion,
    run_kelvin_voigt,
    run_order_study,
    time_grid,
)


def without_clock(records):
    return [dataclasses.replace(r, wall_clock=0.0) for r in records]


@pytest.mark.parametrize("policy", [
    MemoryPolicy.full(),
    MemoryPolicy.fixed(0.5),
    MemoryPolicy.adaptive_present(0.5),
    MemoryPolicy.adaptive_gl(0.5),
], ids=["full", "fixed", "present", "gl"])
def test_alpha_sweep_matches_single_alpha_runs(policy):
    alphas, dt, t_end = (0.3, 0.7), 0.01, 8.0
    sweep = run_derivative_error(policy, alphas, dt, t_end, n_records=8)
    assert len(sweep) == len(alphas)
    for a, recs in zip(alphas, sweep):
        (single,) = run_derivative_error(policy, (a,), dt, t_end, n_records=8)
        assert len(single) == 8
        assert without_clock(recs) == without_clock(single)


@pytest.mark.parametrize("policy", [
    MemoryPolicy.full(),
    MemoryPolicy.fixed(0.5),
    MemoryPolicy.adaptive_present(0.5),
], ids=["full", "fixed", "present"])
def test_derivative_records_match_a_push_per_step_replay(policy):
    # two records of 4500 steps: each segment holds one full block and a
    # part block, so blocks end both inside a segment and on its record step
    alphas, dt, n_steps = (0.3, 0.8), 0.01, 9000
    assert _PUSH_BLOCK < n_steps // 2 < 2 * _PUSH_BLOCK
    if policy.kind is PolicyKind.FIXED:
        f, exact = (lambda t: t), (lambda t, a: t ** (1.0 - a) / math.gamma(2.0 - a))
    else:
        f, exact = (lambda t: t * t), (lambda t, a: 2.0 * t ** (2.0 - a) / math.gamma(3.0 - a))
    buf = HistoryBuffer(policy)
    buf.push(0.0, f(0.0))
    want = [[] for _ in alphas]
    for segment in time_grid(n_steps * dt, dt, 2):
        for t in segment:
            buf.push(t, f(t))
        for a, records in zip(alphas, want):
            value = newest_derivative(policy.history, buf.times(), buf.values(), a, dt)
            records.append(SimulationRecord(
                t=t, value=value, analytic=exact(t, a), abs_error=abs(value - exact(t, a)),
                stored_points=buf.count_stored(), conv_terms=buf.count_conv_terms(), wall_clock=0.0,
            ))
    got = run_derivative_error(policy, alphas, dt, n_steps * dt, n_records=2)
    assert [without_clock(records) for records in got] == want


@pytest.mark.parametrize("t_end, dt, steps", [(1.0, 0.01, 100), (0.3, 0.1, 3), (16.0, 0.0625, 256)])
def test_step_count_on_the_grid(t_end, dt, steps):
    times = list(itertools.chain(*time_grid(t_end, dt)))
    assert times == [i * dt for i in range(1, steps + 1)]


def test_time_grid_counts_a_long_decimal_horizon():
    # 1000000.2 / 0.1 misses 10000002 by more than 1e-9: a long horizon is
    # counted by the relative rule of core.grid_steps
    n = 10_000_002
    segments = time_grid(1000000.2, 0.1, 64)
    assert len(segments) == 64
    # the last segment runs from record step ceil(63 n / 64) to step n
    last = list(segments[-1])
    assert last[0] == (-(-63 * n // 64) + 1) * 0.1
    assert last[-1] == n * 0.1


@pytest.mark.parametrize("t_end", [1.005, 0.004, 0.0, -1.0, math.inf, math.nan])
def test_step_count_off_the_grid_raises(t_end):
    with pytest.raises(ValueError, match=f"t_end={t_end} is not a multiple of dt=0.01"):
        time_grid(t_end, 0.01)


def record_steps(t_end, dt, n_records):
    # the step index each segment of the grid ends on
    ends = itertools.accumulate(len(list(segment)) for segment in time_grid(t_end, dt, n_records))
    return list(ends)


@pytest.mark.parametrize("t_end, dt, n_records, steps", [
    (1.0, 0.1, 3, [4, 7, 10]),
    (1.0, 0.1, 64, list(range(1, 11))),
    (1.0, 0.1, 5, [2, 4, 6, 8, 10]),
    (1.0, 0.01, 4, [25, 50, 75, 100]),
    (1.0, 0.1, 1, [10]),
], ids=["three", "more-than-steps", "stride-2", "stride-25", "one"])
def test_time_grid_ends_each_segment_on_its_record_step(t_end, dt, n_records, steps):
    assert record_steps(t_end, dt, n_records) == steps


def test_time_grid_cuts_the_same_times_at_any_record_count():
    whole = list(itertools.chain(*time_grid(4.0, 0.01)))
    for n_records in (1, 3, 64, 400, 1000):
        segments = time_grid(4.0, 0.01, n_records)
        # the segments are computed as they are walked, not stored
        assert all(iter(segment) is segment for segment in segments)
        assert list(itertools.chain(*segments)) == whole


def test_time_grid_steps_in_python_floats():
    # an int or numpy dt steps as its float does, so the solvers push Python
    # float times and states, which take the buffer's fast path
    assert [t.__class__ for t in itertools.chain(*time_grid(4, 1))] == [float] * 4
    policy = MemoryPolicy.adaptive_gl(0.1)
    configs = (
        KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=dt, policy=policy)
        for dt in (0.01, np.float64(0.01))
    )
    base, got = (run_kelvin_voigt(kv, 1.0, 8)[0] for kv in configs)
    assert {r.t.__class__ for r in got} | {r.value.__class__ for r in got} == {float}
    assert [(r.t.hex(), r.value.hex()) for r in got] == [(r.t.hex(), r.value.hex()) for r in base]


@pytest.mark.parametrize("t_end", [1.005, 0.004])
def test_runs_reject_a_horizon_off_the_grid(t_end):
    # 1.005 lies between grid points, 0.004 before the first one
    message = f"t_end={t_end} is not a multiple of dt=0.01"
    policy = MemoryPolicy.adaptive_present(0.5)
    kv = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01, policy=policy)
    diffusion = DiffusionConfig(length=10.0, dx=1.0, dt=0.01, mu=1.0, alpha=0.5, policy=policy)
    runs = [
        lambda: run_kelvin_voigt(kv, t_end),
        lambda: run_diffusion(diffusion, t_end),
        lambda: run_derivative_error(policy, (0.5,), 0.01, t_end),
        lambda: retention_count(policy, 0.01, t_end),
        lambda: accumulated_conv_terms(policy, 0.01, t_end),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=message):
            run()


def test_derivative_error_rejects_fixed_window_shorter_than_step():
    with pytest.raises(ValueError, match="fixed memory_length=0.001 is shorter than dt=0.01"):
        run_derivative_error(MemoryPolicy.fixed(0.001), (0.5,), 0.01, 1.0)


def grid_peak(policy, dt, n_steps):
    # the most points a buffer holds over the pushes of the whole time grid
    buf, peak = HistoryBuffer(policy), 0
    for i in range(n_steps + 1):
        buf.push(i * dt, 0.0)
        peak = max(peak, buf.count_stored())
    return peak


@pytest.mark.parametrize("policy", [
    MemoryPolicy.full(),
    MemoryPolicy.fixed(0.1),
    MemoryPolicy.adaptive_present(0.1),
    MemoryPolicy.adaptive_gl(0.1),
], ids=["full", "fixed", "present", "gl"])
def test_peak_stored_covers_every_step(policy):
    kv = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01, policy=policy)
    diffusion = DiffusionConfig(length=10.0, dx=1.0, dt=0.01, mu=1.0, alpha=0.5, policy=policy)
    for records, summary in (run_kelvin_voigt(kv, 4.0, 4), run_diffusion(diffusion, 4.0, 4)):
        assert summary["peak_stored"] == grid_peak(policy, 0.01, 400)
        if policy.kind is PolicyKind.ADAPTIVE_PRESENT:
            # the four records miss the peak, so the test tells the two apart
            assert max(r.stored_points for r in records) < summary["peak_stored"]


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_step_count_rejects_a_bad_step(dt):
    message = re.escape(f"dt must be positive and finite, got {dt}")
    with pytest.raises(ValueError, match=message):
        time_grid(1.0, dt)
    with pytest.raises(ValueError, match=message):
        retention_count(MemoryPolicy.adaptive_present(0.5), dt, 1.0)


@pytest.mark.parametrize("n_records, message", [
    (0, "n_records must be >= 1, got 0"),
    (-3, "n_records must be >= 1, got -3"),
    (2.5, "n_records must be an integer, got 2.5"),
], ids=["zero", "negative", "fraction"])
def test_runs_reject_a_bad_record_count(n_records, message):
    policy = MemoryPolicy.adaptive_present(0.5)
    kv = KelvinVoigtConfig(eta=1.0, k=1.0, load=1.0, alpha=0.5, dt=0.01, policy=policy)
    diffusion = DiffusionConfig(length=10.0, dx=1.0, dt=0.01, mu=1.0, alpha=0.5, policy=policy)
    runs = [
        lambda: time_grid(1.0, 0.01, n_records),
        lambda: run_kelvin_voigt(kv, 1.0, n_records),
        lambda: run_diffusion(diffusion, 1.0, n_records),
        lambda: run_derivative_error(policy, (0.5,), 0.01, 1.0, n_records),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=re.escape(message)):
            run()


@pytest.mark.parametrize("alphas, dts, message", [
    ((0.5,), (0.1, 0.1, 0.05), "order-study repeats dt=0.1"),
    ((0.5, 0.3, 0.5), (0.1, 0.05, 0.025), "order-study repeats alpha=0.5"),
    ((0.5,), (0.1, 0.05), "order-study fits its slopes over 3 or more dt values, got 2"),
], ids=["repeated-dt", "repeated-alpha", "two-dts"])
def test_order_study_checks_its_sweep(alphas, dts, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_sweep(alphas, dts)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_order_study(MemoryPolicy.full(), alphas, dts, 1.0)


def test_derivative_studies_reject_no_orders_before_pushing(monkeypatch):
    def push(self, t, value):
        raise AssertionError("pushed before the orders were checked")

    monkeypatch.setattr(HistoryBuffer, "push", push)
    message = "alphas must hold at least one order, got none"
    with pytest.raises(ValueError, match=message):
        run_derivative_error(MemoryPolicy.full(), [], 0.1, 1.0)
    with pytest.raises(ValueError, match=message):
        run_order_study(MemoryPolicy.full(), (), (0.1, 0.05, 0.025), 1.0)
