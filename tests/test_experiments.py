"""Experiment runners: one push stream serving an alpha sweep."""

import dataclasses
import itertools
import math
import re

import pytest

from fracmem import DiffusionConfig, HistoryBuffer, KelvinVoigtConfig, MemoryPolicy, PolicyKind
from fracmem.experiments import (
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


@pytest.mark.parametrize("t_end, dt, steps", [(1.0, 0.01, 100), (0.3, 0.1, 3), (16.0, 0.0625, 256)])
def test_step_count_on_the_grid(t_end, dt, steps):
    times = list(itertools.chain(*time_grid(t_end, dt)))
    assert times == [i * dt for i in range(1, steps + 1)]


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
