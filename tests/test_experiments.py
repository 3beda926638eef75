"""Experiment runners: one push stream serving an alpha sweep."""

import dataclasses

import pytest

from fracmem import MemoryPolicy
from fracmem.experiments import run_derivative_error


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
