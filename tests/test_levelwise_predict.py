"""Which schedules the level-wise maintenance predicts and which it searches.

``HistoryBuffer._maintain_levelwise`` first predicts each schedule of a
block as a uniform grid's: every arrival's U_0 window edge one point after
the one before it, and each coarser level's triggers at every second
arrival.  The check against the rule at every arrival certifies the
prediction; only a refused one runs the searched plan
(``_searched_starts``, ``_searched_triggers``), which the same check then
certifies.  These tests count the searched plans, and replay grids that
break a uniform grid's pattern against buffers written row by row.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_levelwise import POLICIES, replay

from fracmem import MemoryPolicy, memory
from fracmem.experiments import run_derivative_error
from fracmem.memory import _LEVELWISE_MIN

SEARCHED = ("_searched_starts", "_searched_triggers")


def counted(*names):
    """Patch each of ``memory``'s functions ``names`` with a mock that calls
    it and counts the calls; the mocks come in the order of ``names``."""
    stack = ExitStack()
    mocks = [stack.enter_context(mock.patch.object(memory, name, wraps=getattr(memory, name))) for name in names]
    return stack, mocks


def test_derivative_push_grid_is_predicted():
    # the derivative-push workload's run: 8192-row blocks of t = i * 0.0025
    stack, (starts, triggers, levels) = counted(*SEARCHED, "_level_triggers")
    with stack:
        (records,) = run_derivative_error(MemoryPolicy.adaptive_present(1.0), [0.5], 0.0025, 4096.0, 16)
    assert records[-1].stored_points == 5201
    assert levels.call_count > 2000
    assert starts.call_count == triggers.call_count == 0


@given(
    dt=st.sampled_from([0.1, 0.01, 0.0025, 1e-3, 1 / 3]),
    first=st.integers(-5000, 5000),
    steps=st.integers(1, 60),
    kind=st.sampled_from(sorted(POLICIES)),
    block=st.sampled_from([_LEVELWISE_MIN, _LEVELWISE_MIN + 1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=16, deadline=None)
@example(dt=0.01, first=0, steps=1100, kind="fixed", block=_LEVELWISE_MIN, seed=1)
@example(dt=0.01, first=0, steps=1500, kind="adaptive-present", block=_LEVELWISE_MIN + 1, seed=0)
@example(dt=0.01, first=0, steps=1900, kind="full", block=_LEVELWISE_MIN, seed=0)
@example(dt=0.01, first=0, steps=1900, kind="fixed", block=_LEVELWISE_MIN + 1, seed=0)
@example(dt=0.01, first=0, steps=1100, kind="adaptive-present", block=_LEVELWISE_MIN, seed=1)
@example(dt=0.01, first=-3, steps=7, kind="adaptive-gl", block=_LEVELWISE_MIN, seed=2)
def test_uniform_grids_with_whole_step_memory_are_predicted(dt, first, steps, kind, block, seed):
    # test_levelwise.py's uniform grids, which need no search
    n = int(np.random.default_rng(seed).integers(2, 4) * _LEVELWISE_MIN)
    times = [i * dt for i in range(first, first + n)]
    stack, (starts, triggers) = counted(*SEARCHED)
    with stack:
        assert all(replay(POLICIES[kind](steps * dt), times, block, None, seed))
    assert starts.call_count == triggers.call_count == 0


@pytest.mark.parametrize("kind", ["fixed", "adaptive-present", "adaptive-gl"])
@pytest.mark.parametrize("offset", [0.0, -1e6])
def test_jittered_grids_are_searched_and_stay_levelwise(kind, offset):
    # test_levelwise.py's jittered gaps of 0.5-1.5 dt: U_0 keeps a varying
    # count, so its prediction is refused and the searched plan holds
    gaps = np.random.default_rng(7).uniform(0.5, 1.5, 3 * _LEVELWISE_MIN) * 0.01
    stack, (starts, triggers) = counted(*SEARCHED)
    with stack:
        assert all(replay(POLICIES[kind](0.5), (offset + np.cumsum(gaps)).tolist(), _LEVELWISE_MIN, None, 0))
    assert starts.call_count == 3
    assert triggers.call_count > 0 or kind == "fixed"


DT = 0.01
ROWS = 12000
# the row where each grid leaves the uniform one: inside the second block of
# every block size, so that the blocks before it set up every level
AT = 9000


def perturbed(name: str) -> np.ndarray:
    grid = np.arange(1, ROWS + 1) * DT
    if name == "step missing":
        return np.delete(grid, AT)
    if name in ("nudged 1e-13", "nudged 0.3 dt"):
        grid[AT] += 1e-13 if name == "nudged 1e-13" else 0.3 * DT
        return grid
    if name in ("dt doubles", "dt halves"):
        step = 2 * DT if name == "dt doubles" else DT / 2
        return np.concatenate((grid[:AT], grid[AT - 1] + np.arange(1, ROWS - AT + 1) * step))
    assert name == "graded start"
    return np.concatenate(((np.arange(1, 2001) / 2000.0) ** 3, 1.0 + np.arange(1, ROWS - 2000 + 1) * DT))


GRIDS = ["step missing", "nudged 1e-13", "nudged 0.3 dt", "dt doubles", "dt halves", "graded start"]
PERTURBED_POLICIES = {
    "adaptive-present T=1": MemoryPolicy.adaptive_present(1.0),
    "adaptive-present T=0.1": MemoryPolicy.adaptive_present(0.1),
    "fixed": MemoryPolicy.fixed(1.0),
    "full": MemoryPolicy.full(),
    "adaptive-gl": MemoryPolicy.adaptive_gl(1.0),
}


@pytest.mark.parametrize("block", [1024, 1500, 8192])
@pytest.mark.parametrize("policy", PERTURBED_POLICIES.values(), ids=list(PERTURBED_POLICIES))
@pytest.mark.parametrize("grid", GRIDS)
def test_perturbed_uniform_grids(grid, policy, block):
    replay(policy, perturbed(grid).tolist(), block, None, 0)


def test_certificate_refuses_predictions_that_pass_their_spot_checks():
    # one step missing inside an 8192-row block: U_0's edge holds at the
    # first arrival and slips at the gap, and each level's triggers come one
    # arrival early between its spot-checked ones; each such prediction
    # reaches the check, which refuses it, and the searched plan holds
    calls = []

    def logged(name):
        function = getattr(memory, name)

        def wrapper(*args):
            calls.append((name, function(*args)))
            return calls[-1][1]

        return mock.patch.object(memory, name, wrapper)

    names = ("_starts_refused", "_triggers_refused", *SEARCHED)
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(logged(name))
        replay(MemoryPolicy.adaptive_present(1.0), perturbed("step missing").tolist(), 8192, None, 0)
    pairs = [(a, b) for (a, refused), (b, _) in zip(calls, calls[1:]) if a in names[:2] and refused]
    assert ("_starts_refused", "_searched_starts") in pairs
    assert ("_triggers_refused", "_searched_triggers") in pairs
