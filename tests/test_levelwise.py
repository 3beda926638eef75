"""Differential tests of the level-wise maintenance of long blocks.

``HistoryBuffer.extend`` maintains a block of ``_LEVELWISE_MIN`` rows or
more one subset level at a time in numpy; a push, and a shorter block, run
the loop over their times (``HistoryBuffer._maintain``).  The loop is the
reference: a buffer written in blocks just below, at and just above
``_LEVELWISE_MIN`` must hold the same layout, times and rows, bit for bit,
after every block as one written row by row through ``push``.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmem import HistoryBuffer, MemoryPolicy
from fracmem.memory import _LEVELWISE_MIN

POLICIES = {
    "full": lambda T: MemoryPolicy.full(),
    "fixed": MemoryPolicy.fixed,
    "adaptive-present": MemoryPolicy.adaptive_present,
    "adaptive-gl": MemoryPolicy.adaptive_gl,
}
BLOCKS = [_LEVELWISE_MIN - 1, _LEVELWISE_MIN, _LEVELWISE_MIN + 1]


def replay(policy, times, block, width, seed) -> list:
    """Write ``times`` with random rows (scalars when ``width`` is None) to
    one buffer through ``push`` and to another in blocks of ``block``
    through ``extend``, compare them after every block, and return what the
    level-wise maintenance returned for each block it ran on: False where a
    level failed its check and the loop maintained the block."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal(len(times) if width is None else (len(times), width))
    ref, buf = HistoryBuffer(policy), HistoryBuffer(policy)
    results = []
    levelwise = buf._maintain_levelwise

    def recorded(k):
        results.append(levelwise(k))
        return results[-1]

    buf._maintain_levelwise = recorded
    for lo in range(0, len(times), block):
        hi = min(lo + block, len(times))
        for i in range(lo, hi):
            ref.push(times[i], rows[i])
        buf.extend(times[lo:hi], rows[lo:hi])
        assert buf.subsets() == ref.subsets()
        assert buf.times().tobytes() == ref.times().tobytes()
        assert buf.values().tobytes() == ref.values().tobytes()
    sizes = [min(block, len(times) - lo) for lo in range(0, len(times), block)]
    assert len(results) == sum(size >= _LEVELWISE_MIN for size in sizes)
    return results


common = dict(
    kind=st.sampled_from(sorted(POLICIES)),
    block=st.sampled_from(BLOCKS),
    width=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**32 - 1),
)


@given(
    dt=st.sampled_from([0.1, 0.01, 0.0025, 1e-3, 1 / 3]),
    first=st.integers(-5000, 5000),
    steps=st.integers(1, 60),
    **common,
)
@settings(max_examples=16, deadline=None)
# windows longer than a block but shorter than the run (2048 rows at seed 1,
# 3072 at seed 0): a block moves only U_0's oldest points out and keeps the
# rest, the partial cut of U_0
@example(dt=0.01, first=0, steps=1100, kind="fixed", block=_LEVELWISE_MIN, width=None, seed=1)
@example(dt=0.01, first=0, steps=1500, kind="adaptive-present", block=_LEVELWISE_MIN + 1, width=2, seed=0)
@example(dt=0.01, first=0, steps=1900, kind="full", block=_LEVELWISE_MIN, width=None, seed=0)
@example(dt=0.01, first=0, steps=1900, kind="fixed", block=_LEVELWISE_MIN + 1, width=2, seed=0)
@example(dt=0.01, first=0, steps=1100, kind="adaptive-present", block=_LEVELWISE_MIN, width=None, seed=1)
def test_uniform_grid_with_whole_step_memory(dt, first, steps, kind, block, width, seed):
    # t = i * dt and T a whole number of steps: spans land on T to rounding,
    # and the 1e-12 tolerance decides every tie
    n = int(np.random.default_rng(seed).integers(2, 4) * _LEVELWISE_MIN)
    times = [i * dt for i in range(first, first + n)]
    results = replay(POLICIES[kind](steps * dt), times, block, width, seed)
    assert all(results)


@given(
    offset=st.one_of(st.sampled_from([1e6, -1e6, 1e3]), st.floats(-1e6, 1e6)),
    T=st.floats(0.01, 2.0),
    **common,
)
@settings(max_examples=16, deadline=None)
def test_offset_and_negative_starts(offset, T, kind, block, width, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.5, 1.5, int(rng.integers(2, 4) * _LEVELWISE_MIN)) * 0.01
    times = (offset + np.cumsum(gaps)).tolist()
    results = replay(POLICIES[kind](T), times, block, width, seed)
    assert all(results)


@given(T=st.floats(1e-3, 1.0), **common)
@settings(max_examples=16, deadline=None)
def test_random_gaps(T, kind, block, width, seed):
    # gaps spread over six decades, so one push may move many points or none
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0, int(rng.integers(2, 4) * _LEVELWISE_MIN)) ** 3 * 0.01 + 1e-9
    times = (rng.uniform(-10.0, 10.0) + np.cumsum(gaps)).tolist()
    replay(POLICIES[kind](T), times, block, width, seed)


def adversarial(seed) -> tuple[list, float]:
    # clusters of gaps of 1e-9 to 3e-7 near t = 1, each followed by a push
    # 1e3 to 1e6 later, whose tolerance 1e-12 * |t| outgrows T: the points
    # that push moves out of U_0 reach U_1 with a tolerance far above that
    # of the points moved before them
    rng = np.random.default_rng(seed)
    parts, t = [], 1.0
    for _ in range(int(rng.integers(2, 6))):
        cluster = t + np.cumsum(rng.uniform(1e-9, 3e-7, int(rng.integers(200, 1200))))
        parts.append(cluster)
        t = cluster[-1] + rng.uniform(1e3, 1e6)
    return np.concatenate(parts).tolist(), 10 ** rng.uniform(-7, -5)


@given(**common)
@settings(max_examples=8, deadline=None)
def test_adversarial_grids(kind, block, width, seed):
    times, T = adversarial(seed)
    replay(POLICIES[kind](T), times, block, width, seed)


def test_adversarial_grids_take_the_fallback():
    # on these grids a level's check refuses a block of every size from
    # _LEVELWISE_MIN on, and the loop maintains it with the same bits
    for seed in range(4):
        times, T = adversarial(seed)
        for block in BLOCKS[1:]:
            assert False in replay(MemoryPolicy.adaptive_present(T), times, block, None, seed)


def test_u0_check_takes_the_fallback():
    # a U_0 cluster one ulp apart, then a block whose first arrival puts the
    # window edge inside it: the searched edge and the rounded spans disagree
    # by two points there, U_0's check refuses the block, and the loop
    # maintains it
    cluster = [0.22001]
    for _ in range(10):
        cluster.append(math.nextafter(cluster[-1], 1.0))
    earlier = np.linspace(-20.0, -1.0, _LEVELWISE_MIN - len(cluster)).tolist()
    block = (1.0369600000010373 + np.arange(_LEVELWISE_MIN) * 1e-3).tolist()
    policy = MemoryPolicy.adaptive_present(0.8169500000000001)
    assert replay(policy, earlier + cluster + block, _LEVELWISE_MIN, None, 0) == [True, False]
