"""Differential tests of ``HistoryBuffer`` against the deque buffer it replaced.

``DequeBuffer`` keeps each subset as a deque of ``(t, value)`` pairs and
rebuilds the history on every read.  It is the reference: the array-backed
buffer must return the same times, rows, counts and subsets, bit for bit,
whenever it is read, whether its samples came one by one through ``push`` or
in blocks through ``extend``.  The reference pushes one sample at a time.
"""

import math
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmem import HistoryBuffer, MemoryPolicy, PolicyKind
from fracmem.memory import _SHIFT_LIMIT

# sets the length of the long runs of pushes without reads below, and the
# block in which ``extend`` writes them: such a block removes more rows than
# ``HistoryBuffer`` drops by shifting, so it runs the boolean compaction
_PENDING_LIMIT = 4096


class DequeBuffer:
    """Reference buffer: subsets of ``(t, value)`` deques, oldest first."""

    def __init__(self, policy: MemoryPolicy):
        self.policy = policy
        self._subsets: list[deque] = [deque()]

    def subsets(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(t for t, _ in s) for s in self._subsets)

    def count_stored(self) -> int:
        return sum(len(s) for s in self._subsets)

    def times(self) -> np.ndarray:
        out = []
        for s in reversed(self._subsets):
            out.extend(t for t, _ in s)
        return np.asarray(out, dtype=float)

    def values(self) -> np.ndarray:
        out = []
        for s in reversed(self._subsets):
            out.extend(v for _, v in s)
        return np.asarray(out, dtype=float)

    def push(self, t: float, value) -> None:
        for s in self._subsets:
            if s:
                newest = s[-1][0]
                break
        else:
            newest = -math.inf
        if not newest < t < math.inf:
            raise ValueError(f"pushed time {t} is not finite or not after newest stored {newest}")
        self._subsets[0].append((t, value))
        kind = self.policy.kind
        if kind is PolicyKind.FULL:
            return
        if kind is PolicyKind.FIXED:
            u0 = self._subsets[0]
            limit = self.policy.T + 1e-12 * max(self.policy.T, abs(t))
            while u0[-1][0] - u0[0][0] > limit:
                u0.popleft()
            return
        self._maintain_adaptive()

    def _maintain_adaptive(self) -> None:
        T = self.policy.T
        subsets = self._subsets
        u0 = subsets[0]
        tol = 1e-12 * max(T, abs(u0[-1][0]))
        # one move and its cascade at a time, until U_0 spans at most T
        while u0[-1][0] - u0[0][0] > T + tol:
            if len(subsets) == 1:
                subsets.append(deque())
            subsets[1].append(u0.popleft())
            threshold = T
            l = 1
            while l < len(subsets):
                ul = subsets[l]
                if len(ul) < 2 or ul[-1][0] - ul[0][0] <= threshold + tol:
                    break
                del ul[1]
                if l + 1 == len(subsets):
                    subsets.append(deque())
                subsets[l + 1].append(ul.popleft())
                threshold *= 2.0
                l += 1


POLICIES = {
    "full": lambda T: MemoryPolicy.full(),
    "fixed": MemoryPolicy.fixed,
    "adaptive-present": MemoryPolicy.adaptive_present,
    "adaptive-gl": MemoryPolicy.adaptive_gl,
}


def assert_same(buf: HistoryBuffer, ref: DequeBuffer) -> None:
    for got, want in ((buf.times(), ref.times()), (buf.values(), ref.values())):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert buf.count_stored() == ref.count_stored()
    assert buf.subsets() == ref.subsets()


def replay(policy, times, width, reads, seed, block=1) -> int:
    """Write ``times`` with random rows (scalars when ``width`` is None) to
    both buffers, to ``HistoryBuffer`` one at a time through ``push`` when
    ``block`` is 1, else in blocks of ``block`` through ``extend``; compare
    them after each write that holds an index in ``reads`` and after the
    last, and return the most rows the reference removed in one write."""
    rng = np.random.default_rng(seed)
    buf, ref = HistoryBuffer(policy), DequeBuffer(policy)
    most_removed = 0
    for lo in range(0, len(times), block):
        ts = times[lo : lo + block]
        rows = [float(rng.standard_normal()) if width is None else rng.standard_normal(width) for _ in ts]
        if block == 1:
            buf.push(ts[0], rows[0])
        else:
            buf.extend(ts, rows)
        stored = ref.count_stored() + len(ts)
        for t, row in zip(ts, rows):
            ref.push(t, row)
        most_removed = max(most_removed, stored - ref.count_stored())
        if not reads.isdisjoint(range(lo, lo + len(ts))):
            assert_same(buf, ref)
    assert_same(buf, ref)
    return most_removed


@given(
    kind=st.sampled_from(sorted(POLICIES)),
    T=st.floats(0.05, 4.0),
    start=st.floats(-5.0, 5.0),
    gaps=st.lists(st.floats(1e-3, 1.0), min_size=0, max_size=300),
    width=st.sampled_from([None, 1, 3]),
    reads=st.sets(st.integers(0, 299)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_matches_deque_buffer(kind, T, start, gaps, width, reads, seed):
    times = np.cumsum([start, *gaps]).tolist()
    replay(POLICIES[kind](T), times, width, reads, seed)


@given(
    kind=st.sampled_from(sorted(POLICIES)),
    T=st.floats(0.05, 4.0),
    start=st.floats(-5.0, 5.0),
    gaps=st.lists(st.floats(1e-3, 1.0), min_size=0, max_size=300),
    width=st.sampled_from([None, 1, 3]),
    sizes=st.lists(st.integers(1, 40), max_size=30),
    pushed=st.sets(st.integers(0, 30)),
    reads=st.sets(st.integers(0, 30)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_extend_matches_deque_buffer(kind, T, start, gaps, width, sizes, pushed, reads, seed):
    # the times cut into blocks of the drawn sizes, and the rest into one
    # last block that can outgrow the arenas; block j is written row by row
    # with push when j is in ``pushed``, else with one extend (its rows as a
    # list for odd j), and both buffers are compared after it when j is in
    # ``reads``
    times = np.cumsum([start, *gaps]).tolist()
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal(len(times) if width is None else (len(times), width))
    cuts = [c for c in np.cumsum([0, *sizes]).tolist() if c < len(times)]
    policy = POLICIES[kind](T)
    buf, ref = HistoryBuffer(policy), DequeBuffer(policy)
    for j, (lo, hi) in enumerate(zip(cuts, [*cuts[1:], len(times)])):
        if j in pushed:
            for i in range(lo, hi):
                buf.push(times[i], rows[i])
        else:
            block = rows[lo:hi]
            buf.extend(times[lo:hi], block.tolist() if j % 2 else block)
        for i in range(lo, hi):
            ref.push(times[i], rows[i])
        if j in reads:
            assert_same(buf, ref)
    assert_same(buf, ref)


def long_run(seed) -> list:
    # a non-uniform grid of 3 * _PENDING_LIMIT steps, 0.01 on average
    gaps = np.random.default_rng(seed).uniform(0.5, 1.5, 3 * _PENDING_LIMIT)
    return (np.cumsum([0.0, *gaps]) * 0.01).tolist()


long_runs = given(
    kind=st.sampled_from(sorted(POLICIES)),
    reads=st.sets(st.integers(0, 3 * _PENDING_LIMIT), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)


@long_runs
@settings(max_examples=8, deadline=None)
def test_matches_deque_buffer_past_pending_limit(kind, reads, seed):
    # long runs of pushes between reads, with the memory length of 50 mean
    # steps
    replay(POLICIES[kind](0.5), long_run(seed), None, reads, seed)


@long_runs
@settings(max_examples=8, deadline=None)
def test_extend_matches_deque_buffer_past_shift_limit(kind, reads, seed):
    # the same runs written through extend in blocks of _PENDING_LIMIT rows:
    # unless full memory keeps every row, some block removes more rows than
    # the shift takes, so the boolean compaction runs
    most_removed = replay(POLICIES[kind](0.5), long_run(seed), None, reads, seed, _PENDING_LIMIT)
    assert most_removed > _SHIFT_LIMIT or kind == "full"


@given(
    kind=st.sampled_from(["adaptive-present", "adaptive-gl"]),
    m=st.integers(1, 4),
    width=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_matches_deque_buffer_read_after_every_push(kind, m, width, seed):
    # how the solvers use a buffer: one read after each push.  A memory
    # length of m mean steps and 600 jittered steps fill enough subsets for
    # one push to remove five points or more.  A long burst of pushes and a
    # shorter one, each followed by one read, then check the rows left by
    # many drops of one push each.
    gaps = np.random.default_rng(seed).uniform(0.5, 1.5, 600 + _PENDING_LIMIT + 200)
    times = (np.cumsum([0.0, *gaps]) * 0.01).tolist()
    policy = POLICIES[kind](m * 0.01)
    ref, most_removed = DequeBuffer(policy), 0
    for t in times[:601]:
        stored = ref.count_stored()
        ref.push(t, 0.0)
        most_removed = max(most_removed, stored + 1 - ref.count_stored())
    assert most_removed >= 5
    replay(policy, times, width, set(range(601)) | {650 + _PENDING_LIMIT}, seed)
