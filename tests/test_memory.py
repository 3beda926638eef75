"""History-buffer maintenance and rescaled binomial weights."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmem import HistoryBuffer, MemoryPolicy, PolicyKind, evaluate_caputo, evaluate_gl
from fracmem.core import GRID_RTOL, check_history, check_samples, grid_steps, l1_history, weighted_rows
from fracmem.memory import _GL_CACHE, gl_history, gl_weights


BAD_TIMES = [math.nan, math.inf, -math.inf, None, "1.5"]
BAD_ROWS = ["x", "1.5", 1j, None, [1.0, [2.0]], np.zeros((2, 2)), np.zeros(0), [1.0, None]]


@st.composite
def sample_blocks(draw):
    """A block of times and rows, each part good or bad: times unsorted or
    with one bad entry, a row too many or too few, one bad row, and values
    that may be non-finite."""
    n = draw(st.integers(0, 5))
    times = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        times.sort()
    if n and draw(st.booleans()):
        times[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_TIMES))
    shape = draw(st.sampled_from([(), (2,)]))
    entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf]))
    values = [np.full(shape, draw(entries)) if shape else draw(entries) for _ in range(n + 1)]
    values = values[: max(n + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)]
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(BAD_ROWS))
    return times, values


def outcome(call):
    """The type of the ``TypeError`` or ``ValueError`` that ``call()`` raises, or None."""
    try:
        call()
    except (TypeError, ValueError) as exc:
        return type(exc)
    return None


def push_uniform(policy, dt, n_steps, fn=lambda t: 0.0):
    buf = HistoryBuffer(policy)
    for i in range(n_steps + 1):
        buf.push(i * dt, fn(i * dt))
    return buf


class TestPolicyConstruction:
    def test_full_requires_no_length(self):
        assert MemoryPolicy.full().T is None

    @pytest.mark.parametrize("T", [5.0, 0.5, "x", math.nan, -1.0])
    def test_full_memory_takes_no_length(self, T):
        # a kept T was ignored: a full buffer with T = 0.5 stored every push,
        # and the policy compared unequal to MemoryPolicy.full()
        with pytest.raises(ValueError, match=re.escape(f"full memory keeps every point and takes no T, got T={T!r}")):
            MemoryPolicy(PolicyKind.FULL, T)
        assert MemoryPolicy(PolicyKind.FULL, None) == MemoryPolicy.full()

    @pytest.mark.parametrize("maker", ["fixed", "adaptive_present", "adaptive_gl"])
    def test_truncating_policies_require_positive_length(self, maker):
        with pytest.raises(ValueError):
            getattr(MemoryPolicy, maker)(0.0)

    @pytest.mark.parametrize("maker", ["fixed", "adaptive_present", "adaptive_gl"])
    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_truncating_policies_require_finite_length(self, maker, T):
        with pytest.raises(ValueError, match="finite"):
            getattr(MemoryPolicy, maker)(T)

    @pytest.mark.parametrize("kind", ["fixed", "full", None])
    def test_kind_must_be_a_policy_kind(self, kind):
        # a string kind once passed and kept every point, as full memory does
        with pytest.raises(TypeError, match=re.escape(f"policy kind must be a PolicyKind, got {kind!r}")):
            MemoryPolicy(kind, 1.0)


POLICY_IDS = ["full", "fixed", "present", "gl"]


class TestPolicyContract:
    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.5),
        MemoryPolicy.adaptive_present(0.5),
        MemoryPolicy.adaptive_gl(0.5),
    ], ids=POLICY_IDS)
    def test_history_needs_t_n_after_newest_time(self, policy):
        times, values = np.array([0.0, 0.1, 0.2]), np.array([0.0, 1.0, 4.0])
        for t_n in (0.2, 0.1):
            with pytest.raises(ValueError, match="after the last history time"):
                policy.history(times, values, t_n, 0.5, 0.1)

    def test_fixed_window_shorter_than_step_is_rejected(self):
        with pytest.raises(ValueError, match="fixed memory_length=0.001 is shorter than dt=0.01"):
            MemoryPolicy.fixed(0.001).check_step(0.01)

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.01),
        MemoryPolicy.adaptive_present(0.001),
        MemoryPolicy.adaptive_gl(0.001),
    ], ids=POLICY_IDS)
    def test_other_steps_are_accepted(self, policy):
        policy.check_step(0.01)


class TestBufferBasics:
    def test_push_requires_increasing_time(self):
        buf = HistoryBuffer(MemoryPolicy.full())
        buf.push(0.0, 1.0)
        buf.push(1.0, 2.0)
        with pytest.raises(ValueError):
            buf.push(1.0, 3.0)

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(1.0),
        MemoryPolicy.adaptive_present(1.0),
        MemoryPolicy.adaptive_gl(1.0),
    ], ids=["full", "fixed", "present", "gl"])
    def test_push_rejects_nan_time(self, policy):
        buf = HistoryBuffer(policy)
        buf.push(0.0, 0.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"pushed time {t} is not finite or not after"):
                buf.push(t, 1.0)
        buf.push(0.5, 2.0)
        assert list(buf.times()) == [0.0, 0.5]
        assert list(buf.values()) == [0.0, 2.0]

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_first_push_requires_finite_time(self, t):
        buf = HistoryBuffer(MemoryPolicy.full())
        with pytest.raises(ValueError, match="finite"):
            buf.push(t, 0.0)
        assert buf.count_stored() == 0

    def test_full_policy_keeps_everything(self):
        buf = push_uniform(MemoryPolicy.full(), 0.1, 50)
        assert buf.count_stored() == 51
        assert buf.count_conv_terms() == 50
        # a window that never closes: spans up to the largest float, and
        # one that overflows to inf, move nothing and warn of nothing
        times = [-1e308, -1.0, 0.0, 1e300, 1e308]
        pushed, block = HistoryBuffer(MemoryPolicy.full()), HistoryBuffer(MemoryPolicy.full())
        for t in times:
            pushed.push(t, t)
        block.extend(times, times)
        for buf in (pushed, block):
            assert buf.subsets() == (tuple(times),)
            assert buf.times().tolist() == buf.values().tolist() == times

    def test_fixed_policy_window(self):
        buf = push_uniform(MemoryPolicy.fixed(1.0), 0.1, 50)
        times = buf.times()
        assert times.size == 11
        assert times[-1] - times[0] == pytest.approx(1.0)

    def test_fixed_window_equal_to_step_keeps_one_interval(self):
        buf = push_uniform(MemoryPolicy.fixed(0.1), 0.1, 200)
        assert buf.count_stored() == 2

    def test_rows_are_copied_at_push(self):
        buf = HistoryBuffer(MemoryPolicy.full())
        u = np.zeros(3)
        buf.push(0.0, u)
        u[:] = 1.0
        buf.push(1.0, u)
        assert buf.values().tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("row", [5.0, np.array([5.0])], ids=["scalar", "shape-1"])
    def test_row_shape_must_match_the_stored_rows(self, row):
        buf = HistoryBuffer(MemoryPolicy.full())
        buf.push(0.0, np.zeros(3))
        message = f"row of shape {np.shape(row)}, expected the stored rows' shape (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            buf.push(1.0, row)
        assert buf.count_stored() == 1
        buf.push(1.0, np.ones(3))
        assert buf.values().tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("shape, bad, error", [
        ((), "abc", TypeError),
        ((), 1j, TypeError),
        ((), np.zeros(3), ValueError),
        ((3,), [1.0, "x", 2.0], TypeError),
        ((3,), 5.0, ValueError),
        ((3,), np.zeros(2), ValueError),
        ((), None, TypeError),
        ((3,), None, TypeError),
        ((3,), np.array([1.0, None, 2.0]), TypeError),
        ((3,), [1.0, None, 2.0], TypeError),
        # numpy would convert these to floats
        ((), "1.5", TypeError),
        ((), b"1.5", TypeError),
        ((2,), np.array(["1", "2"]), TypeError),
        ((3,), [1.0, [2.0, 3.0], 4.0], ValueError),
    ], ids=["string", "complex", "scalar-wide", "string-entry", "vector-scalar", "vector-narrow",
            "none", "vector-none", "none-entry", "none-entry-list",
            "numeric-string", "numeric-bytes", "numeric-string-vector", "ragged"])
    @pytest.mark.parametrize("policy", [MemoryPolicy.full(), MemoryPolicy.fixed(0.05)], ids=["full", "fixed"])
    def test_failed_push_commits_nothing(self, policy, shape, bad, error):
        # 1..40 earlier pushes meet the arenas full at every capacity
        # boundary, the fixed window with removed rows still in them; the
        # twin buffer gets the same pushes but the failed one
        def row(i):
            return float(i) if shape == () else np.full(shape, float(i))

        def assert_same(buf, twin):
            assert buf.count_stored() == twin.count_stored()
            assert buf.times().tolist() == twin.times().tolist()
            assert buf.values().tolist() == twin.values().tolist()

        for k in range(1, 41):
            buf, twin = HistoryBuffer(policy), HistoryBuffer(policy)
            for i in range(k):
                buf.push(i * 0.01, row(i))
                twin.push(i * 0.01, row(i))
            with pytest.raises(error):
                buf.push(k * 0.01, bad)
            assert_same(buf, twin)
            buf.push(k * 0.01, row(k))
            twin.push(k * 0.01, row(k))
            assert_same(buf, twin)

    @pytest.mark.parametrize("bad, error", [
        ("abc", TypeError), (1j, TypeError), (np.array([1j, 2j]), TypeError), (None, TypeError),
        ([1.0, None], TypeError),
        ("1.5", TypeError), (b"1.5", TypeError), (np.array(["1", "2"]), TypeError),
        # no history operator contracts matrix or empty rows
        (np.zeros((2, 3)), ValueError), (np.zeros(0), ValueError), ([1.0, [2.0, 3.0]], ValueError),
    ], ids=["string", "complex", "complex-vector", "none", "none-entry",
            "numeric-string", "numeric-bytes", "numeric-string-vector", "matrix", "empty", "ragged"])
    def test_failed_first_push_fixes_no_row_shape(self, bad, error):
        # as one push and as the rows of a first block
        for write in (lambda buf: buf.push(0.0, bad), lambda buf: buf.extend([0.0, 1.0], [bad, bad])):
            buf = HistoryBuffer(MemoryPolicy.full())
            with pytest.raises(error):
                write(buf)
            assert buf.count_stored() == 0
            buf.push(0.0, np.ones(3))
            assert buf.values().tolist() == [[1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("shape, steps, rows, error", [
        ((), [0, 1, 1, 2], [0.0] * 4, ValueError),
        ((), [-1, 0, 1], [0.0] * 3, ValueError),
        ((), [0, 2, 1], [0.0] * 3, ValueError),
        ((), [0, math.nan, 2], [0.0] * 3, ValueError),
        ((), [0, 1, math.inf], [0.0] * 3, ValueError),
        ((), [0, 1, 2], [0.0] * 2, ValueError),
        ((), [np.array([0, 1]), np.array([2, 3])], [[0.0, 0.0]] * 2, ValueError),
        ((), [0, None, 2], [0.0] * 3, TypeError),
        ((), [0, 1, 2], [1.0, None, 2.0], TypeError),
        ((), [0, 1, 2], [1.0, 1j, 2.0], TypeError),
        ((), [0, 1, 2], np.array([1.0, 1j, 2.0]), TypeError),
        ((), [0, 1, 2], [1.0, "abc", 2.0], TypeError),
        ((), [0, 1], ["2.5", "3.5"], TypeError),
        ((), [0, 1, 2], np.zeros((3, 3)), ValueError),
        ((3,), [0, 1, 2], np.zeros((3, 2)), ValueError),
        ((3,), [0, 1, 2], np.zeros(3), ValueError),
        ((3,), [0, 1, 2], [[0.0] * 3, [0.0, None, 0.0], [0.0] * 3], TypeError),
        ((3,), [0, 1], [np.zeros(3), np.zeros(2)], ValueError),
    ], ids=["repeated-time", "time-not-after-newest", "decreasing-time", "nan-time", "inf-time",
            "too-few-rows", "matrix-times", "none-time", "none-entry", "complex-entry", "complex-array",
            "string-entry", "numeric-strings", "scalar-wide", "vector-narrow", "vector-scalar",
            "vector-none-entry", "ragged-rows"])
    @pytest.mark.parametrize("policy", [MemoryPolicy.full(), MemoryPolicy.fixed(0.05)], ids=["full", "fixed"])
    def test_failed_block_commits_nothing(self, policy, shape, steps, rows, error):
        # a bad time or row anywhere in a block raises push's exception type
        # for it; 1, 15, 16 and 40 earlier pushes leave the arenas nearly
        # empty, one row short of full, full, and, under the fixed window,
        # holding removed rows
        def row(i):
            return float(i) if shape == () else np.full(shape, float(i))

        for k in (1, 15, 16, 40):
            buf, twin = HistoryBuffer(policy), HistoryBuffer(policy)
            for i in range(k):
                buf.push(i * 0.01, row(i))
                twin.push(i * 0.01, row(i))
            times = [None if d is None else (k + d) * 0.01 for d in steps]
            with pytest.raises(error):
                buf.extend(times, rows)
            # an empty block stores nothing and checks nothing
            buf.extend([], [])
            block = [row(k + i) for i in range(20)]
            buf.extend([(k + i) * 0.01 for i in range(20)], block)
            for i, value in enumerate(block):
                twin.push((k + i) * 0.01, value)
            assert buf.count_stored() == twin.count_stored()
            assert buf.times().tolist() == twin.times().tolist()
            assert buf.values().tolist() == twin.values().tolist()

    @pytest.mark.parametrize("write, named", [
        (lambda buf: buf.push(0.0, "1.5"), "'1.5'"),
        (lambda buf: buf.push(0.0, [1.0, None]), "[1.0, None]"),
        (lambda buf: buf.extend([0.0, 1.0, 2.0], [1.0, b"2.5", 3.0]), "b'2.5'"),
    ], ids=["push", "push-entry", "extend"])
    def test_non_real_row_error_names_the_row_as_passed(self, write, named):
        # push's row, not the one-row block it becomes; the first bad row of a block
        buf = HistoryBuffer(MemoryPolicy.full())
        message = re.escape(f"history rows must hold real numbers, got {named}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            write(buf)
        assert buf.count_stored() == 0

    @settings(max_examples=150, deadline=None)
    @given(block=sample_blocks())
    def test_buffer_and_evaluators_share_one_sample_rule(self, block):
        # an empty buffer takes a block as check_samples does; the
        # evaluators' check adds only at least 2 points and finite values
        times, values = block
        rule = outcome(lambda: check_samples(times, values))
        assert outcome(lambda: HistoryBuffer(MemoryPolicy.full()).extend(times, values)) is rule
        own = rule is None and (len(times) < 2 or not np.isfinite(np.asarray(values, dtype=float)).all())
        assert outcome(lambda: check_history(times, values)) is (ValueError if own else rule)

    @pytest.mark.parametrize("write, named", [
        (lambda buf: buf.push(1.0, [1.0, [2.0, 3.0], 4.0]), "[1.0, [2.0, 3.0], 4.0]"),
        (lambda buf: buf.extend([1.0, 2.0], [np.zeros(3), np.zeros(2)]), "array([0., 0.])"),
    ], ids=["push", "extend"])
    def test_ragged_row_error_names_the_row_as_passed(self, write, named):
        # numpy's own error for rows of unequal shape names no row
        buf = HistoryBuffer(MemoryPolicy.full())
        buf.push(0.0, np.zeros(3))
        message = re.escape(f"history rows must each be a scalar or a non-empty vector: {named}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            write(buf)
        assert buf.count_stored() == 1

    @pytest.mark.parametrize("make, n", [
        (np.float32, 40), (np.int64, 40), (np.array, 40), (int, 40), (bool, 2),
    ], ids=["float32", "int64", "0-d", "int", "bool"])
    def test_push_and_extend_store_times_as_floats(self, make, n):
        # a time that is not a Python float takes push's one-row extend, so
        # the subsets hold Python floats and maintenance runs in float64
        times = [make(i / 3 if make in (np.float32, np.array) else i) for i in range(n)]
        pushed, block = (HistoryBuffer(MemoryPolicy.adaptive_present(1.0)) for _ in range(2))
        for t in times:
            pushed.push(t, 0.0)
        block.extend(times, np.zeros(n))
        assert pushed.subsets() == block.subsets()
        for buf in (pushed, block):
            assert {t.__class__ for subset in buf.subsets() for t in subset} == {float}

    @pytest.mark.parametrize("make", [
        lambda i: i / 3,
        lambda i: np.float64(i) / 3,
        lambda i: i,
        lambda i: i % 3 == 0,
        lambda i: np.array(i / 3),
        lambda i: np.arange(3, dtype=np.float32) / (i + 1),
        lambda i: np.arange(3) * i,
        lambda i: [i / 3, 1.0, -i],
        lambda i: (np.arange(3) / (i + 1)).astype(">f8"),
        lambda i: np.linspace(0.0, i / 3, 6)[::2],
    ], ids=["float", "float64", "int", "bool", "0-d", "float32", "int-array", "list",
            "big-endian", "strided-view"])
    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(), MemoryPolicy.adaptive_present(1.0),
    ], ids=["full", "present"])
    def test_push_and_extend_store_the_same_bits(self, policy, make):
        # a row of each kind after 15, 16 and 17 earlier ones, on both sides
        # of the first arena growth: pushed, pushed after k pushes as a
        # one-row block, and stored as one block, with removals under the
        # adaptive policy
        for k in (15, 16, 17):
            times, rows = [0.25 * i for i in range(k + 1)], [make(i) for i in range(k + 1)]
            pushed, one_row, block = (HistoryBuffer(policy) for _ in range(3))
            for t, row in zip(times, rows):
                pushed.push(t, row)
            for t, row in zip(times[:k], rows[:k]):
                one_row.push(t, row)
            one_row.extend(times[k:], rows[k:])
            block.extend(times, rows)
            want = np.asarray(rows, dtype=float)[[times.index(t) for t in pushed.times().tolist()]]
            for buf in (pushed, one_row, block):
                assert buf.subsets() == pushed.subsets()
                assert buf.times().tobytes() == pushed.times().tobytes()
                assert buf.values().tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 4096], ids=["push", "extend"])
    def test_arenas_stay_bounded_without_reads(self, block):
        # 100k samples and no read, pushed one at a time or in blocks: each
        # call drops the rows it removed, so the traced memory (arenas,
        # subset deques and the block in flight) peaks at a small multiple
        # of the bytes of the stored times and rows, where arenas that kept
        # every pushed row would need 1.6 MB; one at a time the arenas are
        # at most twice the stored rows, and a block in flight takes more
        buf = HistoryBuffer(MemoryPolicy.adaptive_present(1.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for lo in range(0, 100_000, block):
                if block == 1:
                    buf.push(lo * 0.0025, 0.0)
                else:
                    times = np.arange(lo, min(lo + block, 100_000)) * 0.0025
                    buf.extend(times, np.zeros(times.size))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        stored_bytes = 16 * buf.count_stored()
        assert peak <= (5 if block == 1 else 16) * stored_bytes
        assert buf.count_stored() == buf.times().size

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.full(),
        MemoryPolicy.fixed(0.05),
        MemoryPolicy.adaptive_present(0.05),
        MemoryPolicy.adaptive_gl(0.05),
    ], ids=POLICY_IDS)
    def test_reads_change_nothing(self, policy):
        # after every push and block the arenas hold exactly the stored rows,
        # so the reads return prefixes of them and move no byte
        buf = HistoryBuffer(policy)
        for i in range(300):
            if i % 3:
                buf.push(i * 0.01, np.full(2, float(i)))
            else:
                buf.extend([(i + 0.5) * 0.01], np.full((1, 2), float(i)))
            arenas = (buf._n, buf._times.tobytes(), buf._values.tobytes())
            buf.subsets()
            assert buf.count_stored() == buf.times().size == buf.values().shape[0] == buf._n
            assert (buf._n, buf._times.tobytes(), buf._values.tobytes()) == arenas

    def test_reads_are_read_only(self):
        buf = push_uniform(MemoryPolicy.full(), 0.1, 3)
        for out in (buf.times(), buf.values(), gl_weights(4, 0.5)):
            with pytest.raises(ValueError, match="read-only"):
                out[0] = 1.0

    @pytest.mark.parametrize("state", ["empty", "first-push", "grown", "dropped"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "vector"])
    def test_reads_are_read_only_in_every_arena_state(self, state, shape):
        buf = HistoryBuffer(MemoryPolicy.adaptive_present(0.05 if state == "dropped" else 1.0))
        pushes = {"empty": 0, "first-push": 1, "grown": 17, "dropped": 40}[state]
        for i in range(pushes):
            buf.push(i * 0.01, np.full(shape, float(i)) if shape else float(i))
        n = buf.count_stored()
        # 16 rows fill the first arenas; T = 0.05 removes points by t = 0.39
        assert {"empty": n == 0, "first-push": buf._cap == 16, "grown": n == 17 and buf._cap == 32,
                "dropped": n < pushes}[state]
        times, values = buf.times(), buf.values()
        assert times.shape == (n,)
        assert values.shape == ((n,) + shape if pushes else (0,))
        for out in (times, values):
            assert not out.flags.writeable
            if n:
                with pytest.raises(ValueError, match="read-only"):
                    out[0] = 1.0

    def test_initial_value_retained(self):
        buf = push_uniform(MemoryPolicy.adaptive_present(1.0), 0.25, 40, fn=lambda t: t + 3.0)
        assert buf.values()[0] == 3.0
        assert buf.times()[0] == 0.0


class TestAdaptiveMaintenance:
    def test_hand_trace_small_window(self):
        # T = 2 with unit steps: pushing t = 0..6 must land in subsets
        # {4,5,6}, {2,3}, {0} (the t=1 point is thinned away)
        buf = push_uniform(MemoryPolicy.adaptive_present(2.0), 1.0, 6)
        assert buf.subsets() == ((4.0, 5.0, 6.0), (2.0, 3.0), (0.0,))
        assert list(buf.times()) == [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_no_thinning_until_window_filled(self):
        buf = push_uniform(MemoryPolicy.adaptive_present(1.0), 0.1, 10)
        assert len(buf.subsets()) == 1
        assert buf.count_stored() == 11

    def test_ideal_layout_at_dyadic_horizon(self):
        # after t = 2^L * T each coarsened subset holds m points with
        # spacing doubled per level
        T, dt, L = 1.0, 0.1, 3
        m = round(T / dt)
        buf = push_uniform(MemoryPolicy.adaptive_present(T), dt, round(2**L * T / dt))
        layout = buf.subsets()
        sizes = [len(s) for s in layout if s]
        assert sizes[0] == m + 1
        assert all(s == m for s in sizes[1:])
        for l in range(1, len(sizes)):
            gaps = np.diff(layout[l])
            assert np.allclose(gaps, 2 ** (l - 1) * dt)

    @given(
        dt=st.floats(0.01, 0.5),
        m=st.integers(2, 12),
        n_steps=st.integers(1, 400),
    )
    @settings(max_examples=60, deadline=None)
    def test_buffer_invariants(self, dt, m, n_steps):
        T = m * dt
        buf = push_uniform(MemoryPolicy.adaptive_present(T), dt, n_steps)
        times = buf.times()
        # strictly increasing, endpoints retained
        assert np.all(np.diff(times) > 0.0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(n_steps * dt)
        # newest window spans at most T (after maintenance)
        u0, *coarse = layout = buf.subsets()
        assert u0[-1] - u0[0] <= T * (1.0 + 1e-9)
        # each coarsened subset spans at most its doubling threshold
        for l, ul in enumerate(coarse, start=1):
            if len(ul) >= 2:
                assert ul[-1] - ul[0] <= 2 ** (l - 1) * T * (1.0 + 1e-9)
        # logarithmic storage: at most ~m+1 points per active subset
        levels = sum(1 for s in layout if s)
        assert buf.count_stored() <= (levels + 1) * (m + 1)

    @pytest.mark.parametrize("times", [
        # the graded start t_j = (j/100)^3 on [0, 1], then steps of 0.01 to 4
        [(j / 100) ** 3 for j in range(101)] + [1.0 + 0.01 * i for i in range(1, 301)],
        # eleven points 0.01 apart, then a jump and steps of 0.05
        [0.01 * i for i in range(11)] + [0.5 + 0.05 * i for i in range(20)],
    ], ids=["graded", "steps-grow"])
    @pytest.mark.parametrize("policy", [
        MemoryPolicy.fixed(0.1), MemoryPolicy.adaptive_present(0.1), MemoryPolicy.adaptive_gl(0.1),
    ], ids=["fixed", "present", "gl"])
    def test_u0_spans_at_most_T_as_steps_grow(self, policy, times):
        # maintenance moves points out of U_0 until it spans at most T, so a
        # step longer than the ones before it cannot leave U_0 wide
        buf = HistoryBuffer(policy)
        for t in times:
            buf.push(t, 0.0)
            u0 = buf.subsets()[0]
            assert u0[-1] - u0[0] <= 0.1 * (1.0 + 1e-9)

    def test_agrees_with_full_memory_before_thinning_starts(self):
        full = push_uniform(MemoryPolicy.full(), 0.1, 10, fn=lambda t: t * t)
        adap = push_uniform(MemoryPolicy.adaptive_present(1.0), 0.1, 10, fn=lambda t: t * t)
        assert np.array_equal(full.times(), adap.times())
        assert np.array_equal(full.values(), adap.values())


class TestGLWeights:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_recurrence_matches_binomial_product(self, alpha):
        # oracle: (-1)^j C(alpha, j) computed as an explicit product
        for j in range(31):
            prod = 1.0
            for i in range(j):
                prod *= (alpha - i) / (i + 1)
            expect = (-1.0) ** j * prod
            assert gl_weights(30, alpha)[j] == pytest.approx(expect, rel=1e-12)

    def test_first_weights(self):
        a = 0.5
        assert gl_weights(0, a).tolist() == [1.0]
        w = gl_weights(2, a)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-a)
        assert w[2] == pytest.approx(a * (a - 1.0) / 2.0)

    def test_weights_alternate_to_negative_then_shrink(self):
        w = gl_weights(30, 0.4)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0.0)
        assert np.all(np.abs(w[2:]) < np.abs(w[1:-1]))

    def test_cache_growth_keeps_the_recurrence_bits(self):
        alpha = 0.4321  # an order no other test caches
        seq = [1.0]
        for j in range(1, 1001):
            seq.append(seq[-1] * (j - 1.0 - alpha) / j)
        for jmax in (3, 1000, 17, 600):
            assert gl_weights(jmax, alpha).tolist() == seq[: jmax + 1]

    @pytest.mark.parametrize("jmax, message", [
        (-3, "jmax must be >= 0, got -3"),
        (2.7, "jmax must be an integer, got 2.7"),
        (True, "jmax must be an integer, got True"),
    ], ids=["negative", "fraction", "bool"])
    def test_rejects_a_bad_jmax(self, jmax, message):
        # unchecked, -3 gives an empty array, 2.7 a TypeError from slicing
        # and True the two weights of jmax = 1
        with pytest.raises(ValueError, match=re.escape(message)):
            gl_weights(jmax, 0.5)

    def test_history_reads_the_table_across_growth(self):
        # gl_history grows the lag-descending table itself: from nothing to
        # 11 weights, by one doubling, past several in one call, then a
        # shorter read of the grown table; each result has the oracle's bits
        alpha, dt = 0.2718, 0.01  # an order no other test caches
        rng = np.random.default_rng(5)
        for n in (10, 21, 5000, 50):
            idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, n), min(n - 1, 300), replace=False))])
            times = idx * dt
            for values in (rng.standard_normal(idx.size), rng.standard_normal((idx.size, 4))):
                got = gl_history(times, values, n * dt, alpha, dt)
                want = gl_history_by_diffs(times, values, n * dt, alpha, dt)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        seq = [1.0]
        for j in range(1, 5001):
            seq.append(seq[-1] * (j - 1.0 - alpha) / j)
        for jmax in (0, 10, 50, 5000):
            w = gl_weights(jmax, alpha)
            assert w.tolist() == seq[: jmax + 1]
            assert not w.flags.writeable

    @pytest.mark.parametrize("offset", [0, -3, 10**6], ids=["before", "from-negative", "far-later"])
    def test_history_off_grid_index_zero_reads_weights_by_lag(self, offset):
        # the weights depend on the lags alone, so a history shifted by whole
        # steps, back before index 0 or far past it, gives the oracle's bits
        # and a table as long as its lags, not as its absolute indices
        alpha, dt = 0.4142, 0.1  # an order no other test caches
        idx = np.array([-7, -5, -4, -1, 0, 2]) + offset
        values = np.array([0.3, -1.0, 2.0, 0.5, 1.5, -0.25])
        for n in np.array([3, 0]) + offset:
            times = idx[idx < n] * dt
            got = gl_history(times, values[: times.size], n * dt, alpha, dt)
            want = gl_history_by_diffs(times, values[: times.size], n * dt, alpha, dt)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert _GL_CACHE[alpha].size < 100

    def test_weight_sum_partial_unity(self):
        # sum_{j=0}^J w_j = (-1)^J C(alpha-1, J) -> 0, staying positive
        w = gl_weights(200, 0.3)
        partial = np.cumsum(w)
        assert np.all(partial > 0.0)
        assert partial[-1] < partial[0]


class TestEvaluateGL:
    def test_uniform_grid_matches_direct_convolution(self):
        alpha, dt = 0.5, 0.1
        times = np.arange(0.0, 1.05, dt)
        values = times**2
        got = evaluate_gl(times, values, alpha, dt)
        n = times.size - 1
        w = gl_weights(n, alpha)
        direct = sum(w[n - k] * (values[k] - values[0]) for k in range(1, n + 1)) / dt**alpha
        assert got == pytest.approx(direct, rel=1e-12)

    def test_quadratic_accuracy_on_uniform_grid(self):
        # GL derivative of t^2 approaches 2 t^(2-a) / Gamma(3-a)
        alpha, dt = 0.5, 0.001
        times = np.arange(0.0, 1.0 + dt / 2, dt)
        got = evaluate_gl(times, times**2, alpha, dt)
        expect = 2.0 / math.gamma(3.0 - alpha)
        assert got == pytest.approx(expect, rel=2e-2)

    def test_thinned_history_rescales_weights(self):
        alpha, dt = 0.3, 0.1
        full_times = np.arange(0.0, 1.05, dt)
        # the second layout's newest interval spans two grid steps
        for keep in ([0, 2, 4, 6, 8, 9, 10], [0, 2, 4, 6, 8, 10]):
            thinned = full_times[keep]
            values = thinned**2
            got = evaluate_gl(thinned, values, alpha, dt)
            lags = np.rint((thinned[-1] - thinned[1:]) / dt).astype(int)
            w = gl_weights(int(lags.max()), alpha)[lags] * np.diff(thinned) / dt
            expect = float(w @ (values[1:] - values[0])) / dt**alpha
            assert got == pytest.approx(expect, rel=1e-12)

    def test_rejects_off_grid_times(self):
        with pytest.raises(ValueError):
            evaluate_gl([0.0, 0.05, 0.1], [0.0, 1.0, 2.0], 0.5, 0.1)

    def test_rejects_an_early_time_off_the_grid_of_a_long_history(self):
        # each time is held to its own step count: half a step off at step 1
        # stays off the grid however long the history
        with pytest.raises(ValueError, match="history times do not sit on the uniform base grid"):
            evaluate_gl([0.0, 0.105, 1e7], [0.0, 1.0, 2.0], 0.5, 0.1)

    @pytest.mark.parametrize("off", [0.99e-9, 1.01e-9], ids=["inside", "outside"])
    def test_stored_times_take_the_verdict_of_grid_steps(self, off):
        # 1000 steps plus a relative part of a step just inside or just
        # outside GRID_RTOL, as an early time of the history
        dt, x = 0.5, 500.0 * (1.0 + off)
        on_grid = grid_steps(x, dt) is not None
        assert on_grid == (off < GRID_RTOL)
        times, values = [0.0, x, 600.0], [0.0, 1.0, 2.0]
        if on_grid:
            evaluate_gl(times, values, 0.5, dt)
        else:
            with pytest.raises(ValueError, match="history times do not sit on the uniform base grid"):
                evaluate_gl(times, values, 0.5, dt)

    @pytest.mark.parametrize("operator", ["l1", "gl"])
    def test_one_point_history_gives_the_row_shape(self, operator):
        # no stored interval: h is 0.0 for scalar rows and zeros of the row
        # shape for vector rows, as for a longer history
        times = np.array([0.0])
        for values, want in ((np.array([1.0]), 0.0), (np.array([[1.0, 2.0]]), np.zeros(2))):
            if operator == "l1":
                _, h = l1_history(times, values, 0.1, 0.5)
            else:
                _, h = gl_history(times, values, 0.1, 0.5, 0.1)
            assert same_bits(h, want)

    @pytest.mark.parametrize("t_n", [0.2, 0.1, math.inf, math.nan])
    def test_history_operators_reject_a_new_time_not_finite_and_later(self, t_n):
        # unchecked, an infinite t_n gives a NaN (L1) or an OverflowError (GL)
        times, values = np.array([0.0, 0.1, 0.2]), np.array([0.0, 1.0, 2.0])
        message = re.escape(f"t_n={t_n} must be finite and after the last history time 0.2")
        with pytest.raises(ValueError, match=message):
            l1_history(times, values, t_n, 0.5)
        with pytest.raises(ValueError, match=message):
            gl_history(times, values, t_n, 0.5, 0.1)

    @pytest.mark.parametrize("t_n", [0.25, 0.2 + 1e-6, 3.0 + 1e-7])
    def test_history_operator_rejects_a_new_time_off_the_grid(self, t_n):
        times, values = np.array([0.0, 0.1, 0.2]), np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=re.escape(f"t_n={t_n} does not sit on the uniform base grid")):
            gl_history(times, values, t_n, 0.5, 0.1)
        # rounding of i * dt stays on the grid, as evaluate_gl allows it
        for i in (3, 30, 3000):
            gl_history(times, values, i * 0.1, 0.5, 0.1)

    @pytest.mark.parametrize("dt, error, message", [
        (0.0, ValueError, "dt must be positive and finite, got 0.0"),
        (-0.1, ValueError, "dt must be positive and finite, got -0.1"),
        (math.inf, ValueError, "dt must be positive and finite, got inf"),
        ("0.1", TypeError, "dt must be a real number, got '0.1'"),
    ], ids=["zero", "negative", "inf", "str"])
    def test_history_operator_checks_dt(self, dt, error, message):
        # unchecked, 0 raises ZeroDivisionError, -0.1 an IndexError, and inf
        # gives (0.0, 0.0)
        times, values = np.array([0.0, 0.1, 0.2]), np.array([0.0, 1.0, 2.0])
        for operator in (gl_history, MemoryPolicy.adaptive_gl(1.0).history):
            with pytest.raises(error, match=re.escape(message)):
                operator(times, values, 0.3, 0.5, dt)

    def test_history_operator_takes_a_numpy_dt_as_its_float(self):
        times = np.arange(6) * 0.1
        for values in (np.sin(times), np.outer(times, [1.0, -2.0])):
            got = gl_history(times, values, 0.6, 0.5, np.float64(0.1))
            want = gl_history(times, values, 0.6, 0.5, 0.1)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("times, values, message", [
        ([0.0, 0.1, 0.1], [0.0, 1.0, 2.0], "strictly increasing"),
        ([0.0, 0.2, 0.1], [0.0, 1.0, 2.0], "strictly increasing"),
        ([0.0, 0.1, 0.2], [0.0, 1.0], "one row per time point"),
        ([0.1], [1.0], "at least 2 time points"),
        # unchecked, a non-finite history gives a silent NaN
        ([0.0, 0.1, 0.2], [0.0, math.nan, 2.0], "history values must be finite"),
        ([0.0, 0.1, 0.2], [0.0, math.inf, 2.0], "history values must be finite"),
        ([0.0, 0.1, 0.2], [[0.0, 1.0], [1.0, 2.0], [-math.inf, 3.0]], "history values must be finite"),
        ([-math.inf, 0.1, 0.2], [0.0, 1.0, 2.0], "history times must be finite"),
        ([0.0, 0.1, math.nan], [0.0, 1.0, 2.0], "history times must be finite"),
        # unchecked, matrix rows give a silently wrong result at 3 times and
        # a matmul error at 4, and empty rows divide by zero
        ([0.0, 0.1, 0.2], np.ones((3, 2, 3)), "a scalar or a non-empty vector"),
        ([0.0, 0.1, 0.2, 0.3], np.ones((4, 2, 3)), "a scalar or a non-empty vector"),
        ([0.0, 0.1, 0.2], np.zeros((3, 0)), "a scalar or a non-empty vector"),
    ], ids=["repeated-time", "unsorted", "row-count", "one-point",
            "nan-value", "inf-value", "inf-entry", "-inf-time", "nan-time",
            "matrix-rows", "matrix-rows-4-times", "empty-rows"])
    def test_rejects_what_evaluate_caputo_rejects(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            evaluate_gl(times, values, 0.5, 0.1)
        with pytest.raises(ValueError, match=message):
            evaluate_caputo(times, values, 0.5)

    @pytest.mark.parametrize("times, values, error, message", [
        # numpy would convert strings, bytes and objects to floats, and store None as NaN
        (["0", "0.1", "0.2"], [0.0, 1.0, 2.0], TypeError, "history times must be real numbers"),
        ([0.0, 0.1, 0.2], ["0", "1", "4"], TypeError, "history rows must hold real numbers, got '0'"),
        ([0.0, 0.1, 0.2], [b"0", b"1", b"4"], TypeError, "history rows must hold real numbers, got b'0'"),
        ([0.0, 0.1, 0.2], np.array([0.0, 1.0, 4.0], dtype=object), TypeError,
         "history rows must hold real numbers, got array([0.0, 1.0, 4.0], dtype=object)"),
        ([0.0, 0.1, 0.2], [0.0, None, 4.0], TypeError, "history rows must hold real numbers, got None"),
        ([0.0, 0.1, 0.2], [[0.0, 1.0], [1.0, None], [4.0, 5.0]], TypeError,
         "history rows must hold real numbers, got [1.0, None]"),
        # numpy's own error for rows of unequal shape names no row
        ([0.0, 0.1, 0.2], [0.0, [1.0, 2.0], 4.0], ValueError,
         "history rows must each be a scalar or a non-empty vector: [1.0, 2.0]"),
        ([0.0, 0.1, 0.2], [[0.0, 1.0], [1.0, [2.0, 3.0]], [4.0, 5.0]], ValueError,
         "history rows must each be a scalar or a non-empty vector: [1.0, [2.0, 3.0]]"),
    ], ids=["numeric-string-times", "numeric-strings", "bytes", "object", "none", "none-entry",
            "ragged", "ragged-entry"])
    def test_rejects_rows_that_are_not_real_or_ragged(self, times, values, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            evaluate_gl(times, values, 0.5, 0.1)
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            evaluate_caputo(times, values, 0.5)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_bad_dt(self, dt):
        # before any arithmetic on dt: a NaN step warns of no cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"dt must be positive and finite, got {dt}")):
                evaluate_gl([0.0, 0.1, 0.2], [0.0, 1.0, 2.0], 0.5, dt)

    def test_vector_rows_match_scalar_columns(self):
        alpha, dt = 0.3, 0.1
        times = np.arange(0.0, 1.05, dt)[[0, 2, 4, 6, 8, 9, 10]]
        values = np.column_stack([times**2, np.sin(times)])
        got = evaluate_gl(times, values, alpha, dt)
        assert got.shape == (2,)
        for j in range(2):
            assert got[j] == pytest.approx(evaluate_gl(times, values[:, j], alpha, dt), rel=1e-13)

    def test_gl_buffer_maintenance_matches_present_policy(self):
        dt = 0.1
        gl = push_uniform(MemoryPolicy.adaptive_gl(1.0), dt, 160)
        present = push_uniform(MemoryPolicy.adaptive_present(1.0), dt, 160)
        assert np.array_equal(gl.times(), present.times())
        assert gl.policy.kind is PolicyKind.ADAPTIVE_GL


def l1_history_by_diffs(times, values, t_n, alpha):
    """``core.l1_history`` written with ``np.diff`` and an explicitly built
    summation-by-parts vector: the bit oracle of the library's version."""
    gamma = math.gamma(1.0 - alpha)
    dt_n = t_n - float(times[-1])
    c = dt_n ** (1.0 - alpha) / (1.0 - alpha) / (gamma * dt_n)
    if times.size < 2:
        return c, 0.0 if values.ndim == 1 else np.zeros(values.shape[1:])
    p = (t_n - times) ** (1.0 - alpha)
    coeff = (p[:-1] - p[1:]) / (1.0 - alpha) / np.diff(times)
    if values.ndim == 1:
        return c, float(weighted_rows(coeff, np.diff(values))) / gamma
    g = np.empty(times.size)
    g[0] = -coeff[0]
    g[1:-1] = coeff[:-1] - coeff[1:]
    g[-1] = coeff[-1]
    return c, weighted_rows(g, values) / gamma


def gl_history_by_diffs(times, values, t_n, alpha, dt):
    """``memory.gl_history`` written with ``np.diff``: the bit oracle of the
    library's version."""
    scale = dt ** (-alpha)
    idx = np.rint(times / dt).astype(int)
    n = round(t_n / dt)
    gap = n - int(idx[-1])
    c = gap * scale
    if times.size < 2:
        return c, 0.0 if values.ndim == 1 else np.zeros(values.shape[1:])
    lags = n - idx[1:]
    scaled = gl_weights(int(lags[0]), alpha)[lags] * np.diff(times) / dt
    scaled[-1] += gap
    h = (weighted_rows(scaled, values[1:]) - scaled.sum() * values[0]) * scale
    return c, float(h) if values.ndim == 1 else h


def same_bits(got, want) -> bool:
    """Equal type class (float or array), shape and bytes."""
    if isinstance(want, float):
        return isinstance(got, float) and np.float64(got).tobytes() == np.float64(want).tobytes()
    return isinstance(got, np.ndarray) and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestHistoryOperatorBits:
    """Both history operators return the bits of their difference-form
    oracles, on random strictly increasing histories."""

    @pytest.mark.parametrize("width", [None, 99], ids=["scalar", "vector"])
    @pytest.mark.parametrize("size", [1, 2, 3, 40, 700])
    @pytest.mark.parametrize("seed", range(3))
    def test_l1_history(self, seed, size, width):
        rng = np.random.default_rng([seed, size])
        start = rng.uniform(-5.0, 5.0)
        times = start + np.cumsum(np.concatenate([[0.0], 10.0 ** rng.uniform(-3.0, 0.5, size - 1)]))
        values = rng.standard_normal(size if width is None else (size, width))
        for alpha in (0.5, rng.uniform(0.05, 0.95)):
            t_n = times[-1] + 10.0 ** rng.uniform(-3.0, 0.0)
            got = l1_history(times, values, t_n, alpha)
            want = l1_history_by_diffs(times, values, t_n, alpha)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("width", [None, 99], ids=["scalar", "vector"])
    @pytest.mark.parametrize("size", [1, 2, 3, 40, 700])
    @pytest.mark.parametrize("seed", range(3))
    def test_gl_history(self, seed, size, width):
        rng = np.random.default_rng([seed, size])
        dt = 10.0 ** rng.uniform(-3.0, 0.0)
        # the initial time and a random thinning of the grid after it
        idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 3 * size), size - 1, replace=False))])
        times = idx * dt
        values = rng.standard_normal(size if width is None else (size, width))
        for alpha in (0.5, rng.uniform(0.05, 0.95)):
            t_n = (idx[-1] + rng.integers(1, 4)) * dt
            got = gl_history(times, values, t_n, alpha, dt)
            want = gl_history_by_diffs(times, values, t_n, alpha, dt)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
