"""History buffers, the four memory-maintenance policies and the rescaled
Grunwald-Letnikov (GL) history operator.

The buffer keeps time points grouped into subsets U_0..U_L, newest subset
first, as ``HistoryBuffer.subsets()`` returns them: the nested-memory layout
of Ford & Simpson (Numer. Algorithms 26 (2001) 333-346).  One maintenance
rule serves every policy.  After each pushed time t, with the tolerance
tol = 1e-12 * max(|t|, T), while U_0 spans more than T + tol its oldest
point moves into U_1.  Each move cascades: a U_l that then spans more than
2^(l-1) * T + tol moves its oldest point into U_(l+1) and removes its
second-oldest, and a point that leaves the last subset opens a new one.  So
after every push U_0 spans at most the memory length T, on any grid, and
U_l at most 2^(l-1) * T on a uniform grid.  Full memory is a window that
never closes (T infinite), the fixed window has no U_1 and drops what leaves
U_0, and the adaptive policies cascade.  Interval comparisons are strict: a
span exactly equal to the threshold does not trigger maintenance.

The rule has two codings with the same layout and bits.
``HistoryBuffer._maintain`` runs it per time, for a push or a block of
fewer than ``_LEVELWISE_MIN`` rows.  ``HistoryBuffer._maintain_levelwise``
runs it on a longer block one subset level at a time in numpy.  There U_0
is a sliding window: after arrival q its oldest point is the running max
over arrivals of the first point p with ``not s[q] - s[p] > T + tol_q``.
What leaves U_0 arrives at U_1, each point with the tolerance of the push
that moved it, and each coarser level takes its arrivals in pairs
(``_level_triggers``).  On a uniform grid t = i * dt every such schedule
is an arithmetic sequence: once U_0 is full each arrival moves one point
out of it, and a coarser level triggers at every second arrival.  So each
schedule is first predicted from one ``searchsorted`` probe; other grids
fail the prediction's spot checks, and their schedule is searched over all
arrivals (U_0's predicate is monotone in p, so ``searchsorted`` finds it up
to rounding).  The tolerance, and so a coarser level's rule, need not be
monotone in q, so every schedule, predicted or searched, is checked against
the rule at every arrival, with the loop's float expressions, before
anything changes: one that passes is the loop's.  A refused prediction is
searched; on adversarial grids (clusters a few ulps apart, then far pushes)
a searched schedule can fail too, and the loop maintains the block.

``HistoryBuffer`` copies each block of rows, a push being a block of one,
into array arenas once and drops the rows that maintenance removed before
the call returns, so between calls the arenas hold only stored rows.  Reads
are slices of one read-only view of each arena, made when the arena is
bound; they change nothing and stay valid until the next push or extend,
and only a read that runs alongside a push is unsafe.

Each policy owns one history operator, ``MemoryPolicy.history``: given the
stored times and values and a new time ``t_n > times[-1]`` it returns
``(c, h)`` with D f(t_n) ~= c * (f(t_n) - values[-1]) + h; an earlier or
non-finite t_n raises ``ValueError``.  The adaptive GL policy uses
``gl_history`` below; the others use the exact L1 weights of
``core.l1_history``.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import check_count, check_history, check_positive, check_samples, grid_steps
from .core import l1_history, newest_derivative, order_value, real, weighted_rows

__all__ = [
    "PolicyKind",
    "MemoryPolicy",
    "HistoryBuffer",
    "gl_weights",
    "gl_history",
    "evaluate_gl",
]


class PolicyKind(enum.Enum):
    FULL = "full"
    FIXED = "fixed"
    ADAPTIVE_PRESENT = "adaptive-present"
    ADAPTIVE_GL = "adaptive-gl"


@dataclass(frozen=True)
class MemoryPolicy:
    """Buffer-maintenance policy; T is the memory length, positive and
    finite, and ``None`` for FULL, which keeps every point."""

    kind: PolicyKind
    T: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PolicyKind):
            raise TypeError(f"policy kind must be a PolicyKind, got {self.kind!r}")
        if self.kind is not PolicyKind.FULL:
            # the checked Python float is stored: a numpy scalar acts as its float
            object.__setattr__(self, "T", check_positive("T", self.T))
        elif self.T is not None:
            raise ValueError(f"full memory keeps every point and takes no T, got T={self.T!r}")

    @classmethod
    def full(cls) -> "MemoryPolicy":
        return cls(PolicyKind.FULL)

    @classmethod
    def fixed(cls, T: float) -> "MemoryPolicy":
        return cls(PolicyKind.FIXED, T)

    @classmethod
    def adaptive_present(cls, T: float) -> "MemoryPolicy":
        return cls(PolicyKind.ADAPTIVE_PRESENT, T)

    @classmethod
    def adaptive_gl(cls, T: float) -> "MemoryPolicy":
        return cls(PolicyKind.ADAPTIVE_GL, T)

    def check_step(self, dt: float) -> None:
        """Raise ``ValueError`` if a fixed window, shorter than ``dt``, would keep no history."""
        if self.kind is PolicyKind.FIXED and self.T < dt:
            raise ValueError(f"fixed memory_length={self.T} is shorter than dt={dt}")

    def history(
        self,
        times: np.ndarray,
        values: np.ndarray,
        t_n: float,
        alpha: float,
        dt: float,
    ) -> tuple[float, float | np.ndarray]:
        """The policy's history operator (see the module docstring); ``dt``
        is the base step, which only the GL weights use."""
        if self.kind is PolicyKind.ADAPTIVE_GL:
            return gl_history(times, values, t_n, alpha, dt)
        return l1_history(times, values, t_n, alpha)


def check_policy(policy) -> MemoryPolicy:
    """Return ``policy``; raise ``TypeError`` naming it unless it is a ``MemoryPolicy``."""
    if not isinstance(policy, MemoryPolicy):
        raise TypeError(f"policy must be a MemoryPolicy, got {policy!r}")
    return policy


_FLOAT = np.dtype(float)

# removals one call drops by shifting the rows after each one; more than
# this are dropped by one boolean compaction
_SHIFT_LIMIT = 16

# blocks of at least this many rows are maintained one subset level at a
# time, smaller ones by the loop over their times; on the derivative-push
# grid, with 13 subsets, the two break even between 512 and 768 rows under
# the adaptive policies, at ~350 under full memory and below 256 under the
# fixed window (BENCH_2026-10-22-predict.json); a lower bound would serve
# only blocks that the runners do not push
_LEVELWISE_MIN = 1024


class HistoryBuffer:
    """Ordered time-point storage maintained by a MemoryPolicy.

    The subsets hold the stored times as deques, oldest first; the rows live
    in two arenas, ``times`` of shape ``(cap,)`` and ``values`` of shape
    ``(cap,) + row_shape``.  A push writes its time and row into the arenas
    after the last row, runs the policy's maintenance on the deques and
    drops the rows of the times it removed before it returns, so between
    calls the arenas hold exactly the stored rows.  The loop finds the
    rows of its removed times with one ``searchsorted``; the level-wise
    path tracks their positions.  A few removed rows (up to
    ``_SHIFT_LIMIT``, as after one push) are dropped by moving each run of
    kept rows after them left once; more (a long block) by one boolean
    compaction.  A block that does not fit doubles the arenas, or grows
    them to fit it.

    - ``extend(times, values)`` stores a block of samples as that many
      pushes would, with one slice copy per arena; a write-heavy caller
      with no reads between its pushes saves the fixed cost of one call per
      row.  A block of ``_LEVELWISE_MIN`` rows or more is maintained level
      by level (``_maintain_levelwise``), with the same layout and bits:
      its tolerances come from ``_tolerance``, the loop's expression over
      an array of times.
      ``push`` is a one-row ``extend``.
    - Rows are copied at push.  A push or block that ``core.check_samples``
      or the stored rows' shape rejects raises and stores nothing.
    - ``times()``, ``values()`` and the other reads change nothing; the
      views stay valid until the next ``push`` or ``extend``, so copy them
      to keep them longer.
    - Reads may overlap each other, but not a push or extend of the same
      buffer.  Distinct buffers are independent.
    """

    def __init__(self, policy: MemoryPolicy):
        self.policy = check_policy(policy)
        # the policy as plain attributes (an enum lookup costs more than a
        # push's bookkeeping); full memory is a window of infinite length
        self._fixed = policy.kind is PolicyKind.FIXED
        self._T = math.inf if policy.kind is PolicyKind.FULL else policy.T
        # subsets[l] = U_l, each deque of times ordered oldest-first
        self._subsets: list[deque] = [deque()]
        # U_0's newest time, also kept here: a push that read subsets[0][-1]
        # instead measured slower (BENCH_2026-10-22-onerecord.json)
        self._newest = -math.inf
        # rows in the arenas, all of them stored; the arenas' length is the
        # capacity, and the values arena's shape[1:] the row shape, fixed
        # once the times arena is not empty
        self._n = 0
        self._bind(np.empty(0), np.empty(0))

    def _bind(self, times: np.ndarray, values: np.ndarray) -> None:
        """Make ``times`` and ``values`` the arenas, with the read-only view
        of each that the reads slice."""
        self._times, self._values = times, values
        self._times_read, self._values_read = times.view(), values.view()
        self._times_read.flags.writeable = self._values_read.flags.writeable = False

    # -- queries ----------------------------------------------------------

    def subsets(self) -> tuple[tuple[float, ...], ...]:
        """The layout: the stored times of U_0..U_L, U_0 first, each oldest
        first; a subset that maintenance emptied keeps its place."""
        return tuple(map(tuple, self._subsets))

    def count_stored(self) -> int:
        return self._n

    def count_conv_terms(self) -> int:
        """Consecutive-pair convolution terms used per evaluation."""
        return max(self.count_stored() - 1, 0)

    def times(self) -> np.ndarray:
        """Stored times, oldest first: a slice of the times arena's
        read-only view (see the class)."""
        return self._times_read[: self._n]

    def values(self) -> np.ndarray:
        """Stored rows, oldest first: a slice of the values arena's
        read-only view (see the class)."""
        return self._values_read[: self._n]

    # -- maintenance ------------------------------------------------------

    def push(self, t: float, value) -> None:
        """Append one sample as a one-row ``extend``, with its checks,
        exception types and messages.  A finite Python float time after the
        newest stored one, with the solvers' rows, a Python float or a
        float64 array of the stored shape, goes straight into arenas with
        room."""
        n = self._n
        if n < len(self._times) and t.__class__ is float and self._newest < t < math.inf and (
            self._values.ndim == 1
            if value.__class__ is float
            else value.__class__ is np.ndarray and value.dtype is _FLOAT and value.shape == self._values.shape[1:]
        ):
            self._values[n] = value
            self._times[n] = t
            self._n = n + 1
            self._newest = t
            self._maintain((t,))
        else:
            self.extend((t,), (value,))

    def extend(self, times, values) -> None:
        """Append a block of samples, oldest first, as that many pushes
        would: checked whole by ``core.check_samples`` after the newest
        stored time and for the stored rows' shape (``ValueError``), then
        copied into each arena by one slice.  Maintenance runs per time, or
        level by level for ``_LEVELWISE_MIN`` rows or more unless a level
        fails its check, with the same layout and bits."""
        times, rows = check_samples(times, values, self._newest)
        k = times.size
        if k == 0:
            return
        shape = rows.shape[1:]
        if shape != self._values.shape[1:]:
            if len(self._times):
                raise ValueError(f"row of shape {shape}, expected the stored rows' shape {self._values.shape[1:]}")
            self._bind(self._times, np.empty((0,) + shape))
        n = self._n
        if n + k > len(self._times):
            cap = max(16, 2 * len(self._times), n + k)
            grown_times, grown_values = np.empty(cap), np.empty((cap,) + shape)
            grown_times[:n], grown_values[:n] = self._times[:n], self._values[:n]
            self._bind(grown_times, grown_values)
        self._times[n : n + k] = times
        self._values[n : n + k] = rows
        self._n = n + k
        self._newest = float(times[-1])
        if k < _LEVELWISE_MIN or not self._maintain_levelwise(k):
            self._maintain(times.tolist())

    def _maintain(self, times) -> None:
        """Add the newly stored ``times``, oldest first, to U_0 and run the
        maintenance rule (see the module docstring) after each, then drop
        the rows of the times it removed."""
        subsets = self._subsets
        u0 = subsets[0]
        T = self._T
        gone = []
        for t in times:
            u0.append(t)
            # the tolerance guards against rounding in t = i * dt shaving a
            # point off a span whose nominal length is a threshold; it scales
            # with max(T, |t|), where the rounding noise lives, spelled out
            # as the max and abs calls would cost more than what they guard;
            # _tolerance is the same expression over an array of times
            a = t if t >= 0.0 else -t
            tol = 1e-12 * (a if a > T else T)
            limit = T + tol
            while t - u0[0] > limit:
                moved = u0.popleft()
                threshold = T
                # an index loop: a range object per move costs more
                l = 1
                while l < len(subsets):
                    ul = subsets[l]
                    ul.append(moved)
                    if ul[-1] - ul[0] <= threshold + tol:
                        break
                    moved = ul.popleft()
                    gone.append(ul.popleft())  # the second-oldest is eliminated
                    threshold *= 2.0
                    l += 1
                else:
                    if self._fixed:
                        gone.append(moved)
                    else:
                        subsets.append(deque((moved,)))
        if gone:
            # exact: stored times are the pushed values, strictly increasing
            self._drop_removed(self._times[: self._n].searchsorted(gone))

    def _maintain_levelwise(self, k: int) -> bool:
        """``_maintain`` on the ``k`` newest stored times, one subset level
        at a time in numpy, with the same layout and bits; returns False,
        having changed nothing, when a level's searched schedule fails its
        check.

        The plan reads the times arena, which holds U_L, ..., U_0, each
        oldest first, then the block.  For each level from U_0 on that the
        block reaches it finds ``(cut, size)``, how many of its stored
        points leave it and its size after the block, and the arena
        positions of the removed points, in no order.  Only once every
        level has passed its check are the removed rows dropped by their
        positions; the arenas then again hold U_L, ..., U_0 in order, so
        each level's kept arrivals are read from the times arena as its
        newest rows.  Each schedule, U_0's window edges (``_u0_starts``) and
        each coarser level's triggers (``_level_triggers``), is predicted
        as a uniform grid's, or searched where that fails, and checked.
        """
        stored = self._times[: self._n]
        subsets = self._subsets
        T = self._T
        n = stored.size
        m = len(subsets[0])
        end = n - k - m
        # s is U_0's points then the block, in place
        s = stored[end:]
        block = stored[n - k :]
        tol = _tolerance(block, T)
        start = _u0_starts(s, block, tol + T)
        if start is None:
            return False
        cut = int(start[-1])
        changes = [(min(cut, m), m + k - cut)]
        # at: the positions of the points that leave U_0
        at = np.arange(end, end + cut)
        if self._fixed:
            gone = at
        else:
            removed = []
            # each moved point with the tolerance of the push that moved it
            tol = np.repeat(tol, np.ediff1d(start, to_begin=start[:1]))
            del start
            threshold = T
            l = 1
            while at.size:
                m = len(subsets[l]) if l < len(subsets) else 0
                end -= m
                # a trigger reads s[2j], and j is less than the arrivals
                head = min(m, 2 * at.size)
                at = np.concatenate((np.arange(end, end + head), at))
                s = stored[at]
                jumps = _level_triggers(s, head, tol, threshold)
                if jumps is None:
                    return False
                cut = 2 * jumps.size
                changes.append((min(cut, m), m + at.size - head - cut))
                # a copy, so that each level's at is freed after the next
                removed.append(at[1:cut:2].copy())
                at, tol = at[:cut:2], tol[jumps - head]
                threshold *= 2.0
                l += 1
            # at is empty now; it keeps the concatenation defined when nothing moved
            gone = np.concatenate((*removed, at))
        self._drop_removed(gone)
        hi = self._n
        for l, (cut, size) in enumerate(changes):
            if l == len(subsets):
                subsets.append(deque())
            ul = subsets[l]
            if cut == len(ul):
                ul.clear()
            else:
                for _ in range(cut):
                    ul.popleft()
            ul.extend(self._times[hi - size + len(ul) : hi].tolist())
            hi -= size
        return True

    def _drop_removed(self, idx: np.ndarray) -> None:
        """Drop the rows at the arena positions ``idx``, an integer array
        in any order, from the arenas."""
        n = self._n
        times, values = self._times, self._values
        m = n - idx.size
        if idx.size <= _SHIFT_LIMIT:
            # each run of kept rows between two removed ones moves left
            # once, by the number of removals before it
            idx = sorted(idx.tolist())
            idx.append(n)
            for j in range(n - m):
                lo, hi = idx[j] + 1, idx[j + 1]
                times[lo - j - 1 : hi - j - 1] = times[lo:hi]
                values[lo - j - 1 : hi - j - 1] = values[lo:hi]
        else:
            lo = int(idx.min())
            keep = np.ones(n - lo, dtype=bool)
            keep[idx - lo] = False
            times[lo:m] = times[lo:n][keep]
            values[lo:m] = values[lo:n][keep]
        self._n = m


def _tolerance(t: np.ndarray, T: float) -> np.ndarray:
    """``1e-12 * max(|t|, T)``, the loop's tolerance at each push time."""
    tol = np.abs(t)
    np.maximum(tol, T, out=tol)
    tol *= 1e-12
    return tol


def _u0_starts(s: np.ndarray, block: np.ndarray, limit: np.ndarray) -> np.ndarray | None:
    """start[i], U_0's oldest point after arrival ``block[i]``, as an index
    into ``s``, U_0's points then the block; None when the searched
    schedule fails its check.

    Arrival i moves s[p] iff block[i] - s[p] > limit[i], a predicate
    monotone in p, so start is the running max of each arrival's first kept
    point.  On a uniform grid each arrival moves one point once U_0 is full,
    so the k arrivals' edges are predicted to be ``max(0, e - (k - 1 - i))``
    from the last one's, e, which one ``searchsorted`` finds up to rounding.
    A prediction that fails a spot check of the first arrival's edge, or
    the check of every arrival (``_starts_refused``), is replaced by the
    searched edges (``_searched_starts``), checked the same way.
    """
    end = int(s.searchsorted(block[-1] - limit[-1])) + 1
    # the first arrival's predicted edge, spot-checked
    p, t, lim = max(end - block.size, 0), block[0], limit[0]
    if not t - s[p] > lim and (p == 0 or t - s[p - 1] > lim):
        start = np.arange(end - block.size, end)
        np.maximum(start, 0, out=start)
        if not _starts_refused(s, block, limit, start):
            return start
    start = _searched_starts(s, block, limit)
    if _starts_refused(s, block, limit, start):
        return None
    np.maximum.accumulate(start, out=start)
    return start


def _searched_starts(s: np.ndarray, block: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Each arrival's first kept point of ``s`` by ``searchsorted``, up to
    rounding (see ``_u0_starts``)."""
    return s.searchsorted(block - limit)


def _starts_refused(s: np.ndarray, block: np.ndarray, limit: np.ndarray, start: np.ndarray) -> bool:
    """Whether some arrival i keeps s[start[i] - 1] (start[i] > 0) or moves
    s[start[i]]: the check of a U_0 schedule (see ``_u0_starts``)."""
    span = s.take(start)
    np.subtract(block, span, out=span)
    if (span > limit).any():
        return True
    np.subtract(block, s.take(start - 1, out=span), out=span)
    return not ((start == 0) | (span > limit)).all()


def _level_triggers(s: np.ndarray, m: int, tol: np.ndarray, threshold: float) -> np.ndarray | None:
    """The arrivals that trigger a coarser level, as indices into ``s``: its
    ``m`` first stored points then its arrivals, each arrival s[m + i] with
    the tolerance ``tol[i]``; None when the searched schedule fails its
    check.

    Trigger j, at the first arrival q after trigger j - 1 with
    s[q] - s[2j] > threshold + tol, moves s[2j] and removes s[2j + 1].  A
    level whose stored points and arrivals share one spacing triggers first
    at the first arrival past s[0] + threshold + tol[0], which one
    ``searchsorted`` finds up to rounding, and then at every second
    arrival.  That prediction is spot-checked at its last and middle
    triggers, and other grids are searched (``_searched_triggers``).  Either
    schedule is checked against the rule at every arrival
    (``_triggers_refused``).
    """
    n = s.size
    limit = tol + threshold
    q0 = m + int(s[m:].searchsorted(s[0] + limit[0], "right"))
    # the last predicted trigger, negative with none
    last = (n - 1 - q0) // 2
    for j in (last, last // 2) if last >= 0 else ():
        # trigger j moves s[2j] at q, and the arrival before it, after
        # trigger j - 1, does not
        q = q0 + 2 * j
        if not s[q] - s[2 * j] > limit[q - m] or (q > m and s[q - 1] - s[2 * j] > limit[q - 1 - m]):
            break
    else:
        jumps = np.arange(q0, n, 2)
        if not _triggers_refused(s, m, jumps, limit):
            return jumps
    jumps = _searched_triggers(s, m, limit)
    return None if _triggers_refused(s, m, jumps, limit) else jumps


def _searched_triggers(s: np.ndarray, m: int, limit: np.ndarray) -> np.ndarray:
    """The triggers of ``_level_triggers`` by ``searchsorted``.

    Where the rule is monotone in q, q_j = j + max_{i<=j} (F(2i) - i), F(p)
    being the first arrival with s[q] - limit > s[p], which ``searchsorted``
    finds in the running max of the left side.  The left side is at most
    s[q], so F(p) > p and q_j > 2j; F(0) >= m, so q_j >= m.
    """
    key = s[m:] - limit
    np.maximum.accumulate(key, out=key)
    f = key.searchsorted(s[::2], "right")
    del key
    i = np.arange(f.size)
    f -= i
    np.maximum.accumulate(f, out=f)
    f += i
    f += m
    return f[: f.searchsorted(s.size)]


def _triggers_refused(s: np.ndarray, m: int, jumps: np.ndarray, limit: np.ndarray) -> bool:
    """Whether some arrival q of ``_level_triggers``' ``s`` breaks the rule
    under the schedule ``jumps``: q triggers iff s[q] - s[2j] > limit, j
    counting the triggers before it."""
    # a running sum (np.cumsum, the same sum, costs ~1 us more a call)
    fired = np.zeros(s.size - m, dtype=bool)
    fired[jumps - m] = True
    oldest = np.add.accumulate(fired, dtype=np.intp)
    oldest -= fired
    oldest *= 2
    span = s[oldest]
    del oldest
    np.subtract(s[m:], span, out=span)
    return ((span > limit) != fired).any()


# -- Grunwald-Letnikov weights ------------------------------------------------

# per order, the weights w_K, ..., w_1, w_0 of lags K down to 0: entry i is
# the weight of lag K - i, so a history reads its weights by grid index
_GL_CACHE: dict[float, np.ndarray] = {}


def _gl_table(jmax: int, a: float) -> np.ndarray:
    """The weights of lags ``jmax`` down to 0 for the order ``a``, unchecked:
    a read-only view whose entry i is the weight of lag ``jmax - i``.

    The cached table is computed by the recurrence c_j = c_(j-1) *
    (j - 1 - a) / j with c_0 = 1 in Python floats, which avoids Gamma
    evaluations at negative arguments, and grows by doubling.  It keeps one
    float per lag up to the largest ``jmax`` asked for, per order, for the
    life of the process, so a GL history holds weights for every base step
    from its first point to ``t_n`` however few points it stores; a growth
    goes through a Python list of the whole table (8 MB kept and ~40 MB at
    the peak per million weights, by tracemalloc).
    """
    w = _GL_CACHE.get(a)
    if w is None or w.shape[0] <= jmax:
        seq = [1.0] if w is None else w[::-1].tolist()
        for j in range(len(seq), max(2 * len(seq), jmax + 1)):
            seq.append(seq[-1] * (j - 1.0 - a) / j)
        seq.reverse()
        w = _GL_CACHE[a] = np.array(seq)
        w.flags.writeable = False
    return w[w.shape[0] - 1 - jmax :]


def gl_weights(jmax: int, alpha: float) -> np.ndarray:
    """Binomial GL weights (-1)^j * C(alpha, j) for lags j = 0..jmax, as a
    read-only view, in lag order, of the table cached per order (see
    ``_gl_table``)."""
    return _gl_table(check_count("jmax", jmax, 0), order_value(alpha))[::-1]


def gl_history(
    times: np.ndarray,
    values: np.ndarray,
    t_n: float,
    alpha: float,
    dt: float,
) -> tuple[float, float | np.ndarray]:
    """Rescaled GL history operator: ``(c, h)`` with
    D f(t_n) ~= c * (f(t_n) - values[-1]) + h.

    The times sit on the uniform grid of step ``dt`` (to rounding) and
    ``times[0]`` is the initial time, whose value the GL sum subtracts.  A
    stored point k carries the weight of its lag, rescaled by the grid steps
    its interval spans; the new point's interval is counted in whole steps,
    and a ``t_n`` off the grid raises ``ValueError``; ``t_n`` is taken as its
    Python float by ``core.real``'s rule.  ``dt`` is checked by
    ``check_positive``'s rule (``ValueError`` naming it, ``TypeError`` when
    it is not a real number) after one chained comparison passes a positive,
    finite Python float.  The weights are read from the lag-descending table
    of ``n + 1`` weights, n the grid steps from ``times[0]`` to ``t_n``, by
    the stored points' grid indices counted from ``times[0]``.  ``h`` is a
    float for scalar (1-D) rows and an array for vector rows.
    """
    a = order_value(alpha)
    if t_n.__class__ is not float:
        t_n = real("t_n", t_n)
    if not times[-1] < t_n < math.inf:
        raise ValueError(f"t_n={t_n} must be finite and after the last history time {times[-1]}")
    if dt.__class__ is not float or not 0.0 < dt < math.inf:
        dt = check_positive("dt", dt)
    n = grid_steps(t_n, dt)
    if n is None:
        raise ValueError(f"t_n={t_n} does not sit on the uniform base grid of step dt={dt}")
    scale = dt ** (-a)
    idx = np.rint(times / dt).astype(int)
    gap = n - int(idx[-1])
    c = gap * scale
    if times.size < 2:
        return c, 0.0 if values.ndim == 1 else np.zeros(values.shape[1:])
    base = int(idx[0])
    if base:
        # the weights depend on the lags n - idx alone: a history that does
        # not start at grid index 0 is counted from its initial point, so
        # the table spans its lags, not its absolute indices
        idx = idx - base
        n -= base
    scaled = _gl_table(n, a)[idx[1:]]
    scaled *= times[1:] - times[:-1]
    scaled /= dt
    # the new point's weight w_0 * gap = gap multiplies
    # f(t_n) - f_0 = (f(t_n) - values[-1]) + (values[-1] - f_0); c takes the
    # first part, the newest stored weight the second
    scaled[-1] += gap
    h = (weighted_rows(scaled, values[1:]) - scaled.sum() * values[0]) * scale
    return c, float(h) if values.ndim == 1 else h


def evaluate_gl(
    times: np.ndarray,
    values: np.ndarray,
    alpha: float,
    dt: float,
) -> float | np.ndarray:
    """GL derivative at times[-1] over a (possibly thinned) uniform-grid
    history, with weights rescaled for skipped points.

    Each retained point must sit on the underlying grid of step ``dt``, and
    ``times[0]`` is the initial time; ``dt`` must be positive and finite.
    This is ``gl_history`` on ``times[:-1]`` evaluated at ``t_n = times[-1]``.
    """
    dt = check_positive("dt", dt)
    times, values = check_history(times, values)
    if any(grid_steps(t, dt) is None for t in times.tolist()):
        raise ValueError("history times do not sit on the uniform base grid")
    return newest_derivative(gl_history, times, values, alpha, dt)
