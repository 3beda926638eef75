"""History buffers, the four memory-maintenance policies and the rescaled
Grunwald-Letnikov (GL) history operator.

The buffer keeps time points grouped into subsets U_0..U_L, newest subset
first, as ``HistoryBuffer.subsets()`` returns them.  One maintenance rule
serves every policy: after every push U_0 spans at most the memory length
T, on any grid, and what leaves it cascades into coarser subsets, U_l
spanning at most 2^(l-1) * T on a uniform grid.  Full memory is a window
that never closes (T infinite), the fixed window drops what leaves it, and
the adaptive policies cascade.  Interval comparisons are strict: a span
exactly equal to the threshold does not trigger maintenance.

``HistoryBuffer`` copies each block of rows, a push being a block of one,
into array arenas once and drops the rows that maintenance removed before
the call returns, so between calls the arenas hold only stored rows.  A
block of ``_LEVELWISE_MIN`` rows or more is maintained one subset level at a
time in numpy (``fracmem._levelwise``), by the same rule and with the same
bits as the loop over the times of a push or a smaller block.  Reads
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

from ._levelwise import plan
from .core import check_count, check_history, check_positive, check_samples, grid_steps
from .core import l1_history, newest_derivative, order_value, weighted_rows

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
            check_positive("T", self.T)
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


_FLOAT = np.dtype(float)

# removals one call drops by shifting the rows after each one; more than
# this are dropped by one boolean compaction
_SHIFT_LIMIT = 16

# blocks of at least this many rows are maintained one subset level at a
# time, smaller ones by the loop over their times; on the derivative-push
# grid the two break even at ~770 rows under the adaptive policies, with 13
# subsets as with 20, ~500 under full memory and below 256 under the fixed
# window (BENCH_2026-10-19-positions.json, re-measured with the running
# trigger count in BENCH_2026-10-20-pushblock.json)
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
    plan hands over their positions.  A few removed rows (up to
    ``_SHIFT_LIMIT``, as after one push) are dropped by moving each run of
    kept rows after them left once; more (a long block) by one boolean
    compaction.  A block that does not fit doubles the arenas, or grows
    them to fit it.

    - ``extend(times, values)`` stores a block of samples as that many
      pushes would, with one slice copy per arena; a write-heavy caller
      with no reads between its pushes saves the fixed cost of one call per
      row.  A block of ``_LEVELWISE_MIN`` rows or more is maintained level
      by level (``_maintain_levelwise``), with the same layout and bits.
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
        self.policy = policy
        # the policy as plain attributes (an enum lookup costs more than a
        # push's bookkeeping); full memory is a window of infinite length
        self._fixed = policy.kind is PolicyKind.FIXED
        self._T = math.inf if policy.kind is PolicyKind.FULL else policy.T
        # subsets[l] = U_l, each deque of times ordered oldest-first
        self._subsets: list[deque] = [deque()]
        self._newest = -math.inf
        self._shape: tuple | None = None  # row shape, fixed by the first push
        # rows in the arenas, all of them stored, and the arenas' length
        self._n = 0
        self._cap = 0
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
        """Append one sample as a one-row ``extend``, with its checks and
        exception types, after one chained comparison rejects a NaN,
        infinite or not later time.  A Python float time with the solvers'
        rows, a Python float or a float64 array of the stored shape, goes
        straight into arenas with room."""
        newest = self._newest
        if not newest < t < math.inf:
            raise ValueError(f"pushed time {t} is not finite or not after newest stored {newest}")
        n = self._n
        if n < self._cap and t.__class__ is float and (
            self._shape == ()
            if value.__class__ is float
            else value.__class__ is np.ndarray and value.dtype is _FLOAT and value.shape == self._shape
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
        if shape != self._shape:
            if self._shape is not None:
                raise ValueError(f"row of shape {shape}, expected the stored rows' shape {self._shape}")
            self._shape = shape
            self._bind(self._times, np.empty((0,) + shape))
        n = self._n
        if n + k > self._cap:
            cap = max(16, 2 * self._cap, n + k)
            grown_times, grown_values = np.empty(cap), np.empty((cap,) + shape)
            grown_times[:n], grown_values[:n] = self._times[:n], self._values[:n]
            self._bind(grown_times, grown_values)
            self._cap = cap
        self._times[n : n + k] = times
        self._values[n : n + k] = rows
        self._n = n + k
        self._newest = float(times[-1])
        if k < _LEVELWISE_MIN or not self._maintain_levelwise(k):
            self._maintain(times.tolist())

    def _maintain(self, times) -> None:
        """Add the newly stored ``times``, oldest first, to U_0 and run the
        maintenance rule after each, then drop the rows of the times it
        removed.

        While U_0 spans more than T its oldest point moves into U_1; each
        move cascades, a U_l that then spans more than 2^(l-1) * T moving
        its oldest point into U_(l+1) and removing its second-oldest.  A
        point that leaves the last subset opens a new one, but the fixed
        window has no U_1 and drops it; full memory never moves a point.
        """
        subsets = self._subsets
        u0 = subsets[0]
        T = self._T
        gone = []
        for t in times:
            u0.append(t)
            # the tolerance guards against rounding in t = i * dt shaving a
            # point off a span whose nominal length is a threshold; it scales
            # with max(T, |t|), where the rounding noise lives, spelled out
            # as the max and abs calls would cost more than what they guard
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
        at a time in numpy (``_levelwise.plan``), with the same layout and
        bits; returns False, having changed nothing, when a level fails its
        check.  The removed rows are dropped by their positions first; the
        arenas then hold U_L, ..., U_0 in order, so each level's kept
        arrivals are read from the times arena as its newest rows."""
        subsets = self._subsets
        planned = plan(self._times[: self._n], [len(u) for u in subsets], k, self._T, self._fixed)
        if planned is None:
            return False
        changes, gone = planned
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
                if lo < hi:
                    times[lo - j - 1 : hi - j - 1] = times[lo:hi]
                    values[lo - j - 1 : hi - j - 1] = values[lo:hi]
        else:
            lo = int(idx.min())
            keep = np.ones(n - lo, dtype=bool)
            keep[idx - lo] = False
            times[lo:m] = times[lo:n][keep]
            values[lo:m] = values[lo:n][keep]
        self._n = m


# -- Grunwald-Letnikov weights ------------------------------------------------

# per order, the weights w_K, ..., w_1, w_0 of lags K down to 0: entry i is
# the weight of lag K - i, so a history reads its weights by grid index
_GL_CACHE: dict[float, np.ndarray] = {}


def _gl_table(jmax: int, a: float) -> np.ndarray:
    """The weights of lags ``jmax`` down to 0 for the order ``a``, unchecked:
    a read-only view whose entry i is the weight of lag ``jmax - i``.

    The cached table is computed by the recurrence c_j = c_(j-1) *
    (j - 1 - a) / j with c_0 = 1 in Python floats, which avoids Gamma
    evaluations at negative arguments, and grows by doubling.
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
    and a ``t_n`` off the grid raises ``ValueError``.  ``dt`` is checked by
    ``check_positive``'s rule (``ValueError`` naming it, ``TypeError`` when
    it is not a real number) after one chained comparison passes a positive,
    finite Python float.  The weights are read from the lag-descending table
    of ``n + 1`` weights, n the grid steps from ``times[0]`` to ``t_n``, by
    the stored points' grid indices counted from ``times[0]``.  ``h`` is a
    float for scalar (1-D) rows and an array for vector rows.
    """
    a = order_value(alpha)
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
