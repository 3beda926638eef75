"""A block of pushes through the memory rule of ``fracmem.memory``, one
subset level at a time in numpy.

``HistoryBuffer._maintain`` runs the rule once per pushed time.  For a long
block, ``plan`` computes, changing nothing, what that loop would do level by
level, as counts and the arena positions of the removed points, and
``HistoryBuffer._maintain_levelwise`` commits it.  The float expressions
are the loop's, so the layout and bits are the same.

U_0 is a sliding window: after arrival q its oldest point is the running
max over arrivals of the first point p with ``not s[q] - s[p] > limit_q``
(``limit_q = T + tol_q``, ``tol_q = 1e-12 * max(|s[q]|, T)``).  That
predicate is monotone in p, so ``searchsorted`` and a fix-up by one step
either way find it.  What leaves U_0 arrives at U_1, each point with the
tolerance of the push that moved it, and each coarser level takes its
arrivals in pairs (``_level_triggers``).  The tolerance, and so a coarser
level's rule, need not be monotone in q, so every level's schedule is
checked against the rule at every arrival before anything is committed; on
adversarial grids (clusters a few ulps apart, then far pushes) a check can
fail, and the loop maintains the block.
"""

from __future__ import annotations

import numpy as np


def plan(stored: np.ndarray, sizes: list[int], k: int, T: float, fixed: bool) -> tuple[list, np.ndarray] | None:
    """The loop's work on the last ``k`` of the ``stored`` times, a block
    just written after the others, which are the points of U_L, ..., U_0
    in that order, each oldest first, with ``sizes[l]`` the size of U_l.

    Returns ``(changes, removed)``: for each level from U_0 on that the
    block reaches, ``(cut, size)``, how many of its stored points leave it
    and its size after the block, and the positions in ``stored`` of the
    removed points, in no order.  Once those are dropped, the levels again
    sit in ``stored`` as U_L, ..., U_0, so the arrivals a level keeps are
    its newest points there.  Returns None when a level's schedule fails
    its check.  ``T`` is the memory length (infinite for full memory), and
    a ``fixed`` window drops what leaves U_0.
    """
    n = stored.size
    m = sizes[0]
    end = n - k - m
    # s is U_0's points then the block, in place
    s = stored[end:]
    block = stored[n - k :]
    limit = _tolerance(block, T)
    limit += T
    gap = block - limit

    def moves(at):
        # whether each arrival moves the point s[at] out of U_0
        np.subtract(block, s.take(at, out=gap), out=gap)
        return gap > limit

    # start[i]: the first point of s that arrival m + i keeps in U_0
    start = s.searchsorted(gap)
    np.add(start, 1, out=start, where=moves(start))
    np.subtract(start, 1, out=start, where=(start > 0) & ~moves(start - 1))
    if moves(start).any() or not ((start == 0) | moves(start - 1)).all():
        return None
    del gap, limit
    np.maximum.accumulate(start, out=start)
    cut = int(start[-1])
    changes = [(min(cut, m), m + k - cut)]
    # at: the positions of the points that leave U_0
    at = np.arange(end, end + cut)
    if fixed:
        return changes, at
    removed = []
    # each moved point with the tolerance of the push that moved it
    tol = _tolerance(np.repeat(block, np.ediff1d(start, to_begin=start[:1])), T)
    del start
    threshold = T
    l = 1
    while at.size:
        m = sizes[l] if l < len(sizes) else 0
        end -= m
        # a trigger reads s[2j], and j is less than the arrivals
        head = min(m, 2 * at.size)
        at = np.concatenate((np.arange(end, end + head), at))
        s = stored[at]
        jumps = _level_triggers(s, head, tol, threshold)
        if jumps is None:
            return None
        cut = 2 * jumps.size
        changes.append((min(cut, m), m + at.size - head - cut))
        # a copy, so that each level's at is freed after the next
        removed.append(at[1:cut:2].copy())
        at, tol = at[:cut:2], tol[jumps - head]
        threshold *= 2.0
        l += 1
    # at is empty now; it keeps the concatenation defined when nothing moved
    return changes, np.concatenate((*removed, at))


def _tolerance(t: np.ndarray, T: float) -> np.ndarray:
    """``1e-12 * max(|t|, T)``, the loop's tolerance at each push time."""
    tol = np.abs(t)
    np.maximum(tol, T, out=tol)
    tol *= 1e-12
    return tol


def _level_triggers(s: np.ndarray, m: int, tol: np.ndarray, threshold: float) -> np.ndarray | None:
    """The arrivals that trigger a coarser level, as indices into ``s``: its
    ``m`` first stored points then its arrivals, each arrival s[m + i] with
    the tolerance ``tol[i]``; None when the schedule fails its check.

    Trigger j, at the first arrival q after trigger j - 1 with
    s[q] - s[2j] > threshold + tol, moves s[2j] and removes s[2j + 1].
    Where that rule is monotone in q, q_j = j + max(m, max_{i<=j} (F(2i) - i)),
    F(p) being the first arrival with s[q] - (threshold + tol) > s[p], which
    ``searchsorted`` finds in the running max of the left side.  The left
    side is at most s[q], so F(p) > p and q_j > 2j.  The schedule is then
    checked against the rule at every arrival.
    """
    n = s.size
    limit = tol + threshold
    key = s[m:] - limit
    np.maximum.accumulate(key, out=key)
    f = key.searchsorted(s[::2], "right")
    del key
    i = np.arange(f.size)
    f -= i
    np.maximum.accumulate(f, out=f)
    np.maximum(f, 0, out=f)
    f += i
    f += m
    jumps = f[: f.searchsorted(n)]
    # the check: arrival q triggers iff s[q] - s[2j] > limit, j counting
    # the triggers before it (a running sum; np.cumsum, the same sum, costs
    # ~1 us more a call)
    fired = np.zeros(n - m, dtype=bool)
    fired[jumps - m] = True
    oldest = np.add.accumulate(fired, dtype=np.intp)
    oldest -= fired
    oldest *= 2
    span = s[oldest]
    del oldest
    np.subtract(s[m:], span, out=span)
    if ((span > limit) != fired).any():
        return None
    return jumps
