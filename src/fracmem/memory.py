"""History buffers, the four memory-maintenance policies and the rescaled
Grunwald-Letnikov (GL) history operator.

The buffer keeps time points grouped into subsets U_0..U_L, newest subset
first.  U_0 spans at most the memory length T after maintenance; U_l spans
at most 2^(l-1) * T.  Interval comparisons are strict: a span exactly equal
to the threshold does not trigger maintenance.

Each policy owns one history operator, ``MemoryPolicy.history``: given the
stored times and values and a new time ``t_n > times[-1]`` it returns
``(c, h)`` with D f(t_n) ~= c * (f(t_n) - values[-1]) + h.  The adaptive GL
policy uses ``gl_history`` below; the others use the exact L1 weights of
``core.l1_history``.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import l1_history, order_value

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
    """Buffer-maintenance policy; T is the memory length (unused for FULL)."""

    kind: PolicyKind
    T: float | None = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.FULL:
            return
        if self.T is None or not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"{self.kind.value} policy requires a finite memory length T > 0")

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


class HistoryBuffer:
    """Ordered time-point storage maintained by a MemoryPolicy.

    Single-writer: pushes and reads must not overlap.  Distinct buffers are
    independent.
    """

    def __init__(self, policy: MemoryPolicy):
        self.policy = policy
        # subsets[l] = U_l, each deque ordered oldest-first
        self._subsets: list[deque] = [deque()]

    # -- queries ----------------------------------------------------------

    @property
    def num_subsets(self) -> int:
        return len(self._subsets)

    @property
    def num_active_subsets(self) -> int:
        """Number of nonempty subsets (L + 1 in the power-law layout)."""
        return sum(1 for s in self._subsets if s)

    def subset_times(self, l: int) -> list[float]:
        return [t for t, _ in self._subsets[l]]

    def count_stored(self) -> int:
        return sum(len(s) for s in self._subsets)

    def count_conv_terms(self) -> int:
        """Consecutive-pair convolution terms used per evaluation."""
        return max(self.count_stored() - 1, 0)

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

    # -- maintenance ------------------------------------------------------

    def push(self, t: float, value) -> None:
        """Append one sample and run the policy's maintenance.

        Times must be finite and increase strictly; one chained comparison
        rejects a NaN or infinite time on every push.
        """
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
            # guard so rounding in t = i * dt cannot shave a point off a
            # window whose nominal span equals T; scaled by the absolute
            # times because that is where the rounding noise lives
            limit = self.policy.T + 1e-12 * max(self.policy.T, abs(t))
            while u0[-1][0] - u0[0][0] > limit:
                u0.popleft()
            return
        self._maintain_adaptive()

    def _maintain_adaptive(self) -> None:
        T = self.policy.T
        subsets = self._subsets
        u0 = subsets[0]
        # same rounding guard as the fixed policy on every span comparison
        tol = 1e-12 * max(T, abs(u0[-1][0]))
        if u0[-1][0] - u0[0][0] <= T + tol:
            return
        if len(subsets) == 1:
            subsets.append(deque())
        subsets[1].append(u0.popleft())
        threshold = T
        l = 1
        while l < len(subsets):
            ul = subsets[l]
            if len(ul) < 2 or ul[-1][0] - ul[0][0] <= threshold + tol:
                break
            del ul[1]  # second-oldest point is eliminated
            if l + 1 == len(subsets):
                subsets.append(deque())
            subsets[l + 1].append(ul.popleft())
            threshold *= 2.0
            l += 1


# -- Grunwald-Letnikov weights ------------------------------------------------

_GL_CACHE: dict[float, list[float]] = {}


def _gl_sequence(alpha: float, jmax: int) -> list[float]:
    seq = _GL_CACHE.setdefault(alpha, [1.0])
    while len(seq) <= jmax:
        j = len(seq)
        seq.append(seq[-1] * (j - 1.0 - alpha) / j)
    return seq


def gl_weights(jmax: int, alpha: float) -> np.ndarray:
    """Binomial GL weights (-1)^j * C(alpha, j) for lags j = 0..jmax, cached
    per order.

    Computed by the recurrence c_j = c_(j-1) * (j - 1 - alpha) / j with
    c_0 = 1, which avoids Gamma evaluations at negative arguments.
    """
    a = order_value(alpha)
    return np.asarray(_gl_sequence(a, jmax)[: jmax + 1], dtype=float)


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
    its interval spans; the new point's interval is counted in whole steps.
    ``h`` is a float for scalar (1-D) rows and an array for vector rows.
    """
    a = order_value(alpha)
    scale = dt ** (-a)
    idx = np.rint(times / dt).astype(int)
    n = round(t_n / dt)
    gap = n - int(idx[-1])
    c = gap * scale
    if times.size < 2:
        return c, 0.0
    lags = n - idx[1:]
    scaled = gl_weights(int(lags[0]), a)[lags] * np.diff(times) / dt
    # the new point's weight w_0 * gap = gap multiplies
    # f(t_n) - f_0 = (f(t_n) - values[-1]) + (values[-1] - f_0); c takes the
    # first part, the newest stored weight the second
    scaled[-1] += gap
    h = (scaled @ values[1:] - scaled.sum() * values[0]) * scale
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
    ``times[0]`` is the initial time.  This is ``gl_history`` on
    ``times[:-1]`` evaluated at ``t_n = times[-1]``.
    """
    a = order_value(alpha)
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("history must contain at least 2 time points")
    idx = np.rint(times / dt).astype(int)
    if np.max(np.abs(times - idx * dt)) > 1e-9 * dt * max(idx[-1], 1):
        raise ValueError("history times do not sit on the uniform base grid")
    values = np.asarray(values, dtype=float)
    c, h = gl_history(times[:-1], values[:-1], times[-1], a, dt)
    result = c * (values[-1] - values[-2]) + h
    if np.ndim(result) == 0:
        return float(result)
    return result
