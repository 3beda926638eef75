"""History buffers and the four memory-maintenance policies.

The buffer keeps time points grouped into subsets U_0..U_L, newest subset
first.  U_0 spans at most the memory length T after maintenance; U_l spans
at most 2^(l-1) * T.  Interval comparisons are strict: a span exactly equal
to the threshold does not trigger maintenance.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import FractionalOrder, TimePoint, order_value

__all__ = [
    "PolicyKind",
    "MemoryPolicy",
    "HistoryBuffer",
    "count_stored",
    "count_conv_terms",
    "gl_weight",
    "gl_weights",
    "scaled_gl_weight",
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


class HistoryBuffer:
    """Ordered time-point storage maintained by a MemoryPolicy.

    Single-writer: pushes and reads must not overlap.  Distinct buffers are
    independent.  ``base_dt`` is required only for the adaptive GL policy,
    whose weights are indexed on the underlying uniform grid.
    """

    def __init__(self, policy: MemoryPolicy, base_dt: float | None = None):
        self.policy = policy
        self.base_dt = base_dt
        if policy.kind is PolicyKind.ADAPTIVE_GL and (base_dt is None or base_dt <= 0.0):
            raise ValueError("adaptive GL policy requires a positive base_dt")
        # subsets[l] = U_l, each deque ordered oldest-first
        self._subsets: list[deque] = [deque()]
        self._initial_value = None

    # -- queries ----------------------------------------------------------

    @property
    def initial_value(self):
        """Value of the very first pushed point (retained by all policies
        except FIXED, which may drop it)."""
        return self._initial_value

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

    @property
    def newest_time(self) -> float:
        for s in self._subsets:
            if s:
                return s[-1][0]
        raise ValueError("buffer is empty")

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

    def points(self) -> list[TimePoint]:
        out = []
        for s in reversed(self._subsets):
            out.extend(TimePoint(t, v) for t, v in s)
        return out

    # -- maintenance ------------------------------------------------------

    def push(self, t: float, value) -> None:
        """Append one sample and run the policy's maintenance."""
        for s in self._subsets:
            if s:
                if t <= s[-1][0]:
                    raise ValueError(f"pushed time {t} is not after newest stored {s[-1][0]}")
                break
        if self._initial_value is None:
            self._initial_value = value
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


def count_stored(buffer: HistoryBuffer) -> int:
    return buffer.count_stored()


def count_conv_terms(buffer: HistoryBuffer) -> int:
    return buffer.count_conv_terms()


# -- Grunwald-Letnikov weights ------------------------------------------------

_GL_CACHE: dict[float, list[float]] = {}


def _gl_sequence(alpha: float, jmax: int) -> list[float]:
    seq = _GL_CACHE.setdefault(alpha, [1.0])
    while len(seq) <= jmax:
        j = len(seq)
        seq.append(seq[-1] * (j - 1.0 - alpha) / j)
    return seq


def gl_weight(n: int, k: int, alpha: float | FractionalOrder) -> float:
    """Binomial GL weight (-1)^(n-k) * C(alpha, n-k).

    Computed by the recurrence c_j = c_(j-1) * (j - 1 - alpha) / j with
    c_0 = 1, which avoids Gamma evaluations at negative arguments.
    """
    if k > n or k < 0:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    a = order_value(alpha)
    return _gl_sequence(a, n - k)[n - k]


def gl_weights(jmax: int, alpha: float | FractionalOrder) -> np.ndarray:
    """GL weights for lags j = 0..jmax, cached per order."""
    a = order_value(alpha)
    return np.asarray(_gl_sequence(a, jmax)[: jmax + 1], dtype=float)


def scaled_gl_weight(w: float, t_k: float, t_k1: float, dt: float) -> float:
    """Rescale a GL weight for a retained pair spanning (t_k, t_k1)."""
    if t_k1 <= t_k:
        raise ValueError(f"need t_k1 > t_k, got ({t_k}, {t_k1})")
    if dt <= 0.0:
        raise ValueError(f"need dt > 0, got {dt}")
    return w * (t_k1 - t_k) / dt


def evaluate_gl(
    times: np.ndarray,
    values: np.ndarray,
    initial_value,
    alpha: float | FractionalOrder,
    dt: float,
) -> float | np.ndarray:
    """GL derivative at times[-1] over a (possibly thinned) uniform-grid
    history, with weights rescaled for skipped points.

    Each retained point must sit on the underlying grid of step ``dt``.
    """
    a = order_value(alpha)
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("history must contain at least 2 time points")
    idx = np.rint(times / dt).astype(int)
    if np.max(np.abs(times - idx * dt)) > 1e-9 * dt * max(idx[-1], 1):
        raise ValueError("history times do not sit on the uniform base grid")
    lags = idx[-1] - idx[1:]
    w = gl_weights(int(lags.max()), a)[lags]
    scaled = w * np.diff(times) / dt
    values = np.asarray(values, dtype=float)
    dev = values[1:] - np.asarray(initial_value, dtype=float)
    result = np.tensordot(scaled, dev, axes=(0, 0)) / dt**a
    if result.ndim == 0:
        return float(result)
    return result
