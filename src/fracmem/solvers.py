"""Reference applications: time-fractional sub-diffusion and the fractional
Kelvin-Voigt creep problem, plus their analytic solutions.

The diffusion problem is the 1D sub-diffusion equation on [0, L] with
homogeneous Dirichlet boundaries and a half-sine initial condition,
discretized with central differences in space and implicitly in time.

Both solvers are policy-agnostic.  Each step asks the memory policy for its
history operator, ``c, h = policy.history(times, values, t_n, alpha, dt)``,
meaning D u(t_n) ~= c * (u(t_n) - values[-1]) + h (exact L1 weights, or
rescaled GL weights for the adaptive GL policy), and solves for u(t_n).  The
diffusion step solves one symmetric positive-definite tridiagonal system
with LAPACK ``dptsv`` (an LDL^T elimination without pivoting).
``thomas_solve`` is the general non-pivoting tridiagonal solver, kept as the
pure-Python reference for that solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .core import order_value
from .memory import HistoryBuffer, MemoryPolicy
from .special import mittag_leffler

__all__ = [
    "DiffusionConfig",
    "KelvinVoigtConfig",
    "DiffusionSimulation",
    "KelvinVoigtSimulation",
    "thomas_solve",
    "analytic_diffusion",
    "analytic_creep",
]


def thomas_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas elimination for a general tridiagonal system.

    ``lower`` and ``upper`` hold the n-1 sub/super-diagonal entries.  There
    is no pivoting, so the system should be diagonally dominant; a vanishing
    pivot raises.  The simulations solve their symmetric positive-definite
    systems with LAPACK ``dptsv`` instead; this is the reference solver.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if lower.size != n - 1 or upper.size != n - 1 or rhs.size != n:
        raise ValueError("inconsistent tridiagonal system shapes")
    c = np.empty(n - 1)
    d = np.empty(n)
    piv = diag[0]
    if piv == 0.0:
        raise ZeroDivisionError("zero pivot in Thomas elimination")
    if n > 1:
        c[0] = upper[0] / piv
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * c[i - 1]
        if piv == 0.0:
            raise ZeroDivisionError("zero pivot in Thomas elimination")
        if i < n - 1:
            c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _positive_finite(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


@dataclass(frozen=True)
class DiffusionConfig:
    """Sub-diffusion problem setup: half-sine initial condition, zero
    Dirichlet boundaries, diffusivity in units of distance^2 / time^alpha."""

    length: float
    dx: float
    dt: float
    mu: float
    alpha: float
    policy: MemoryPolicy

    def __post_init__(self) -> None:
        order_value(self.alpha)
        if not all(_positive_finite(v) for v in (self.length, self.dx, self.dt, self.mu)):
            raise ValueError("diffusion parameters must be positive and finite")
        n = self.length / self.dx
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"domain length {self.length} must be a multiple of dx={self.dx}")

    @property
    def n_nodes(self) -> int:
        return round(self.length / self.dx) + 1

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_nodes)

    def initial_field(self) -> np.ndarray:
        return np.sin(np.pi * self.grid() / self.length)


def analytic_diffusion(x: float | np.ndarray, t: float, config: DiffusionConfig):
    """Separable analytic solution sin(pi x / L) * E_a(-mu (pi/L)^2 t^a)."""
    a = order_value(config.alpha)
    rate = config.mu * (math.pi / config.length) ** 2
    amp = mittag_leffler(a, -rate * t**a) if t > 0.0 else 1.0
    return np.sin(np.pi * np.asarray(x) / config.length) * amp


class DiffusionSimulation:
    """Implicit time stepper for the sub-diffusion problem.

    One instance is sequential; independent instances may run in parallel.
    """

    def __init__(self, config: DiffusionConfig):
        self.config = config
        self.alpha = order_value(config.alpha)
        self.buffer = HistoryBuffer(config.policy)
        self.t = 0.0
        self.field = config.initial_field()
        self.buffer.push(0.0, self.field.copy())
        self._step_index = 0

    @property
    def midpoint_value(self) -> float:
        return float(self.field[(self.config.n_nodes - 1) // 2])

    def step(self) -> np.ndarray:
        """Advance one time step: solve c * (u - u_last) + h = mu * u_xx,
        multiplied through by the newest interval dt_n, with LAPACK
        ``dptsv``, and push the new field into the history buffer.  A failed
        solve or a non-finite field raises, naming the step, and commits
        nothing."""
        cfg = self.config
        step_index = self._step_index + 1
        t_new = step_index * cfg.dt
        times = self.buffer.times()
        vals = self.buffer.values()[:, 1:-1]
        c, h = cfg.policy.history(times, vals, t_new, self.alpha, cfg.dt)
        # scaled by dt_n the entries are those of the L1 difference form; a
        # decaying fixed-window run keeps its rounding, and the unscaled
        # system drifts 2e-12 relative from that form in 1280 steps (2e-14)
        dt_n = t_new - times[-1]
        r = cfg.mu * dt_n / cfg.dx**2
        c_n = c * dt_n
        rhs = c_n * vals[-1] - dt_n * h
        n = rhs.size
        _, _, interior, info = dptsv(
            np.full(n, c_n + 2.0 * r), np.full(max(n - 1, 1), -r), rhs,  # the wrapper rejects an empty e
            overwrite_d=1, overwrite_e=1, overwrite_b=1,
        )
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve failed at step {step_index} (t={t_new!r}): "
                f"LAPACK dptsv returned info={info}"
            )
        if not math.isfinite(float(interior.sum())):
            raise ValueError(f"non-finite state at step {step_index} (t={t_new!r})")
        new_field = np.zeros_like(self.field)
        new_field[1:-1] = interior
        self._step_index = step_index
        self.t = t_new
        self.field = new_field
        self.buffer.push(t_new, new_field.copy())
        return new_field


@dataclass(frozen=True)
class KelvinVoigtConfig:
    """Fractional Kelvin-Voigt creep under a constant load, x(0) = 0."""

    eta: float
    k: float
    load: float
    alpha: float
    dt: float
    policy: MemoryPolicy

    def __post_init__(self) -> None:
        order_value(self.alpha)
        if not all(_positive_finite(v) for v in (self.eta, self.k, self.load, self.dt)):
            raise ValueError("Kelvin-Voigt parameters must be positive and finite")

    @property
    def tau_alpha(self) -> float:
        """Relaxation scale tau^alpha = eta / k."""
        return self.eta / self.k


def analytic_creep(t: float, config: KelvinVoigtConfig) -> float:
    """Creep response f/k * [1 - E_a(-(t/tau)^a)]."""
    a = order_value(config.alpha)
    if t == 0.0:
        return 0.0
    z = -(t**a) / config.tau_alpha
    return config.load / config.k * (1.0 - mittag_leffler(a, z))


class KelvinVoigtSimulation:
    """Implicit integrator for the fractional Kelvin-Voigt creep problem.

    The newest convolution term is isolated on the implicit side, mirroring
    the diffusion treatment; the rest of the history enters explicitly.
    """

    def __init__(self, config: KelvinVoigtConfig):
        self.config = config
        self.alpha = order_value(config.alpha)
        self.buffer = HistoryBuffer(config.policy)
        self.t = 0.0
        self.x = 0.0
        self.buffer.push(0.0, 0.0)
        self._step_index = 0

    def step(self) -> float:
        """Advance one time step: solve eta * (c * (x - x_last) + h) + k * x
        = load for x and push it into the history buffer.  A non-finite x
        raises, naming the step, and commits nothing."""
        cfg = self.config
        step_index = self._step_index + 1
        t_new = step_index * cfg.dt
        times, xs = self.buffer.times(), self.buffer.values()
        c, h = cfg.policy.history(times, xs, t_new, self.alpha, cfg.dt)
        x_new = (cfg.load - cfg.eta * h + cfg.eta * c * self.x) / (cfg.eta * c + cfg.k)
        if not math.isfinite(x_new):
            raise ValueError(f"non-finite state at step {step_index} (t={t_new!r})")
        self._step_index = step_index
        self.t = t_new
        self.x = x_new
        self.buffer.push(t_new, x_new)
        return x_new
