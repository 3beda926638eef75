"""Reference applications: time-fractional sub-diffusion and the fractional
Kelvin-Voigt creep problem, plus their analytic solutions.

The diffusion problem is the 1D sub-diffusion equation on [0, L] with
homogeneous Dirichlet boundaries and a half-sine initial condition,
discretized with central differences in space and either the implicit L1
scheme (exact non-uniform weights) or the implicit GL scheme (rescaled
binomial weights) in time.  Each step contracts the stored history with one
matrix-vector product and solves one symmetric positive-definite tridiagonal
system with LAPACK ``dptsv`` (an LDL^T elimination without pivoting).
``thomas_solve`` is the general non-pivoting tridiagonal solver, kept as the
pure-Python reference for that solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .core import caputo_weight, caputo_weights, order_value
from .memory import HistoryBuffer, MemoryPolicy, PolicyKind, gl_weights
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
        self._gamma = math.gamma(1.0 - self.alpha)
        base_dt = config.dt if config.policy.kind is PolicyKind.ADAPTIVE_GL else None
        self.buffer = HistoryBuffer(config.policy, base_dt=base_dt)
        self.t = 0.0
        self.field = config.initial_field()
        self._f0 = self.field[1:-1].copy()
        self.buffer.push(0.0, self.field.copy())
        self._step_index = 0

    @property
    def midpoint_value(self) -> float:
        return float(self.field[(self.config.n_nodes - 1) // 2])

    def step(self) -> np.ndarray:
        """Advance one time step, solve the tridiagonal system (diagonal
        ``diag``, off-diagonals ``-r``) with LAPACK ``dptsv``, push the new
        field into the history buffer."""
        cfg = self.config
        step_index = self._step_index + 1
        t_new = step_index * cfg.dt
        if cfg.policy.kind is PolicyKind.ADAPTIVE_GL:
            diag, r, rhs = self._assemble_gl(t_new)
        else:
            diag, r, rhs = self._assemble_l1(t_new)
        n = rhs.size
        _, _, interior, info = dptsv(
            np.full(n, diag), np.full(max(n - 1, 1), -r), rhs,  # the wrapper rejects an empty e
            overwrite_d=1, overwrite_e=1, overwrite_b=1,
        )
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve failed at step {step_index} (t={t_new!r}): "
                f"LAPACK dptsv returned info={info}"
            )
        new_field = np.zeros_like(self.field)
        new_field[1:-1] = interior
        self._step_index = step_index
        self.t = t_new
        self.field = new_field
        self.buffer.push(t_new, new_field.copy())
        return new_field

    def _assemble_l1(self, t_new: float) -> tuple[float, float, np.ndarray]:
        cfg = self.config
        a = self.alpha
        times = self.buffer.times()
        vals = self.buffer.values()[:, 1:-1]
        w_new = caputo_weight(t_new, times[-1], t_new, a)
        dt_n = t_new - times[-1]
        r = cfg.mu * dt_n / cfg.dx**2
        if times.size > 1:
            w_hist = caputo_weights(t_new, times[:-1], times[1:], a)
            c = w_hist / np.diff(times)
            # summation by parts: sum_j c_j (v_(j+1) - v_j) = g @ v
            g = np.empty(times.size)
            g[0] = -c[0]
            g[1:-1] = c[:-1] - c[1:]
            g[-1] = c[-1]
            hist = g @ vals / self._gamma
        else:
            hist = 0.0
        rhs = w_new / self._gamma * vals[-1] - dt_n * hist
        return w_new / self._gamma + 2.0 * r, r, rhs

    def _assemble_gl(self, t_new: float) -> tuple[float, float, np.ndarray]:
        cfg = self.config
        a = self.alpha
        times = self.buffer.times()
        vals = self.buffer.values()[:, 1:-1]
        f0 = self._f0
        r = cfg.mu * cfg.dt**a / cfg.dx**2
        n_new = round(t_new / cfg.dt)
        rhs = f0.copy()  # newest weight is 1 and multiplies f^0 on the right
        if times.size > 1:
            lags = n_new - np.rint(times[1:] / cfg.dt).astype(int)
            w = gl_weights(int(lags.max()), a)[lags]
            scaled = w * np.diff(times) / cfg.dt
            rhs -= scaled @ vals[1:] - scaled.sum() * f0
        return 1.0 + 2.0 * r, r, rhs


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
        self._gamma = math.gamma(1.0 - self.alpha)
        base_dt = config.dt if config.policy.kind is PolicyKind.ADAPTIVE_GL else None
        self.buffer = HistoryBuffer(config.policy, base_dt=base_dt)
        self.t = 0.0
        self.x = 0.0
        self.buffer.push(0.0, 0.0)
        self._step_index = 0

    def step(self) -> float:
        cfg = self.config
        a = self.alpha
        self._step_index += 1
        t_new = self._step_index * cfg.dt
        times = self.buffer.times()
        xs = self.buffer.values()
        if cfg.policy.kind is PolicyKind.ADAPTIVE_GL:
            d = cfg.dt ** (-a)
            if times.size > 1:
                lags = round(t_new / cfg.dt) - np.rint(times[1:] / cfg.dt).astype(int)
                w = gl_weights(int(lags.max()), a)[lags]
                hist = float((w * np.diff(times) / cfg.dt) @ xs[1:])
            else:
                hist = 0.0
            x_new = (cfg.load - cfg.eta * d * hist) / (cfg.eta * d + cfg.k)
        else:
            dt_n = t_new - times[-1]
            if times.size > 1:
                w_hist = caputo_weights(t_new, times[:-1], times[1:], a)
                hist = float((w_hist / np.diff(times)) @ np.diff(xs)) / self._gamma
            else:
                hist = 0.0
            c = caputo_weight(t_new, times[-1], t_new, a) / (self._gamma * dt_n)
            x_new = (cfg.load - cfg.eta * hist + cfg.eta * c * self.x) / (cfg.eta * c + cfg.k)
        self.t = t_new
        self.x = x_new
        self.buffer.push(t_new, x_new)
        return x_new
