"""Reference applications: time-fractional sub-diffusion and the fractional
Kelvin-Voigt creep problem, plus their analytic solutions.

The diffusion problem is the 1D sub-diffusion equation on [0, L] with
homogeneous Dirichlet boundaries and a half-sine initial condition,
discretized with central differences in space and implicitly in time.

Both solvers are policy-agnostic and share one step, ``_ImplicitStepper.step``.
It steps to the time t_n it is given, so the solvers do not know the time
grid.  It asks the memory policy for its history operator,
``c, h = policy.history(times, values, t_n, alpha, dt)``, meaning
D u(t_n) ~= c * (u(t_n) - values[-1]) + h (exact L1 weights, or rescaled GL
weights for the adaptive GL policy), solves for u(t_n), rejects a non-finite
state and pushes it.  The creep solve is a scalar formula.  The diffusion
history holds the interior nodes, its unknowns, and each step solves one
symmetric positive-definite tridiagonal system with LAPACK ``dptsv`` (an
LDL^T elimination without pivoting).  ``dptsv`` is loaded from scipy's
``_flapack`` extension alone, without the ``scipy.linalg`` package, when a
``DiffusionConfig`` is built, at set-up, so that only diffusion runs load
scipy, and each ``DiffusionSimulation`` binds it once.  The simulation also
allocates the system's diagonal and off-diagonal once and refills them every
step, since ``dptsv`` overwrites them; their entries come from each step's
own interval ``dt_n``.  The right-hand side, which ``dptsv`` overwrites
with the new state, is a new array every step, so a later step overwrites no
state returned or stored before it.
``thomas_solve`` is the general non-pivoting tridiagonal solver, kept as the
pure-Python reference for that solve.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib import machinery

import numpy as np

from .core import check_positive, grid_steps, order_value, real
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


def _flapack_spec():
    """The spec of scipy's LAPACK extension ``scipy/linalg/_flapack*``, found
    without importing scipy, or None where there is no such file."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        return None
    linalg = [os.path.join(root, "linalg") for root in scipy_spec.submodule_search_locations or ()]
    return machinery.PathFinder.find_spec("scipy.linalg._flapack", linalg)


def _lapack_dptsv():
    """LAPACK ``dptsv``, loaded only when a diffusion problem asks for it:
    the other runs load no scipy module.

    It comes from scipy's ``_flapack`` extension, loaded on its own, which
    skips the ``scipy.linalg`` package init (~0.2 s).  The extension puts
    itself in ``sys.modules`` as ``scipy.linalg._flapack``, so a later
    ``import scipy.linalg`` reuses it and hands back this same ``dptsv``;
    one already there is used as it is.  Where the file is not found,
    ``dptsv`` is imported from ``scipy.linalg.lapack``.
    """
    flapack = sys.modules.get("scipy.linalg._flapack")
    if flapack is None:
        spec = _flapack_spec()
        if spec is None:
            from scipy.linalg.lapack import dptsv

            return dptsv
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
    return flapack.dptsv


class _ImplicitStepper:
    """The implicit step both problems share.  A subclass passes its initial
    state and supplies ``_solve(c, h, dt_n)``: the new state from the history
    operator, the newest interval and the committed state ``self._state``.
    One instance is sequential; independent instances may run in parallel.
    """

    def __init__(self, config, state):
        self.config = config
        self.alpha = order_value(config.alpha)
        self.buffer = HistoryBuffer(config.policy)
        self.t = 0.0
        self._step_index = 0
        self._state = state
        self.buffer.push(0.0, state)

    def step(self, t_new: float):
        """Advance to time ``t_new``, finite and after ``t``; returns the new
        state as stored (the creep elongation, or the diffusion interior
        nodes).  A bad time (the history operator checks it), a failed solve
        or a non-finite state raises, naming the time, and commits nothing.
        A time that is not a Python float passes ``core.real`` (a numpy float
        steps as its float does, so the state and the pushes stay Python
        floats; a bool or a string raises ``TypeError``)."""
        if t_new.__class__ is not float:
            t_new = real("t_new", t_new)
        cfg = self.config
        step_index = self._step_index + 1
        times = self.buffer.times()
        c, h = cfg.policy.history(times, self.buffer.values(), t_new, self.alpha, cfg.dt)
        try:
            # a Python float interval, read from the buffer, not from self.t,
            # which a push straight into the buffer would leave behind
            state = self._solve(c, h, t_new - float(times[-1]))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"solve failed at step {step_index} (t={t_new!r}): {exc}"
            ) from exc
        # a float state is checked as it is, an array by its sum
        if not math.isfinite(state if state.__class__ is float else np.add.reduce(state, axis=None)):
            raise ValueError(f"non-finite state at step {step_index} (t={t_new!r})")
        self._step_index = step_index
        self.t = t_new
        self._state = state
        self.buffer.push(t_new, state)
        return state


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
        for name in ("length", "dx", "dt", "mu"):
            check_positive(name, getattr(self, name))
        self.policy.check_step(self.dt)
        if grid_steps(self.length, self.dx) is None:
            raise ValueError(f"domain length {self.length} must be a multiple of dx={self.dx}")
        if self.n_nodes < 3:
            raise ValueError(
                f"domain length {self.length} with dx={self.dx} leaves no interior node"
            )
        if self.n_nodes % 2 == 0:
            raise ValueError(
                f"domain length {self.length} with dx={self.dx} is an odd number of "
                "intervals, so no node sits at the midpoint the benchmark records"
            )
        # the solver's import belongs to set-up, not to the first step
        _lapack_dptsv()

    @property
    def n_nodes(self) -> int:
        return grid_steps(self.length, self.dx) + 1

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_nodes)

    def initial_field(self) -> np.ndarray:
        return np.sin(np.pi * self.grid() / self.length)


def _check_time(t: float) -> float:
    t = real("t", t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be non-negative and finite, got {t}")
    return t


def analytic_diffusion(x: float | np.ndarray, t: float, config: DiffusionConfig):
    """Separable analytic solution sin(pi x / L) * E_a(-mu (pi/L)^2 t^a)."""
    a = order_value(config.alpha)
    t = _check_time(t)
    rate = config.mu * (math.pi / config.length) ** 2
    amp = mittag_leffler(a, -rate * t**a) if t > 0.0 else 1.0
    return np.sin(np.pi * np.asarray(x) / config.length) * amp


class DiffusionSimulation(_ImplicitStepper):
    """Implicit time stepper for the sub-diffusion problem.

    Each step solves c * (u - u_last) + h = mu * u_xx on the interior nodes,
    multiplied through by the newest interval dt_n, with LAPACK ``dptsv``.
    """

    def __init__(self, config: DiffusionConfig):
        super().__init__(config, config.initial_field()[1:-1])
        self._dptsv = _lapack_dptsv()
        # the solve's diagonal and off-diagonal, refilled every step because
        # dptsv overwrites them; the wrapper rejects an empty e
        n = self._state.size
        self._d, self._e = np.empty(n), np.empty(max(n - 1, 1))

    @property
    def field(self) -> np.ndarray:
        """The field on every node, the zero boundaries included."""
        return np.pad(self._state, 1)

    @property
    def midpoint_value(self) -> float:
        return float(self.field[(self.config.n_nodes - 1) // 2])

    def _solve(self, c: float, h: np.ndarray, dt_n: float) -> np.ndarray:
        cfg = self.config
        # scaled by dt_n the entries are those of the L1 difference form; a
        # decaying fixed-window run keeps its rounding, and the unscaled
        # system drifts 2e-12 relative from that form in 1280 steps (2e-14)
        r = cfg.mu * dt_n / cfg.dx**2
        c_n = c * dt_n
        rhs = c_n * self._state
        rhs -= dt_n * h
        d, e = self._d, self._e
        d.fill(c_n + 2.0 * r)
        e.fill(-r)
        _, _, interior, info = self._dptsv(d, e, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dptsv returned info={info}")
        return interior


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
        for name in ("eta", "k", "load", "dt"):
            check_positive(name, getattr(self, name))
        self.policy.check_step(self.dt)

    @property
    def tau_alpha(self) -> float:
        """Relaxation scale tau^alpha = eta / k."""
        return self.eta / self.k


def analytic_creep(t: float, config: KelvinVoigtConfig) -> float:
    """Creep response f/k * [1 - E_a(-(t/tau)^a)]."""
    a = order_value(config.alpha)
    t = _check_time(t)
    if t == 0.0:
        return 0.0
    z = -(t**a) / config.tau_alpha
    return config.load / config.k * (1.0 - mittag_leffler(a, z))


class KelvinVoigtSimulation(_ImplicitStepper):
    """Implicit integrator for the fractional Kelvin-Voigt creep problem.

    Each step solves eta * (c * (x - x_last) + h) + k * x = load for x: the
    newest convolution term is isolated on the implicit side, mirroring the
    diffusion treatment; the rest of the history enters explicitly.
    """

    def __init__(self, config: KelvinVoigtConfig):
        super().__init__(config, 0.0)

    @property
    def x(self) -> float:
        """The elongation at time ``t``."""
        return self._state

    def _solve(self, c: float, h: float, dt_n: float) -> float:
        cfg = self.config
        return (cfg.load - cfg.eta * h + cfg.eta * c * self._state) / (cfg.eta * c + cfg.k)
