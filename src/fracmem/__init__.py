"""Caputo fractional derivatives with adaptive memory truncation.

Evaluates the L1-discretized Caputo derivative over histories maintained by
four memory policies (full, fixed-window, power-law adaptive with exact
non-uniform weights, and the rescaled Grunwald-Letnikov variant), together
with analytic error bounds, the Mittag-Leffler function, and two reference
applications: time-fractional sub-diffusion and fractional Kelvin-Voigt
creep.
"""

from .analysis import (
    a_func,
    adaptive_bound,
    b_approx_bracket,
    b_func,
    fit_loglog_slope,
    fixed_memory_bound,
    op_count,
)
from .core import (
    FractionalOrder,
    WeightTriple,
    caputo_weight,
    evaluate_caputo,
    weight_sum,
)
from .memory import (
    HistoryBuffer,
    MemoryPolicy,
    PolicyKind,
    evaluate_gl,
)
from .solvers import (
    DiffusionConfig,
    DiffusionSimulation,
    KelvinVoigtConfig,
    KelvinVoigtSimulation,
    analytic_creep,
    analytic_diffusion,
    thomas_solve,
)
from .special import mittag_leffler

__version__ = "0.1.0"
