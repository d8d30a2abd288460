"""fractime: random-time-changed dynamics and their long-time rates.

Computes subordinated curves u^E(t) for three families of inverse time
changes (stable / two-stable power kernels, a distributed-order kernel,
and a parametric log-kernel family), cross-checks them by transform
inversion, closed forms, direct quadrature, a kernel-relaxation solver
and Monte Carlo, and verifies the predicted Cesaro-mean rates by
least-squares exponent fitting on wide logarithmic grids.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    FractimeError,
    InversionError,
    PoleError,
    UnsupportedDynamicError,
    UnsupportedModelError,
)
from .grids import GridFunction, log_grid
from .laplace import (
    InversionConfig,
    gaver_stehfest_config,
    gaver_stehfest_invert,
    invert_on_grid,
    talbot_invert,
)
from .models import (
    DistributedOrderSubordinator,
    Dynamic,
    Exponential,
    Monomial,
    ParametricLogSubordinator,
    RatePrediction,
    StableSubordinator,
    SubordinatorModel,
    TwoStableSubordinator,
    UserTransform,
    model_from_config,
    parse_dynamic,
)
from .special import (
    MLRegime,
    density_tail_cutoff,
    gamma_fn,
    inverse_stable_density,
    mittag_leffler,
    wright,
)
from .subordinate import (
    SubordinatedCurve,
    double_transform_residual,
    stable_closed_form,
    stable_quadrature,
    subordinated_curve,
    subordinated_transform,
    subordinated_value,
)
from .relaxation import RelaxationProblem, residual_check, solve_relaxation
from .montecarlo import (
    McConfig,
    McEstimate,
    estimate_ue,
    first_passage,
    sample_inverse_stable,
    sample_stable,
)
from .asymptotics import (
    AsymptoticFit,
    ClassVerification,
    cesaro_curve,
    cesaro_mean,
    fit_rate,
    rate_grid_for,
    verify_class,
)

__version__ = "0.1.0"
