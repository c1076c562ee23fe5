"""Controlled rough paths on manifolds: level-2 algebra, gauges, integration,
chart-patched RDEs, and frame transport, with a verification harness."""

from .controls import Control
from .controlled import ControlledPath, associated_roughpath, driver_as_controlled, verify_crp
from .convergence import ConvergenceReport, estimate_order
from .errors import (
    AtlasGap,
    ChartExit,
    ChartSingular,
    ConfigError,
    CrpError,
    DomainError,
    Explosion,
    GaugeMismatch,
    GridMismatch,
    InsufficientLevels,
    InvalidGrid,
    LiftFailure,
    LogFailure,
    NearCutLocus,
    NotOnManifold,
    NotRelated,
    OffGrid,
    ShapeError,
)
from .flatrde import DrivingField, rde_solve_flat
from .gauges import (
    CompatibilityTensor,
    Gauge,
    Logarithm,
    Parallelism,
    chart_gauge,
    compatibility_tensor,
    connection_gauge,
    logarithm_gauge,
    standard_gauge,
    torsion_check,
)
from .manifolds import Chart, ChartManifold, Manifold, SO3, Sphere
from .mcrp import (
    ManifoldControlledPath,
    crp_from_projection,
    crp_from_smooth_curve,
    crp_pushforward,
    scalar_test_suite,
    verify_chart_crp,
    verify_gauge_crp,
)
from .mrde import (
    ManifoldDrivingField,
    check_rde_integral_form,
    f_related_pushforward,
    rde_solve_manifold,
)
from .oneforms import (
    ControlledOneForm,
    associativity_check,
    fundamental_theorem,
    gauge_change,
    gauge_integrate,
    integrate_smooth_oneform,
    oneform_from_smooth,
    push_pull_check,
)
from .roughpath import (
    RoughPath,
    lift_piecewise_linear,
    lift_smooth,
    pure_area_driver,
    time_lift,
)
from .sewing import rough_integrate
from .transport import (
    FrameLift,
    group_rde,
    maurer_cartan_check,
    parallel_translate_frame,
    roll,
    rolled_integral_check,
    unroll,
)

__version__ = "0.1.0"
