"""Sub-Lorentzian longest paths: cones, antinorms, causal time forms, and a
direct-transcription maximizer of the length functional on group models."""

from .cones import (
    Antinorm,
    AntinormCertificate,
    AxiomCheckReport,
    Cone,
    LorentzCone,
    LorentzSqrt,
    MinOfLinear,
    NEG_INF,
    PolyhedralCone,
    TimeCovector,
    ZeroAntinorm,
    antinorm_eval,
    check_antinorm_axioms,
    find_time_covector,
)
from .dynamics import (
    AdmissibilityReport,
    ControlSignal,
    Trajectory,
    admissibility_check,
    integrate,
    integrate_rk4_step2,
    oriented_area,
    sl_length,
    trajectory_to_csv,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidPointError,
    NegativeAntinormError,
    NotExactError,
    NotPointedError,
    StalledParameterError,
    SubLorentzError,
    UnboundedSectionError,
    UnsupportedStepError,
    WrongModelError,
)
from .groups import (
    AbelianGroup,
    CarnotAlgebra,
    CarnotGroup,
    GroupModel,
    HyperbolicPlane,
    bch_log_product,
    format_structure_constants,
    heisenberg_algebra,
    load_structure_constants,
    minkowski_area_algebra,
    parse_structure_constants,
)
from .solver import (
    HyperbolicityReport,
    ProblemInstance,
    SolveOptions,
    SolveReport,
    SolveStatus,
    abelianized_upper_bound,
    check_hyperbolicity_desk,
    reachability_sample,
    solve_longest,
    solve_longest_reparametrized,
)
from .timeform import (
    GrowthReport,
    HyperbolicAB,
    LeftInvariantForm,
    TimeForm,
    check_growth_condition,
    dtau,
    exterior_derivative_fd,
    is_exact,
    potential,
    reparametrize,
    section_sup_norm,
    tau_duration,
)

__version__ = "0.1.0"
