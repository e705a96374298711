"""Exact tree-lattice solvers for backward equations with reflecting barriers.

A non-recombining tree with diffusion and Poisson-mark branches carries
exact conditional expectations, martingale representation and measure
changes; on top of it sit the Snell envelope, one- and two-barrier
reflected solvers, penalization schemes, Picard iteration, diagnostic
certificates, and a zero-sum mixed control/stopping game solver, all
certified against brute-force enumeration oracles.
"""

from .errors import (
    AmbiguousNodeIds,
    ComparisonViolated,
    ConfigError,
    DensityNotPositive,
    ImplicitSolveDiverged,
    IntensityTooLarge,
    LayerMismatch,
    MonotonicityViolated,
    NoContraction,
    NonFiniteOutput,
    NonFiniteState,
    OracleInconsistent,
    SaddleViolated,
    SeparationViolated,
    SingularSigma,
    SizeOverflow,
    TooLargeToEnumerate,
    TreeBsdeError,
    UnknownForm,
    WeightOverflow,
)
from .lattice import (
    AdaptedValues,
    MarkSet,
    TimeGrid,
    Tree,
    build_tree,
    conditional_expectation,
    forward_state,
    node_id_table,
    one_step_density,
    represent_layer,
    reweight,
    values_from_function,
)
from .model import (
    BarrierPair,
    GeneratorSpec,
    ProblemSpec,
    ValidationReport,
    barriers_from_functions,
    evaluate_generator,
    validate,
)
from .snell import (
    optimal_stopping_oracle,
    snell_envelope,
    solve_one_barrier,
)
from .oracles import dynkin_pair_oracle
from .sweep import SweepResult
from .drbsde import (
    MokobodskiCertificate,
    PenalizationTrace,
    backward_clamped_solve,
    default_alpha,
    mokobodski_certificate,
    penalization_bracket,
    picard_solve,
    reflected_sweep,
)
from .game import (
    ControlGrid,
    GameResult,
    GameSpec,
    brute_force_game_oracle,
    constant_control_map,
    dynkin_value,
    solve_game,
    tilt_dual,
)
from .acceptance import run_all as run_acceptance

__version__ = "0.1.0"
