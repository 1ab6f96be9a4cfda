"""Shallow vector-valued networks for operators on discretized inputs.

Approximates maps F from compact families of functions, sequences, or
matrices into seminormed targets by s -> sum_j eta(l_j(s) - theta_j) v_j,
built in two stages: an epsilon-net with a hat partition of unity, then
seeded random-feature ridge fits of the partition coefficients.
"""

from .construct import (
    AssemblyReport,
    EpsilonNet,
    FitConfig,
    assemble_vector_network,
    build_epsilon_net,
    build_partition,
    draw_features,
    fit_columns,
    fit_ridge_features,
    least_squares_solve,
    uniform_error,
)
from .errors import BudgetError, ConfigError, CoverageError, DocumentError, ShapeError
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    RunResult,
    emit_report,
    run_experiment,
)
from .inputs import (
    CompactEnsemble,
    EnsembleSpec,
    FunctionalSpec,
    random_functional,
    sample_ensemble,
)
from .network import (
    Gaussian,
    Polynomial,
    Relu,
    ShallowVectorNetwork,
    Sigmoid,
    Tanh,
    deserialize_network,
    make_activation,
    serialize_network,
)
from .operators import (
    Kernel,
    Operator,
    integral_operator,
    make_kernel,
    matrix_map_operator,
    poisson_operator,
    superposition_operator,
    zero_operator,
)
from .presets import preset_description, preset_dict, preset_names
from .seeding import derive_seed
from .targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    Seminorm,
    SeminormFamily,
    SupDerivative,
)

__version__ = "0.37.0"
