"""Random-walk analysis laboratory.

Exact hitting and cover statistics, electrical-network machinery, product
constructions, configuration-model sampling, conductance profiles, and a
Monte Carlo walk engine, with a CLI that packages the standard experiments.

The package re-exports the objects most sessions start from; everything
else lives under its topic module (spectral, electrical, walks, product,
configmodel, conductance, weighting).
"""

from .conductance import conductance_exact, conductance_sweep, jerrum_sinclair_check
from .configmodel import (
    DegreeSequence,
    check_nice,
    predicted_cover,
    predicted_p_simple,
    regular_sequence,
    sample_configuration,
    sample_simple,
)
from .electrical import (
    commute_matrix,
    matthews_lower,
    matthews_upper,
    merst_bound,
    resistance_matrix,
    spanning_tree_bound,
)
from .errors import (
    DisconnectedError,
    InputError,
    NumericError,
    ParameterError,
    RejectionFailure,
    SizeCapError,
    UnsupportedInputError,
    WalklabError,
)
from .graph import Graph, cartesian_product, family, random_connected_graph
from .product import local_observation, theorem_main_bounds
from .rng import substream
from .spectral import (
    TransitionKernel,
    build_kernel,
    exact_cover_time,
    exact_cover_times,
    exact_hitting,
)
from .walks import WalkConfig, simulate, speedup
from .weighting import apply_scheme

__version__ = "0.1.0"

__all__ = [
    "DegreeSequence",
    "DisconnectedError",
    "Graph",
    "InputError",
    "NumericError",
    "ParameterError",
    "RejectionFailure",
    "SizeCapError",
    "TransitionKernel",
    "UnsupportedInputError",
    "WalkConfig",
    "WalklabError",
    "__version__",
    "apply_scheme",
    "build_kernel",
    "cartesian_product",
    "check_nice",
    "commute_matrix",
    "conductance_exact",
    "conductance_sweep",
    "exact_cover_time",
    "exact_cover_times",
    "exact_hitting",
    "family",
    "jerrum_sinclair_check",
    "local_observation",
    "matthews_lower",
    "matthews_upper",
    "merst_bound",
    "predicted_cover",
    "predicted_p_simple",
    "random_connected_graph",
    "regular_sequence",
    "resistance_matrix",
    "sample_configuration",
    "sample_simple",
    "simulate",
    "spanning_tree_bound",
    "speedup",
    "substream",
    "theorem_main_bounds",
]
