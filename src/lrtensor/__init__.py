"""Low-rank tensor approximation of quadrature-sampled multivariate functions.

Tucker and tensor-train decompositions of dense weighted tensors, with
the rank-selection schedules for unweighted and weighted Sobolev
regimes and a batch experiment harness.

A name is exported here iff README.md or tests/test_acceptance.py reads
it, or an exported callable takes, returns or raises it. Everything else
is imported from its module.
"""

from .core import (
    DenseTensor,
    ElementCapError,
    ShapeMismatchError,
    frobenius_norm,
    mode_unfolding,
)
from .functions import (
    FunctionSpec,
    UnknownFunctionError,
    default_gamma,
    make_function,
)
from .grids import (
    GridSpec,
    sample,
)
from .schedules import (
    RankSchedule,
    SchedulerParams,
    WeightedHypothesisError,
    build_schedule,
)
from .svd import (
    DecayFit,
    Factorization,
    InsufficientSpectrumError,
    SingularSpectrum,
    TruncationRule,
    fit_decay_exponent,
    truncated_svd,
)
from .train import (
    TTDecomposition,
    tt_cost,
    tt_error,
    tt_svd,
)
from .tucker import (
    TuckerDecomposition,
    hosvd,
    tucker_cost,
    tucker_error,
)

__version__ = "0.1.0"
