"""Low-rank tensor approximation of quadrature-sampled multivariate functions.

Tucker and tensor-train decompositions of dense weighted tensors, with
the rank-selection schedules for unweighted and weighted Sobolev
regimes and a batch experiment harness.
"""

from .core import (
    DEFAULT_ELEMENT_CAP,
    DenseTensor,
    ElementCapError,
    Shape,
    ShapeMismatchError,
    frobenius_norm,
    mode_unfolding,
)
from .functions import (
    FunctionSpec,
    UnknownFunctionError,
    default_gamma,
    make_function,
    registered_ids,
)
from .grids import (
    DomainSpec,
    GridSpec,
    sample,
)
from .schedules import (
    RankSchedule,
    SchedulerParams,
    WeightedHypothesisError,
    build_schedule,
    dimension_truncation_index,
    tt_ranks_unweighted,
    tt_ranks_weighted,
    tucker_ranks_unweighted,
    tucker_ranks_weighted,
)
from .svd import (
    DecayFit,
    SingularSpectrum,
    TruncatedSVD,
    TruncationRule,
    fit_decay_exponent,
    tail_energy,
    truncated_svd,
)
from .train import (
    TTDecomposition,
    tt_cost,
    tt_error,
    tt_reconstruct,
    tt_storage,
    tt_svd,
    tt_svd_bidirectional,
)
from .tucker import (
    TuckerDecomposition,
    hosvd,
    tucker_cost,
    tucker_error,
    tucker_factor_storage,
    tucker_reconstruct,
)

__version__ = "0.1.0"
