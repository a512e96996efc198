"""Higher-order SVD: Tucker construction, reconstruction, error, cost.

Factors are computed from the original tensor's unfoldings (classical
HOSVD), stored in weighted coordinates so their columns are plainly
orthonormal. The core is obtained by a single projection pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    DenseTensor,
    Shape,
    ShapeMismatchError,
    _from_weighted,
    _mode_product,
    _weighted_error,
    mode_unfolding,
)
from .svd import TruncationRule, _step_rules, _tail_bound, factorize, truncated_svd


@dataclass(frozen=True)
class TuckerDecomposition:
    """Core tensor plus per-mode orthonormal factors and mode spectra."""

    core: DenseTensor
    factors: tuple
    mode_spectra: tuple
    mode_weights: tuple
    source_shape: Shape

    @property
    def ranks(self) -> tuple:
        return tuple(f.shape[1] for f in self.factors)

    def tail_bound(self) -> float:
        """sqrt(sum over modes of squared discarded tail energies)."""
        return _tail_bound(self.mode_spectra, self.ranks)


def hosvd(
    t: DenseTensor, ranks: Union[Sequence[int], TruncationRule]
) -> TuckerDecomposition:
    """Truncated higher-order SVD.

    `ranks` is one rank per mode, or one TruncationRule that picks the
    rank of every mode from that mode's spectrum. A given rank is an
    upper limit: each mode keeps at most the rank of its unfolding.
    A mode's factorization does not depend on the rank kept, so `t`
    factorizes each unfolding once, on the first `hosvd` of it.
    """
    factors = []
    spectra = []
    for j, rule in enumerate(_step_rules(ranks, t.ndim)):
        factorization = t._factorization(("mode", j), (), lambda: factorize(mode_unfolding(t, j)))
        step = truncated_svd(factorization, rule)
        factors.append(step.U)
        spectra.append(step.full_spectrum)
    core = t.weighted_values()
    for j, factor in enumerate(factors):
        core = _mode_product(core, factor.T, j)
    return TuckerDecomposition(
        core=DenseTensor.from_array(core, cap=t.shape.cap),
        factors=tuple(factors),
        mode_spectra=tuple(spectra),
        mode_weights=t.mode_weights,
        source_shape=t.shape,
    )


def _weighted_reconstruction(d: TuckerDecomposition) -> np.ndarray:
    """Contract the core with all factors; a fresh array in weighted coordinates."""
    values = d.core.values
    for j, factor in enumerate(d.factors):
        values = _mode_product(values, factor, j)
    if values.shape != d.source_shape.extents:
        raise ShapeMismatchError("factor and core dimensions are inconsistent")
    return values


def tucker_reconstruct(d: TuckerDecomposition) -> DenseTensor:
    """Contract the core with all factors and divide the weights back out."""
    return _from_weighted(d.source_shape, _weighted_reconstruction(d), d.mode_weights)


def tucker_error(t: DenseTensor, d: TuckerDecomposition) -> float:
    """Exact weighted Frobenius error of the full reconstruction."""
    return _weighted_error(t, _weighted_reconstruction(d))


def tucker_cost(ranks: Sequence[int]) -> int:
    """Number of core-tensor entries: the product of the ranks."""
    ranks = [int(r) for r in ranks]
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    return math.prod(ranks)


def tucker_factor_storage(extents: Sequence[int], ranks: Sequence[int]) -> int:
    """Entries held by the factor matrices: sum of extent * rank."""
    return int(sum(int(n) * int(r) for n, r in zip(extents, ranks)))
