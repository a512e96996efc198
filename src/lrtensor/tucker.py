"""Higher-order SVD: Tucker construction, exact error, cost.

Factors are computed from the original tensor's unfoldings (classical
HOSVD), stored in weighted coordinates so their columns are plainly
orthonormal. The core is obtained by a single projection pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import DenseTensor, _mode_product, _weighted_error
from .svd import TruncationRule, _finite, _mode_factorization, _step_rules, _tail_bound, truncated_svd


@dataclass(frozen=True)
class TuckerDecomposition:
    """Read-only core array (weighted samples projected on the factors), orthonormal factors, mode spectra."""

    core: np.ndarray
    factors: tuple
    mode_spectra: tuple

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
    factorizes each distinct unfolding once, on the first `hosvd` of it:
    a two-mode tensor whose weighted matrix equals its transpose has one,
    factorized by one `eigh`, and any other tensor one per mode.
    """
    factors = []
    spectra = []
    for j, rule in enumerate(_step_rules(ranks, t.ndim)):
        step = truncated_svd(_mode_factorization(t, j), rule)
        factors.append(step.U)
        spectra.append(step.full_spectrum)
    core = t.weighted_values()
    for j, factor in enumerate(factors):
        core = _mode_product(core, factor.T, j)
    core = _finite(core)
    core.setflags(write=False)
    return TuckerDecomposition(core=core, factors=tuple(factors), mode_spectra=tuple(spectra))


def tucker_error(t: DenseTensor, d: TuckerDecomposition) -> float:
    """Exact weighted Frobenius error: U_0 against the core contracted with the other factors."""
    right = d.core
    for j, factor in enumerate(d.factors[1:], start=1):
        right = _mode_product(right, factor, j)
    return _weighted_error(t, d.factors[0], right)


def tucker_cost(ranks: Sequence[int]) -> int:
    """Number of core-tensor entries: the product of the ranks."""
    ranks = [int(r) for r in ranks]
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    return math.prod(ranks)
