"""Higher-order SVD: Tucker construction, exact error, cost.

Factors come from sequentially truncated HOSVD, run by TT-SVD's step
loop: each mode is factorized after the modes before it were projected
onto their factors, and the last step leaves the core. Factors are stored
in weighted coordinates so their columns are plainly orthonormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import DenseTensor, _weighted_error
from .svd import TruncationRule, _finite, _step_rules, _tail_bound
from .train import _sweep


@dataclass(frozen=True, eq=False)
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
    """Sequentially truncated HOSVD (Vannieuwenhoven, Vandebril and Meerbergen, SIAM J. Sci. Comput. 2012).

    `ranks` is one rank per mode, or one TruncationRule that picks the
    rank of every mode from that step's spectrum. Mode j's matrix is `t`
    projected onto the factors of modes 0..j-1 (see `train._sweep`); a given rank is an
    upper limit, that matrix's numerical rank (values above 1e-13 * s_1, at least 1; see
    `truncated_svd`). The error equals `tail_bound()`, and each step's tail is at most
    classical HOSVD's at the same rank. `_sweep` factorizes a step of `t` once per ranks kept before it, in
    `t`'s memo, and decides the cut: a two-mode `t` whose weighted A = UΛU^T gets mode 1 and the core diag(λ)
    cut to (r0, r1) off mode 0's `eigh`.
    """
    factors, spectra, core = _sweep(t, "mode", t.weighted_values(), t.shape, _step_rules(ranks, t.ndim))
    core = _finite(core.reshape([f.shape[1] for f in factors]))
    core.setflags(write=False)
    return TuckerDecomposition(core=core, factors=tuple(factors), mode_spectra=tuple(spectra))


def tucker_error(t: DenseTensor, d: TuckerDecomposition) -> float:
    """Exact weighted Frobenius error, block by block of rows against the held tensor: U_0 against the core
    contracted with the other factors, each multiplying the mode in front and moving it to the back, as in the
    sweep. A two-mode core zero off its diagonal c is U_0[:, :k] diag(c) U_1[:, :k]^T, k = len(c): one product."""
    if d.core.ndim == 2 and np.count_nonzero(d.core) == np.count_nonzero(c := np.diagonal(d.core)):
        return _weighted_error(t, d.factors[0][:, : c.size], c[:, None] * d.factors[1][:, : c.size].T)
    right = np.moveaxis(d.core, 0, -1)
    for factor in d.factors[1:]:
        right = right.reshape(factor.shape[1], -1).T @ factor.T
    return _weighted_error(t, d.factors[0], right.reshape([d.ranks[0]] + [f.shape[0] for f in d.factors[1:]]))


def tucker_cost(ranks: Sequence[int]) -> int:
    """Number of core-tensor entries: the product of the ranks."""
    ranks = [int(r) for r in ranks]
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    return math.prod(ranks)
