"""Tensor-train construction by chained SVDs, with bidirectional sweeps.

Each separation applies a truncated SVD to the current remainder, with
the previous bond index stacked onto the active mode. The orthonormal
left vectors become a core; the singular values travel onward in the
remainder, so error accounting stays in one place. The same step loop
runs Tucker's sequentially truncated HOSVD (`tucker.hosvd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import DenseTensor, _weighted_error
from .svd import TruncationRule, _step_factorization, _step_rules, _tail_bound, truncated_svd


@dataclass(frozen=True)
class TTDecomposition:
    """Chain of order-3 cores (bond_in, extent, bond_out), boundary bonds 1."""

    cores: tuple
    spectra: tuple

    @property
    def ranks(self) -> tuple:
        """Bond ranks r_1 .. r_{m-1}."""
        return tuple(c.shape[2] for c in self.cores[:-1])

    def tail_bound(self) -> float:
        """sqrt(sum of squared per-step truncation tails)."""
        return _tail_bound(self.spectra, self.ranks)


def _forward_bonds(m: int) -> int:
    """Bonds the bidirectional sweep separates left-to-right."""
    return math.ceil((m - 1) / 2)


def _sweep(t: DenseTensor, sweep: str, x: np.ndarray, extents, rules, key=()):
    """Truncate `extents`, in order, off the front of `x`, a reshape of `t`: the one step loop.

    Step i truncates A = `x.reshape(r * n_i, -1)`, a view (r is the rank
    stacked onto mode i, 1 in the Tucker sweep "mode") to U_r, at a rank
    `truncated_svd` decides. The TT sweeps pass U_r^T A (= s_r V_r^T) on,
    which stacks the kept rank onto the next mode; the Tucker sweep passes
    A^T U_r on, which puts the next mode in front and the kept rank at the
    back, so its last `x` is the core, axes in order. No right vectors are
    formed. A step's A is fixed by `t` and the ranks kept before it (`key`
    starts with those of earlier sweeps), so `t` factorizes it once per key.
    Returns each step's kept U and full spectrum, and the last `x`.
    """
    factors = []
    spectra = []
    r = 1
    for i, (n, rule) in enumerate(zip(extents, rules)):
        mat = x.reshape(r * n, -1)
        step = truncated_svd(_step_factorization(t, (sweep, i), key, mat), rule)
        factors.append(step.U)
        spectra.append(step.full_spectrum)
        if sweep == "mode":
            x = mat.T @ step.U
        else:
            x = step.U.T @ mat
            r = step.rank
        key += (step.rank,)
    return factors, spectra, x


def _tt_svd(t: DenseTensor, ranks, forward: int) -> TTDecomposition:
    """TT-SVD separating bonds 1..`forward` left-to-right, the rest right-to-left.

    Core `forward` is the meeting core (see :func:`tt_svd_bidirectional`).
    With `forward` = m-1 this is :func:`tt_svd`: the backward half is
    empty and the meeting core is the last core.
    """
    extents = t.shape.extents
    m = len(extents)
    rules = _step_rules(TruncationRule.fixed_rank(t.shape.size) if ranks is None else ranks, m - 1)
    left, left_spectra, remainder = _sweep(t, "forward", t.weighted_values(), extents[:forward], rules[:forward])
    mirrored = remainder.reshape(-1, *extents[forward:]).T
    left_ranks = tuple(u.shape[1] for u in left)
    right, right_spectra, remainder = _sweep(t, "backward", mirrored, extents[forward + 1 :][::-1],
                                             rules[forward:][::-1], left_ranks)
    r_left = left_ranks[-1] if left else 1
    meeting = remainder.reshape(-1, extents[forward], r_left).T
    left = [u.reshape(-1, n, u.shape[1]) for u, n in zip(left, extents)]
    right = [u.reshape(-1, n, u.shape[1]).T for u, n in zip(right, extents[::-1])]
    return TTDecomposition(
        cores=tuple(left + [meeting] + right[::-1]),
        spectra=tuple(left_spectra + right_spectra[::-1]),
    )


def tt_svd(
    t: DenseTensor, ranks: Union[Sequence[int], TruncationRule, None] = None
) -> TTDecomposition:
    """Left-to-right TT-SVD.

    `ranks` is one rank per bond (m-1 entries), one TruncationRule that
    picks the rank of every bond from that step's spectrum, or None to
    keep full ranks. A given rank is an upper limit: each bond keeps at
    most the rank of its step's matrix.
    """
    return _tt_svd(t, ranks, t.ndim - 1)


def tt_svd_bidirectional(
    t: DenseTensor, ranks: Union[Sequence[int], TruncationRule, None] = None
) -> TTDecomposition:
    """TT-SVD with forward steps up to the middle, then backward steps.

    The first ceil((m-1)/2) bonds are separated left-to-right; the rest
    are separated by the same sweep run over the mirrored remainder
    (all axes reversed), which peels the last modes first. The meeting
    core joins the two sweeps. Error accounting is identical to the
    unidirectional sweep. `ranks` is as for :func:`tt_svd`.
    """
    return _tt_svd(t, ranks, _forward_bonds(t.ndim))


def tt_error(t: DenseTensor, d: TTDecomposition) -> float:
    """Exact weighted Frobenius error: the first core against the later ones contracted right to left."""
    right = np.ones(1)  # the closing boundary bond
    for core in d.cores[:0:-1]:
        right = np.tensordot(core, right, axes=1)
    return _weighted_error(t, d.cores[0][0], right)


def tt_cost(ranks: Sequence[int]) -> int:
    """Rank-entry cost of the chain: r_1 + sum of r_{j-1} * r_j."""
    ranks = [int(r) for r in ranks]
    if not ranks:
        return 0
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    return ranks[0] + sum(ranks[j - 1] * ranks[j] for j in range(1, len(ranks)))
