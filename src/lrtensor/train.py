"""Tensor-train construction by chained SVDs, with bidirectional sweeps.

Each separation applies a truncated SVD to the current remainder, with
the previous bond index stacked onto the active mode. The orthonormal
left vectors become a core; the singular values travel onward in the
remainder, so error accounting stays in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import DenseTensor, Shape, _from_weighted, _weighted_error
from .svd import TruncationRule, _step_rules, _tail_bound, factorize, truncated_svd


@dataclass(frozen=True)
class TTDecomposition:
    """Chain of order-3 cores (bond_in, extent, bond_out), boundary bonds 1.

    `orthogonality` is "left" for the unidirectional sweep (all cores
    but the last are left-orthonormal) and "split" for the bidirectional
    sweep (left-orthonormal up to the meeting core, right-orthonormal
    after it; the meeting core carries the norm).
    """

    cores: tuple
    spectra: tuple
    mode_weights: tuple
    source_shape: Shape
    orthogonality: str = "left"
    step_stack_dims: tuple = ()

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


def _sweep(t: DenseTensor, sweep: str, remainder: np.ndarray, extents, rules, key=()):
    """Separate `extents`, in order, off the front of `remainder`, a reshape of `t`.

    Each step stacks the previous bond onto the active mode, truncates
    that matrix A, keeps U_r as a left-orthonormal core and passes
    U_r^T A (= s_r V_r^T) on, so the singular values travel in the
    remainder and no right vectors are formed. `truncated_svd` decides
    each kept rank, so a fixed rank keeps at most min(rows, cols) values,
    and the rank kept sets the rows of the next step's A.
    A step's A is fixed by `t` and the ranks kept before it (`key` starts
    with those of earlier sweeps), so `t` factorizes it once per such key.
    Returns the cores, one (spectrum, stack dim) per step, and the
    final remainder.
    """
    cores = []
    steps = []
    r_prev = 1
    for i, (n, rule) in enumerate(zip(extents, rules)):
        mat = remainder.reshape(r_prev * n, -1)
        step = truncated_svd(t._factorization((sweep, i), key, lambda: factorize(mat)), rule)
        cores.append(step.U.reshape(r_prev, n, step.rank))
        steps.append((step.full_spectrum, mat.shape[0]))
        remainder = step.U.T @ mat
        r_prev = step.rank
        key += (r_prev,)
    return cores, steps, remainder


def _tt_svd(t: DenseTensor, ranks, forward: int) -> TTDecomposition:
    """TT-SVD separating bonds 1..`forward` left-to-right, the rest right-to-left.

    Core `forward` is the meeting core (see :func:`tt_svd_bidirectional`).
    With `forward` = m-1 this is :func:`tt_svd`: the backward half is
    empty and the meeting core is the last core.
    """
    extents = t.shape.extents
    m = len(extents)
    rules = _step_rules(TruncationRule.fixed_rank(t.shape.size) if ranks is None else ranks, m - 1)
    left, left_steps, remainder = _sweep(t, "forward", t.weighted_values(), extents[:forward], rules[:forward])
    mirrored = remainder.reshape(-1, *extents[forward:]).T
    left_ranks = tuple(core.shape[2] for core in left)
    right, right_steps, remainder = _sweep(t, "backward", mirrored, extents[forward + 1 :][::-1],
                                           rules[forward:][::-1], left_ranks)
    r_left = left_ranks[-1] if left else 1
    meeting = remainder.reshape(-1, extents[forward], r_left).T
    return TTDecomposition(
        cores=tuple(left + [meeting] + [core.T for core in right[::-1]]),
        spectra=tuple(spectrum for spectrum, _ in left_steps + right_steps[::-1]),
        mode_weights=t.mode_weights,
        source_shape=t.shape,
        orthogonality="left" if forward == m - 1 else "split",
        step_stack_dims=tuple(dims for _, dims in left_steps + right_steps),
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


def _weighted_chain(d: TTDecomposition) -> np.ndarray:
    """Contract the core chain; a fresh array in weighted coordinates."""
    chain = np.array(d.cores[0])  # a copy, so a one-core chain is fresh too
    for core in d.cores[1:]:
        chain = np.tensordot(chain, core, axes=(chain.ndim - 1, 0))
    return chain.reshape(d.source_shape.extents)


def tt_reconstruct(d: TTDecomposition) -> DenseTensor:
    """Sequential contraction of the core chain, weights divided back out."""
    return _from_weighted(d.source_shape, _weighted_chain(d), d.mode_weights)


def tt_error(t: DenseTensor, d: TTDecomposition) -> float:
    """Exact weighted Frobenius error of the full reconstruction."""
    return _weighted_error(t, _weighted_chain(d))


def tt_cost(ranks: Sequence[int]) -> int:
    """Rank-entry cost of the chain: r_1 + sum of r_{j-1} * r_j."""
    ranks = [int(r) for r in ranks]
    if not ranks:
        return 0
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    return ranks[0] + sum(ranks[j - 1] * ranks[j] for j in range(1, len(ranks)))


def tt_storage(extents: Sequence[int], ranks: Sequence[int]) -> int:
    """Grid-inclusive storage: sum over cores of bond_in * extent * bond_out."""
    bonds = [1] + [int(r) for r in ranks] + [1]
    return int(
        sum(bonds[j] * int(extents[j]) * bonds[j + 1] for j in range(len(extents)))
    )
