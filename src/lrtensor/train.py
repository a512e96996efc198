"""Tensor-train construction by chained SVDs, separating modes left to right (TT-SVD).

Each separation applies a truncated SVD to the current remainder, with
the previous bond index stacked onto the active mode. The orthonormal
left vectors become a core; the singular values travel onward in the
remainder, so error accounting stays in one place. The same step loop
runs Tucker's sequentially truncated HOSVD (`tucker.hosvd`), and memoizes its steps in the tensor (`_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import DenseTensor, _weighted_error
from .svd import Factorization, SingularSpectrum, TruncationRule, _step_rules, _tail_bound, factorize
from .svd import truncated_svd


@dataclass(frozen=True, eq=False)
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


def _sweep(t: DenseTensor, sweep: str, x: np.ndarray, extents, rules):
    """Truncate `extents`, in order, off the front of `x`, a reshape of `t`: the one step loop.

    Step i truncates A = `x.reshape(r * n_i, -1)`, a view (r is the rank
    stacked onto mode i, 1 in the Tucker sweep "mode") to U_r, at a rank
    `truncated_svd` decides. The TT sweep "forward" passes U_r^T A (= s_r V_r^T)
    on, which stacks the kept rank onto the next mode; the Tucker sweep passes
    A^T U_r on, which puts the next mode in front and the kept rank at the
    back, so its last `x` is the core, axes in order. No right vectors are
    formed. An A = UΛU^T from `eigh` passes U_r Λ_r or Λ_r U_r^T on, a scaling.
    A step's A is fixed by `t` and the ranks kept before it, its key: `t`'s memo, read and filled here alone,
    holds its factorization under slot (sweep, step), step 0 (the mode-0 unfolding in both sweeps) under
    ("mode", 0), reused under an equal key. A miss drops the slot and its sweep's later ones (keys that can no
    longer match) before the solver runs, so their arrays are freed before it allocates.
    A two-mode Tucker sweep whose step 0 is A = UΛU^T ends with its cut: A^T U_r0 = U_r0 Λ_r0 is factorized
    as U_r0 and |λ|, with no solver or slot, and its core (U_r0 Λ_r0)^T U_r1 is diag(λ) cut to (r0, r1).
    Returns each step's kept U and full spectrum, and the last `x`.
    """
    memo, factors, spectra = t._factorizations, [], []
    r, key = 1, ()
    for n, rule in zip(extents, rules):
        mat = x.reshape(r * n, -1)
        slot = (sweep, len(key)) if key else ("mode", 0)
        cached = memo.get(slot)
        if cached is None or cached[0] != key:
            for stale in [s for s in memo if s[0] == slot[0] and s[1] >= len(key)]:
                del memo[stale]
            cached = memo[slot] = (key, factorize(mat))
        step = truncated_svd(cached[1], rule)
        factors.append(step.U)
        spectra.append(step.full_spectrum)
        lam = None if step.eigenvalues is None else step.eigenvalues[: step.rank]
        if lam is not None and sweep == "mode" and t.ndim == 2 and not key:  # the cut
            cut = truncated_svd(Factorization(step.U, SingularSpectrum(np.abs(lam))), rules[1])
            return factors + [cut.U], spectra + [cut.full_spectrum], np.diag(lam)[:, : cut.rank]
        if lam is not None:
            x = step.U * lam if sweep == "mode" else lam[:, None] * step.U.T
        else:
            x = mat.T @ step.U if sweep == "mode" else step.U.T @ mat
        if sweep != "mode":
            r = step.rank
        key += (step.rank,)
    return factors, spectra, x


def tt_svd(
    t: DenseTensor, ranks: Union[Sequence[int], TruncationRule, None] = None
) -> TTDecomposition:
    """Left-to-right TT-SVD (Oseledets, SIAM J. Sci. Comput. 2011).

    `ranks` is one rank per bond (m-1 entries), one TruncationRule that
    picks the rank of every bond from that step's spectrum, or None to keep
    the numerical full ranks. A given rank is an upper limit: each bond keeps at most
    its step matrix's numerical rank (values above 1e-13 * s_1, at least 1; see
    `truncated_svd`). The last remainder is the last core.
    """
    a, extents = t.weighted_values(), t.shape
    rules = _step_rules(TruncationRule.fixed_rank(a.size) if ranks is None else ranks, t.ndim - 1)
    factors, spectra, last = _sweep(t, "forward", a, extents[:-1], rules)
    cores = [u.reshape(-1, n, u.shape[1]) for u, n in zip(factors, extents)]
    return TTDecomposition(cores=tuple(cores + [last.reshape(-1, extents[-1], 1)]), spectra=tuple(spectra))


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
