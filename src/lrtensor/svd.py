"""Truncated SVD, tail energies, and decay fits. Every solver reads its matrix through one dispatch
(`_solver_input`), and one type, `Factorization`, holds its left vectors (all, or the kept ones), full spectrum and eigenvalues."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import _BLOCK, ShapeMismatchError, _norm

NOISE_FLOOR_RATIO = 1e-13
SIGN_PIVOT_TOL = 1e-12
WIDE_RATIO = 2  # a matrix with cols >= WIDE_RATIO * rows is reduced by a blockwise QR first
# Rows of m^T per block of that QR (at least 4 * rows of m): each block's QR works in cache.
QR_BLOCK_ROWS = 1024
SYMMETRY_BLOCK = 128  # rows per block of `_symmetric`, which stops at the first block that differs


class InsufficientSpectrumError(ValueError):
    """Too few usable singular values for the requested fit."""


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Descending nonnegative singular values of a matrix, and their tails (see `_tails`), summed once."""

    values: np.ndarray
    tails: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size and np.any(np.diff(values) > 1e-12 * max(values[0], 1.0)):
            raise ValueError("singular values must be sorted descending")
        if values.size and values[-1] < -1e-15:
            raise ValueError("singular values must be nonnegative")
        values = np.maximum(values, 0.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        tails = _tails(values)
        tails.setflags(write=False)
        object.__setattr__(self, "tails", tails)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def noise_floor(self) -> float:
        return NOISE_FLOOR_RATIO * (self.values[0] if len(self) else 0.0)

    def usable_rank(self) -> int:
        """The numerical rank, the number of values above the noise floor, at least 1: the most `truncated_svd` keeps."""
        return max(int(np.count_nonzero(self.values > self.noise_floor)), 1)


@dataclass(frozen=True)
class TruncationRule:
    """How to pick the kept rank: a fixed rank, or the minimal one within a tail energy."""

    kind: str
    value: float

    _KINDS = ("fixed-rank", "tail-energy")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown truncation rule {self.kind!r}")
        floor = 1 if self.kind == "fixed-rank" else 0  # a rank-0 step would leave nothing
        if self.value < floor:
            raise ValueError(f"a {self.kind} rule value must be >= {floor}, got {self.value}")

    @classmethod
    def fixed_rank(cls, r: int) -> "TruncationRule":
        """Keep r >= 1 singular values, at most the matrix's usable rank: those above 1e-13 * s_1, at least 1."""
        return cls("fixed-rank", int(r))

    @classmethod
    def tail_energy(cls, eps: float) -> "TruncationRule":
        return cls("tail-energy", float(eps))


def _step_rules(ranks: Union[Sequence[int], TruncationRule], count: int) -> list:
    """One rule per step (mode or bond): one rule for all, or `count` fixed ranks >= 1."""
    if isinstance(ranks, TruncationRule):
        return [ranks] * count
    if len(ranks) != count:
        raise ShapeMismatchError(f"{len(ranks)} ranks supplied for {count} steps")
    return [TruncationRule.fixed_rank(r) for r in ranks]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit of the squared singular values."""

    exponent: float
    r2: float
    window: Tuple[int, int]


def _finite(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def _sign_flips(U: np.ndarray) -> np.ndarray:
    """The columns of U whose first entry above SIGN_PIVOT_TOL is negative.

    Flipping them makes that entry positive (a column with none is kept):
    the one sign convention of every factor a decomposition reads.
    """
    above = U > SIGN_PIVOT_TOL
    above |= U < -SIGN_PIVOT_TOL
    cols = np.arange(U.shape[1])
    pivot = above.argmax(axis=0)
    return above[pivot, cols] & (U[pivot, cols] < 0)


def _symmetric(mat: np.ndarray) -> bool:
    """`np.array_equal(mat, mat.T)` of a matrix: each block of rows of its upper triangle against its columns."""
    b = SYMMETRY_BLOCK
    return mat.shape == mat.T.shape and all(
        np.array_equal(mat[i : i + b, i:], mat[i:, i : i + b].T) for i in range(0, len(mat), b))


def _tails(s: np.ndarray) -> np.ndarray:
    """tails[r] = sqrt(sum of s[r:]**2), length len(s)+1; only squares past the float range are taken on s / s[0]."""
    with np.errstate(over="ignore"):
        scale = 1.0 if np.dot(s, s) < math.inf else float(s[0])
    sq = np.concatenate([((s / scale) ** 2)[::-1].cumsum()[::-1], [0.0]])
    return scale * np.sqrt(np.maximum(sq, 0.0))


@dataclass(frozen=True, eq=False)
class Factorization:
    """Read-only left vectors U, no V, and the full spectrum of their matrix, its tails summed once.

    `factorize` keeps every vector; `truncated_svd` keeps the first `rank`,
    a view of them, and `tail` is the exact Frobenius error of dropping the
    rest. The kept values are `full_spectrum.values[:rank]`. A matrix equal to
    its transpose also records its signed `eigenvalues`, in U's column order:
    it is U diag(λ) U^T, so its projections on U_r are read off λ (see `train._sweep`).
    """

    U: np.ndarray
    full_spectrum: SingularSpectrum
    eigenvalues: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @property
    def tail(self) -> float:
        return float(self.full_spectrum.tails[self.rank])


def _r_factor(mt: np.ndarray) -> np.ndarray:
    """R of the tall mt = QR, reduced blockwise (TSQR) when mt has two blocks of rows or more.

    Stacked QRs take the R of each block of rows, a view of mt, one group
    of about `_BLOCK` entries at a time (only that group is copied), and a
    final QR takes R of those R factors stacked on the leftover rows:
    in exact arithmetic the same R up to the signs of its rows, and as
    backward stable as one QR.
    """
    k, n = mt.shape
    rows = max(QR_BLOCK_ROWS, 4 * n)
    b = k // rows
    if b < 2:
        return np.linalg.qr(mt, mode="r")
    blocks = mt[: b * rows].reshape(b, rows, n)
    group = max(1, _BLOCK // (rows * n))
    r = [np.linalg.qr(blocks[g : g + group], mode="r").reshape(-1, n) for g in range(0, b, group)]
    return np.linalg.qr(np.concatenate(r + [mt[b * rows :]]), mode="r")


def _solver_input(m: np.ndarray) -> Tuple[np.ndarray, bool]:
    """m checked finite, and whether it equals its transpose; a wide m that does not is replaced by R^T from
    m^T = QR (R from the blockwise `_r_factor`): the same left vectors and singular values, and no V the size of m."""
    m = _finite(m)
    if _symmetric(m):
        return m, True
    if m.shape[1] >= WIDE_RATIO * m.shape[0]:
        m = _r_factor(m.T).T
    return m, False


def factorize(m: np.ndarray) -> Factorization:
    """The Factorization of m, from the one solver its form calls for.

    An m equal to its transpose is QΛQ^T, from one `eigh`: U is Q ordered
    by descending |λ|, s = |λ|, and λ in that order is kept as `eigenvalues`.
    Any other m, or its R^T if wide (see `_solver_input`), gets one SVD.
    U then takes the one sign convention, which leaves U diag(λ) U^T as it is.
    """
    m, symmetric = _solver_input(m)
    if symmetric:
        lam, Q = np.linalg.eigh(m)
        order = np.argsort(-np.abs(lam), kind="stable")
        U, lam = np.take(Q, order, axis=1), lam[order]
        s = np.abs(lam)
        lam.setflags(write=False)
    else:
        (U, s, _), lam = np.linalg.svd(m, full_matrices=False), None
    np.negative(U, out=U, where=_sign_flips(U))
    U.setflags(write=False)
    return Factorization(U, SingularSpectrum(s), lam)


def spectrum(mat: np.ndarray) -> SingularSpectrum:
    """The singular values of mat from `factorize`'s solver, values only: the |eigenvalues| of a mat equal to
    its transpose, from `eigvalsh`, and else a values-only SVD of mat or its R^T."""
    mat, symmetric = _solver_input(mat)
    if symmetric:
        return SingularSpectrum(np.sort(np.abs(np.linalg.eigvalsh(mat)))[::-1])
    return SingularSpectrum(np.linalg.svd(mat, compute_uv=False))


def truncated_svd(m, rule: TruncationRule) -> Factorization:
    """Truncate a matrix, or a Factorization of one, at the minimal rank satisfying `rule`.

    This is the one place a rank is fitted to its matrix, under one cap for
    both rule kinds: the usable rank, the number of values above the noise
    floor 1e-13 * s_1, at least 1. A fixed rank r keeps min(r, cap) values,
    so an over-large r keeps the numerical rank. A tail-energy rule keeps the
    minimal rank within the cap whose tail meets its target, at least 1; a
    target below the floor keeps the cap, and `tail` is then the floor
    actually achieved. `tail` counts every value dropped, floor values too.
    A given Factorization is only truncated, so one serves any number of
    rules; a matrix is factorized first.
    """
    f = m if isinstance(m, Factorization) else factorize(m)
    full = f.full_spectrum
    cap = full.usable_rank()
    if rule.kind == "fixed-rank":
        rank = min(int(rule.value), cap)
    else:
        candidates = np.flatnonzero(full.tails[: cap + 1] <= rule.value)
        rank = max(int(candidates[0]), 1) if candidates.size else cap
    return Factorization(f.U[:, :rank], full, f.eigenvalues)


def _tail_bound(spectra, ranks) -> float:
    """sqrt(sum over steps of tail^2), each tail the one `truncated_svd` reported for the rank kept (see `_norm`)."""
    return _norm(np.array([spectrum.tails[r] for spectrum, r in zip(spectra, ranks)]))


def fit_decay_exponent(
    spectrum: SingularSpectrum, window: Optional[Tuple[int, int]] = None
) -> DecayFit:
    """Fit lambda(alpha) ~ alpha^s on a log-log scale.

    The window is given in 1-based alpha indices. The default drops
    alpha = 1 (the asymptotic law is a tail statement), everything at
    the noise floor, and the upper band where discretization corrupts
    the decay; the window actually used is reported in the result.
    """
    s = spectrum.values
    usable = spectrum.usable_rank()
    if window is None:
        window = (2, max(8, usable // 8))
    first, last = max(int(window[0]), 2), min(int(window[1]), usable)
    if last <= first + 2:
        raise InsufficientSpectrumError(
            f"window ({first}, {last}) leaves too few usable singular values"
        )
    alpha = np.arange(first, last + 1)
    log_lam = 2.0 * np.log(s[first - 1 : last])
    coeffs = np.polyfit(np.log(alpha), log_lam, 1)
    fitted = np.polyval(coeffs, np.log(alpha))
    ss_res = float(np.sum((log_lam - fitted) ** 2))
    ss_tot = float(np.sum((log_lam - log_lam.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(exponent=float(coeffs[0]), r2=r2, window=(first, last))
