"""Truncated SVD, tail energies, and decay fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import DenseTensor, ShapeMismatchError, mode_unfolding

NOISE_FLOOR_RATIO = 1e-13
SIGN_PIVOT_TOL = 1e-12
WIDE_RATIO = 2  # a matrix with cols >= WIDE_RATIO * rows is reduced by a blockwise QR first
# Rows of m^T per block of that QR (at least 4 * rows of m): each block's QR works in cache.
QR_BLOCK_ROWS = 1024


class InsufficientSpectrumError(ValueError):
    """Too few usable singular values for the requested fit."""


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending nonnegative singular values of a matrix, and their tails (see `_tails`), summed once."""

    values: np.ndarray
    tails: np.ndarray = field(init=False, repr=False, compare=False)

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

    def above_floor(self) -> int:
        """Number of values that are not flagged as numerical noise."""
        return int(np.count_nonzero(self.values > self.noise_floor))


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
        """Keep r >= 1 singular values, or all of them when the matrix has fewer."""
        return cls("fixed-rank", int(r))

    @classmethod
    def tail_energy(cls, eps: float) -> "TruncationRule":
        return cls("tail-energy", float(eps))


def _step_rules(ranks: Union[Sequence[int], TruncationRule], count: int) -> list:
    """One rule per step (mode or bond): one rule for all, or `count` fixed ranks >= 1."""
    if isinstance(ranks, TruncationRule):
        return [ranks] * count
    ranks = [int(r) for r in ranks]
    if len(ranks) != count:
        raise ShapeMismatchError(f"{len(ranks)} ranks supplied for {count} steps")
    for step, r in enumerate(ranks, start=1):
        if r < 1:
            raise ValueError(f"rank at step {step} must be positive, got {r}")
    return [TruncationRule.fixed_rank(r) for r in ranks]


@dataclass(frozen=True)
class TruncatedSVD:
    """Result of a rank-truncated SVD: the kept left vectors U, no V, and the full spectrum.

    The kept values are `full_spectrum.values[:rank]`, and `tail` is the
    Frobenius error of dropping the rest. `floor_limited` is set when a
    tail-energy target below the achievable noise floor was requested;
    `tail` then reports the floor actually achieved.
    """

    U: np.ndarray
    tail: float
    full_spectrum: SingularSpectrum
    floor_limited: bool = False

    @property
    def rank(self) -> int:
        return self.U.shape[1]


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
    return np.array_equal(mat, mat.T)


def spectrum(mat: np.ndarray) -> SingularSpectrum:
    """The singular values of mat, with no singular vectors computed.

    Those of a mat equal to its transpose are its |eigenvalues|, from `eigvalsh`.
    """
    mat = _finite(mat)
    if _symmetric(mat):
        return SingularSpectrum(np.sort(np.abs(np.linalg.eigvalsh(mat)))[::-1])
    return SingularSpectrum(np.linalg.svd(mat, compute_uv=False))


def _tails(s: np.ndarray) -> np.ndarray:
    """tails[r] = sqrt(sum of s[r:]**2), length len(s)+1; only squares past the float range are taken on s / s[0]."""
    with np.errstate(over="ignore"):
        scale = 1.0 if np.dot(s, s) < math.inf else float(s[0])
    sq = np.concatenate([((s / scale) ** 2)[::-1].cumsum()[::-1], [0.0]])
    return scale * np.sqrt(np.maximum(sq, 0.0))


# All left vectors (read-only, so truncations share views of them) and the spectrum, its tails summed once.
Factorization = NamedTuple("Factorization", [("U", np.ndarray), ("spectrum", SingularSpectrum)])


def _r_factor(mt: np.ndarray) -> np.ndarray:
    """R of the tall mt = QR, reduced blockwise (TSQR) when mt has two blocks of rows or more.

    One stacked QR takes the R of each block of rows, a view of mt, and a
    final QR takes R of those R factors stacked on the leftover rows:
    in exact arithmetic the same R up to the signs of its rows, and as
    backward stable as one QR.
    """
    k, n = mt.shape
    rows = max(QR_BLOCK_ROWS, 4 * n)
    b = k // rows
    if b < 2:
        return np.linalg.qr(mt, mode="r")
    r = np.linalg.qr(mt[: b * rows].reshape(b, rows, n), mode="r")
    return np.linalg.qr(np.concatenate([r.reshape(b * n, n), mt[b * rows :]]), mode="r")


def factorize(m: np.ndarray) -> Factorization:
    """The Factorization of m, from the one solver its form calls for.

    An m equal to its transpose is QΛQ^T, from one `eigh`: U is Q ordered
    by descending |λ| and s = |λ|. A wide m is replaced by R^T from
    m^T = QR first (R from the blockwise `_r_factor`): R^T has the same
    left vectors and singular values, and no V the size of m is formed.
    Any other m gets one SVD. U then takes the one sign convention.
    """
    m = _finite(m)
    if _symmetric(m):
        lam, Q = np.linalg.eigh(m)
        order = np.argsort(-np.abs(lam), kind="stable")
        U, s = Q[:, order], np.abs(lam[order])
    else:
        if m.shape[1] >= WIDE_RATIO * m.shape[0]:
            m = _r_factor(m.T).T
        U, s, _ = np.linalg.svd(m, full_matrices=False)
    np.negative(U, out=U, where=_sign_flips(U))
    U.setflags(write=False)
    return Factorization(U, SingularSpectrum(s))


def _mode_factorization(t: DenseTensor) -> Factorization:
    """The Factorization of t's mode-0 unfolding, the first step of the Tucker and TT sweeps."""
    return t._factorization(("mode", 0), (), lambda: factorize(mode_unfolding(t, 0)))


def _step_factorization(t: DenseTensor, slot: tuple, key: tuple, mat: np.ndarray) -> Factorization:
    """The Factorization of sweep step `slot`, whose matrix `mat` is fixed by `t` and `key` (the ranks
    kept before it), memoized on t under `key`.

    Step 1 of a two-mode tensor whose weighted matrix A = QΛQ^T equals its
    transpose needs no solver: A^T U_r = U_r Λ_r, so it is mode 0's cut to r.
    """
    if slot in (("mode", 0), ("forward", 0)):
        return _mode_factorization(t)

    def fill():
        if slot == ("mode", 1) and t.ndim == 2 and _symmetric(t.weighted_values()):
            U, first = _mode_factorization(t)
            return Factorization(U[:, : key[0]], SingularSpectrum(first.values[: key[0]]))
        return factorize(mat)

    return t._factorization(slot, key, fill)


def truncated_svd(m, rule: TruncationRule) -> TruncatedSVD:
    """Truncate a matrix, or a Factorization of one, at the minimal rank satisfying `rule`.

    This is the one place a rank is fitted to its matrix: a fixed rank r
    keeps min(r, min(rows, cols)) values, so an over-large r keeps the
    full rank. A tail-energy rule keeps at least one singular value, so a
    decomposition driven by a tolerance never gets a rank-0 mode or
    bond. The reported tail is the exact Frobenius error of the
    truncation. A given Factorization is only truncated, so one serves
    any number of rules; a matrix is factorized first.
    """
    U, full = m if isinstance(m, Factorization) else factorize(m)
    tails = full.tails
    usable = full.above_floor()
    floor_limited = False
    if rule.kind == "fixed-rank":
        rank = min(int(rule.value), len(full))
    else:
        candidates = np.flatnonzero(tails[: usable + 1] <= rule.value)
        if candidates.size:
            rank = int(candidates[0])
        else:
            rank = usable
            floor_limited = True
        rank = max(rank, 1)
    return TruncatedSVD(
        U=U[:, :rank],
        tail=float(tails[rank]),
        full_spectrum=full,
        floor_limited=floor_limited,
    )


def _tail_bound(spectra, ranks) -> float:
    """sqrt(sum over steps of tail^2), each tail the one `truncated_svd` reported for the rank kept;
    only a sum of squares past the float range is taken by `math.hypot`, which scales."""
    tails = [float(spectrum.tails[r]) for spectrum, r in zip(spectra, ranks)]
    try:
        bound = math.sqrt(sum(tail ** 2 for tail in tails))
    except OverflowError:  # a square past the float range
        bound = math.inf
    return bound if bound < math.inf else math.hypot(*tails)


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
    usable = spectrum.above_floor()
    if window is None:
        last = max(8, usable // 8)
        window = (2, min(last, usable))
    first, last = int(window[0]), int(window[1])
    first = max(first, 2)
    last = min(last, usable)
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
