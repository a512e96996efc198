"""Truncated SVD, tail energies, and decay fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import DenseTensor, ShapeMismatchError, mode_unfolding

NOISE_FLOOR_RATIO = 1e-13
SIGN_PIVOT_TOL = 1e-12
WIDE_RATIO = 2  # a matrix with cols >= WIDE_RATIO * rows is reduced by QR first


class InsufficientSpectrumError(ValueError):
    """Too few usable singular values for the requested fit."""


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending nonnegative singular values of an unfolding."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size and np.any(np.diff(values) > 1e-12 * max(values[0], 1.0)):
            raise ValueError("singular values must be sorted descending")
        if values.size and values[-1] < -1e-15:
            raise ValueError("singular values must be nonnegative")
        values = np.maximum(values, 0.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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
        if self.value < 0:
            raise ValueError("rule value must be nonnegative")

    @classmethod
    def fixed_rank(cls, r: int) -> "TruncationRule":
        """Keep r singular values, or all of them when the matrix has fewer."""
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
    """Result of a rank-truncated SVD: kept left vectors and spectrum, no V.

    `floor_limited` is set when a tail-energy target below the
    achievable noise floor was requested; `tail` then reports the floor
    actually achieved.
    """

    U: np.ndarray
    spectrum: SingularSpectrum
    tail: float
    full_spectrum: SingularSpectrum
    floor_limited: bool = False

    @property
    def rank(self) -> int:
        return len(self.spectrum)


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


def full_svd(mat: np.ndarray):
    """SVD with a deterministic sign convention on the left vectors."""
    mat = _finite(mat)
    U, s, Vt = np.linalg.svd(mat, full_matrices=False)
    # In-place flips under a mask keep U and Vt uncopied.
    flip = _sign_flips(U)
    np.negative(U, out=U, where=flip)
    np.negative(Vt, out=Vt, where=flip[:, None])
    return U, s, Vt


def spectrum(mat: np.ndarray) -> SingularSpectrum:
    """The singular values of mat, with no singular vectors computed.

    Those of a mat equal to its transpose are its |eigenvalues|, from `eigvalsh`.
    """
    mat = _finite(mat)
    if np.array_equal(mat, mat.T):
        return SingularSpectrum(np.sort(np.abs(np.linalg.eigvalsh(mat)))[::-1])
    return SingularSpectrum(np.linalg.svd(mat, compute_uv=False))


def _tails(s: np.ndarray) -> np.ndarray:
    """tails[r] = sqrt(sum of s[r:]**2), length len(s)+1."""
    sq = np.concatenate([(s ** 2)[::-1].cumsum()[::-1], [0.0]])
    return np.sqrt(np.maximum(sq, 0.0))


# All left vectors (read-only, so truncations share views of them) and singular values.
Factorization = NamedTuple("Factorization", [("U", np.ndarray), ("s", np.ndarray)])


def factorize(m: np.ndarray) -> Factorization:
    """The Factorization of m; a wide m is replaced by R^T from m^T = QR first.

    R^T has the same left vectors and singular values, and no V the size
    of m is formed.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[1] >= WIDE_RATIO * m.shape[0]:  # full_svd checks any other m
        m = np.linalg.qr(_finite(m).T, mode="r").T
    U, s, _ = full_svd(m)
    U.setflags(write=False)
    return Factorization(U, s)


def _mode_factorization(t: DenseTensor, j: int) -> Factorization:
    """The Factorization of tensor t's mode-j unfolding, memoized on t at slot ("mode", j).

    A two-mode tensor's mode-1 unfolding is the transpose of its mode-0
    one, A, so one factorization of A fills both slots, whichever is asked
    for first. An A equal to its transpose is QΛQ^T, from one `eigh`: U is
    Q ordered by descending |λ|, s = |λ|, and V = U sign(Λ) takes U's sign
    convention, so both slots hold (U, s). Any other A gets one SVD: mode 0
    gets (U, s) and mode 1 gets (V, s), V's columns in the sign convention
    of every left factor, so mode 1 holds what `factorize(A.T)` gives, up
    to rounding.
    """
    if t.ndim != 2:
        return t._factorization(("mode", j), (), lambda: {("mode", j): factorize(mode_unfolding(t, j))})

    def both_sides():
        A = _finite(mode_unfolding(t, 0))
        if np.array_equal(A, A.T):
            lam, Q = np.linalg.eigh(A)
            order = np.argsort(-np.abs(lam), kind="stable")
            U = Q[:, order]
            np.negative(U, out=U, where=_sign_flips(U))
            U.setflags(write=False)
            return dict.fromkeys([("mode", 0), ("mode", 1)], Factorization(U, np.abs(lam[order])))
        U, s, Vt = full_svd(A)
        V = Vt.T
        np.negative(V, out=V, where=_sign_flips(V))
        U.setflags(write=False)
        V.setflags(write=False)
        return {("mode", 0): Factorization(U, s), ("mode", 1): Factorization(V, s)}

    return t._factorization(("mode", j), (), both_sides)


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
    U, s = m if isinstance(m, Factorization) else factorize(m)
    full = SingularSpectrum(s)
    tails = _tails(s)
    usable = full.above_floor()
    floor_limited = False
    if rule.kind == "fixed-rank":
        rank = min(int(rule.value), len(s))
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
        spectrum=SingularSpectrum(s[:rank]),
        tail=float(tails[rank]),
        full_spectrum=full,
        floor_limited=floor_limited,
    )


def _tail_bound(spectra, ranks) -> float:
    """sqrt(sum over steps of tail^2), each tail the one `truncated_svd` reported for the rank kept."""
    return math.sqrt(sum(float(_tails(spectrum.values)[r]) ** 2 for spectrum, r in zip(spectra, ranks)))


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
