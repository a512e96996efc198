"""Truncated SVD, Gram-matrix oracle, tail energies, and decay fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import ShapeMismatchError

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


def full_svd(mat: np.ndarray):
    """SVD with a deterministic sign convention on the left vectors."""
    mat = _finite(mat)
    U, s, Vt = np.linalg.svd(mat, full_matrices=False)
    # The first entry of each column above the pivot tolerance (if any)
    # is made positive. Masks and in-place flips keep U and Vt uncopied.
    above = U > SIGN_PIVOT_TOL
    above |= U < -SIGN_PIVOT_TOL
    cols = np.arange(U.shape[1])
    pivot = above.argmax(axis=0)
    flip = above[pivot, cols] & (U[pivot, cols] < 0)
    np.negative(U, out=U, where=flip)
    np.negative(Vt, out=Vt, where=flip[:, None])
    return U, s, Vt


def _tails(s: np.ndarray) -> np.ndarray:
    """tails[r] = sqrt(sum of s[r:]**2), length len(s)+1."""
    sq = np.concatenate([(s ** 2)[::-1].cumsum()[::-1], [0.0]])
    return np.sqrt(np.maximum(sq, 0.0))


def truncated_svd(m: np.ndarray, rule: TruncationRule) -> TruncatedSVD:
    """Truncate at the minimal rank satisfying `rule`.

    This is the one place a rank is fitted to its matrix: a fixed rank r
    keeps min(r, min(rows, cols)) values, so an over-large r keeps the
    full rank. A tail-energy rule keeps at least one singular value, so a
    decomposition driven by a tolerance never gets a rank-0 mode or
    bond. The reported tail is the exact Frobenius error of the
    truncation. A wide m is replaced by R^T from m^T = QR, which has the
    same left vectors and singular values, so no V the size of m is formed.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[1] >= WIDE_RATIO * m.shape[0]:  # full_svd checks any other m
        m = np.linalg.qr(_finite(m).T, mode="r").T
    U, s, _ = full_svd(m)
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


def gram_spectrum(m: np.ndarray) -> SingularSpectrum:
    """Eigenvalues of m^T m, descending and clipped at zero.

    Independent oracle for the squared singular values: sqrt of these
    must match the singular values of `m` on the non-noise range.
    """
    m = _finite(m)
    eig = np.linalg.eigvalsh(m.T @ m)[::-1]
    return SingularSpectrum(np.maximum(eig, 0.0))


def tail_energy(spectrum: SingularSpectrum, r: int) -> float:
    """sqrt(sum of squared singular values beyond rank r)."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return float(np.sqrt(np.sum(spectrum.values[r:] ** 2)))


def _tail_bound(spectra, ranks) -> float:
    """sqrt(sum over steps of the squared tail energy beyond the kept rank)."""
    return math.sqrt(sum(tail_energy(spectrum, r) ** 2 for spectrum, r in zip(spectra, ranks)))


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


def projection_trace_check(m: np.ndarray, r: int) -> Tuple[float, float]:
    """Both sides of the projection trace identity.

    lhs: squared Frobenius error of projecting onto the top-r left
    singular vectors. rhs: trace of the Gram matrix minus trace of the
    projected Gram matrix. The two agree to rounding.
    """
    m = np.asarray(m, dtype=float)
    if not 1 <= r <= m.shape[0]:
        raise ValueError(f"rank {r} out of range for {m.shape[0]} rows")
    U, _, _ = full_svd(m)
    Ur = U[:, :r]
    pm = Ur @ (Ur.T @ m)
    lhs = float(np.linalg.norm(m - pm) ** 2)
    rhs = float(np.trace(m.T @ m) - np.trace(pm.T @ pm))
    return lhs, rhs
