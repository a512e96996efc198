"""Dense multiaxis arrays with per-mode quadrature weights.

Weights are absorbed into unfoldings as square roots, so plain matrix
algebra on an unfolding reproduces the discrete weighted L2 geometry.
Layout is row-major with the last mode fastest, everywhere.

All objects are immutable after construction; the operations here are
pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_ELEMENT_CAP = 2 ** 27


class ElementCapError(ValueError):
    """Requested tensor exceeds the configured element budget."""


class ShapeMismatchError(ValueError):
    """Operands have inconsistent dimensions."""


@dataclass(frozen=True)
class Shape:
    """Per-mode extents, capped at a total element budget."""

    extents: tuple
    cap: int = DEFAULT_ELEMENT_CAP

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if len(self.extents) == 0:
            raise ValueError("a shape needs at least one mode")
        if any(e < 1 for e in self.extents):
            raise ValueError(f"extents must be >= 1, got {self.extents}")
        if self.size > self.cap:
            raise ElementCapError(
                f"{self.size} elements exceed the cap of {self.cap}"
            )

    @property
    def size(self) -> int:
        return math.prod(self.extents)

    @property
    def ndim(self) -> int:
        return len(self.extents)


def _normalize_weights(shape: Shape, mode_weights):
    if mode_weights is None:
        return None
    if len(mode_weights) != shape.ndim:
        raise ShapeMismatchError(
            f"expected {shape.ndim} weight vectors, got {len(mode_weights)}"
        )
    out = []
    for ax, w in enumerate(mode_weights):
        if w is None:
            out.append(None)
            continue
        w = np.asarray(w, dtype=float)
        if w.shape != (shape.extents[ax],):
            raise ShapeMismatchError(
                f"weights for mode {ax} have length {w.shape}, "
                f"extent is {shape.extents[ax]}"
            )
        if np.any(w <= 0):
            raise ValueError(f"weights for mode {ax} must be positive")
        w = w.copy()
        w.setflags(write=False)
        out.append(w)
    if all(w is None for w in out):
        return None
    return tuple(out)


def _scale_by_weights(values: np.ndarray, mode_weights, power: float) -> np.ndarray:
    """Multiply each mode by its weights raised to `power` (0.5 or -0.5).

    A negative power divides by the positive one, so unscaling applies
    exactly the factors that scaling multiplied in. A two-mode tensor
    weighted on both modes is scaled by the one outer product s0_i * s1_j,
    so a symmetric sample on equal grids stays bitwise symmetric. The
    result is a new array (normalized weights hold at least one vector):
    the first factor allocates it and the later ones scale it in place.
    """
    factors = []
    for ax, w in enumerate(mode_weights or ()):
        if w is not None:
            reshape = [1] * values.ndim
            reshape[ax] = -1
            factors.append((w ** abs(power)).reshape(reshape))
    if len(factors) == 2 == values.ndim:
        factors = [factors[0] * factors[1]]
    out = None
    for factor in factors:
        if out is None:
            out = values * factor if power > 0 else values / factor
        elif power > 0:
            out *= factor
        else:
            out /= factor
    return values.copy() if out is None else out


@dataclass(frozen=True)
class DenseTensor:
    """Discrete sample of a multivariate function, one mode per subdomain.

    It remembers the factorizations of its unfoldings and TT steps (see
    `_factorization`), so its decompositions factorize each distinct one once.
    """

    shape: Shape
    values: np.ndarray
    mode_weights: Optional[tuple] = None
    _weighted: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _factorizations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.shape.extents:
            raise ShapeMismatchError(
                f"values of shape {values.shape} do not match shape {self.shape.extents}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "mode_weights", _normalize_weights(self.shape, self.mode_weights)
        )
        if not np.isfinite(values).all():
            raise ValueError("tensor entries must be finite")

    @classmethod
    def from_array(cls, values, mode_weights=None, cap: int = DEFAULT_ELEMENT_CAP):
        """Wrap a copy of `values`: the caller's array stays writable and independent."""
        values = np.array(values, dtype=float, order="C")
        return cls(Shape(values.shape, cap=cap), values, mode_weights)

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    def weighted_values(self) -> np.ndarray:
        """Values scaled by the square roots of all mode weights.

        Computed once (the only place weights are multiplied in) and
        read-only; `values` itself when there are no weights.
        """
        if self._weighted is None:
            weighted = self.values
            if self.mode_weights is not None:
                weighted = _scale_by_weights(self.values, self.mode_weights, 0.5)
                weighted.setflags(write=False)
            object.__setattr__(self, "_weighted", weighted)
        return self._weighted

    def _factorization(self, slot: tuple, key: tuple, factorize):
        """The Factorization at `slot`: ("mode", j), or (sweep, step) of a TT sweep.

        An entry is reused only under an equal `key` (the ranks kept before
        a TT step). A miss first drops the slot and the later slots of its
        sweep, so the memo holds at most one entry per mode and step and no
        stale one while `factorize()` runs. That returns a dict from slot to
        Factorization, stored under `key`: `slot`, and any other slot its one
        factorization fills (a two-mode tensor's mode 1, see `svd._mode_factorization`).
        """
        cached = self._factorizations.get(slot)
        if cached is not None and cached[0] == key:
            return cached[1]
        for stale in [s for s in self._factorizations if s[0] == slot[0] and s[1] >= slot[1]]:
            del self._factorizations[stale]
        self._factorizations.update((filled, (key, f)) for filled, f in factorize().items())
        return self._factorizations[slot][1]


def _from_weighted(shape: Shape, weighted: np.ndarray, mode_weights) -> DenseTensor:
    """Divide the weights back out: the only place they are, for both reconstructs."""
    return DenseTensor(shape, _scale_by_weights(weighted, mode_weights, -0.5), mode_weights)


def mode_unfolding(t: DenseTensor, mode: int) -> np.ndarray:
    """Classical mode-`mode` unfolding, weights absorbed: that mode vs all the others."""
    if not 0 <= mode < t.ndim:
        raise ShapeMismatchError(f"mode {mode} out of range 0..{t.ndim - 1}")
    return np.moveaxis(t.weighted_values(), mode, 0).reshape(t.shape.extents[mode], -1)


def _mode_product(values: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply axis `mode` of `values` by the matrix `m` from the left."""
    return np.moveaxis(np.tensordot(m, values, axes=(1, mode)), 0, mode)


def frobenius_norm(t: DenseTensor) -> float:
    """Discrete weighted L2 norm: sqrt(sum of weight * value^2)."""
    return float(np.linalg.norm(t.weighted_values()))


def _weighted_error(t: DenseTensor, reconstruction: np.ndarray) -> float:
    """Exact ||A_w - reconstruction||, subtracting in place: pass a fresh weighted array."""
    if reconstruction.shape != t.shape.extents:
        raise ShapeMismatchError(
            f"shapes {t.shape.extents} and {reconstruction.shape} differ"
        )
    reconstruction -= t.weighted_values()
    return float(np.linalg.norm(reconstruction))
