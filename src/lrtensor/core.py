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
    exactly the factors that scaling multiplied in. The result is a new
    array (normalized weights hold at least one vector).
    """
    out = values.copy() if mode_weights is None else values
    for ax, w in enumerate(mode_weights or ()):
        if w is None:
            continue
        reshape = [1] * values.ndim
        reshape[ax] = -1
        factor = (w ** abs(power)).reshape(reshape)
        out = out * factor if power > 0 else out / factor
    return out


@dataclass(frozen=True)
class DenseTensor:
    """Discrete sample of a multivariate function, one mode per subdomain."""

    shape: Shape
    values: np.ndarray
    mode_weights: Optional[tuple] = None
    _weighted: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.shape.extents:
            if values.size == self.shape.size:
                values = values.reshape(self.shape.extents)
            else:
                raise ShapeMismatchError(
                    f"values of size {values.size} do not fill shape "
                    f"{self.shape.extents}"
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

    def weights_for(self, mode: int):
        if self.mode_weights is None:
            return None
        return self.mode_weights[mode]


@dataclass(frozen=True)
class UnfoldingSpec:
    """Ordered split of the modes into a row group and a column group."""

    row_modes: tuple
    col_modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "row_modes", tuple(int(i) for i in self.row_modes))
        object.__setattr__(self, "col_modes", tuple(int(i) for i in self.col_modes))

    def validate_for(self, shape: Shape) -> None:
        seen = self.row_modes + self.col_modes
        if sorted(seen) != list(range(shape.ndim)):
            raise ShapeMismatchError(
                f"row/column groups {self.row_modes}/{self.col_modes} are not "
                f"a partition of the {shape.ndim} modes"
            )

    def matrix_dims(self, shape: Shape):
        rows = math.prod(shape.extents[i] for i in self.row_modes) if self.row_modes else 1
        cols = math.prod(shape.extents[i] for i in self.col_modes) if self.col_modes else 1
        return rows, cols


def unfold(t: DenseTensor, spec: UnfoldingSpec) -> np.ndarray:
    """Matricize `t` per `spec`, with quadrature weights absorbed as sqrt."""
    spec.validate_for(t.shape)
    wv = t.weighted_values()
    perm = spec.row_modes + spec.col_modes
    rows, cols = spec.matrix_dims(t.shape)
    return np.transpose(wv, perm).reshape(rows, cols)


def fold(
    mat: np.ndarray,
    spec: UnfoldingSpec,
    shape: Shape,
    mode_weights=None,
) -> DenseTensor:
    """Exact inverse of :func:`unfold` (weights divided back out)."""
    spec.validate_for(shape)
    mat = np.asarray(mat, dtype=float)
    rows, cols = spec.matrix_dims(shape)
    if mat.shape != (rows, cols):
        raise ShapeMismatchError(
            f"matrix is {mat.shape}, spec requires {(rows, cols)}"
        )
    perm = spec.row_modes + spec.col_modes
    inverse = np.argsort(perm)
    values = mat.reshape([shape.extents[p] for p in perm]).transpose(inverse)
    return _from_weighted(shape, values, _normalize_weights(shape, mode_weights))


def _from_weighted(shape: Shape, weighted: np.ndarray, mode_weights) -> DenseTensor:
    """Divide the weights back out: the only place they are, for `fold` and both reconstructs."""
    return DenseTensor(shape, _scale_by_weights(weighted, mode_weights, -0.5), mode_weights)


def mode_unfolding(t: DenseTensor, mode: int) -> np.ndarray:
    """Classical mode-`mode` unfolding: that mode vs all the others."""
    rest = tuple(i for i in range(t.ndim) if i != mode)
    return unfold(t, UnfoldingSpec((mode,), rest))


def _mode_product(values: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply axis `mode` of `values` by the matrix `m` from the left."""
    return np.moveaxis(np.tensordot(m, values, axes=(1, mode)), 0, mode)


def contract_mode(t: DenseTensor, m: np.ndarray, mode: int) -> DenseTensor:
    """Mode-wise matrix product; the contracted mode loses its weights."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != t.shape.extents[mode]:
        raise ShapeMismatchError(
            f"matrix columns {m.shape} do not match extent "
            f"{t.shape.extents[mode]} of mode {mode}"
        )
    values = _mode_product(t.values, m, mode)
    if t.mode_weights is None:
        weights = None
    else:
        weights = list(t.mode_weights)
        weights[mode] = None
    return DenseTensor(Shape(values.shape, cap=t.shape.cap), values, weights)


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
