"""Dense multiaxis arrays with per-mode quadrature weights.

Weights are absorbed into unfoldings as square roots, so plain matrix
algebra on an unfolding reproduces the discrete weighted L2 geometry.
Layout is row-major with the last mode fastest, everywhere.

All objects are immutable after construction, and the operations here
are pure functions, with one exception: a DenseTensor memoizes the
factorizations of its Tucker and TT steps (`_factorization`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_ELEMENT_CAP = 2 ** 27
_BLOCK = 2 ** 16  # entries per block of rows when weighting samples or measuring an error


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
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError(f"weights for mode {ax} must be positive and finite")
        w = w.copy()
        w.setflags(write=False)
        out.append(w)
    if all(w is None for w in out):
        return None
    return tuple(out)


def _row_blocks(rows: int, cols: int):
    """Slices of consecutive rows of a (rows, cols) matrix, about `_BLOCK` entries each."""
    step = max(1, _BLOCK // cols)
    return (slice(start, start + step) for start in range(0, rows, step))


def _outer_product(vectors) -> np.ndarray:
    """The flattened outer product of `vectors`, row-major: entry (i, j, ...) is 1 * v_0[i] * v_1[j] * ..."""
    return functools.reduce(np.multiply.outer, vectors, np.ones(1)).ravel()


def _scale_by_weights(values: np.ndarray, mode_weights, power: float) -> np.ndarray:
    """A new array: `values` times the weights raised to `power` (0.5 or -0.5), in one pass.

    Over the unfolding that splits the leading ceil(m/2) modes off, entry
    (i, j) is scaled by l_i * r_j, the flattened square-root weights of each
    side, formed a block of rows at a time; a negative power divides by it.
    A two-mode tensor gets s0_i * s1_j, so a symmetric sample stays symmetric.
    """
    if mode_weights is None:
        return values.copy()
    roots = [np.ones(n) if w is None else w ** 0.5 for n, w in zip(values.shape, mode_weights)]
    half = math.ceil(values.ndim / 2)
    left, right = _outer_product(roots[:half]), _outer_product(roots[half:])
    flat = values.reshape(left.size, right.size)
    out = np.empty_like(flat)
    apply = np.multiply if power > 0 else np.divide
    for rows in _row_blocks(*flat.shape):
        apply(flat[rows], np.multiply.outer(left[rows], right), out=out[rows])
    return out.reshape(values.shape)


@dataclass(frozen=True, init=False)
class DenseTensor:
    """Discrete sample of a multivariate function, one mode per subdomain.

    It holds one read-only array, its samples scaled by the square roots of
    all mode weights (`weighted_values`); `values` divides them back out.
    It remembers the factorizations of its Tucker and TT steps (see
    `_factorization`), so its decompositions factorize each distinct one once.
    """

    shape: Shape
    mode_weights: Optional[tuple]
    _weighted: np.ndarray = field(repr=False)
    _factorizations: dict = field(repr=False, compare=False)

    def __init__(self, shape: Shape, values, mode_weights=None):
        """Weight a fresh copy of the raw samples `values` (the only place weights are multiplied in)."""
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != shape.extents:
            raise ShapeMismatchError(
                f"values of shape {values.shape} do not match shape {shape.extents}"
            )
        mode_weights = _normalize_weights(shape, mode_weights)
        with np.errstate(over="ignore"):  # a product past the float range is inf, rejected below
            weighted = _scale_by_weights(values, mode_weights, 0.5)
        if not np.isfinite(weighted).all():
            raise ValueError("tensor entries must be finite")
        weighted.setflags(write=False)
        self.__dict__.update(shape=shape, mode_weights=mode_weights, _weighted=weighted, _factorizations={})

    @classmethod
    def from_array(cls, values, mode_weights=None, cap: int = DEFAULT_ELEMENT_CAP):
        """Wrap a copy of `values`: the caller's array stays writable and independent."""
        return cls(Shape(np.shape(values), cap=cap), values, mode_weights)

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    @property
    def values(self) -> np.ndarray:
        """The raw samples, to rounding: the weights divided back out, or the held array if none."""
        if self.mode_weights is None:
            return self._weighted
        values = _scale_by_weights(self._weighted, self.mode_weights, -0.5)
        values.setflags(write=False)
        return values

    def weighted_values(self) -> np.ndarray:
        """Values scaled by the square roots of all mode weights: the held read-only array."""
        return self._weighted

    def _factorization(self, slot: tuple, key: tuple, factorize):
        """The Factorization at `slot`: ("mode", j) of the Tucker sweep or ("forward", i) of the TT one.

        An entry is reused only under an equal `key` (the ranks kept before
        the step). A miss first drops the slot and the later slots of its
        sweep whose key does not start with the new one (step 0's key is (),
        so it drops no other): the memo holds one entry per step at most,
        and no stale one while `factorize()` runs, whose result is stored
        under `key`.
        """
        cached = self._factorizations.get(slot)
        if cached is not None and cached[0] == key:
            return cached[1]
        for stale in [s for s, (k, _) in self._factorizations.items()
                      if s[0] == slot[0] and s[1] >= slot[1] and k[:len(key)] != key]:
            del self._factorizations[stale]
        self._factorizations[slot] = (key, factorize())
        return self._factorizations[slot][1]


def mode_unfolding(t: DenseTensor, mode: int) -> np.ndarray:
    """Classical mode-`mode` unfolding, weights absorbed: that mode vs all the others."""
    if not 0 <= mode < t.ndim:
        raise ShapeMismatchError(f"mode {mode} out of range 0..{t.ndim - 1}")
    return np.moveaxis(t.weighted_values(), mode, 0).reshape(t.shape.extents[mode], -1)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm; only a sum of squares past the float range is taken again on a / max |a|."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == math.inf:
        scale = float(np.abs(a).max())
        norm = scale * float(np.linalg.norm(a / scale))
    return norm


def frobenius_norm(t: DenseTensor) -> float:
    """Discrete weighted L2 norm: sqrt(sum of weight * value^2)."""
    return _norm(t.weighted_values())


def _weighted_error(t: DenseTensor, left: np.ndarray, right: np.ndarray) -> float:
    """Exact ||A_w - left @ right||, `right` (r, n_1, ..., n_{m-1}): the norm of its row blocks' norms."""
    extents = (left.shape[0],) + right.shape[1:]
    if extents != t.shape.extents:
        raise ShapeMismatchError(f"shapes {t.shape.extents} and {extents} differ")
    a = t.weighted_values().reshape(extents[0], -1)
    right = right.reshape(right.shape[0], -1)
    norms = []
    for rows in _row_blocks(*a.shape):
        block = left[rows] @ right
        block -= a[rows]
        norms.append(_norm(block))
    return _norm(np.array(norms))
