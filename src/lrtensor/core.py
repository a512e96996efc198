"""Dense multiaxis arrays with per-mode quadrature weights.

Weights are absorbed into unfoldings as square roots, so plain matrix
algebra on an unfolding reproduces the discrete weighted L2 geometry.
Layout is row-major with the last mode fastest, everywhere. A tensor is
built one way, `DenseTensor(values, mode_weights, cap)`, and its `shape`
is the plain tuple of its extents.

All objects are immutable after construction, and the operations here
are pure functions, with one exception: `train._sweep` memoizes the Tucker
and TT step factorizations of a DenseTensor in its `_factorizations` dict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

DEFAULT_ELEMENT_CAP = 2 ** 27
_BLOCK = 2 ** 16  # entries per block of rows when weighting samples or measuring an error


class ElementCapError(ValueError):
    """Requested tensor exceeds the configured element budget."""


class ShapeMismatchError(ValueError):
    """Operands have inconsistent dimensions."""


def _check_extents(extents, cap: int) -> tuple:
    """`extents` as ints, checked: at least one mode, each >= 1, and at most `cap` elements in all."""
    extents = tuple(int(e) for e in extents)
    if len(extents) == 0:
        raise ValueError("a tensor needs at least one mode")
    if any(e < 1 for e in extents):
        raise ValueError(f"extents must be >= 1, got {extents}")
    if (size := math.prod(extents)) > cap:
        raise ElementCapError(f"{size} elements exceed the cap of {cap}")
    return extents


def _normalize_weights(extents: tuple, mode_weights):
    if mode_weights is None:
        return None
    if len(mode_weights) != len(extents):
        raise ShapeMismatchError(
            f"expected {len(extents)} weight vectors, got {len(mode_weights)}"
        )
    out = []
    for ax, w in enumerate(mode_weights):
        if w is None:
            out.append(None)
            continue
        w = np.asarray(w, dtype=float)
        if w.shape != (extents[ax],):
            raise ShapeMismatchError(
                f"weights for mode {ax} have length {w.shape}, "
                f"extent is {extents[ax]}"
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


class _Samples(NamedTuple):
    """The raw samples of a tensor of `extents`, read one run of leading points at a time.

    They are indexed row-major by `axes` (the extents themselves, or a
    grid's scalar axes with the leading ones merged into one), whose first
    axis divides the rows of the balanced unfolding (see `_scale_by_weights`);
    `at(part)` returns those at a slice `part` of that axis, broadcastable
    to (len, *axes[1:]).
    """

    extents: tuple
    axes: tuple
    at: Callable


def _samples(values) -> _Samples:
    """`values` itself if it is a _Samples, else the _Samples of an array's entries."""
    if isinstance(values, _Samples):
        return values
    values = np.asarray(values, dtype=float)
    return _Samples(values.shape, values.shape, values.__getitem__)


def _scale_by_weights(values, mode_weights, power: float) -> np.ndarray:
    """A new array: the samples `values` (an array or a _Samples) times the weights raised to `power`
    (0.5 or -0.5), in one pass.

    Over the unfolding that splits the leading ceil(m/2) modes off, entry
    (i, j) is scaled by l_i * r_j, the flattened square-root weights of each
    side; a negative power divides by it. A two-mode tensor gets s0_i * s1_j,
    so a symmetric sample stays symmetric. The samples are read and scaled
    one block of rows at a time (whole runs of leading points, about `_BLOCK`
    entries), in place in the one new array; weighting in (a positive power)
    also checks each block to be finite.
    """
    extents, axes, at = _samples(values)
    roots = [np.ones(n) if w is None else w ** 0.5 for n, w in zip(extents, mode_weights or [None] * len(extents))]
    half = math.ceil(len(extents) / 2)
    left, right = _outer_product(roots[:half]), _outer_product(roots[half:])
    out = np.empty((left.size, right.size))
    per_point = left.size // axes[0]  # rows of the unfolding per leading point
    apply = np.multiply if power > 0 else np.divide
    with np.errstate(over="ignore"):  # a product past the float range is inf, rejected below when weighting in
        for part in _row_blocks(axes[0], per_point * right.size):
            rows = slice(part.start * per_point, part.stop * per_point)
            block = out[rows]
            np.copyto(block.reshape((-1,) + axes[1:]), at(part))
            apply(block, np.multiply.outer(left[rows], right), out=block)
            if power > 0 and not np.isfinite(block).all():
                raise ValueError("tensor entries must be finite")
    return out.reshape(extents)


@dataclass(frozen=True, init=False, eq=False)
class DenseTensor:
    """Discrete sample of a multivariate function, one mode per subdomain.

    It holds one read-only array, its samples scaled by the square roots of
    all mode weights (`weighted_values`); `values` divides them back out,
    and `shape` and `ndim` are that array's.
    Its `_factorizations` dict holds one factorization per Tucker and TT
    step, read and filled by `train._sweep` alone.
    """

    mode_weights: Optional[tuple]
    _weighted: np.ndarray = field(repr=False)
    _factorizations: dict = field(repr=False)

    def __init__(self, values, mode_weights=None, cap: int = DEFAULT_ELEMENT_CAP):
        """Weight the raw samples `values` into a new array (the only place weights are multiplied in).

        `values` is an array, or a `_Samples` that evaluates one a run of
        leading points at a time (`grids.sample`). Its extents are checked
        against `cap` before anything is copied; then it is read, weighted and
        checked one block of rows at a time, so the one array held is the only
        full-size one made, and the caller's array stays independent.
        """
        extents = _check_extents(values.extents if isinstance(values, _Samples) else np.shape(values), cap)
        mode_weights = _normalize_weights(extents, mode_weights)
        weighted = _scale_by_weights(values, mode_weights, 0.5)
        weighted.setflags(write=False)
        self.__dict__.update(mode_weights=mode_weights, _weighted=weighted, _factorizations={})

    @property
    def shape(self) -> tuple:
        return self._weighted.shape

    @property
    def ndim(self) -> int:
        return self._weighted.ndim

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
    if extents != t.shape:
        raise ShapeMismatchError(f"shapes {t.shape} and {extents} differ")
    a = t.weighted_values().reshape(extents[0], -1)
    right = right.reshape(right.shape[0], -1)
    norms = []
    for rows in _row_blocks(*a.shape):
        block = left[rows] @ right
        block -= a[rows]
        norms.append(_norm(block))
    return _norm(np.array(norms))
