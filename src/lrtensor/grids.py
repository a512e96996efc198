"""Product domains, quadrature grids, function sampling, and discrete seminorms.

Subdomains are unit boxes [0,1]^n. A subdomain of dimension n contributes
a single tensor mode of extent N^n: the decompositions separate whole
subdomains, not individual axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import DEFAULT_ELEMENT_CAP, DenseTensor, ElementCapError, Shape, frobenius_norm
from .functions import FunctionSpec, vectorized_evaluator

RULE_TRAPEZOID = "uniform-trapezoid"
RULE_GAUSS = "gauss-legendre"


@dataclass(frozen=True)
class DomainSpec:
    """Product of unit boxes; dims[j] is the spatial dimension of box j."""

    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if any(n < 1 for n in self.dims):
            raise ValueError(f"subdomain dimensions must be >= 1, got {self.dims}")


@dataclass(frozen=True)
class GridSpec:
    """Per-axis point count and quadrature rule on [0,1]."""

    points_per_axis: int
    rule: str = RULE_TRAPEZOID

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("need at least 2 points per axis")
        if self.rule not in (RULE_TRAPEZOID, RULE_GAUSS):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


@dataclass(frozen=True)
class SampledFunction:
    """A function sampled onto a product grid."""

    tensor: DenseTensor


def axis_rule(grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """1D points and weights on [0,1]; weights sum to 1."""
    n = grid.points_per_axis
    if grid.rule == RULE_TRAPEZOID:
        x = np.linspace(0.0, 1.0, n)
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
    else:
        t, wt = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (t + 1.0)
        w = 0.5 * wt
    return x, w


def _product_weights(w: np.ndarray, n: int) -> np.ndarray:
    """Weights (N^n,) of the n-fold tensor-product rule, row-major."""
    weights = np.ones(1)
    for _ in range(n):
        weights = np.multiply.outer(weights, w).ravel()
    return weights


def sample(
    fn: FunctionSpec,
    domain: DomainSpec,
    grid: GridSpec,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> SampledFunction:
    """Evaluate `fn` on the product grid; one tensor mode per subdomain."""
    if fn.dims != domain.dims:
        raise ValueError(
            f"function dims {fn.dims} do not match domain dims {domain.dims}"
        )
    if any(n > int(cap).bit_length() for n in domain.dims):  # then N**n >= 2**n > cap
        raise ElementCapError(f"subdomain dims {domain.dims} exceed the cap of {cap} on any grid")
    n_axis = grid.points_per_axis
    total_axes = sum(domain.dims)
    extents = tuple(n_axis ** n for n in domain.dims)
    shape = Shape(extents, cap=cap)  # before any grid array is built
    x, w = axis_rule(grid)
    coords = np.meshgrid(*([x] * total_axes), indexing="ij", sparse=True)
    values = np.asarray(vectorized_evaluator(fn)(coords), dtype=float)
    values = np.broadcast_to(values, (n_axis,) * total_axes).reshape(extents)
    weights = [_product_weights(w, n) for n in domain.dims]
    return SampledFunction(DenseTensor(shape, values, weights))


def _is_uniform_trapezoid(w: np.ndarray) -> bool:
    n = w.size
    if n < 3:
        return False
    _, ref = axis_rule(GridSpec(n))
    return bool(np.allclose(w, ref, rtol=1e-10, atol=0.0))


def discrete_mixed_seminorm(t: DenseTensor, mode: int) -> float:
    """Discrete H1-seminorm in `mode` crossed with L2 in the other modes.

    First-order forward differences scaled by 1/h; the differenced mode
    must carry a uniform grid (trapezoid weights or no weights).
    """
    n = t.shape.extents[mode]
    if n < 3:
        raise ValueError("mode extent must be >= 3 for finite differences")
    w_mode = t.weights_for(mode)
    if w_mode is not None and not _is_uniform_trapezoid(np.asarray(w_mode)):
        raise ValueError("discrete seminorm requires a uniform grid in the mode")
    h = 1.0 / (n - 1)
    diffs = np.diff(t.values, axis=mode) / h
    # L2 weights in the remaining modes; cell weight h along the mode.
    if t.mode_weights is None:
        weights = [None] * t.ndim
    else:
        weights = list(t.mode_weights)
    weights[mode] = np.full(n - 1, h)
    cell = DenseTensor(Shape(diffs.shape, cap=t.shape.cap), diffs, weights)
    return float(np.linalg.norm(cell.weighted_values()))


def discrete_h1_norm(t: DenseTensor, mode: int) -> float:
    """sqrt(seminorm^2 + L2 norm^2), the discrete H1 norm used in checks."""
    semi = discrete_mixed_seminorm(t, mode)
    return math.hypot(semi, frobenius_norm(t))
