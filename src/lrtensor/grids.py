"""Quadrature grids, and function sampling on product domains.

Subdomains are unit boxes [0,1]^n. A subdomain of dimension n contributes
a single tensor mode of extent N^n: the decompositions separate whole
subdomains, not individual axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import DEFAULT_ELEMENT_CAP, DenseTensor, ElementCapError, Shape
from .functions import FunctionSpec, vectorized_evaluator

RULE_TRAPEZOID = "uniform-trapezoid"
RULE_GAUSS = "gauss-legendre"


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
    """Weights (N^n,) of the tensor-product rule on n axes, row-major."""
    weights = np.ones(1)
    for _ in range(n):
        weights = np.multiply.outer(weights, w).ravel()
    return weights


def sample(
    fn: FunctionSpec,
    grid: GridSpec,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> DenseTensor:
    """Evaluate `fn` on the product grid; one tensor mode per subdomain of `fn.dims`."""
    if any(n > int(cap).bit_length() for n in fn.dims):  # then N**n >= 2**n > cap
        raise ElementCapError(f"subdomain dims {fn.dims} exceed the cap of {cap} on any grid")
    n_axis = grid.points_per_axis
    total_axes = sum(fn.dims)
    extents = tuple(n_axis ** n for n in fn.dims)
    shape = Shape(extents, cap=cap)  # before any grid array is built
    x, w = axis_rule(grid)
    coords = np.meshgrid(*([x] * total_axes), indexing="ij", sparse=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # DenseTensor rejects non-finite values
        values = np.asarray(vectorized_evaluator(fn)(coords), dtype=float)
    values = np.broadcast_to(values, (n_axis,) * total_axes).reshape(extents)
    weights = [_product_weights(w, n) for n in fn.dims]
    return DenseTensor(shape, values, weights)

