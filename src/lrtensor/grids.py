"""Quadrature grids, and function sampling on product domains.

Subdomains are unit boxes [0,1]^n. A subdomain of dimension n contributes
a single tensor mode of extent N^n: the decompositions separate whole
subdomains, not individual axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import _BLOCK, DEFAULT_ELEMENT_CAP, DenseTensor, ElementCapError, _check_extents, _outer_product, _Samples
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


def sample(
    fn: FunctionSpec,
    grid: GridSpec,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> DenseTensor:
    """Evaluate `fn` on the product grid; one tensor mode per subdomain of `fn.dims`.

    `fn` is evaluated one run of points at a time, and each run is weighted
    straight into the tensor's one array (see `DenseTensor`): no full-size
    array of raw samples is made. A run is along the leading k scalar axes
    taken as one: k is the fewest that leave at most `_BLOCK` points per run
    point, and at most those of the balanced unfolding's left half (see
    `_scale_by_weights`), so each run point is whole rows of it.
    """
    if any(n > int(cap).bit_length() for n in fn.dims):  # then N**n >= 2**n > cap
        raise ElementCapError(f"subdomain dims {fn.dims} exceed the cap of {cap} on any grid")
    n_axis = grid.points_per_axis
    total_axes = sum(fn.dims)
    extents = _check_extents([n_axis ** n for n in fn.dims], cap)  # before any grid array is built
    x, w = axis_rule(grid)
    left_axes = sum(fn.dims[: math.ceil(len(fn.dims) / 2)])
    k = min(left_axes, next(j for j in range(1, total_axes + 1) if n_axis ** (total_axes - j) <= _BLOCK))
    run, *rest = np.meshgrid(np.arange(n_axis ** k), *([x] * (total_axes - k)), indexing="ij", sparse=True)
    merged = [x[i] for i in np.unravel_index(run, (n_axis,) * k)]  # the merged axes' coordinates, built once
    evaluate = vectorized_evaluator(fn)
    samples = _Samples(extents, (run.size,) + (n_axis,) * (total_axes - k),
                       lambda part: evaluate([*(c[part] for c in merged), *rest]))
    weights = [_outer_product([w] * n) for n in fn.dims]  # the tensor-product rule of each subdomain
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # DenseTensor rejects non-finite values
        return DenseTensor(samples, weights, cap)
