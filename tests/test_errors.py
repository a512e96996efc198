"""Errors against an explicit oracle on the unweighted values."""

import math

import numpy as np
import pytest

import lrtensor as lt


def trapezoid_weighted(rng, extents):
    weights = []
    for n in extents:
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        weights.append(w)
    return lt.DenseTensor.from_array(rng.standard_normal(extents), mode_weights=weights)


def random_weighted(rng, extents):
    weights = [rng.random(n) + 0.1 for n in extents]
    return lt.DenseTensor.from_array(rng.standard_normal(extents), mode_weights=weights)


def weighted_error_oracle(t, reconstruction):
    """sqrt(sum of w * (A - reconstruction)^2), w the product of the mode weights."""
    w = np.ones(t.shape.extents)
    for ax, wj in enumerate(t.mode_weights):
        shape = [1] * t.ndim
        shape[ax] = -1
        w = w * wj.reshape(shape)
    return math.sqrt(np.sum(w * (t.values - reconstruction.values) ** 2))


FORMATS = {
    "tucker": (lambda t: lt.hosvd(t, (3, 2, 4, 3)), lt.tucker_reconstruct, lt.tucker_error),
    "tt": (lambda t: lt.tt_svd(t, (3, 5, 2)), lt.tt_reconstruct, lt.tt_error),
    "tt-bidir": (lambda t: lt.tt_svd_bidirectional(t, (3, 5, 2)), lt.tt_reconstruct, lt.tt_error),
}


@pytest.mark.parametrize("make", [trapezoid_weighted, random_weighted])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_error_matches_weighted_oracle(make, fmt):
    build, reconstruct, error = FORMATS[fmt]
    t = make(np.random.default_rng(21), (5, 6, 4, 5))
    d = build(t)
    oracle = weighted_error_oracle(t, reconstruct(d))
    assert oracle > 0
    assert error(t, d) == pytest.approx(oracle, rel=1e-12)
