"""Errors against an explicit oracle on the unweighted values, and their shape check."""

import math

import numpy as np
import pytest

import lrtensor as lt
from oracles import tt_reconstruction, tucker_reconstruction


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


def weighted_error_oracle(t, weighted_reconstruction):
    """sqrt(sum of w * (A - R)^2) on the unweighted values, w the product of the mode weights.

    R is the reconstruction with the square roots of the weights divided out.
    """
    w = np.ones(t.shape.extents)
    for ax, wj in enumerate(t.mode_weights):
        shape = [1] * t.ndim
        shape[ax] = -1
        w = w * wj.reshape(shape)
    return math.sqrt(np.sum(w * (t.values - weighted_reconstruction / np.sqrt(w)) ** 2))


FORMATS = {
    "tucker": (lambda t: lt.hosvd(t, (3, 2, 4, 3)), lambda d: tucker_reconstruction(d.core, d.factors),
               lt.tucker_error),
    "tt": (lambda t: lt.tt_svd(t, (3, 5, 2)), lambda d: tt_reconstruction(d.cores), lt.tt_error),
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


@pytest.mark.parametrize("other", [(5, 6, 4, 6), (6, 5, 4, 5), (5, 4, 6, 5), (5, 6, 4, 5, 2)])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_error_rejects_a_tensor_of_other_extents(fmt, other):
    build, _, error = FORMATS[fmt]
    rng = np.random.default_rng(23)
    d = build(random_weighted(rng, (5, 6, 4, 5)))
    with pytest.raises(lt.ShapeMismatchError):
        error(random_weighted(rng, other), d)


def test_a_full_rank_tucker_error_holds_about_one_tensor_sized_array(peak_bytes):
    fn = lt.make_function("abs_diff")
    small = lt.sample(fn, lt.GridSpec(8))
    lt.tucker_error(small, lt.hosvd(small, (8, 8)))  # the first calls' one-off allocations
    t = lt.sample(fn, lt.GridSpec(1024))
    d = lt.hosvd(t, (1024, 1024))
    error, peak, _ = peak_bytes(lambda: lt.tucker_error(t, d))
    assert error <= 1e-12 * lt.frobenius_norm(t)
    assert peak <= 1.25 * t.weighted_values().nbytes  # the core times U_1, and one block of rows


MEMORY_FORMATS = {"tucker": (lt.hosvd, lt.tucker_error), "tt": (lt.tt_svd, lt.tt_error)}


@pytest.mark.parametrize("fmt", sorted(MEMORY_FORMATS))
def test_a_low_rank_error_holds_no_tensor_sized_array(peak_bytes, fmt):
    build, error = MEMORY_FORMATS[fmt]
    fn = lt.make_function("weighted_exp", m=6)

    def decompose(grid):
        t = lt.sample(fn, grid)
        return t, build(t, lt.TruncationRule.tail_energy(1e-6 * lt.frobenius_norm(t)))

    error(*decompose(lt.GridSpec(3)))  # the first calls' one-off allocations
    t, d = decompose(lt.GridSpec(11))
    measured, peak, _ = peak_bytes(lambda: error(t, d))
    assert measured <= 1e-6 * lt.frobenius_norm(t)
    assert peak <= 0.5 * t.weighted_values().nbytes  # blocks of rows, never the whole reconstruction
