"""Errors against an explicit oracle on the unweighted values, and their shape check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
from lrtensor import tucker
from oracles import tt_reconstruction, tucker_reconstruction


def trapezoid_weighted(rng, extents):
    weights = []
    for n in extents:
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        weights.append(w)
    return lt.DenseTensor(rng.standard_normal(extents), mode_weights=weights)


def random_weighted(rng, extents):
    weights = [rng.random(n) + 0.1 for n in extents]
    return lt.DenseTensor(rng.standard_normal(extents), mode_weights=weights)


def weighted_error_oracle(t, weighted_reconstruction):
    """sqrt(sum of w * (A - R)^2) on the unweighted values, w the product of the mode weights.

    R is the reconstruction with the square roots of the weights divided out.
    """
    w = np.ones(t.shape)
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
    assert peak <= 1.25 * t.weighted_values().nbytes  # diag(c) U_1[:, :k]^T, and one block of rows


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


def decaying_weighted(rng, extents):
    """Four separable terms of sizes 1, 1e-2, 1e-4 and 1e-6 plus noise of 1e-9: tails at every scale."""
    values = 1e-9 * rng.standard_normal(extents)
    for k in range(4):
        values = values + 10.0 ** (-2 * k) * math.prod(np.ix_(*[rng.standard_normal(n) for n in extents]))
    return lt.DenseTensor(values, mode_weights=[rng.random(n) + 0.1 for n in extents])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), extents=st.lists(st.integers(2, 6), min_size=2, max_size=5),
       fmt=st.sampled_from(sorted(MEMORY_FORMATS)), make=st.sampled_from([random_weighted, decaying_weighted]),
       data=st.data())
def test_each_error_equals_its_tail_bound(seed, extents, fmt, make, data):
    """ST-HOSVD and TT-SVD are chains of orthogonal projections: each error is its root-sum-of-tails."""
    build, error = MEMORY_FORMATS[fmt]
    t = make(np.random.default_rng(seed), tuple(extents))
    norm = lt.frobenius_norm(t)
    steps = len(extents) - (fmt == "tt")
    if data.draw(st.booleans(), label="fixed ranks"):
        ranks = data.draw(st.lists(st.integers(1, 8), min_size=steps, max_size=steps), label="ranks")
    else:
        tolerance = data.draw(st.floats(1e-8, 1.0), label="tolerance")
        ranks = lt.TruncationRule.tail_energy(tolerance * norm / math.sqrt(steps))
    d = build(t, ranks)
    assert abs(error(t, d) - d.tail_bound()) <= 1e-12 * norm


@pytest.fixture
def error_arguments(monkeypatch):
    """The (left, right) pairs `tucker_error` passes to `_weighted_error`, in order."""
    passed, original = [], tucker._weighted_error

    def record(t, left, right):
        passed.append((left, right))
        return original(t, left, right)

    monkeypatch.setattr(tucker, "_weighted_error", record)
    return passed


# name: (core, columns of U_0 the error reads: min(r0, r1) on the diagonal path, r0 on the dense one)
TWO_MODE_CORES = {
    "diagonal-r0-above-r1": (np.diag([3.0, 2.0, 1.0, 0.5])[:, :3], 3),
    "diagonal-r0-below-r1": (np.diag([3.0, -2.0, 1.0, 0.5])[:2], 2),
    "diagonal-with-a-zero": (np.diag([3.0, 0.0, 1.0]), 3),
    "one-entry-off-the-diagonal": (np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), 4),
}


@pytest.mark.parametrize("make", [trapezoid_weighted, random_weighted])
@pytest.mark.parametrize("name", sorted(TWO_MODE_CORES))
def test_two_mode_core_errors_match_weighted_oracle(make, name, error_arguments):
    rng = np.random.default_rng(29)
    t = make(rng, (7, 6))
    core, columns = TWO_MODE_CORES[name]
    factors = tuple(np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in zip(t.shape, core.shape))
    d = lt.TuckerDecomposition(core, factors, ())
    oracle = weighted_error_oracle(t, tucker_reconstruction(d.core, d.factors))
    assert oracle > 0
    assert lt.tucker_error(t, d) == pytest.approx(oracle, rel=1e-12)
    assert [left.shape for left, _ in error_arguments] == [(7, columns)]


def test_a_diagonal_two_mode_core_is_measured_through_its_diagonal(error_arguments):
    t = lt.sample(lt.make_function("abs_diff"), lt.GridSpec(64))
    d = lt.hosvd(t, (40, 30))
    assert d.ranks == (40, 30)
    assert np.count_nonzero(d.core) == np.count_nonzero(np.diagonal(d.core))  # diag(λ) cut to (40, 30)
    error = lt.tucker_error(t, d)
    [(left, right)] = error_arguments
    assert left.shape == (64, 30)  # U_0's first min(r0, r1) columns, not all 40
    assert right.shape == (30, 64)
    assert error == pytest.approx(weighted_error_oracle(t, tucker_reconstruction(d.core, d.factors)), rel=1e-12)
