import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lrtensor as lt
from lrtensor.core import _scale_by_weights
from lrtensor.functions import vectorized_evaluator
from lrtensor.grids import axis_rule


def rank_one_tensor(vectors, weights=None):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return lt.DenseTensor(out, mode_weights=weights)


class TestShape:
    def test_shape_and_ndim_are_the_arrays(self):
        t = lt.DenseTensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4) and type(t.shape) is tuple
        assert t.ndim == 3

    @pytest.mark.parametrize("values", [np.float64(1.0), np.zeros((2, 0, 4))], ids=["0-d", "zero-extent"])
    def test_rejects_no_mode_and_a_zero_extent(self, values):
        with pytest.raises(ValueError):
            lt.DenseTensor(values)

    def test_element_cap(self):
        # the default cap, through sample: 1024^3 points, rejected before any grid array is built
        with pytest.raises(lt.ElementCapError):
            lt.sample(lt.make_function("rank_one", m=3), lt.GridSpec(1024))
        # an explicit cap admits a tensor of exactly that many elements
        lt.DenseTensor(np.zeros((64, 64)), cap=2**12)
        with pytest.raises(lt.ElementCapError):
            lt.DenseTensor(np.zeros((64, 65)), cap=2**12)


@pytest.mark.parametrize("build", [
    lambda: lt.DenseTensor(np.ones((2, 2))),
    lambda: lt.SingularSpectrum(np.array([2.0, 1.0])),
    lambda: lt.hosvd(lt.DenseTensor(np.ones((2, 2))), [1, 1]),
    lambda: lt.tt_svd(lt.DenseTensor(np.ones((2, 2))), [1]),
    lambda: lt.truncated_svd(np.eye(3), lt.TruncationRule.fixed_rank(2)),
], ids=["DenseTensor", "SingularSpectrum", "TuckerDecomposition", "TTDecomposition", "Factorization"])
def test_array_holders_compare_and_hash_by_identity(build):
    x = build()
    assert x == x
    assert x != build()  # an equal copy is another object
    assert x in {x}


class TestUnfold:
    def test_index_ordering(self):
        vals = np.fromfunction(
            lambda i, j, k: 100 * i + 10 * j + k, (2, 3, 4), dtype=float
        )
        t = lt.DenseTensor(vals)
        mat = lt.mode_unfolding(t, 1)
        assert mat.shape == (3, 8)
        # row j lists all (i, k) pairs with i outer, k inner
        for j in range(3):
            expected = [100 * i + 10 * j + k for i in range(2) for k in range(4)]
            assert mat[j].tolist() == expected

    def test_rank_one_structure(self):
        t = rank_one_tensor([np.arange(1.0, 4), np.arange(1.0, 5), np.arange(1.0, 3)])
        for mode in range(3):
            assert np.linalg.matrix_rank(lt.mode_unfolding(t, mode)) == 1

    def test_norm_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(7)
        t = lt.DenseTensor(rng.standard_normal((4, 4, 4)))
        oracle = math.sqrt(float(np.sum(t.values**2)))
        for mode in range(3):
            assert np.linalg.norm(lt.mode_unfolding(t, mode)) == pytest.approx(
                oracle, rel=1e-12
            )

    def test_invalid_partition(self):
        t = lt.DenseTensor(np.zeros((2, 2)))
        for mode in (-1, t.ndim):
            with pytest.raises(lt.ShapeMismatchError):
                lt.mode_unfolding(t, mode)


class TestFrobeniusNorm:
    def test_zero(self):
        assert lt.frobenius_norm(lt.DenseTensor(np.zeros((3, 3)))) == 0.0

    def test_all_ones(self):
        assert lt.frobenius_norm(lt.DenseTensor(np.ones((2, 2)))) == 2.0

    def test_constant_with_trapezoid_weights(self):
        n = 33
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        t = lt.DenseTensor(np.ones((n, n)), mode_weights=[w, w])
        assert lt.frobenius_norm(t) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nan(self):
        vals = np.ones((2, 2))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            lt.DenseTensor(vals)

    def test_rejects_a_weighted_product_past_the_float_range_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tensor entries must be finite"):
                lt.DenseTensor(np.full((2, 2), 1e300), mode_weights=[np.full(2, 1e20)] * 2)

    def test_entries_whose_squares_overflow_keep_a_finite_norm_bound_and_error(self):
        t = lt.DenseTensor(np.full((2, 2, 2), 1e300))
        d = lt.hosvd(t, (1, 1, 1))
        norm = lt.frobenius_norm(t)
        assert norm == pytest.approx(math.sqrt(8) * 1e300, rel=1e-15)
        assert math.isfinite(d.tail_bound())
        assert lt.tucker_error(t, d) <= d.tail_bound() + 1e-10 * norm

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_weight_that_is_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="weights for mode 1"):
            lt.DenseTensor(np.ones((3, 3)), mode_weights=[None, [1.0, bad, 1.0]])

    @pytest.mark.parametrize("weights, message", [
        ([np.ones(2)], "expected 2 weight vectors, got 1"),
        ([np.ones(2), np.ones(2)], "weights for mode 1 have length"),
    ], ids=["count", "length"])
    def test_rejects_weights_that_do_not_fit_the_modes(self, weights, message):
        with pytest.raises(lt.ShapeMismatchError, match=message):
            lt.DenseTensor(np.ones((2, 3)), mode_weights=weights)


class TestWeightedValues:
    def test_computed_once_and_read_only(self):
        rng = np.random.default_rng(4)
        weights = [rng.random(3) + 0.1, rng.random(4) + 0.1]
        t = lt.DenseTensor(rng.standard_normal((3, 4)), mode_weights=weights)
        wv = t.weighted_values()
        assert t.weighted_values() is wv
        assert not wv.flags.writeable
        assert np.allclose(wv, t.values * np.sqrt(np.outer(*weights)), rtol=1e-15, atol=0)

    def test_unweighted_is_values_itself(self):
        t = lt.DenseTensor(np.ones((2, 3)))
        assert t.weighted_values() is t.values
        assert lt.DenseTensor(np.ones((2, 3)), mode_weights=[None, None]).mode_weights is None  # no weights at all

    @pytest.mark.parametrize("weighted", [False, True])
    def test_from_array_does_not_alias_the_callers_array(self, weighted):
        a = np.ones((3, 4))
        view = a[1:]
        weights = [np.full(3, 0.5), np.full(4, 2.0)] if weighted else None
        t = lt.DenseTensor(a, mode_weights=weights)
        before = t.weighted_values().copy()
        assert a.flags.writeable
        a[0, 0] = 5.0
        view[0, 0] = 7.0
        assert np.array_equal(t.values, np.ones((3, 4)))
        assert np.array_equal(t.weighted_values(), before)

    # 8 bytes held, 8 MB as a copy: a float view, and an integer one that a conversion to float would copy
    @pytest.mark.parametrize("fill", [0.0, 0], ids=["float", "int"])
    def test_from_array_checks_the_cap_before_copying(self, fill):
        big = np.broadcast_to(fill, (1000, 1000))
        tracemalloc.start()
        try:
            with pytest.raises(lt.ElementCapError):
                lt.DenseTensor(big, cap=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_weighted_sample_holds_one_full_size_array(self, peak_bytes):
        fn, grid = lt.make_function("weighted_exp", m=6), lt.GridSpec(11)
        lt.frobenius_norm(lt.sample(fn, lt.GridSpec(2)))  # the first calls' one-off allocations

        def sample_and_measure():
            t = lt.sample(fn, grid)
            lt.frobenius_norm(t)
            return t

        t, peak, held = peak_bytes(sample_and_measure)
        nbytes = t.weighted_values().nbytes
        assert held <= 1.1 * nbytes
        assert peak <= 1.35 * nbytes  # the one array, and one run's samples, weight factor and isfinite mask
        x, _ = axis_rule(grid)
        raw = vectorized_evaluator(fn)(np.meshgrid(*[x] * 6, indexing="ij", sparse=True))
        # one factor l_i * r_j multiplied in and the same factor divided back out: 2 roundings of at most eps/2
        assert np.all(np.abs(t.values - raw) <= 6 * np.finfo(float).eps * np.abs(raw))

    def test_a_two_mode_sample_holds_no_weight_matrix(self, peak_bytes):
        # gauss_kernel squares, sums, scales and exponentiates in place: no full-size temporary beside the sum
        cases = [("abs_diff", {}, 1024), ("gauss_kernel", {"n": 1}, 1024), ("gauss_kernel", {"n": 2}, 29)]
        for fn_id, params, n in cases:
            fn = lt.make_function(fn_id, **params)
            lt.sample(fn, lt.GridSpec(8))  # the first call's one-off allocations
            t, peak, _ = peak_bytes(lambda: lt.sample(fn, lt.GridSpec(n)))
            # as above: no N x N product of the weights, and no full-size sample, beside the one array
            assert peak <= 1.3 * t.weighted_values().nbytes, (fn_id, params)

    @pytest.mark.parametrize("power", [0.5, -0.5])
    def test_scaling_equals_one_product_per_mode(self, power):
        # reference: the factor l_i * r_j over the unfolding that splits modes (0, 1) from (2, 3),
        # l and r the flattened square-root weights of each side, applied out of place
        rng = np.random.default_rng(5)
        values = rng.standard_normal((3, 4, 5, 2))
        weights = (rng.random(3) + 0.1, None, rng.random(5) + 0.1, rng.random(2) + 0.1)
        roots = [np.ones(n) if w is None else w ** 0.5 for n, w in zip(values.shape, weights)]
        left = np.multiply.outer(roots[0], roots[1]).ravel()
        right = np.multiply.outer(roots[2], roots[3]).ravel()
        factor = np.multiply.outer(left, right).reshape(values.shape)
        expected = values * factor if power > 0 else values / factor
        got = _scale_by_weights(values, weights, power)
        assert np.array_equal(got, expected)
        assert not np.shares_memory(got, values)
        assert not np.shares_memory(_scale_by_weights(values, None, power), values)

    @pytest.mark.parametrize("power", [0.5, -0.5])
    @pytest.mark.parametrize("weighted", [(True, True), (True, False), (False, True)])
    def test_two_modes_are_scaled_by_one_outer_product(self, power, weighted):
        # a two-mode tensor keeps the factor s0_i * s1_j, or the one weighted mode's roots, bit for bit
        rng = np.random.default_rng(6)
        values = rng.standard_normal((6, 7))
        weights = tuple(rng.random(n) + 0.1 if on else None for n, on in zip(values.shape, weighted))
        factors = [(w ** 0.5).reshape([-1 if i == ax else 1 for i in range(2)])
                   for ax, w in enumerate(weights) if w is not None]
        factor = factors[0] * factors[1] if len(factors) == 2 else factors[0]
        expected = values * factor if power > 0 else values / factor
        assert np.array_equal(_scale_by_weights(values, weights, power), expected)


@st.composite
def tensor_and_mode(draw):
    ndim = draw(st.integers(min_value=1, max_value=5))
    extents = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(ndim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    weighted = draw(st.booleans())
    weights = None
    if weighted:
        weights = [rng.uniform(0.1, 2.0, size=n) for n in extents]
    values = rng.standard_normal(extents)
    mode = draw(st.integers(min_value=0, max_value=ndim - 1))
    return lt.DenseTensor(values, mode_weights=weights), mode


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(tensor_and_mode())
    def test_norm_invariant_under_unfolding(self, case):
        t, mode = case
        assert np.linalg.norm(lt.mode_unfolding(t, mode)) == pytest.approx(
            lt.frobenius_norm(t), rel=1e-12, abs=1e-12
        )
