import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lrtensor as lt
from lrtensor.core import _scale_by_weights


def rank_one_tensor(vectors, weights=None):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return lt.DenseTensor.from_array(out, mode_weights=weights)


class TestShape:
    def test_size_and_ndim(self):
        s = lt.Shape((2, 3, 4))
        assert s.size == 24
        assert s.ndim == 3

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            lt.Shape((2, 0, 4))

    def test_element_cap(self):
        with pytest.raises(lt.ElementCapError):
            lt.Shape((1024, 1024, 1024))
        # an explicit larger cap admits the same shape
        lt.Shape((64, 64), cap=2**12)
        with pytest.raises(lt.ElementCapError):
            lt.Shape((64, 65), cap=2**12)

    @pytest.mark.parametrize("values_shape", [(6,), (3, 2), (2, 4)])
    def test_tensor_values_must_have_the_shape(self, values_shape):
        with pytest.raises(lt.ShapeMismatchError):
            lt.DenseTensor(lt.Shape((2, 3)), np.zeros(values_shape))


class TestUnfold:
    def test_index_ordering(self):
        vals = np.fromfunction(
            lambda i, j, k: 100 * i + 10 * j + k, (2, 3, 4), dtype=float
        )
        t = lt.DenseTensor.from_array(vals)
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
        t = lt.DenseTensor.from_array(rng.standard_normal((4, 4, 4)))
        oracle = math.sqrt(float(np.sum(t.values**2)))
        for mode in range(3):
            assert np.linalg.norm(lt.mode_unfolding(t, mode)) == pytest.approx(
                oracle, rel=1e-12
            )

    def test_invalid_partition(self):
        t = lt.DenseTensor.from_array(np.zeros((2, 2)))
        for mode in (-1, t.ndim):
            with pytest.raises(lt.ShapeMismatchError):
                lt.mode_unfolding(t, mode)


class TestFrobeniusNorm:
    def test_zero(self):
        assert lt.frobenius_norm(lt.DenseTensor.from_array(np.zeros((3, 3)))) == 0.0

    def test_all_ones(self):
        assert lt.frobenius_norm(lt.DenseTensor.from_array(np.ones((2, 2)))) == 2.0

    def test_constant_with_trapezoid_weights(self):
        n = 33
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        t = lt.DenseTensor.from_array(np.ones((n, n)), mode_weights=[w, w])
        assert lt.frobenius_norm(t) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nan(self):
        vals = np.ones((2, 2))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            lt.DenseTensor.from_array(vals)


class TestWeightedValues:
    def test_computed_once_and_read_only(self):
        rng = np.random.default_rng(4)
        weights = [rng.random(3) + 0.1, rng.random(4) + 0.1]
        t = lt.DenseTensor.from_array(rng.standard_normal((3, 4)), mode_weights=weights)
        wv = t.weighted_values()
        assert t.weighted_values() is wv
        assert not wv.flags.writeable
        assert np.allclose(wv, t.values * np.sqrt(np.outer(*weights)), rtol=1e-15, atol=0)

    def test_unweighted_is_values_itself(self):
        t = lt.DenseTensor.from_array(np.ones((2, 3)))
        assert t.weighted_values() is t.values

    @pytest.mark.parametrize("weighted", [False, True])
    def test_from_array_does_not_alias_the_callers_array(self, weighted):
        a = np.ones((3, 4))
        view = a[1:]
        weights = [np.full(3, 0.5), np.full(4, 2.0)] if weighted else None
        t = lt.DenseTensor.from_array(a, mode_weights=weights)
        before = t.weighted_values().copy()
        assert a.flags.writeable
        a[0, 0] = 5.0
        view[0, 0] = 7.0
        assert np.array_equal(t.values, np.ones((3, 4)))
        assert np.array_equal(t.weighted_values(), before)

    @pytest.mark.parametrize("power", [0.5, -0.5])
    def test_scaling_equals_one_product_per_mode(self, power):
        # reference: a fresh array per mode, the product or quotient taken out of place
        rng = np.random.default_rng(5)
        values = rng.standard_normal((3, 4, 5, 2))
        weights = (rng.random(3) + 0.1, None, rng.random(5) + 0.1, rng.random(2) + 0.1)
        expected = values
        for ax, w in enumerate(weights):
            if w is not None:
                factor = (w ** 0.5).reshape([-1 if i == ax else 1 for i in range(4)])
                expected = expected * factor if power > 0 else expected / factor
        got = _scale_by_weights(values, weights, power)
        assert np.array_equal(got, expected)
        assert not np.shares_memory(got, values)
        assert not np.shares_memory(_scale_by_weights(values, None, power), values)


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
    return lt.DenseTensor.from_array(values, mode_weights=weights), mode


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(tensor_and_mode())
    def test_norm_invariant_under_unfolding(self, case):
        t, mode = case
        assert np.linalg.norm(lt.mode_unfolding(t, mode)) == pytest.approx(
            lt.frobenius_norm(t), rel=1e-12, abs=1e-12
        )
