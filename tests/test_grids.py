import math

import numpy as np
import pytest

import lrtensor as lt
from lrtensor.grids import axis_rule, discrete_h1_norm
from lrtensor.svd import full_svd


class TestBuildGrid:
    def test_gauss_legendre_exactness(self):
        x, w = axis_rule(lt.GridSpec(5, rule="gauss-legendre"))
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(np.sum(w * x**4)) == pytest.approx(0.2, abs=1e-14)


class TestSample:
    def test_constant_function_norm(self):
        # f = 1 via weighted_exp with zero weights
        fn = lt.make_function("weighted_exp", m=2, gamma=(0.0, 0.0))
        sf = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(9))
        assert np.allclose(sf.tensor.values, 1.0)
        assert lt.frobenius_norm(sf.tensor) == pytest.approx(1.0, abs=1e-12)

    def test_separable_function_is_rank_one(self):
        fn = lt.make_function("rank_one", m=2)
        sf = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(33))
        s = np.linalg.svd(lt.mode_unfolding(sf.tensor, 0), compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_brownian_bridge_leading_singular_value(self):
        fn = lt.make_function("brownian_bridge")
        sf = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(512))
        s = np.linalg.svd(lt.mode_unfolding(sf.tensor, 0), compute_uv=False)
        assert s[0] == pytest.approx(np.pi**-2, rel=0.01)

    def test_deterministic(self):
        fn = lt.make_function("gauss_kernel", n=1, c=2.5)
        a = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(17)).tensor.values
        b = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(17)).tensor.values
        assert np.array_equal(a, b)

    def test_grouped_modes(self):
        fn = lt.make_function("gauss_kernel", n=2, c=1.0)
        sf = lt.sample(fn, lt.DomainSpec((2, 2)), lt.GridSpec(5))
        assert sf.tensor.shape.extents == (25, 25)

    def test_mode_weights_and_cap(self):
        fn = lt.make_function("rank_one", dims=(1,))
        weights = lt.sample(fn, lt.DomainSpec((1,)), lt.GridSpec(3)).tensor.weights_for(0)
        assert np.allclose(weights, [0.25, 0.5, 0.25])
        fn = lt.make_function("rank_one", dims=(1, 2, 3))
        t = lt.sample(fn, lt.DomainSpec((1, 2, 3)), lt.GridSpec(5)).tensor
        for mode in range(3):
            assert t.weights_for(mode).sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(t.weights_for(mode) > 0)
        fn = lt.make_function("rank_one", dims=(4,))
        with pytest.raises(lt.ElementCapError):
            lt.sample(fn, lt.DomainSpec((4,)), lt.GridSpec(64), cap=2**20)

    def test_dims_mismatch(self):
        fn = lt.make_function("brownian_bridge")
        with pytest.raises(ValueError):
            lt.sample(fn, lt.DomainSpec((1, 1, 1)), lt.GridSpec(5))


class TestDiscreteSeminorm:
    def test_constant_is_zero(self):
        t = lt.DenseTensor.from_array(np.ones((9, 9)))
        assert lt.discrete_mixed_seminorm(t, 0) == 0.0

    def test_linear_function(self):
        n = 65
        fn = lt.make_function("weighted_exp", m=2, gamma=(0.0, 0.0))
        sf = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(n))
        x = np.linspace(0, 1, n)
        t = lt.DenseTensor(
            sf.tensor.shape,
            np.broadcast_to(x[:, None], (n, n)),
            sf.tensor.mode_weights,
        )
        assert lt.discrete_mixed_seminorm(t, 0) == pytest.approx(1.0, abs=2e-2)

    def test_sine_seminorm(self):
        n = 129
        x = np.linspace(0, 1, n)
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        t = lt.DenseTensor.from_array(
            np.broadcast_to(np.sin(2 * np.pi * x)[:, None], (n, n)).copy(),
            mode_weights=[w, w],
        )
        target = math.sqrt(2) * math.pi
        assert lt.discrete_mixed_seminorm(t, 0) == pytest.approx(target, rel=0.02)

    def test_rejects_short_mode(self):
        t = lt.DenseTensor.from_array(np.ones((2, 5)))
        with pytest.raises(ValueError):
            lt.discrete_mixed_seminorm(t, 0)

    def test_rejects_non_uniform_grid(self):
        x, w = axis_rule(lt.GridSpec(9, rule="gauss-legendre"))
        t = lt.DenseTensor.from_array(np.ones((9, 9)), mode_weights=[w, w])
        with pytest.raises(ValueError):
            lt.discrete_mixed_seminorm(t, 0)


class TestEigenfunctionRegularityBound:
    def test_single_constant_bounds_all_leading_vectors(self):
        """Discrete restatement of the eigenfunction regularity bound.

        The H1 norm of the alpha-th left singular vector is bounded by
        C * lambda(alpha)^(-1/2) * (mixed H1-L2 norm of f) with one
        fitted constant C <= 2 across alpha <= 8.
        """
        n = 257
        fn = lt.make_function("brownian_bridge")
        sf = lt.sample(fn, lt.DomainSpec((1, 1)), lt.GridSpec(n))
        t = sf.tensor
        w = np.asarray(t.mode_weights[0])
        semi = lt.discrete_mixed_seminorm(t, 0)
        f_norm = math.hypot(semi, lt.frobenius_norm(t))
        U, s, _ = full_svd(lt.mode_unfolding(t, 0))
        constants = []
        for alpha in range(8):
            phi = U[:, alpha] / np.sqrt(w)
            phi_t = lt.DenseTensor.from_array(phi, mode_weights=[w])
            h1 = discrete_h1_norm(phi_t, 0)
            lam = s[alpha] ** 2
            constants.append(h1 / (lam**-0.5 * f_norm))
        assert max(constants) <= 2.0
