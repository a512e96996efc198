import math

import numpy as np
import pytest

import lrtensor as lt
from lrtensor import DenseTensor, GridSpec, Shape, frobenius_norm
from lrtensor.grids import axis_rule
from oracles import full_svd


# Discrete H1 norms: the oracle of the regularity tests below.
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
    w_mode = None if t.mode_weights is None else t.mode_weights[mode]
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



class TestBuildGrid:
    def test_gauss_legendre_exactness(self):
        x, w = axis_rule(lt.GridSpec(5, rule="gauss-legendre"))
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(np.sum(w * x**4)) == pytest.approx(0.2, abs=1e-14)


class TestSample:
    def test_constant_function_norm(self):
        # f = 1 via weighted_exp with zero weights
        fn = lt.make_function("weighted_exp", m=2, gamma=(0.0, 0.0))
        sf = lt.sample(fn, lt.GridSpec(9))
        assert np.allclose(sf.values, 1.0)
        assert lt.frobenius_norm(sf) == pytest.approx(1.0, abs=1e-12)

    def test_separable_function_is_rank_one(self):
        fn = lt.make_function("rank_one", m=2)
        sf = lt.sample(fn, lt.GridSpec(33))
        s = np.linalg.svd(lt.mode_unfolding(sf, 0), compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_brownian_bridge_leading_singular_value(self):
        fn = lt.make_function("brownian_bridge")
        sf = lt.sample(fn, lt.GridSpec(512))
        s = np.linalg.svd(lt.mode_unfolding(sf, 0), compute_uv=False)
        assert s[0] == pytest.approx(np.pi**-2, rel=0.01)

    def test_deterministic(self):
        fn = lt.make_function("gauss_kernel", n=1, c=2.5)
        a = lt.sample(fn, lt.GridSpec(17)).values
        b = lt.sample(fn, lt.GridSpec(17)).values
        assert np.array_equal(a, b)

    def test_grouped_modes(self):
        fn = lt.make_function("gauss_kernel", n=2, c=1.0)
        sf = lt.sample(fn, lt.GridSpec(5))
        assert sf.shape.extents == (25, 25)

    def test_mode_weights_and_cap(self):
        fn = lt.make_function("rank_one", dims=(1,))
        weights = lt.sample(fn, lt.GridSpec(3)).mode_weights[0]
        assert np.allclose(weights, [0.25, 0.5, 0.25])
        fn = lt.make_function("rank_one", dims=(1, 2, 3))
        t = lt.sample(fn, lt.GridSpec(5))
        for mode in range(3):
            assert t.mode_weights[mode].sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(t.mode_weights[mode] > 0)
        fn = lt.make_function("rank_one", dims=(4,))
        with pytest.raises(lt.ElementCapError):
            lt.sample(fn, lt.GridSpec(64), cap=2**20)


class TestDiscreteSeminorm:
    def test_constant_is_zero(self):
        t = lt.DenseTensor.from_array(np.ones((9, 9)))
        assert discrete_mixed_seminorm(t, 0) == 0.0

    def test_linear_function(self):
        n = 65
        fn = lt.make_function("weighted_exp", m=2, gamma=(0.0, 0.0))
        sf = lt.sample(fn, lt.GridSpec(n))
        x = np.linspace(0, 1, n)
        t = lt.DenseTensor(
            sf.shape,
            np.broadcast_to(x[:, None], (n, n)),
            sf.mode_weights,
        )
        assert discrete_mixed_seminorm(t, 0) == pytest.approx(1.0, abs=2e-2)

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
        assert discrete_mixed_seminorm(t, 0) == pytest.approx(target, rel=0.02)

    def test_rejects_short_mode(self):
        t = lt.DenseTensor.from_array(np.ones((2, 5)))
        with pytest.raises(ValueError):
            discrete_mixed_seminorm(t, 0)

    def test_rejects_non_uniform_grid(self):
        x, w = axis_rule(lt.GridSpec(9, rule="gauss-legendre"))
        t = lt.DenseTensor.from_array(np.ones((9, 9)), mode_weights=[w, w])
        with pytest.raises(ValueError):
            discrete_mixed_seminorm(t, 0)


class TestEigenfunctionRegularityBound:
    def test_single_constant_bounds_all_leading_vectors(self):
        """Discrete restatement of the eigenfunction regularity bound.

        The H1 norm of the alpha-th left singular vector is bounded by
        C * lambda(alpha)^(-1/2) * (mixed H1-L2 norm of f) with one
        fitted constant C <= 2 across alpha <= 8.
        """
        n = 257
        fn = lt.make_function("brownian_bridge")
        sf = lt.sample(fn, lt.GridSpec(n))
        t = sf
        w = np.asarray(t.mode_weights[0])
        semi = discrete_mixed_seminorm(t, 0)
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
