import numpy as np
import pytest

import lrtensor as lt
from lrtensor.functions import FunctionSpec, default_gamma, registered_ids, vectorized_evaluator
from lrtensor.svd import SingularSpectrum, fit_decay_exponent
from oracles import gram_spectrum


def evaluate(spec: FunctionSpec, point) -> float:
    """Scalar evaluation at one point of the unit box."""
    point = [np.asarray(float(p)) for p in point]
    if any(p < 0 or p > 1 for p in point):
        raise ValueError("point must lie in the unit box")
    return float(vectorized_evaluator(spec)(point))


class TestRegistry:
    def test_known_ids(self):
        ids = registered_ids()
        for fn_id in (
            "rank_one",
            "brownian_bridge",
            "weighted_product",
            "gauss_kernel",
            "abs_diff",
            "weighted_exp",
        ):
            assert fn_id in ids

    def test_unknown_id(self):
        with pytest.raises(lt.UnknownFunctionError):
            lt.make_function("no_such_function", m=3)

    def test_fractional_n_is_rejected(self):
        with pytest.raises(ValueError, match="integer n"):
            lt.make_function("gauss_kernel", n=1.5)

    def test_subdomain_dims_must_be_positive(self):
        with pytest.raises(ValueError, match=r"subdomain dimensions must be >= 1, got \(0, 1\)"):
            FunctionSpec("rank_one", dims=(0, 1), smoothness_k=lt.functions.ANALYTIC)

    def test_spec_is_hashable_and_deterministic(self):
        a = lt.make_function("gauss_kernel", n=2, c=1.5)
        b = lt.make_function("gauss_kernel", c=1.5, n=2)
        assert a == b
        assert hash(a) == hash(b)


class TestEvaluation:
    def test_rank_one_point_value(self):
        fn = lt.make_function("rank_one", m=2)
        assert evaluate(fn, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_brownian_bridge_kernel_values(self):
        fn = lt.make_function("brownian_bridge")
        assert evaluate(fn, (0.25, 0.75)) == pytest.approx(0.25 - 0.1875)
        assert evaluate(fn, (0.5, 0.5)) == pytest.approx(0.25)
        assert evaluate(fn, (0.0, 0.7)) == pytest.approx(0.0)

    def test_weighted_product_point_value(self):
        fn = lt.make_function("weighted_product", m=2, gamma=(0.5, 0.25))
        val = evaluate(fn, (0.5, 0.5))
        assert val == pytest.approx(1.5 * 1.25, abs=1e-14)

    def test_abs_diff_symmetry(self):
        fn = lt.make_function("abs_diff")
        assert evaluate(fn, (0.2, 0.9)) == evaluate(fn, (0.9, 0.2))

    def test_gauss_kernel_diagonal(self):
        fn = lt.make_function("gauss_kernel", n=3, c=4.0)
        assert evaluate(fn, (0.1, 0.2, 0.3, 0.1, 0.2, 0.3)) == pytest.approx(1.0)

    def test_weighted_exp_separable(self):
        fn = lt.make_function("weighted_exp", m=3, gamma=(1.0, 0.5, 0.25))
        val = evaluate(fn, (1.0, 1.0, 1.0))
        assert val == pytest.approx(np.exp(1.75), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        fn = lt.make_function("weighted_product", m=3, gamma=(1.0, 0.5, 0.25))
        ev = vectorized_evaluator(fn)
        pts = np.random.default_rng(0).random((20, 3))
        vec = ev([pts[:, j] for j in range(3)])
        for i in range(20):
            assert vec[i] == pytest.approx(evaluate(fn, tuple(pts[i])))


class TestDefaultGamma:
    def test_decay_shape(self):
        g = default_gamma(4, k=1.0, delta_prime=3.0)
        assert g == pytest.approx((1.0, 2.0**-4, 3.0**-4, 4.0**-4))

    def test_monotone(self):
        g = default_gamma(8, k=2.0, delta_prime=1.0)
        assert all(a >= b for a, b in zip(g, g[1:]))


class TestSampledSpectra:
    def test_weighted_product_mode_spectra_frozen(self):
        # The function is a product of per-coordinate factors, so every
        # unfolding has numerical rank one; the leading singular value is
        # the same for all modes and frozen here as a regression value.
        fn = lt.make_function(
            "weighted_product", m=4, gamma=default_gamma(4, k=1.0, delta_prime=2.0)
        )
        sf = lt.sample(fn, lt.GridSpec(17))
        for mode in range(4):
            s = np.linalg.svd(lt.mode_unfolding(sf, mode), compute_uv=False)
            assert s[0] == pytest.approx(1.857863178919e00, rel=1e-10)
            assert s[1] <= 1e-12 * s[0]

    def test_brownian_bridge_decay_exponent(self):
        fn = lt.make_function("brownian_bridge")
        sf = lt.sample(fn, lt.GridSpec(512))
        gram = gram_spectrum(lt.mode_unfolding(sf, 0))
        fit = fit_decay_exponent(SingularSpectrum(np.sqrt(gram.values)))
        assert fit.exponent == pytest.approx(-4.0, abs=0.3)

    def test_smoothness_metadata(self):
        assert lt.make_function("brownian_bridge").smoothness_k == 1.5
        assert lt.make_function("abs_diff").smoothness_k == 1.5
        assert lt.make_function("rank_one", m=3).smoothness_k == "analytic"
