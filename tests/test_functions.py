import numpy as np
import pytest

import lrtensor as lt
from lrtensor.functions import FunctionSpec, default_gamma, registered_ids, vectorized_evaluator
from lrtensor.svd import SingularSpectrum, fit_decay_exponent
from oracles import gram_spectrum, mode_unfolding


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
        with pytest.raises(ValueError, match=r"^subdomain dimensions must be integers, got \(1\.5, 1\.5\)$"):
            lt.make_function("gauss_kernel", n=1.5)

    def test_subdomain_dims_must_be_positive(self):
        with pytest.raises(ValueError, match=r"subdomain dimensions must be >= 1, got \(0, 1\)"):
            FunctionSpec("rank_one", dims=(0, 1), smoothness_k=lt.functions.ANALYTIC)

    @pytest.mark.parametrize("build, given", [
        (lambda: lt.make_function("rank_one", dims=(2.5, 1)), r"\(2\.5, 1\)"),
        (lambda: lt.make_function("gauss_kernel", dims=(1.5, 1.5)), r"\(1\.5, 1\.5\)"),
        (lambda: lt.SchedulerParams(0.1, 1.0, (2.5,)), r"\(2\.5,\)"),
        (lambda: FunctionSpec("rank_one", dims=(1, 0.5), smoothness_k=lt.functions.ANALYTIC), r"\(1, 0\.5\)"),
    ])
    def test_fractional_subdomain_dims_are_rejected(self, build, given):
        with pytest.raises(ValueError, match=rf"^subdomain dimensions must be integers, got {given}$"):
            build()

    @pytest.mark.parametrize("build, given", [
        (lambda: lt.make_function("rank_one", dims=(float("inf"), 1)), r"\(inf, 1\)"),
        (lambda: lt.SchedulerParams(0.1, 1.0, (float("inf"),)), r"\(inf,\)"),
        (lambda: lt.make_function("rank_one", dims=(1, -np.inf)), r"\(1, -inf\)"),
        (lambda: lt.SchedulerParams(0.1, 1.0, (np.nan,)), r"\(nan,\)"),
        (lambda: lt.make_function("gauss_kernel", n=float("inf")), r"\(inf, inf\)"),
    ])
    def test_non_finite_subdomain_dims_are_rejected(self, build, given):
        # checked before int(), which raises OverflowError on an infinity
        with pytest.raises(ValueError, match=rf"^subdomain dimensions must be finite, got {given}$"):
            build()

    def test_integral_float_dims_are_read_as_ints(self):
        for dims in (lt.make_function("rank_one", dims=(2.0, 1)).dims, lt.SchedulerParams(0.1, 1.0, (3.0,)).dims):
            assert dims in ((2, 1), (3,)) and all(type(n) is int for n in dims)

    def test_spec_is_hashable_and_deterministic(self):
        a = lt.make_function("gauss_kernel", n=2, c=1.5)
        b = lt.make_function("gauss_kernel", c=1.5, n=2)
        assert a == b
        assert hash(a) == hash(b)


# (id, make_function arguments, the (dims, gamma) built or the ValueError message after the id): each layout's
# defaults, its check on explicit dims, and every field a layout leaves unread, which is rejected.
LAYOUT_CASES = [
    ("rank_one", {}, ((1, 1), None)),
    ("rank_one", {"m": 3}, ((1, 1, 1), None)),
    ("rank_one", {"dims": (2, 3)}, ((2, 3), None)),
    ("rank_one", {"dims": (1, 1), "m": 2}, "does not read ['m'] with the other fields given"),
    ("rank_one", {"gamma": (1.0, 1.0)}, "does not read ['gamma'] with the other fields given"),
    ("rank_one", {"n": 2}, "takes no parameters ['n']"),
    ("brownian_bridge", {}, ((1, 1), None)),
    ("brownian_bridge", {"m": 2}, "does not read ['m'] with the other fields given"),
    ("brownian_bridge", {"gamma": (1.0, 1.0)}, "does not read ['gamma'] with the other fields given"),
    ("brownian_bridge", {"dims": (1, 2)}, "is defined on dims (1, 1)"),
    ("abs_diff", {}, ((1, 1), None)),
    ("abs_diff", {"m": 2}, "does not read ['m'] with the other fields given"),
    ("abs_diff", {"dims": (1,)}, "is defined on dims (1, 1)"),
    ("abs_diff", {"c": 1.0}, "takes no parameters ['c']"),
    ("gauss_kernel", {}, ((1, 1), None)),
    ("gauss_kernel", {"n": 2}, ((2, 2), None)),
    ("gauss_kernel", {"dims": (3, 3)}, ((3, 3), None)),
    ("gauss_kernel", {"m": 2}, "does not read ['m'] with the other fields given"),
    ("gauss_kernel", {"dims": (2, 2), "n": 2}, "does not read ['n'] with the other fields given"),
    ("gauss_kernel", {"gamma": (1.0, 1.0)}, "does not read ['gamma'] with the other fields given"),
    ("gauss_kernel", {"dims": (1, 2)}, "needs two subdomains of equal dimension"),
    ("gauss_kernel", {"dims": (1, 1, 1)}, "needs two subdomains of equal dimension"),
    ("gauss_kernel", {"k": 1.0}, "takes no parameters ['k']"),
    ("weighted_product", {}, ((1, 1), (1.0, 2.0**-3))),
    ("weighted_product", {"m": 3, "k": 2.0, "delta_prime": 1.0}, ((1, 1, 1), (1.0, 0.5, 1 / 3))),
    ("weighted_product", {"m": 3, "gamma": (0.5, 0.25, 0.125)}, ((1, 1, 1), (0.5, 0.25, 0.125))),
    ("weighted_product", {"gamma": (1.0, 0.5), "k": 2.0}, "does not read ['k'] with the other fields given"),
    ("weighted_product", {"gamma": (1.0, 0.5), "delta_prime": 1.0},
     "does not read ['delta_prime'] with the other fields given"),
    ("weighted_product", {"dims": (1, 2)}, "is defined on one-dimensional subdomains"),
    ("weighted_exp", {"dims": (1, 1, 1)}, ((1, 1, 1), (1.0, 2.0**-3, 3.0**-3))),
    ("weighted_exp", {"dims": (1, 1), "m": 2}, "does not read ['m'] with the other fields given"),
    ("weighted_exp", {"m": 2, "gamma": (1.0, 0.5), "k": 1.0, "delta_prime": 2.0},
     "does not read ['delta_prime', 'k'] with the other fields given"),
    ("weighted_exp", {"n": 1}, "takes no parameters ['n']"),
]


@pytest.mark.parametrize("fn_id, arguments, expected", LAYOUT_CASES)
def test_layout_defaults_and_unread_fields(fn_id, arguments, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as caught:
            lt.make_function(fn_id, **arguments)
        assert str(caught.value) == f"{fn_id} {expected}"
    else:
        fn = lt.make_function(fn_id, **arguments)
        assert fn.dims == expected[0]
        assert fn.gamma == (None if expected[1] is None else pytest.approx(expected[1], rel=1e-15))


def test_layout_cases_cover_every_id():
    assert sorted({row[0] for row in LAYOUT_CASES}) == list(registered_ids())


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
            s = np.linalg.svd(mode_unfolding(sf, mode), compute_uv=False)
            assert s[0] == pytest.approx(1.857863178919e00, rel=1e-10)
            assert s[1] <= 1e-12 * s[0]

    def test_brownian_bridge_decay_exponent(self):
        fn = lt.make_function("brownian_bridge")
        sf = lt.sample(fn, lt.GridSpec(512))
        gram = gram_spectrum(mode_unfolding(sf, 0))
        fit = fit_decay_exponent(SingularSpectrum(np.sqrt(gram.values)))
        assert fit.exponent == pytest.approx(-4.0, abs=0.3)

    def test_smoothness_metadata(self):
        assert lt.make_function("brownian_bridge").smoothness_k == 1.5
        assert lt.make_function("abs_diff").smoothness_k == 1.5
        assert lt.make_function("rank_one", m=3).smoothness_k == "analytic"
