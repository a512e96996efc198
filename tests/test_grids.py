import json
import math
import tracemalloc

import numpy as np
import pytest

import lrtensor as lt
import lrtensor.grids as grids
from lrtensor import DenseTensor, GridSpec, frobenius_norm
from lrtensor.cli import main as cli_main
from lrtensor.core import _BLOCK, _scale_by_weights
from lrtensor.functions import _REGISTRY, vectorized_evaluator
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
    n = t.shape[mode]
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
    cell = DenseTensor(diffs, weights)
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
        assert sf.shape == (25, 25)

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


def _whole_grid(fn, grid):
    """The raw samples of `fn` from one evaluation on the whole grid, as the tensor's extents."""
    x, _ = axis_rule(grid)
    n, axes = grid.points_per_axis, sum(fn.dims)
    with np.errstate(over="ignore"):
        raw = vectorized_evaluator(fn)(np.meshgrid(*[x] * axes, indexing="ij", sparse=True))
    return np.broadcast_to(raw, (n,) * axes).reshape(tuple(n ** d for d in fn.dims))


def _runs(fn, n):
    """How `sample` splits its run axis into runs: their count, whether the last is partial, and the
    run axis's points. That axis merges the fewest leading scalar axes that leave at most `_BLOCK`
    points per run point, at most those of the left half of the balanced unfolding."""
    axes, left = sum(fn.dims), sum(fn.dims[: -(-len(fn.dims) // 2)])
    k = min([left] + [j for j in range(1, axes + 1) if n ** (axes - j) <= _BLOCK])
    points, step = n ** k, max(1, _BLOCK // (n ** (axes - k)))
    count = -(-points // step)
    return count, count > 1 and points % step != 0, points


@pytest.fixture
def evaluated_runs(monkeypatch):
    """The extent along the first scalar axis of every evaluation `sample` makes."""
    runs = []

    def recording(fn):
        evaluate = vectorized_evaluator(fn)

        def call(coords):
            runs.append(np.shape(coords[0])[0])
            return evaluate(coords)

        return call

    monkeypatch.setattr(grids, "vectorized_evaluator", recording)
    return runs


@pytest.fixture
def constant_along_axis_0(monkeypatch):
    """A function that ignores its first coordinate (an evaluator broadcast along it), and a constant (0-d)."""
    monkeypatch.setitem(_REGISTRY, "skip_first", {
        "evaluator": lambda spec, coords: np.exp(-sum(coords[1:])), "smoothness_k": math.inf, "gamma": False})
    monkeypatch.setitem(_REGISTRY, "constant", {
        "evaluator": lambda spec, coords: 2.5, "smoothness_k": math.inf, "gamma": False})


BLOCKED_CASES = {
    # id: (function id, make_function arguments, points per axis); an id says whether the last run is partial
    "m1-one-run": ("weighted_exp", {"m": 1}, 33),
    "m1-partial": ("weighted_exp", {"m": 1}, 70001),
    "m2-partial": ("weighted_exp", {"m": 2}, 300),
    "m5-partial": ("weighted_exp", {"m": 5}, 11),
    "m6-two-axes-partial": ("weighted_product", {"m": 6}, 11),
    # coarse grids: one point of the first axis is 2^19, 3^12 and 4^9 points; the run axis merges 4, 3 and 2 axes
    "m20-n2-four-axes": ("weighted_exp", {"m": 20}, 2),
    "m13-n3-three-axes": ("weighted_exp", {"m": 13}, 3),
    "m10-n4-two-axes": ("weighted_exp", {"m": 10}, 4),
    "gauss_kernel-n2-partial": ("gauss_kernel", {"n": 2, "c": 2.0}, 29),
    "rank_one-dims-2-1-partial": ("rank_one", {"dims": (2, 1)}, 70),
    "broadcast-m3-partial": ("skip_first", {"m": 3}, 60),
    "constant-m2-partial": ("constant", {"m": 2}, 300),
}
# Gauss-Legendre nodes come from an N x N eigenproblem: too large a grid for 70001 points
BLOCKED_RULES = [(case, rule) for case in sorted(BLOCKED_CASES) for rule in (grids.RULE_TRAPEZOID, grids.RULE_GAUSS)
                 if BLOCKED_CASES[case][2] <= 1024 or rule == grids.RULE_TRAPEZOID]


class TestBlockedSample:
    @pytest.mark.parametrize("case, rule", BLOCKED_RULES)
    def test_equals_weighting_the_whole_grid_evaluation(self, constant_along_axis_0, evaluated_runs, case, rule):
        fn_id, params, n = BLOCKED_CASES[case]
        fn, grid = lt.make_function(fn_id, **params), lt.GridSpec(n, rule)
        t = lt.sample(fn, grid)
        expected = _scale_by_weights(_whole_grid(fn, grid), t.mode_weights, 0.5)
        assert np.array_equal(t.weighted_values(), expected)
        # consecutive runs of the run axis, each evaluated once, none of them the whole grid unless it is one run
        count, partial, points = _runs(fn, n)
        assert len(evaluated_runs) == count and sum(evaluated_runs) == points
        assert len(set(evaluated_runs[:-1])) <= 1 and (evaluated_runs[-1] < evaluated_runs[0]) == partial
        assert (count == 1) == case.endswith("one-run")
        assert partial == ("partial" in case)

    @pytest.mark.parametrize("m, n, bound", [(20, 2, 1.2), (13, 3, 1.2), (10, 4, 1.2), (6, 11, 1.1)])
    def test_any_grid_samples_one_block_at_a_time(self, peak_bytes, m, n, bound):
        fn = lt.make_function("weighted_exp", m=m)
        lt.sample(fn, lt.GridSpec(2))  # the first call's one-off allocations
        t, peak, _ = peak_bytes(lambda: lt.sample(fn, lt.GridSpec(n)))
        # the one array, and one run's samples and weight factor: no run of the first axis alone
        assert peak <= bound * t.weighted_values().nbytes

    def test_a_non_finite_value_in_the_last_run_only_is_rejected(self, evaluated_runs):
        # exp(750 x_0) overflows at x_0 = 1 alone: the last point of the first axis
        fn, grid = lt.make_function("weighted_exp", m=5, gamma=(750.0, 0.0, 0.0, 0.0, 0.0)), lt.GridSpec(11)
        raw = _whole_grid(fn, grid)
        assert not np.isfinite(raw[-1]).any() and np.isfinite(raw[:-1]).all()
        with pytest.raises(ValueError, match="tensor entries must be finite"):
            lt.sample(fn, grid)
        assert len(evaluated_runs) == _runs(fn, 11)[0] > 1

    def test_the_cli_names_the_function_of_a_non_finite_last_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "decompose", "grid": {"points_per_axis": 11},
                                   "function": {"id": "weighted_exp", "m": 5, "gamma": [750, 0, 0, 0, 0]}}))
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: config field 'function': ValueError: tensor entries must be finite"

    @pytest.mark.parametrize("dims, n", [((1,) * 6, 11), ((7,), 11), ((2, 2), 1024)])
    def test_an_over_cap_sample_evaluates_nothing(self, evaluated_runs, dims, n):
        fn = lt.make_function("rank_one", dims=dims)
        tracemalloc.start()
        try:
            with pytest.raises(lt.ElementCapError):
                lt.sample(fn, lt.GridSpec(n), cap=10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert evaluated_runs == []


class TestDiscreteSeminorm:
    def test_constant_is_zero(self):
        t = lt.DenseTensor(np.ones((9, 9)))
        assert discrete_mixed_seminorm(t, 0) == 0.0

    def test_linear_function(self):
        n = 65
        fn = lt.make_function("weighted_exp", m=2, gamma=(0.0, 0.0))
        sf = lt.sample(fn, lt.GridSpec(n))
        x = np.linspace(0, 1, n)
        t = lt.DenseTensor(np.broadcast_to(x[:, None], (n, n)), sf.mode_weights)
        assert discrete_mixed_seminorm(t, 0) == pytest.approx(1.0, abs=2e-2)

    def test_sine_seminorm(self):
        n = 129
        x = np.linspace(0, 1, n)
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        t = lt.DenseTensor(
            np.broadcast_to(np.sin(2 * np.pi * x)[:, None], (n, n)).copy(),
            mode_weights=[w, w],
        )
        target = math.sqrt(2) * math.pi
        assert discrete_mixed_seminorm(t, 0) == pytest.approx(target, rel=0.02)

    def test_rejects_short_mode(self):
        t = lt.DenseTensor(np.ones((2, 5)))
        with pytest.raises(ValueError):
            discrete_mixed_seminorm(t, 0)

    def test_rejects_non_uniform_grid(self):
        x, w = axis_rule(lt.GridSpec(9, rule="gauss-legendre"))
        t = lt.DenseTensor(np.ones((9, 9)), mode_weights=[w, w])
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
            phi_t = lt.DenseTensor(phi, mode_weights=[w])
            h1 = discrete_h1_norm(phi_t, 0)
            lam = s[alpha] ** 2
            constants.append(h1 / (lam**-0.5 * f_norm))
        assert max(constants) <= 2.0
