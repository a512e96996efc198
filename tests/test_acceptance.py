"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success (pytest -v shows the captured output for failures). Runtime
limits are asserted alongside the numerical tolerances.
"""

import math
import time

import numpy as np
import pytest

import lrtensor as lt
import lrtensor.harness as hz
from lrtensor.svd import SingularSpectrum, fit_decay_exponent
from oracles import gram_spectrum, projection_trace_check


def random_tensor(rng, extents, weighted=False):
    values = rng.standard_normal(extents)
    weights = None
    if weighted:
        weights = [rng.random(n) + 0.1 for n in extents]
    return lt.DenseTensor(values, mode_weights=weights)


def test_criterion_01_full_rank_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(25):
        m = int(rng.integers(2, 5))
        extents = tuple(int(e) for e in rng.integers(2, 7, size=m))
        t = random_tensor(rng, extents, weighted=trial % 2 == 0)
        norm = lt.frobenius_norm(t)
        rel_tucker = lt.tucker_error(t, lt.hosvd(t, extents)) / norm
        rel_tt = lt.tt_error(t, lt.tt_svd(t)) / norm
        worst = max(worst, rel_tucker, rel_tt)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: full-rank exactness, worst relative error "
        f"{worst:.3e} over 25 tensors in {elapsed:.2f} s"
    )


def test_criterion_02_bivariate_truncation_law():
    start = time.perf_counter()
    fn = lt.make_function("brownian_bridge")
    sf = lt.sample(fn, lt.GridSpec(512))
    s = np.linalg.svd(lt.mode_unfolding(sf, 0), compute_uv=False)
    worst_rel = 0.0
    for alpha in range(1, 9):
        target = (math.pi * alpha) ** -2
        worst_rel = max(worst_rel, abs(s[alpha - 1] - target) / target)
    fit = fit_decay_exponent(SingularSpectrum(s))
    elapsed = time.perf_counter() - start
    assert worst_rel <= 0.02
    assert abs(fit.exponent - (-4.0)) <= 0.3
    assert elapsed < 30.0
    print(
        f"criterion 2 PASS: sigma within {worst_rel:.3%} of (pi*alpha)^-2 "
        f"for alpha<=8, lambda exponent {fit.exponent:.3f} in {elapsed:.2f} s"
    )


def test_criterion_03_trace_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(2, 65))
        cols = int(rng.integers(2, 65))
        m = rng.standard_normal((rows, cols))
        r = int(rng.integers(1, rows + 1))
        lhs, rhs = projection_trace_check(m, r)
        scale = float(np.trace(m.T @ m))
        worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(
        f"criterion 3 PASS: projection trace identity, worst relative "
        f"mismatch {worst:.3e} over 50 matrices in {elapsed:.2f} s"
    )


def _sampled_fixtures(grid_points=7):
    fixtures = []
    for fn_id, kwargs, dims in (
        ("rank_one", dict(m=3), (1, 1, 1)),
        ("weighted_product", dict(m=3, gamma=(1.0, 0.5, 0.25)), (1, 1, 1)),
        ("weighted_exp", dict(m=3, gamma=(1.0, 0.3, 0.1)), (1, 1, 1)),
        ("gauss_kernel", dict(n=1, c=4.0), (1, 1)),
    ):
        fn = lt.make_function(fn_id, **kwargs)
        fixtures.append(lt.sample(fn, lt.GridSpec(grid_points)))
    return fixtures


def test_criterion_04_tucker_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    violations = 0
    checks = 0
    for trial in range(20):
        t = random_tensor(rng, (5, 5, 5), weighted=trial % 2 == 1)
        ranks = tuple(int(r) for r in rng.integers(1, 6, size=3))
        d = lt.hosvd(t, ranks)
        checks += 1
        if lt.tucker_error(t, d) > d.tail_bound() + 1e-10 * lt.frobenius_norm(t):
            violations += 1
    fixtures = _sampled_fixtures()
    while checks < 40:
        t = fixtures[checks % len(fixtures)]
        ranks = tuple(
            int(rng.integers(1, n + 1)) for n in t.shape
        )
        d = lt.hosvd(t, ranks)
        checks += 1
        if lt.tucker_error(t, d) > d.tail_bound() + 1e-10 * lt.frobenius_norm(t):
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    print(
        f"criterion 4 PASS: Tucker error bound, 0 violations in {checks} "
        f"checks in {elapsed:.2f} s"
    )


def test_criterion_05_tt_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    violations = 0
    checks = 0
    for trial in range(20):
        t = random_tensor(rng, (4, 4, 4, 4), weighted=trial % 2 == 1)
        ranks = tuple(int(r) for r in rng.integers(1, 5, size=3))
        slack = 1e-10 * lt.frobenius_norm(t)
        d = lt.tt_svd(t, ranks=ranks)
        checks += 1
        if lt.tt_error(t, d) > d.tail_bound() + slack:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    print(
        f"criterion 5 PASS: TT error bound, 0 violations in "
        f"{checks} checks in {elapsed:.2f} s"
    )


def test_criterion_06_gram_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(2, 40))
        m = rng.standard_normal((rows, cols))
        tsvd = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(min(rows, cols)))
        sigma = tsvd.full_spectrum.values
        root_gram = np.sqrt(gram_spectrum(m).values[: len(sigma)])
        floor = tsvd.full_spectrum.noise_floor
        keep = sigma > floor
        rel = np.abs(root_gram[keep] - sigma[keep]) / sigma[keep]
        if rel.size:
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(
        f"criterion 6 PASS: sqrt(gram) vs SVD, worst relative gap "
        f"{worst:.3e} over 50 matrices in {elapsed:.2f} s"
    )


def test_criterion_07_cost_formulas():
    start = time.perf_counter()
    assert lt.tt_cost((10, 100)) == 1010
    schedule = lt.build_schedule(
        "tucker-unweighted", lt.SchedulerParams(epsilon=0.01, k=2.0, dims=(1, 1, 1))
    )
    assert schedule.ranks == (10, 10, 10)
    assert lt.tucker_cost(schedule.ranks) == 1000
    assert schedule.predicted_cost == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "criterion 7 PASS: tt_cost((10,100)) == 1010 and Tucker core cost "
        f"1000 at eps=0.01, k=2 in {elapsed:.2f} s"
    )


def test_criterion_08_dimension_robustness():
    start = time.perf_counter()

    def weighted_params(m):
        return lt.SchedulerParams(
            epsilon=0.1,
            k=1.0,
            dims=(1,) * m,
            delta=0.5,
            delta_prime=2.0,
            gamma=lt.default_gamma(m, k=1.0, delta_prime=2.0),
        )

    def log_cost(m):
        s = lt.build_schedule("tucker-weighted", weighted_params(m))
        return sum(math.log(r) for r in s.ranks)

    growth = log_cost(64) / log_cost(16) - 1.0
    assert growth < 0.01

    ms = np.array([4, 8, 16, 32, 64], dtype=float)
    log_unweighted = np.array(
        [
            math.log(
                lt.build_schedule(
                    "tucker-unweighted", lt.SchedulerParams(epsilon=0.1, k=1.0, dims=(1,) * int(m))
                ).predicted_cost
            )
            for m in ms
        ]
    )
    slope = float(np.polyfit(ms, log_unweighted, 1)[0])
    theory = (1.0 / 1.0) * math.log(1.0 / 0.1)
    assert abs(slope - theory) <= 0.1 * theory
    schedule_elapsed = time.perf_counter() - start

    # decomposition-backed spot check
    spot_start = time.perf_counter()
    m = 6
    fn = lt.make_function(
        "weighted_product", m=m, gamma=lt.default_gamma(m, k=1.0, delta_prime=2.0)
    )
    sf = lt.sample(fn, lt.GridSpec(9))
    ranks = tuple(
        min(r, n)
        for r, n in zip(
            lt.build_schedule("tucker-weighted", weighted_params(m)).ranks, sf.shape
        )
    )
    err = lt.tucker_error(sf, lt.hosvd(sf, ranks))
    budget = 3.0 * math.sqrt(m) * 0.1
    spot_elapsed = time.perf_counter() - spot_start
    assert err <= budget
    assert schedule_elapsed < 1.0
    assert spot_elapsed < 60.0
    print(
        f"criterion 8 PASS: weighted log-cost growth {growth:.4%} m=16->64, "
        f"unweighted slope {slope:.4f} vs theory {theory:.4f}; spot check "
        f"error {err:.3e} <= {budget:.3e} in {spot_elapsed:.2f} s"
    )


def test_criterion_09_two_mode_collapse():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for trial in range(10):
        if trial < 7:
            t = random_tensor(rng, (9, 9), weighted=trial % 2 == 0)
        else:
            fn = lt.make_function("gauss_kernel", n=1, c=float(trial))
            t = lt.sample(fn, lt.GridSpec(9))
        r = int(rng.integers(1, 6))
        err_tt = lt.tt_error(t, lt.tt_svd(t, ranks=(r,)))
        err_tucker = lt.tucker_error(t, lt.hosvd(t, (r, r)))
        err_svd = lt.truncated_svd(
            lt.mode_unfolding(t, 0), lt.TruncationRule.fixed_rank(r)
        ).tail
        spread = max(err_tt, err_tucker, err_svd) - min(err_tt, err_tucker, err_svd)
        worst = max(worst, spread)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(
        f"criterion 9 PASS: m=2 collapse, largest error spread {worst:.3e} "
        f"over 10 fixtures in {elapsed:.2f} s"
    )


def test_criterion_10_determinism(tmp_path):
    configs = [
        {
            "experiment": "decompose",
            "function": {"id": "weighted_product", "m": 3, "gamma": [1.0, 0.5, 0.25]},
            "grid": {"points_per_axis": 9},
            "format": "tucker",
            "ranks": [2, 2, 2],
        },
        {
            "experiment": "spectrum",
            "function": {"id": "brownian_bridge"},
            "grid": {"points_per_axis": 65},
        },
        {
            "experiment": "compare-formats",
            "function": {"id": "gauss_kernel", "params": {"n": 1, "c": 2.0}},
            "grid": {"points_per_axis": 17},
            "ranks": [3, 3],
        },
        {
            "experiment": "rank-vs-eps",
            "function": {"id": "weighted_exp", "m": 3, "gamma": [1.0, 0.3, 0.1]},
            "grid": {"points_per_axis": 7},
            "format": "tucker",
            "scheduler": {"regime": "tucker-unweighted", "epsilon": 0.1, "k": 1.0, "dims": [1, 1, 1]},
            "epsilons": [0.5, 0.2, 0.1],
        },
        {
            "experiment": "dim-robustness",
            "scheduler": {
                "epsilon": 0.1,
                "k": 1.0,
                "dims": [1],
                "delta": 0.5,
                "delta_prime": 2.0,
            },
            "m_values": [4, 8, 16, 32],
        },
    ]
    mismatches = []
    for i, raw in enumerate(configs):
        payloads = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{i}-{attempt}"
            report = hz.run(hz.parse_config(raw), out)
            payloads.append(
                tuple(sorted((p.name, p.read_bytes()) for p in report.csv_paths))
            )
        if payloads[0] != payloads[1]:
            mismatches.append(raw["experiment"])
    assert mismatches == []
    print(
        f"criterion 10 PASS: byte-identical outputs across two runs of "
        f"{len(configs)} experiment configs"
    )
