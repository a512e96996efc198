"""Seeded config streams for the three benchmark workloads.

A stream is a sequence of *rounds*, each a shuffled list of `lrtensor
experiment` configs (plain JSON dicts). A round crosses the properties
that set a config's cost (grid sizes spread evenly over the workload's
range, format, experiment, function, regime, and the third of its range
that a tolerance or delta' is drawn from) in a full factorial or a Latin
square. So every round holds the same mix of cheap and expensive
configs, and a run of whole rounds gives steady medians on any seed. The seed draws the order
and every continuous parameter within its share of the range:
tolerances, weights, kernel widths, delta' and the coarsest epsilon.

The program under test sees only the generated JSON.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("tol-6d", "kernel-2d", "rank-sweep")

TOL_6D_M = 6
TOL_6D_SIZES = (9, 10, 11)
SCALAR_FUNCTIONS = ("weighted_product", "weighted_exp", "rank_one")
FORMATS = ("tucker", "tt", "tt-bidir")

KERNEL_SIZES = (512, 768, 1024)
GAUSS2_SIZES = (21, 25, 29)
KERNEL_EXPERIMENTS = ("spectrum", "decay-rate", "decompose")
KERNEL_FUNCTIONS = ("brownian_bridge", "abs_diff", "gauss_kernel")
BROWNIAN_EXPONENT = -4

SWEEP_M = 4
SWEEP_SIZES = tuple(range(16, 25))
REGIMES = ("tucker-unweighted", "tt-unweighted", "tucker-weighted", "tt-weighted")
SWEEP_COUNTS = (6, 7, 8)


def _tolerance(rng: random.Random, level=None) -> float:
    """10^U(-8, -4), or 10^U within the third of that range given by `level`."""
    if level is None:
        return 10.0 ** rng.uniform(-8.0, -4.0)
    return 10.0 ** (-8.0 + 4.0 * (level + rng.random()) / 3)


def _scalar_function(rng: random.Random, fn_id: str, m: int, gamma=None) -> dict:
    fn = {"id": fn_id, "m": m}
    if fn_id != "rank_one":
        if gamma is None:
            decay = rng.uniform(1.0, 3.0)
            gamma = [float(j) ** -decay for j in range(1, m + 1)]
        fn["gamma"] = gamma
    return fn


def _tol_6d_config(rng, n_points, fmt, fn_id) -> dict:
    return {
        "experiment": "decompose",
        "function": _scalar_function(rng, fn_id, TOL_6D_M),
        "grid": {"points_per_axis": n_points},
        "format": fmt,
        "tolerance": _tolerance(rng),
    }


def _tol_6d_round(rng: random.Random) -> list:
    return [
        _tol_6d_config(rng, n_points, fmt, fn_id)
        for n_points in TOL_6D_SIZES for fmt in FORMATS for fn_id in SCALAR_FUNCTIONS
    ]


def _kernel_function(rng: random.Random, fn_id: str, n: int = 1) -> dict:
    if fn_id == "gauss_kernel":
        return {"id": fn_id, "params": {"n": n, "c": 10.0 ** rng.uniform(0.0, 1.5)}}
    return {"id": fn_id}


def _kernel_config(rng, experiment, function, n_points, level: int) -> dict:
    cfg = {
        "experiment": experiment,
        "function": function,
        "grid": {"points_per_axis": n_points},
    }
    if experiment == "decompose":
        cfg["format"] = "tucker"
        cfg["tolerance"] = _tolerance(rng, level)
    if function["id"] == "brownian_bridge":
        cfg["expected_exponent"] = BROWNIAN_EXPONENT
    return cfg


def _kernel_2d_round(rng: random.Random) -> list:
    # Tolerance levels form a Latin square over (function, size), so every
    # function and every size meets each level once.
    configs = []
    for experiment in KERNEL_EXPERIMENTS:
        for f, fn_id in enumerate(KERNEL_FUNCTIONS):
            for i, n_points in enumerate(KERNEL_SIZES):
                function = _kernel_function(rng, fn_id)
                configs.append(_kernel_config(rng, experiment, function, n_points, (f + i) % 3))
        for i, n_points in enumerate(GAUSS2_SIZES):
            function = _kernel_function(rng, "gauss_kernel", n=2)
            configs.append(_kernel_config(rng, experiment, function, n_points, i))
    return configs


def _sweep_config(rng: random.Random, regime: str, n_points: int, level: int, count: int) -> dict:
    # delta' is drawn from the third of [0.5, 3] given by `level`; k and
    # delta are fixed shares of it inside the weighted-regime hypothesis
    # delta' > delta + k/n (n = 1), so no config is invalid.
    delta_prime = 0.5 + 2.5 * (level + rng.random()) / 3
    k = delta_prime / 2
    delta = delta_prime / 4
    gamma = [float(j) ** (-(1.0 + delta_prime) / k) for j in range(1, SWEEP_M + 1)]
    # A coarse-to-fine sweep halving epsilon from eps_0 in [0.4, 0.8].
    # Starting that coarse puts the dimension-truncation index of the
    # weighted TT schedule below m - 1 at the first epsilon.
    eps0 = rng.uniform(0.4, 0.8)
    epsilons = [eps0 * 0.5 ** i for i in range(count)]
    return {
        "experiment": "rank-vs-eps",
        "function": _scalar_function(rng, rng.choice(SCALAR_FUNCTIONS), SWEEP_M, gamma),
        "grid": {"points_per_axis": n_points},
        "format": "tucker" if regime.startswith("tucker") else "tt",
        "scheduler": {
            "regime": regime,
            "epsilon": epsilons[0],
            "k": k,
            "dims": [1] * SWEEP_M,
            "delta": delta,
            "delta_prime": delta_prime,
        },
        "epsilons": epsilons,
    }


def _rank_sweep_round(rng: random.Random) -> list:
    # Every regime meets every grid size twice, at two of the three delta'
    # levels; levels and epsilon counts form Latin squares over
    # (regime, size), so each regime and each size meets them evenly.
    configs = []
    for replicate in range(2):
        for r, regime in enumerate(REGIMES):
            for i, n_points in enumerate(SWEEP_SIZES):
                level = (i + r + replicate) % 3
                count = SWEEP_COUNTS[(i + level) % len(SWEEP_COUNTS)]
                configs.append(_sweep_config(rng, regime, n_points, level, count))
    return configs


_ROUNDS = {
    "tol-6d": _tol_6d_round,
    "kernel-2d": _kernel_2d_round,
    "rank-sweep": _rank_sweep_round,
}


def generate_rounds(workload: str, seed: int, count: int) -> list:
    """The first `count` rounds of the stream for (`workload`, `seed`)."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for _ in range(count):
        configs = _ROUNDS[workload](rng)
        rng.shuffle(configs)
        rounds.append(configs)
    return rounds


def warmup_config(workload: str, seed: int) -> dict:
    """One config of the cheapest kind in the workload, run before timing."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "tol-6d":
        return _tol_6d_config(rng, TOL_6D_SIZES[0], "tucker", "rank_one")
    if workload == "kernel-2d":
        return _kernel_config(rng, "spectrum", {"id": "brownian_bridge"}, KERNEL_SIZES[0], 0)
    if workload == "rank-sweep":
        return _sweep_config(rng, REGIMES[0], SWEEP_SIZES[0], 0, SWEEP_COUNTS[0])
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def tensor_layout(config: dict) -> tuple:
    """Mode extents of the sampled tensor, worked out from the config alone."""
    fn = config["function"]
    n_points = int(config["grid"]["points_per_axis"])
    if fn["id"] == "gauss_kernel":
        n = int(fn.get("params", {}).get("n", 1))
        dims = (n, n)
    elif fn["id"] in ("brownian_bridge", "abs_diff"):
        dims = (1, 1)
    else:
        dims = (1,) * int(fn["m"])
    return tuple(n_points ** n for n in dims)


def feasible_ranks(config: dict, fmt: str) -> tuple:
    """Largest rank each mode (Tucker) or bond (TT) can carry."""
    extents = tensor_layout(config)
    if fmt == "tucker":
        return extents
    return tuple(
        min(math.prod(extents[: j + 1]), math.prod(extents[j + 1 :]))
        for j in range(len(extents) - 1)
    )
