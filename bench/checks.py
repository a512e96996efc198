"""Correctness checks made from outside the program, on its written outputs.

Each check reads the CSV artifacts of one `lrtensor experiment` run and
compares them with what the generated config implies. `check_outputs`
returns None when every check passes, else a one-line reason.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import feasible_ranks, tensor_layout

BROWNIAN_ALPHAS = 8
BROWNIAN_REL_TOL = 0.02
# The same default tolerance the program applies to `expected_exponent`.
EXPONENT_TOL = 0.3


class CheckFailed(Exception):
    """An output disagrees with what the config implies."""


def read_csv(path: Path) -> list:
    """Rows of a program CSV as dicts; the leading schema comment is skipped."""
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise CheckFailed(f"{path.name} has no header")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CheckFailed(f"{path.name}: row {ln!r} does not match the header")
        rows.append(dict(zip(header, cells)))
    return rows


def _number(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"column {key!r} is not a number in {row}") from exc
    if not math.isfinite(value):
        raise CheckFailed(f"column {key!r} is not finite in {row}")
    return value


def _check_bound_rows(rows: list, config: dict, fmt: str) -> None:
    feasible = feasible_ranks(config, fmt)
    for row in rows:
        if row.get("within_bound") != "1":
            raise CheckFailed(f"within_bound is {row.get('within_bound')!r}")
        error, bound = _number(row, "error"), _number(row, "bound")
        if not error <= bound:
            raise CheckFailed(f"error {error:.6e} exceeds bound {bound:.6e}")
        ranks = tuple(int(r) for r in row["ranks"].split("x"))
        if len(ranks) != len(feasible):
            raise CheckFailed(f"{fmt} ranks {ranks}: expected {len(feasible)} entries")
        if any(not 1 <= r <= f for r, f in zip(ranks, feasible)):
            raise CheckFailed(f"{fmt} ranks {ranks} exceed feasible {feasible}")


def _check_decompose(config: dict, out: Path) -> None:
    rows = read_csv(out / "decompose.csv")
    if len(rows) != 1 or rows[0]["format"] != config["format"]:
        raise CheckFailed(f"decompose.csv rows {rows} do not match the config")
    _check_bound_rows(rows, config, config["format"])


def _check_spectrum(config: dict, out: Path) -> None:
    rows = read_csv(out / "spectrum.csv")
    extents = tensor_layout(config)
    if len(rows) != min(extents[0], math.prod(extents[1:])):
        raise CheckFailed(f"{len(rows)} singular values for extents {extents}")
    sigma = [_number(r, "sigma") for r in rows]
    if sigma[-1] < 0 or any(b > a * (1 + 1e-12) for a, b in zip(sigma, sigma[1:])):
        raise CheckFailed("singular values are not descending and nonnegative")
    if config["function"]["id"] == "brownian_bridge":
        for alpha in range(1, BROWNIAN_ALPHAS + 1):
            target = (math.pi * alpha) ** -2
            rel = abs(sigma[alpha - 1] - target) / target
            if rel > BROWNIAN_REL_TOL:
                raise CheckFailed(
                    f"sigma_{alpha} = {sigma[alpha - 1]:.6e} is {rel:.2%} from (pi alpha)^-2"
                )


def _check_decay_rate(config: dict, out: Path) -> None:
    rows = read_csv(out / "decay_rate.csv")
    if len(rows) != 1:
        raise CheckFailed(f"decay_rate.csv has {len(rows)} rows")
    exponent = _number(rows[0], "fitted_exponent")
    expected = config.get("expected_exponent")
    if expected is not None and abs(exponent - expected) > EXPONENT_TOL:
        raise CheckFailed(f"fitted exponent {exponent:.4f}, expected {expected} +- {EXPONENT_TOL}")


def _check_rank_vs_eps(config: dict, out: Path) -> None:
    rows = read_csv(out / "rank_vs_eps.csv")
    epsilons = config["epsilons"]
    if len(rows) != len(epsilons):
        raise CheckFailed(f"{len(rows)} rows for {len(epsilons)} epsilons")
    for row, eps in zip(rows, epsilons):
        if not math.isclose(_number(row, "epsilon"), eps, rel_tol=1e-9):
            raise CheckFailed(f"row epsilon {row['epsilon']} != {eps}")
    _check_bound_rows(rows, config, config["format"])


_CHECKS = {
    "decompose": _check_decompose,
    "spectrum": _check_spectrum,
    "decay-rate": _check_decay_rate,
    "rank-vs-eps": _check_rank_vs_eps,
}

REPORTED_DECOMPOSITIONS = {
    "decompose": "decompose.csv",
    "rank-vs-eps": "rank_vs_eps.csv",
}


def check_outputs(config: dict, out: Path, exit_code) -> str | None:
    """None if the run is correct, else why it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        _CHECKS[config["experiment"]](config, out)
        if not (out / "summary.md").is_file():
            raise CheckFailed("summary.md missing")
    except CheckFailed as exc:
        return f"check: {exc}"
    except (KeyError, ValueError) as exc:  # a column missing or malformed
        return f"check: unreadable output: {exc!r}"
    return None


def reported_decompositions(config: dict, out: Path) -> int:
    """Decompositions whose results the run wrote out (one CSV row each)."""
    name = REPORTED_DECOMPOSITIONS.get(config["experiment"])
    if name is None or not (out / name).is_file():
        return 0
    return len(read_csv(out / name))
