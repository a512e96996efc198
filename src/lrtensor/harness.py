"""Batch experiment runner: decompose, spectra, schedules, and reports.

Configs are JSON, outputs are CSV tables plus a markdown summary. Every
reported error carries the corresponding provable bound and a pass/fail
flag; a run exits nonzero iff any bound is violated. Timings go to the
markdown summary only, so CSV outputs are byte-reproducible.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import functions as fnreg
from .core import DEFAULT_ELEMENT_CAP, DenseTensor, ElementCapError, frobenius_norm, mode_unfolding
from .grids import RULE_TRAPEZOID, GridSpec, sample
from .schedules import (
    REGIME_TT,
    REGIME_TUCKER,
    REGIME_TUCKER_WEIGHTED,
    RankSchedule,
    SchedulerParams,
    build_schedule,
)
from .svd import TruncationRule, fit_decay_exponent, spectrum
from .train import tt_cost, tt_error, tt_svd
from .tucker import hosvd, tucker_cost, tucker_error

CSV_SCHEMA = "lrtensor-csv v1"

FORMATS = ("tucker", "tt")
_FORMAT_NAMES = FORMATS + ("tt-bidir",)  # "tt-bidir", a legacy name, runs tt's sweep and keeps its name in the rows


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


@contextmanager
def _field(name: str, errors=(TypeError, ValueError, LookupError, AttributeError, ArithmeticError)):
    """Report an error of `errors` raised inside the block as a ConfigError naming `name`."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(name, f"{type(exc).__name__}: {exc}") from exc


def _number(value, kind=None, low=-math.inf, high=math.inf):
    """A finite JSON number, not a bool, strictly between `low` and `high`; as `kind` if given."""
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
            or not low < value < high or (kind is int and value != int(value))):
        raise ValueError(f"expected a finite {'integer' if kind is int else 'number'} in ({low}, {high}), got {value!r}")
    return kind(value) if kind else value


def _numbers(values, kind=None, low=-math.inf, high=math.inf, length=None) -> tuple:
    """A JSON list of `_number`s, of `length` entries if given."""
    if not isinstance(values, list) or length not in (None, len(values)):
        raise TypeError(f"expected a list of {'' if length is None else f'{length} '}numbers, got {values!r}")
    return tuple(_number(v, kind, low, high) for v in values)


_MAX_MODES = 1000  # bounds a function's `m` and `m_values`: no tuple of modes outgrows memory


def _json_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {obj!r}")
    return obj


def _object(obj, table: dict) -> dict:
    """A JSON object read by `table`, {key: (converter, default)}: a key missing or null takes its
    default (MISSING: the key is required), any other goes through its converter, and no key is unknown."""
    unknown = sorted(set(_json_object(obj)) - set(table))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; expected one of {tuple(table)}")
    missing = [key for key, (_, default) in table.items() if default is MISSING and key not in obj]
    if missing:
        raise ValueError(f"missing required key {missing[0]!r}")
    return {key: default if default is not MISSING and obj.get(key) is None else convert(obj[key])
            for key, (convert, default) in table.items()}


def _experiment(value) -> str:
    if value not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {value!r}")
    return value


def _function(fn) -> fnreg.FunctionSpec:
    fn_id, dims, m, gamma, params = _object(fn, {
        "id": (lambda v: v, MISSING),
        "dims": (lambda v: _numbers(v, int, 0), None),
        "m": (lambda v: _number(v, int, 0, _MAX_MODES), None),
        "gamma": (_numbers, None),
        "params": (lambda v: {key: _number(x) for key, x in _json_object(v).items()}, {}),
    }).values()
    return fnreg.make_function(fn_id, dims=dims, m=m, gamma=gamma, **params)


def _format(value) -> str:
    if value not in _FORMAT_NAMES:
        raise ValueError(f"must be one of {_FORMAT_NAMES}, got {value!r}")
    return value


def _grid(g) -> GridSpec:
    return GridSpec(**_object(g, {
        "points_per_axis": (lambda v: _number(v, int), MISSING),
        "rule": (lambda v: v, RULE_TRAPEZOID),
    }))


def _scheduler(s) -> Tuple[Optional[str], SchedulerParams]:
    """The regime named (None if none is) and the schedule's parameters, keyed in SchedulerParams' order."""
    regime, *params = _object(s, {
        "regime": (lambda v: v, None),
        "epsilon": (lambda v: _number(v, float), MISSING),
        "k": (lambda v: _number(v, float), MISSING),
        "dims": (lambda v: _numbers(v, int, 0), MISSING),
        "delta": (_number, None),
        "delta_prime": (_number, None),
        "gamma": (_numbers, None),
    }).values()
    return regime, SchedulerParams(*params)


def _config(convert: Callable, default=MISSING):
    """A top-level config field: its JSON value, null if missing, goes through `convert` unless null with a `default`."""
    return field(default=default, metadata={"convert": convert})


@dataclass(frozen=True)
class ExperimentConfig:
    """The config's top-level fields, each with its converter and default: `parse_config` reads these and no other."""

    experiment: str = _config(_experiment)
    function: Optional[fnreg.FunctionSpec] = _config(_function, None)
    grid: Optional[GridSpec] = _config(_grid, None)
    format: str = _config(_format, "tucker")
    ranks: Optional[tuple] = _config(lambda v: _numbers(v, int, 0), None)
    tolerance: float = _config(lambda v: _number(v, float, 0), 1e-12)
    scheduler: Optional[Tuple[Optional[str], SchedulerParams]] = _config(_scheduler, None)
    epsilons: tuple = _config(lambda v: _numbers(v, float, 0, 1), ())
    m_values: tuple = _config(lambda v: _numbers(v, int, 0, _MAX_MODES), ())
    mode: int = _config(lambda v: _number(v, int), 0)
    fit_window: Optional[tuple] = _config(lambda v: _numbers(v, int, 0, length=2), None)
    expected_exponent: Optional[float] = _config(_number, None)
    exponent_tol: float = _config(lambda v: _number(v, None, 0), 0.3)
    cap: int = _config(lambda v: _number(v, int, 0), DEFAULT_ELEMENT_CAP)


@dataclass
class ExperimentReport:
    experiment: str
    out_dir: Path
    csv_paths: List[Path] = field(default_factory=list)
    summary_path: Optional[Path] = None
    violations: int = 0
    summary_lines: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if self.violations == 0 else 1


def parse_config(raw: dict, cap: Optional[int] = None) -> ExperimentConfig:
    """Validate a raw JSON dict; raise ConfigError naming the bad field."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if cap is not None:
        raw = {**raw, "cap": cap}  # a `cap` argument overrides the config's field and is checked alike
    values = {}
    for f in fields(ExperimentConfig):
        with _field(f.name):
            value = raw.get(f.name)
            values[f.name] = f.default if value is None and f.default is not MISSING else f.metadata["convert"](value)
    unknown = sorted(set(raw) - set(values))
    if unknown:
        raise ConfigError(unknown[0], f"unknown field; expected one of {tuple(values)}")
    return ExperimentConfig(**values)


def load_config(path, cap=None) -> ExperimentConfig:
    with open(path) as handle, _field("<root>", (ValueError, RecursionError)):  # bad JSON, or nested too deep
        raw = json.load(handle)
    return parse_config(raw, cap=cap)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _emit(report: ExperimentReport, header: Sequence[str], rows) -> None:
    """Write the experiment's one CSV table, named and tagged after it."""
    lines = [f"# {CSV_SCHEMA} experiment={report.experiment}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path = report.out_dir / f"{report.experiment.replace('-', '_')}.csv"
    path.write_text("\n".join(lines) + "\n")
    report.csv_paths.append(path)


_DECOMPOSITION_HEADER = ("format", "ranks", "error", "bound", "cost", "storage", "within_bound")


def _ranks_str(ranks) -> str:
    return "x".join(str(int(r)) for r in ranks)


def _sample_tensor(config: ExperimentConfig) -> DenseTensor:
    if config.function is None:
        raise ConfigError("function", "this experiment requires a function")
    if config.grid is None:
        raise ConfigError("grid", "this experiment requires a grid")
    with _field("function"), _field("grid", ElementCapError):
        return sample(config.function, config.grid, cap=config.cap)


def _rank_count(fmt: str, m: int) -> int:
    """Ranks a format takes on m modes: one per mode (Tucker) or bond (TT)."""
    return m if fmt == "tucker" else m - 1


def _decompose(t: DenseTensor, norm: float, fmt: str, ranks, tolerance):
    """Build and measure one decomposition of `t`, whose norm is `norm`.

    Given ranks (one per mode or bond) are upper limits: each step keeps
    at most the rank of its matrix, and the ranks returned are the kept
    ones. Without ranks, each of the S modes or bonds keeps the minimal
    rank whose discarded tail is at most tolerance * norm / sqrt(S), so
    the tail bound, the total, is at most tolerance * norm.
    The bound is the tail bound plus a slack relative to `norm`.
    Returns (ranks, error, bound, cost, storage: the entries held, lengths: each step's spectrum length).
    """
    extents = t.shape
    if ranks is None:
        steps = max(1, _rank_count(fmt, len(extents)))  # TT on one mode has no bond
        ranks = TruncationRule.tail_energy(tolerance * norm / math.sqrt(steps))
    elif len(ranks) != (expected := _rank_count(fmt, len(extents))):
        raise ConfigError("ranks", f"format {fmt!r} on {len(extents)} modes "
                          f"takes {expected} ranks, got {len(ranks)}")
    if fmt == "tucker":
        d = hosvd(t, ranks)
        err, cost, arrays, spectra = tucker_error(t, d), tucker_cost(d.ranks), d.factors, d.mode_spectra
    else:
        d = tt_svd(t, ranks)
        err, cost, arrays, spectra = tt_error(t, d), tt_cost(d.ranks), d.cores, d.spectra
    return d.ranks, err, d.tail_bound() + 1e-10 * norm, cost, sum(a.size for a in arrays), tuple(map(len, spectra))


def _check(report: ExperimentReport, fmt: str, ranks, err: float, bound: float, *_) -> bool:
    """Check what `_decompose` measured: write one PASS/FAIL summary line, count a FAIL as a violation."""
    ok = err <= bound
    if not ok:
        report.violations += 1
    report.summary_lines.append(f"- {fmt}, ranks {_ranks_str(ranks)}: error {err:.6e} "
                                f"vs bound {bound:.6e} -> {'PASS' if ok else 'FAIL'}")
    return ok


def _schedule_ranks_for(config: ExperimentConfig, epsilon: Optional[float] = None) -> RankSchedule:
    if config.scheduler is None:
        raise ConfigError("scheduler", "this experiment requires scheduler params")
    regime, base = config.scheduler
    if regime is None:
        regime = REGIME_TUCKER if config.format == "tucker" else REGIME_TT
    with _field("scheduler"):
        return build_schedule(regime, base if epsilon is None else replace(base, epsilon=epsilon))


def run(config: ExperimentConfig, out_dir) -> ExperimentReport:
    """Dispatch one experiment; deterministic for a fixed config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(config.experiment, out_dir)
    started = time.perf_counter()
    _RUNNERS[config.experiment](config, report)
    elapsed = time.perf_counter() - started
    report.summary_lines.append(f"- wall time: {elapsed:.3f} s")
    report.summary_lines.append(f"- bound violations: {report.violations}")
    summary = [f"# {config.experiment}", ""]
    summary.extend(report.summary_lines)
    report.summary_path = out_dir / "summary.md"
    report.summary_path.write_text("\n".join(summary) + "\n")
    return report


def _run_decompose(config: ExperimentConfig, report: ExperimentReport) -> None:
    t = _sample_tensor(config)
    report.summary_lines.append(f"- function: {config.function.id}")
    ranks, *measured, _ = _decompose(t, frobenius_norm(t), config.format, config.ranks, config.tolerance)
    ok = _check(report, config.format, ranks, *measured)
    _emit(report, _DECOMPOSITION_HEADER, [[config.format, _ranks_str(ranks), *measured, ok]])


def _spectrum_fit(config: ExperimentConfig):
    """The spectrum of the config's mode unfolding and its decay fit."""
    t = _sample_tensor(config)
    with _field("mode"):
        mat = mode_unfolding(t, config.mode)
    spec = spectrum(mat)
    with _field("fit_window"):
        return spec, fit_decay_exponent(spec, window=config.fit_window)


def _run_spectrum(config: ExperimentConfig, report: ExperimentReport) -> None:
    spec, fit = _spectrum_fit(config)
    rows = [
        [alpha + 1, sigma, sigma ** 2]
        for alpha, sigma in enumerate(spec.values)
    ]
    _emit(report, ["alpha", "sigma", "lambda"], rows)
    report.summary_lines += [
        f"- function: {config.function.id}, mode {config.mode}",
        f"- fitted lambda exponent: {fit.exponent:.4f} (r2 {fit.r2:.4f}, "
        f"window alpha {fit.window[0]}..{fit.window[1]})",
    ]
    _check_exponent(config, report, fit.exponent)


def _check_exponent(config, report, exponent) -> None:
    if config.expected_exponent is None:
        return
    tol = config.exponent_tol
    ok = abs(exponent - config.expected_exponent) <= tol
    if not ok:
        report.violations += 1
    report.summary_lines.append(
        f"- exponent target {config.expected_exponent} +- {tol}: "
        f"{'PASS' if ok else 'FAIL'}"
    )


def _run_schedule(config: ExperimentConfig, report: ExperimentReport) -> None:
    schedule = _schedule_ranks_for(config)
    with _field("scheduler"):  # a cost past Python's int-to-str digit limit
        text, cost = schedule.to_json(), str(schedule.predicted_cost)
    path = report.out_dir / "schedule.json"
    path.write_text(text)
    report.csv_paths.append(path)
    report.summary_lines += [
        f"- regime: {schedule.regime}",
        f"- ranks: {_ranks_str(schedule.ranks)}",
        f"- predicted cost: {cost}",
    ]
    if schedule.M is not None:
        report.summary_lines.append(
            f"- dimension truncation M = {schedule.M} "
            f"(printed closed form {schedule.paper_M_value:.6e})"
        )


def _run_decay_rate(config: ExperimentConfig, report: ExperimentReport) -> None:
    _, fit = _spectrum_fit(config)
    k = config.function.smoothness_k
    theory = None
    if isinstance(k, (int, float)):
        theory = -(2.0 * k / min(config.function.dims)) - 1.0
    rows = [[fit.exponent, fit.r2, fit.window[0], fit.window[1],
             theory if theory is not None else ""]]
    _emit(report, ["fitted_exponent", "r2", "window_first", "window_last", "theory_exponent"], rows)
    report.summary_lines.append(
        f"- fitted lambda exponent {fit.exponent:.4f}, theory "
        f"{theory if theory is not None else 'n/a (analytic)'}"
    )
    _check_exponent(config, report, fit.exponent)


def _run_rank_vs_eps(config: ExperimentConfig, report: ExperimentReport) -> None:
    if not config.epsilons:
        raise ConfigError("epsilons", "rank-vs-eps needs a list of epsilons")
    t = _sample_tensor(config)
    if config.scheduler and (dims := config.scheduler[1].dims) != config.function.dims:
        raise ConfigError("scheduler", f"dims {dims} differ from the function's subdomain dims {config.function.dims}")
    norm = frobenius_norm(t)
    m = t.ndim
    count = _rank_count(config.format, m)
    rows, builds = [], []
    for eps in config.epsilons:
        schedule = _schedule_ranks_for(config, eps)
        if len(schedule.ranks) < count:
            raise ConfigError("scheduler", f"regime {schedule.regime!r} gives {len(schedule.ranks)} ranks, "
                              f"format {config.format!r} on {m} modes takes {count}")
        # Bonds the weighted TT schedule drops (rank 0) run at rank 1; a
        # schedule with more ranks than the format takes gives the leading ones.
        ranks = [max(r, 1) for r in schedule.ranks][:count]
        # A step keeps min(rank asked, its spectrum's length) of a matrix fixed by the ranks kept before it:
        # so, by induction in sweep order, an earlier build that would keep its own ranks is this decomposition.
        measured = next((b for b in builds if tuple(map(min, ranks, b[-1])) == b[0]), None)
        if measured is None:
            measured = _decompose(t, norm, config.format, ranks, None)
            builds.append(measured)
        kept, err, bound, cost, *_ = measured
        ok = _check(report, config.format, *measured)
        rows.append([eps, _ranks_str(kept), cost, err, bound, math.sqrt(m) * eps, ok])
    _emit(report, ["epsilon", "ranks", "cost", "error", "bound", "sqrt_m_eps", "within_bound"], rows)
    report.summary_lines.append(f"- {len(rows)} epsilon values, {len(builds)} decompositions, format {config.format}")


def _run_dim_robustness(config: ExperimentConfig, report: ExperimentReport) -> None:
    if not config.m_values:
        raise ConfigError("m_values", "dim-robustness needs a list of mode counts")
    if config.scheduler is None:
        raise ConfigError("scheduler", "dim-robustness needs scheduler params")
    regime, base = config.scheduler
    if regime is not None or base.gamma is not None or len(base.dims) != 1:
        raise ConfigError("scheduler", "dim-robustness builds both Tucker regimes, default weights, on m copies of "
                          f"one subdomain: it takes one dims entry and no regime or gamma, got regime {regime!r}, "
                          f"gamma {base.gamma}, dims {base.dims}")
    (n,) = base.dims
    rows = []
    for m in config.m_values:
        with _field("scheduler"):
            p = replace(base, dims=(n,) * m)
            weighted = build_schedule(REGIME_TUCKER_WEIGHTED, p)
            unweighted = build_schedule(REGIME_TUCKER, p)
            cost = str(weighted.predicted_cost)  # a cost past Python's int-to-str digit limit
        rows.append([
            m,
            cost,
            math.log(weighted.predicted_cost),
            math.log(unweighted.predicted_cost),
        ])
    _emit(report, ["m", "weighted_cost", "log_cost_weighted", "log_cost_unweighted"], rows)
    ms = np.array([r[0] for r in rows], dtype=float)
    log_unweighted = np.array([r[3] for r in rows])
    slope = float(np.polyfit(ms, log_unweighted, 1)[0]) if len(set(config.m_values)) > 1 else float("nan")
    expected_slope = (n / base.k) * math.log(1.0 / base.epsilon)
    report.summary_lines += [
        f"- unweighted log-cost slope {slope:.6f} "
        f"(theory {expected_slope:.6f})",
        f"- weighted log-cost range {rows[0][2]:.6f} .. {rows[-1][2]:.6f}",
    ]


def _run_compare_formats(config: ExperimentConfig, report: ExperimentReport) -> None:
    t = _sample_tensor(config)
    norm = frobenius_norm(t)
    rows = []
    timings = []
    if config.ranks is not None and len(config.ranks) not in (t.ndim, t.ndim - 1):
        raise ConfigError("ranks", f"compare-formats on {t.ndim} modes takes {t.ndim} or {t.ndim - 1} ranks, "
                          f"got {len(config.ranks)}")
    for fmt in FORMATS:
        ranks = config.ranks
        if ranks is not None and fmt == "tucker" and len(ranks) == t.ndim - 1:
            ranks = None  # bond ranks do not apply to the Tucker format
        elif ranks is not None:
            ranks = ranks[: _rank_count(fmt, t.ndim)]  # each format takes the leading ranks
        begin = time.perf_counter()
        used, *measured, _ = _decompose(t, norm, fmt, ranks, config.tolerance)
        timings.append((fmt, time.perf_counter() - begin))
        rows.append([fmt, _ranks_str(used), *measured, _check(report, fmt, used, *measured)])
    _emit(report, _DECOMPOSITION_HEADER, rows)
    for fmt, dt in timings:
        report.summary_lines.append(f"- {fmt}: {dt:.3f} s")


_RUNNERS = {
    "decompose": _run_decompose,
    "spectrum": _run_spectrum,
    "schedule": _run_schedule,
    "decay-rate": _run_decay_rate,
    "rank-vs-eps": _run_rank_vs_eps,
    "dim-robustness": _run_dim_robustness,
    "compare-formats": _run_compare_formats,
}
EXPERIMENTS = tuple(_RUNNERS)
