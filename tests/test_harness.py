import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
import lrtensor.core as core
import lrtensor.harness as hz
import lrtensor.svd as svd
from lrtensor.cli import main as cli_main
from lrtensor.grids import axis_rule
from oracles import tail_energy

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def _step_limit(r_prev: int, n: int, rest: int) -> int:
    """Largest rank a sweep step can keep: its matrix is (r_prev * n) x rest."""
    return min(r_prev * n, rest)


def feasible_ranks(extents, ranks) -> list:
    """Clamp bond ranks to what `tt_svd` keeps.

    Bonds are clamped to each step's `_step_limit` in the order the sweep
    separates them, since a step's limit depends on the rank kept at the
    step before.
    """
    clamped = [int(r) for r in ranks]
    r_prev = 1
    for j in range(len(extents) - 1):
        limit = _step_limit(r_prev, extents[j], math.prod(extents[j + 1 :]))
        r_prev = clamped[j] = min(clamped[j], limit)
    return clamped


def decompose_config(**overrides):
    raw = {
        "experiment": "decompose",
        "function": {"id": "rank_one", "m": 3},
        "grid": {"points_per_axis": 9},
        "format": "tucker",
        "ranks": [1, 1, 1],
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_unknown_experiment_names_field(self):
        with pytest.raises(hz.ConfigError) as exc:
            hz.parse_config({"experiment": "bogus"})
        assert exc.value.field == "experiment"

    def test_bad_function_named(self):
        with pytest.raises(hz.ConfigError) as exc:
            hz.parse_config(decompose_config(function={"id": "nope"}))
        assert exc.value.field == "function"

    def test_bad_format_named(self):
        with pytest.raises(hz.ConfigError) as exc:
            hz.parse_config(decompose_config(format="cp"))
        assert exc.value.field == "format"

    def test_missing_scheduler_key_named(self):
        raw = {"experiment": "schedule", "scheduler": {"epsilon": 0.1}}
        with pytest.raises(hz.ConfigError) as exc:
            hz.parse_config(raw)
        assert exc.value.field.startswith("scheduler")

    def test_bad_tolerance(self):
        with pytest.raises(hz.ConfigError) as exc:
            hz.parse_config(decompose_config(tolerance=-1.0))
        assert exc.value.field == "tolerance"

    def test_seed_and_cap_overrides(self):
        cfg = hz.parse_config(decompose_config(), cap=1000)
        assert cfg.cap == 1000

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True])
    def test_bad_cap_argument_names_cap(self, cap):
        with pytest.raises(hz.ConfigError) as exc:
            hz.parse_config(decompose_config(), cap=cap)
        assert exc.value.field == "cap"

    def test_null_grid_rule_takes_trapezoid(self):
        cfg = hz.parse_config(decompose_config(grid={"points_per_axis": 5, "rule": None}))
        assert cfg.grid.rule == lt.grids.RULE_TRAPEZOID

    def test_null_function_params_take_empty(self):
        cfg = hz.parse_config(decompose_config(function={"id": "rank_one", "m": 3, "params": None}))
        assert cfg.function == hz.parse_config(decompose_config()).function


class TestDecomposeRun:
    def test_rank_one_function_needs_rank_one(self, tmp_path):
        cfg = hz.parse_config(decompose_config())
        report = hz.run(cfg, tmp_path)
        assert report.exit_code == 0
        rows = [
            line
            for line in (tmp_path / "decompose.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("format")
        ]
        error = float(rows[0].split(",")[2])
        assert error <= 1e-10

    @pytest.mark.parametrize("fmt, ranks", [
        ("tucker", [2, 3, 2, 1, 2]), ("tt", [2, 3, 3, 2]), ("tt", [3, 2, 2, 3]),
        ("tt-bidir", [2, 3, 3, 2]), ("tt-bidir", [3, 2, 2, 3]),
    ], ids=["tucker", "tt", "tt-uneven", "tt-bidir", "tt-bidir-uneven"])
    def test_storage_is_the_entries_held(self, tmp_path, fmt, ranks):
        """The CSV storage: the entries of the factors (Tucker) or cores (TT)."""
        # extents (3, 9, 3, 3, 3)
        raw = decompose_config(function={"id": "rank_one", "dims": [1, 2, 1, 1, 1]},
                               grid={"points_per_axis": 3}, format=fmt, ranks=ranks)
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        (row,) = _csv_rows(tmp_path / "decompose.csv")
        extents, kept = (3, 9, 3, 3, 3), [int(r) for r in row["ranks"].split("x")]
        if fmt == "tucker":
            expected = sum(n * r for n, r in zip(extents, kept))
        else:
            bonds = [1] + kept + [1]
            expected = sum(bonds[j] * n * bonds[j + 1] for j, n in enumerate(extents))
        assert int(row["storage"]) == expected

    def test_summary_written(self, tmp_path):
        cfg = hz.parse_config(decompose_config(format="tt", ranks=[1, 1]))
        report = hz.run(cfg, tmp_path)
        assert report.summary_path.exists()
        assert "PASS" in report.summary_path.read_text()


class TestDeterminism:
    def test_csv_bytes_identical_across_runs(self, tmp_path):
        raw = {
            "experiment": "compare-formats",
            "function": {"id": "gauss_kernel", "params": {"n": 1, "c": 2.0}},
            "grid": {"points_per_axis": 9},
            "ranks": [3, 3],
        }
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            hz.run(hz.parse_config(raw), out)
            outputs.append((out / "compare_formats.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fmt", hz._FORMAT_NAMES)
    def test_tolerance_decompose_bytes_identical_on_wide_unfoldings(self, tmp_path, fmt):
        # every mode unfolding and the first TT steps are wide: 6 x 1296 is reduced by one QR,
        # 8 x 4096 by the blockwise QR
        for points in (6, 8):
            raw = decompose_config(function={"id": "weighted_exp", "m": 5}, grid={"points_per_axis": points},
                                   format=fmt, ranks=None, tolerance=1e-12)
            outputs = []
            for name in ("a", "b"):
                out = tmp_path / f"{points}{name}"
                assert hz.run(hz.parse_config(raw), out).exit_code == 0
                outputs.append((out / "decompose.csv").read_bytes())
            assert outputs[0] == outputs[1]

    def test_schedule_matches_golden_bytes(self, tmp_path):
        cfg = hz.load_config(DATA / "schedule_tt_weighted.json")
        hz.run(cfg, tmp_path)
        produced = (tmp_path / "schedule.json").read_bytes()
        golden = (DATA / "schedule_tt_weighted_golden.json").read_bytes()
        assert produced == golden

    def test_csv_header_tag(self, tmp_path):
        cfg = hz.parse_config(decompose_config())
        hz.run(cfg, tmp_path)
        first = (tmp_path / "decompose.csv").read_text().splitlines()[0]
        assert first.startswith("# lrtensor-csv v1")


class TestCompareFormats:
    def test_two_mode_collapse(self, tmp_path):
        raw = {
            "experiment": "compare-formats",
            "function": {"id": "brownian_bridge"},
            "grid": {"points_per_axis": 33},
            "ranks": [4, 4],
        }
        report = hz.run(hz.parse_config(raw), tmp_path)
        assert report.exit_code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "compare_formats.csv").read_text().splitlines()
            if not line.startswith("#") and "," in line and "format" not in line
        ]
        errors = {r[0]: float(r[2]) for r in rows}
        assert list(errors) == ["tucker", "tt"]
        assert abs(errors["tucker"] - errors["tt"]) <= 1e-12


class TestLegacyFormatName:
    """`tt-bidir`, a legacy format name, runs `tt`'s sweep and keeps its own name in the rows."""

    @pytest.mark.parametrize("function, grid, ranks", [
        ({"id": "gauss_kernel", "params": {"n": 2}}, 7, None),
        ({"id": "rank_one", "dims": [1, 2, 1, 1, 1]}, 3, [3, 2, 2, 3]),
        ({"id": "weighted_exp", "m": 2}, 6, None),  # one bond: the first step is the whole sweep
        ({"id": "rank_one", "dims": [2]}, 3, []),  # no bond: the weighted values are the one core
    ], ids=["tolerance", "ranks", "two-mode", "one-mode"])
    def test_tt_bidir_writes_tt_cells_under_its_own_name(self, tmp_path, function, grid, ranks):
        rows, summaries = {}, {}
        for fmt in ("tt", "tt-bidir"):
            cfg = tmp_path / f"{fmt}.json"
            cfg.write_text(json.dumps(decompose_config(function=function, grid={"points_per_axis": grid},
                                                       format=fmt, ranks=ranks, tolerance=1e-6)))
            assert cli_main(["decompose", "--config", str(cfg), "--out", str(tmp_path / fmt)]) == 0
            (rows[fmt],) = _csv_rows(tmp_path / fmt / "decompose.csv")
            summaries[fmt] = (tmp_path / fmt / "summary.md").read_text()
        assert rows["tt-bidir"]["format"] == "tt-bidir"
        for column in ("ranks", "error", "bound", "cost", "storage", "within_bound"):
            assert rows["tt-bidir"][column] == rows["tt"][column]
        assert f"- tt-bidir, ranks {rows['tt']['ranks']}: " in summaries["tt-bidir"]
        assert not hasattr(lt, "tt_svd_bidirectional")

    def test_rank_vs_eps_tt_bidir_writes_tt_cells_under_its_own_name(self, tmp_path):
        rows, summaries = {}, {}
        for fmt in ("tt", "tt-bidir"):
            raw = {"experiment": "rank-vs-eps", "function": {"id": "weighted_exp", "m": 4},
                   "grid": {"points_per_axis": 6}, "format": fmt,
                   "scheduler": {"epsilon": 0.5, "k": 1.0, "dims": [1] * 4},
                   "epsilons": [0.5 ** i for i in range(1, 5)]}
            report = hz.run(hz.parse_config(raw), tmp_path / fmt)
            assert report.exit_code == 0
            rows[fmt] = _csv_rows(tmp_path / fmt / "rank_vs_eps.csv")
            summaries[fmt] = report.summary_lines
        assert len(rows["tt"]) == 4
        assert rows["tt-bidir"] == rows["tt"]  # the CSV has no format column
        # weighted_exp is separable: every bond keeps its usable rank 1, so one build serves every epsilon
        assert [row["ranks"] for row in rows["tt"]] == ["1x1x1"] * 4
        assert "- 4 epsilon values, 1 decompositions, format tt-bidir" in summaries["tt-bidir"]
        assert [line.replace("tt-bidir", "tt") for line in summaries["tt-bidir"] if "wall time" not in line] \
            == [line for line in summaries["tt"] if "wall time" not in line]


class TestCLI:
    def test_schedule_command_exit_zero(self, tmp_path):
        code = cli_main(
            [
                "schedule",
                "--config",
                str(DATA / "schedule_tt_weighted.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "schedule.json").exists()

    def test_bad_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "bogus"}))
        code = cli_main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_file_exit_two(self, tmp_path):
        code = cli_main(
            ["experiment", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("out", ["afile", "afile/x"])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(decompose_config()))
        (tmp_path / "afile").write_text("")
        assert cli_main(["decompose", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_cap_exit_two_naming_it(self, tmp_path, capsys, cap):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(decompose_config()))
        assert cli_main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o"), "--cap", cap]) == 2
        assert "--cap" in capsys.readouterr().err

    def test_command_experiment_mismatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(decompose_config()))
        code = cli_main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _probe_rank(spectrum, tol):
    """The rank the former full-rank probe picked: the minimal rank whose
    tail is <= tol times the spectrum's total energy, floored at 1."""
    total = tail_energy(spectrum, 0)
    usable = spectrum.usable_rank()
    for r in range(usable + 1):
        if tail_energy(spectrum, r) <= tol * total:
            return max(r, 1)
    return usable


class TestTolerance:
    @pytest.mark.parametrize("fmt, factorizations", [("tucker", 4), ("tt", 3), ("tt-bidir", 3)])
    def test_decompose_factorizes_once(self, tmp_path, monkeypatch, fmt, factorizations):
        calls = []
        original = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        raw = decompose_config(
            function={"id": "weighted_exp", "m": 4}, grid={"points_per_axis": 5},
            format=fmt, ranks=None, tolerance=1e-6,
        )
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        assert len(calls) == factorizations

    @pytest.mark.parametrize("fmt", hz._FORMAT_NAMES)
    def test_tolerance_above_one_keeps_rank_one(self, tmp_path, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(decompose_config(
            function={"id": "weighted_product", "m": 3}, grid={"points_per_axis": 7},
            format=fmt, ranks=None, tolerance=2.0,
        )))
        assert cli_main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        (row,) = _csv_rows(tmp_path / "o" / "decompose.csv")
        assert set(row["ranks"].split("x")) == {"1"}
        assert row["within_bound"] == "1"

    @pytest.mark.parametrize("seed, extents, weighted", [
        (3, (6, 5, 6, 5), True),
        (4, (5, 6, 4, 6), False),
    ])
    def test_ranks_match_full_rank_probe_rule(self, seed, extents, weighted):
        # a fixed tensor with geometrically decaying rank-one terms, so the
        # tolerance keeps intermediate ranks
        rng = np.random.default_rng(seed)
        values = sum(
            0.3 ** k * np.einsum("i,j,k,l->ijkl", *(rng.standard_normal(n) for n in extents))
            for k in range(8)
        )
        weights = [rng.random(n) + 0.1 for n in extents] if weighted else None
        t = lt.DenseTensor(values, mode_weights=weights)
        tol = 1e-2
        norm = lt.frobenius_norm(t)
        rule = lt.TruncationRule.tail_energy(tol * norm)

        d = lt.hosvd(t, rule)
        probe = lt.hosvd(t, t.shape)
        assert d.ranks == tuple(_probe_rank(sp, tol) for sp in probe.mode_spectra)
        assert lt.tucker_error(t, d) <= math.sqrt(t.ndim) * tol * norm + 1e-10 * norm

        d = lt.tt_svd(t, rule)
        probe_ranks = [_probe_rank(sp, tol) for sp in lt.tt_svd(t).spectra]
        assert all(r <= p for r, p in zip(d.ranks, probe_ranks))
        assert lt.tt_error(t, d) <= math.sqrt(t.ndim - 1) * tol * norm + 1e-10 * norm


def _ridge(m: int, n: int) -> lt.DenseTensor:
    """exp(-(x_1 + ... + x_m)^2) on the n-point trapezoid grid: rank >= 2 in every mode and bond."""
    x, w = axis_rule(lt.GridSpec(n))
    s = sum(np.meshgrid(*[x] * m, indexing="ij"))
    return lt.DenseTensor(np.exp(-s ** 2), mode_weights=[w] * m)


class TestTotalTolerance:
    # Each case read a bound 1.01x to 1.88x tolerance * norm when each step could discard tolerance * norm.
    @pytest.mark.parametrize("m, tolerance", [(3, 1e-3), (4, 1e-4), (4, 1.78e-7), (5, 3e-7)])
    @pytest.mark.parametrize("fmt", hz._FORMAT_NAMES)
    def test_bound_is_within_the_tolerance(self, tmp_path, fmt, m, tolerance):
        t = _ridge(m, 8)
        norm = lt.frobenius_norm(t)
        report = hz.ExperimentReport("decompose", tmp_path)
        ((ranks, err, bound, *_),) = hz._measure(report, t, [(fmt, None)], tolerance)
        assert err <= bound
        assert bound <= tolerance * norm + 1e-10 * norm
        assert min(ranks) >= 2


class TestRankVsEps:
    def test_weighted_tt_runs_dropped_bonds_at_rank_one(self, tmp_path):
        # M = ceil(0.3^(-1/4)) = 2 < m - 1 = 3, so the schedule drops bond 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "rank-vs-eps",
            "function": {"id": "weighted_product", "m": 4},
            "grid": {"points_per_axis": 5},
            "format": "tt",
            "scheduler": {"regime": "tt-weighted", "epsilon": 0.3, "k": 1.0,
                          "dims": [1, 1, 1, 1], "delta": 0.5, "delta_prime": 3.0},
            "epsilons": [0.3],
        }))
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        (row,) = _csv_rows(tmp_path / "o" / "rank_vs_eps.csv")
        ranks = row["ranks"].split("x")
        assert len(ranks) == 3 and ranks[-1] == "1"
        assert row["within_bound"] == "1"


class TestExponents:
    def test_decay_rate_reports_the_theory_exponent_of_a_finite_smoothness(self, tmp_path):
        raw = {"experiment": "decay-rate", "function": {"id": "brownian_bridge"}, "grid": {"points_per_axis": 33}}
        assert _run_cli(tmp_path, raw) == 0
        (row,) = _csv_rows(tmp_path / "o" / "decay_rate.csv")
        assert float(row["theory_exponent"]) == -4.0  # -2k/n - 1, with k = 3/2 on one-dimensional subdomains

    def test_a_missed_exponent_target_exits_one_with_a_fail_line(self, tmp_path):
        assert _run_cli(tmp_path, {**SMALL_CONFIGS["spectrum"], "expected_exponent": 0}) == 1
        assert "- exponent target 0 +- 0.5: FAIL" in (tmp_path / "o" / "summary.md").read_text().splitlines()


class TestWeightOnce:
    @pytest.mark.parametrize("fmt", hz._FORMAT_NAMES)
    def test_tolerance_decompose_weights_once(self, tmp_path, monkeypatch, fmt):
        multiplies = []
        original = core._scale_by_weights

        def counting(values, mode_weights, power):  # an array, or the samples `grids.sample` evaluates block by block
            if power > 0:
                multiplies.append(core._samples(values).extents)
            return original(values, mode_weights, power)

        monkeypatch.setattr(core, "_scale_by_weights", counting)
        raw = decompose_config(
            function={"id": "weighted_exp", "m": 4}, grid={"points_per_axis": 5},
            format=fmt, ranks=None, tolerance=1e-6,
        )
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        assert multiplies == [(5, 5, 5, 5)]


class TestRanksContract:
    # rank_one on dims (1, 1, 2) with 3 points per axis: extents (3, 3, 9)
    RANK_ONE_3_3_9 = {"id": "rank_one", "dims": [1, 1, 2]}

    def _run(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("fmt", ["tt", "tt-bidir"])
    def test_tt_ranks_clamped_in_sweep_order(self, tmp_path, fmt):
        # bond 2 sees a 3 x 9 matrix once bond 1 keeps rank 1; rank_one is separable, so that matrix has
        # one value above the noise floor and keeps min(9 asked, 3 values, 1 usable) = 1
        raw = decompose_config(function=self.RANK_ONE_3_3_9, grid={"points_per_axis": 3},
                               format=fmt, ranks=[1, 9])
        assert self._run(tmp_path, raw) == 0
        (row,) = _csv_rows(tmp_path / "o" / "decompose.csv")
        assert row["ranks"] == "1x1"

    def test_compare_formats_clamps_tt_ranks(self, tmp_path):
        raw = {"experiment": "compare-formats", "function": self.RANK_ONE_3_3_9,
               "grid": {"points_per_axis": 3}, "ranks": [1, 9]}
        assert self._run(tmp_path, raw) == 0
        ranks = {row["format"]: row["ranks"] for row in _csv_rows(tmp_path / "o" / "compare_formats.csv")}
        # two bond ranks leave Tucker to the tolerance; TT's bond 2 keeps its usable rank 1 (see above)
        assert ranks == {"tucker": "1x1x1", "tt": "1x1"}

    def test_tt_too_few_ranks_exit_two(self, tmp_path, capsys):
        raw = decompose_config(format="tt", ranks=[2])
        assert self._run(tmp_path, raw) == 2
        assert "'ranks'" in capsys.readouterr().err

    # compare-formats takes m ranks (Tucker all, TT the leading m - 1) or m - 1 (TT only), never more
    @pytest.mark.parametrize("raw", [
        decompose_config(format="tucker", ranks=[2, 2, 2, 9]),
        dict(decompose_config(ranks=[2, 2, 2, 2]), experiment="compare-formats"),
    ], ids=["decompose", "compare-formats"])
    def test_tucker_too_many_ranks_exit_two(self, tmp_path, capsys, raw):
        assert self._run(tmp_path, raw) == 2
        assert "'ranks'" in capsys.readouterr().err

    def test_clamped_ranks_are_what_the_sweep_keeps(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            extents = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(2, 6))))
            t = lt.DenseTensor(rng.standard_normal(extents))
            wanted = [int(r) for r in rng.integers(1, 30, size=len(extents) - 1)]
            assert lt.tt_svd(t, wanted).ranks == tuple(feasible_ranks(extents, wanted))


# One small valid config per experiment (decompose both by ranks and by
# tolerance); each runs in milliseconds under `--cap 4096`.
WEIGHTED_SCHEDULER = {"epsilon": 0.3, "k": 1.0, "dims": [1, 1, 1], "delta": 0.5, "delta_prime": 3.0}
SMALL_CONFIGS = {
    "decompose": decompose_config(grid={"points_per_axis": 5}),
    "decompose-tol": decompose_config(function={"id": "weighted_exp", "m": 3}, grid={"points_per_axis": 5},
                                      format="tt", ranks=None, tolerance=1e-6),
    "spectrum": {"experiment": "spectrum", "function": {"id": "brownian_bridge"},
                 "grid": {"points_per_axis": 33}, "fit_window": [2, 8],
                 "expected_exponent": -4, "exponent_tol": 0.5},
    "schedule": {"experiment": "schedule", "scheduler": dict(WEIGHTED_SCHEDULER, regime="tt-weighted")},
    "decay-rate": {"experiment": "decay-rate", "function": {"id": "gauss_kernel", "params": {"n": 1, "c": 2.0}},
                   "grid": {"points_per_axis": 33}},
    "rank-vs-eps": {"experiment": "rank-vs-eps", "function": {"id": "weighted_product", "m": 3},
                    "grid": {"points_per_axis": 5}, "format": "tucker",
                    "scheduler": dict(WEIGHTED_SCHEDULER, regime="tucker-weighted"), "epsilons": [0.3, 0.1]},
    "dim-robustness": {"experiment": "dim-robustness", "scheduler": dict(WEIGHTED_SCHEDULER, dims=[1]),
                       "m_values": [2, 4]},
    "compare-formats": {"experiment": "compare-formats", "function": {"id": "rank_one", "m": 3},
                        "grid": {"points_per_axis": 5}, "ranks": [1, 1]},
}

# weighted_exp is separable: each bond's matrix has one value above the noise floor, so every bond keeps
# rank 1 whatever each epsilon asks, and the last four rows reuse the first's decomposition.
SATURATING_RANK_VS_EPS = {"experiment": "rank-vs-eps", "function": {"id": "weighted_exp", "m": 3},
                          "grid": {"points_per_axis": 4}, "format": "tt",
                          "scheduler": {"epsilon": 0.5, "k": 1.0, "dims": [1, 1, 1]},
                          "epsilons": [0.5, 0.25, 0.125, 0.0625, 0.03125]}
SCHEDULER = SMALL_CONFIGS["schedule"]["scheduler"]
BAD_INPUT = [
    ("decompose", {"ranks": ["x"]}, "ranks"),
    ("decompose", {"ranks": 5}, "ranks"),
    ("decompose", {"format": "tt", "ranks": [0, 1]}, "ranks"),
    ("decompose", {"ranks": [0, 1, 1]}, "ranks"),
    ("decompose", {"ranks": [1.5, 1, 1]}, "ranks"),
    ("decompose", {"ranks": [True, 1, 1]}, "ranks"),
    ("decompose-tol", {"tolerance": "x"}, "tolerance"),
    ("decompose-tol", {"tolerance": math.nan}, "tolerance"),
    ("spectrum", {"mode": "x"}, "mode"),
    ("spectrum", {"function": {"id": "weighted_exp", "m": 3}, "grid": {"points_per_axis": 9}, "mode": 7}, "mode"),
    ("decompose", {"cap": "x"}, "cap"),
    ("decompose", {"function": {"id": "rank_one", "m": "x"}}, "function"),
    ("decompose", {"function": {"id": "rank_one", "m": 3, "params": [1]}}, "function"),
    ("decompose", {"function": {"id": "rank_one", "dims": [1, -1]}, "ranks": [1, 1]}, "function"),
    ("decay-rate", {"function": {"id": "gauss_kernel", "params": {"C": 10}}}, "function"),
    ("decompose-tol", {"function": {"id": "weighted_exp", "m": 3, "gamma": [1e308] * 3}}, "function"),
    ("decompose", {"grid": {"points_per_axis": 1000}}, "grid"),
    ("spectrum", {"fit_window": ["a", 2]}, "fit_window"),
    ("spectrum", {"fit_window": [False]}, "fit_window"),
    ("spectrum", {"function": {"id": "rank_one", "m": 2}, "fit_window": None}, "fit_window"),
    ("spectrum", {"expected_exponent": "x"}, "expected_exponent"),
    ("rank-vs-eps", {"epsilons": ["a"]}, "epsilons"),
    ("rank-vs-eps", {"epsilons": [2.0]}, "epsilons"),
    ("decompose", {"epsilons": [2.0]}, "epsilons"),
    ("dim-robustness", {"m_values": ["x"]}, "m_values"),
    ("schedule", {"scheduler": dict(SCHEDULER, dims=5)}, "scheduler"),
    ("schedule", {"scheduler": dict(SCHEDULER, regime="bogus")}, "scheduler"),
    ("schedule", {"scheduler": dict(SCHEDULER, delta=None)}, "scheduler"),
    ("schedule", {"scheduler": None}, "scheduler"),
    ("rank-vs-eps", {"scheduler": dict(WEIGHTED_SCHEDULER, regime="tt-weighted")}, "scheduler"),
    ("rank-vs-eps", {"function": {"id": "rank_one", "m": 3},
                     "scheduler": dict(WEIGHTED_SCHEDULER, regime="tucker-weighted", dims=[3, 3, 3])}, "scheduler"),
    ("rank-vs-eps", {"function": {"id": "rank_one", "m": 3},
                     "scheduler": dict(WEIGHTED_SCHEDULER, regime="tucker-weighted", dims=[1] * 5)}, "scheduler"),
    ("spectrum", {"mode": -1}, "mode"),
    ("decompose-tol", {"tolerence": 0.5}, "tolerence"),
    ("decompose", {"rank": [1, 1]}, "rank"),
    ("decompose", {"function": {"id": "rank_one", "m": 3, "gama": [1.0]}}, "function"),
    ("decompose", {"grid": {"points_per_axis": 5, "rules": "gauss-legendre"}}, "grid"),
    ("schedule", {"scheduler": dict(SCHEDULER, epsilom=0.1)}, "scheduler"),
    ("spectrum", {"function": {"id": "brownian_bridge", "m": 3}}, "function"),
    ("decompose", {"function": {"id": "rank_one", "m": 3, "gamma": [1.0, 0.5, 0.25]}}, "function"),
    ("decompose-tol", {"function": {"id": "weighted_exp", "m": 3, "gamma": [1.0, 0.5, 0.25],
                                    "params": {"k": 7, "delta_prime": 9}}}, "function"),
    ("decompose-tol", {"function": {"id": "weighted_exp", "m": 3, "dims": [1, 1, 1, 1]}}, "function"),
    ("decay-rate", {"function": {"id": "gauss_kernel", "params": {"n": 1.5}}}, "function"),
    ("decay-rate", {"function": {"id": "gauss_kernel", "params": {"n": True}}}, "function"),
    ("decompose-tol", {"function": {"id": "weighted_exp", "m": 3, "params": {"k": True}}}, "function"),
    ("schedule", {"scheduler": dict(SCHEDULER, dims=[1] * 4, gamma=[-1, 0, -0.5, 0.1])}, "scheduler"),
    ("dim-robustness", {"scheduler": dict(WEIGHTED_SCHEDULER, dims=[1], regime="tt-weighted")}, "scheduler"),
    ("dim-robustness", {"scheduler": dict(WEIGHTED_SCHEDULER, dims=[1], gamma=[9, 9, 9])}, "scheduler"),
    ("dim-robustness", {"scheduler": dict(WEIGHTED_SCHEDULER, dims=[1, 5, 7])}, "scheduler"),
    # predicted costs of more than 4300 digits, past Python's int-to-str limit
    ("schedule", {"scheduler": {"regime": "tucker-unweighted", "epsilon": 1e-300, "k": 1.0, "dims": [1] * 20}},
     "scheduler"),
    ("dim-robustness", {"scheduler": dict(WEIGHTED_SCHEDULER, epsilon=1e-300, dims=[1]), "m_values": [2, 40]},
     "scheduler"),
]


def _run_cli(tmp_path, raw, *options):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o"), *options])


class TestInputContract:
    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_small_configs_pass(self, tmp_path, name):
        assert _run_cli(tmp_path, SMALL_CONFIGS[name], "--cap", "4096") == 0

    @pytest.mark.parametrize("name, change, field", BAD_INPUT)
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, name, change, field):
        raw = {**SMALL_CONFIGS[name], **change}
        assert _run_cli(tmp_path, raw) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, change, field, message", [
        ("decompose", {"function": {"m": 3}}, "function", "ValueError: missing required key 'id'"),
        ("decompose", {"grid": {"rule": "gauss-legendre"}}, "grid",
         "ValueError: missing required key 'points_per_axis'"),
        ("schedule", {"scheduler": {k: v for k, v in SCHEDULER.items() if k != "epsilon"}}, "scheduler",
         "ValueError: missing required key 'epsilon'"),
        ("decompose", {"function": {"id": "rank_one", "m": 3, "params": [1]}}, "function",
         "TypeError: expected a JSON object, got [1]"),
        ("decay-rate", {"function": {"id": "gauss_kernel", "params": {"n": 0}}}, "function",
         "ValueError: subdomain dimensions must be >= 1, got (0, 0)"),
        ("decompose", {"function": {"id": "rank_one", "dims": []}}, "function",
         "ValueError: dims must list at least one subdomain"),
        ("schedule", {"function": {"id": "rank_one", "dims": []}}, "function",
         "ValueError: dims must list at least one subdomain"),
        ("schedule", {"scheduler": dict(SCHEDULER, dims=[])}, "scheduler",
         "ValueError: dims must list at least one subdomain"),
        ("dim-robustness", {"scheduler": dict(WEIGHTED_SCHEDULER, dims=[])}, "scheduler",
         "ValueError: dims must list at least one subdomain"),
        ("decompose", {"function": {"id": "brownian_bridge", "dims": [1, 2]}}, "function",
         "ValueError: brownian_bridge is defined on dims (1, 1)"),
        ("decompose", {"function": {"id": "gauss_kernel", "dims": [1, 2]}}, "function",
         "ValueError: gauss_kernel needs two subdomains of equal dimension"),
        ("decompose", {"function": {"id": "weighted_exp", "dims": [2, 1]}}, "function",
         "ValueError: weighted_exp is defined on one-dimensional subdomains"),
        ("decompose", {"function": {"id": "weighted_exp", "m": 3, "gamma": [1.0, 0.5]}}, "function",
         "ValueError: gamma must supply one weight per subdomain"),
    ])
    def test_bad_nested_key_prints_what_is_wrong(self, tmp_path, capsys, name, change, field, message):
        assert _run_cli(tmp_path, {**SMALL_CONFIGS[name], **change}) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: config field '{field}': {message}"]

    def test_config_nested_too_deep_names_the_root(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config field '<root>': RecursionError: maximum recursion depth exceeded")

    def test_null_format_takes_tucker(self, tmp_path):
        assert _run_cli(tmp_path, {**SMALL_CONFIGS["decompose"], "format": None}) == 0
        (row,) = _csv_rows(tmp_path / "o" / "decompose.csv")
        assert row["format"] == "tucker"

    def test_non_finite_samples_print_one_error_line(self, tmp_path):
        raw = {**SMALL_CONFIGS["decompose-tol"], "function": {"id": "weighted_exp", "m": 3, "gamma": [1e308] * 3}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lrtensor.cli", "experiment", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="default"),
        )
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: config field 'function'")

    def test_entries_whose_squares_overflow_get_a_finite_error_and_bound(self, tmp_path):
        raw = {"experiment": "decompose", "function": {"id": "weighted_exp", "m": 2, "gamma": [700, 0]},
               "grid": {"points_per_axis": 4}}
        assert _run_cli(tmp_path, raw) == 0
        (row,) = _csv_rows(tmp_path / "o" / "decompose.csv")
        assert float(row["error"]) <= float(row["bound"]) < math.inf

    @pytest.mark.parametrize("name", ["decompose", "compare-formats", "rank-vs-eps", "rank-vs-eps-saturating"])
    # Above: a tail bound of -1 puts every error above its bound. Below: an error routine that returns 0.
    # Every function here is separable, so its true tails sit at the noise floor, where an error of 0 is
    # right; the tails are stubbed to 1 so that the zero error falls below them.
    @pytest.mark.parametrize("side, tail, error", [
        ("above the bound", -1.0, None), ("below the tail bound", 1.0, 0.0),
    ], ids=["upper", "lower"])
    def test_failed_bound_checks_report_themselves(self, tmp_path, monkeypatch, name, side, tail, error):
        monkeypatch.setattr(lt.TuckerDecomposition, "tail_bound", lambda self: tail)
        monkeypatch.setattr(lt.TTDecomposition, "tail_bound", lambda self: tail)
        if error is not None:
            monkeypatch.setattr(hz, "tucker_error", lambda t, d: error)
            monkeypatch.setattr(hz, "tt_error", lambda t, d: error)
        raw = SATURATING_RANK_VS_EPS if name == "rank-vs-eps-saturating" else SMALL_CONFIGS[name]
        report = hz.run(hz.parse_config(raw, cap=4096), tmp_path)
        rows = _csv_rows(report.csv_paths[0])
        assert report.exit_code == 1
        assert [row["within_bound"] for row in rows] == ["0"] * len(rows)
        assert report.violations == len(rows)
        assert report.summary_path.read_text().count("-> FAIL") == len(rows)
        assert report.summary_path.read_text().count(f"-> FAIL ({side})") == len(rows)
        if name == "rank-vs-eps-saturating":
            assert "- 5 epsilon values, 1 decompositions, format tt" in report.summary_lines

    def test_a_zero_error_below_real_tails_fails_the_lower_side(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hz, "tucker_error", lambda t, d: 0.0)
        monkeypatch.setattr(hz, "tt_error", lambda t, d: 0.0)
        report = hz.run(hz.parse_config(GOLDEN_CONFIGS["compare-formats-abs-diff"]), tmp_path)
        assert report.exit_code == 1
        assert [row["within_bound"] for row in _csv_rows(report.csv_paths[0])] == ["0", "0"]
        assert report.summary_path.read_text().count("-> FAIL (below the tail bound)") == 2


# The decomposing configs of SMALL_CONFIGS, whose functions are separable (every error at the noise floor),
# and two on `abs_diff`, whose ranks leave real tails: one reuses builds, one truncates Tucker at a tolerance.
GOLDEN_CONFIGS = {
    **{name: SMALL_CONFIGS[name] for name in ("decompose", "decompose-tol", "compare-formats", "rank-vs-eps")},
    "rank-vs-eps-abs-diff": {"experiment": "rank-vs-eps", "function": {"id": "abs_diff"},
                             "grid": {"points_per_axis": 9}, "format": "tucker",
                             "scheduler": {"epsilon": 0.3, "k": 1.5, "dims": [1, 1]},
                             "epsilons": [0.3, 0.1, 0.03, 0.01, 0.3]},
    "compare-formats-abs-diff": {"experiment": "compare-formats", "function": {"id": "abs_diff"},
                                 "grid": {"points_per_axis": 9}, "ranks": [4], "tolerance": 3e-2},
}


class TestGoldenRows:
    """Each decomposing experiment writes the committed rows of `tests/data/rows_<config>.csv`.

    A config that reorders, drops or re-derives a row fails. Row order and every column but
    `error` and `bound` match exactly. Those two match to 1e-9 relative, since their last digits depend on
    the BLAS; an error at the noise floor, which is all rounding, to 1e-15 of the tensor's norm.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_rows_match_the_committed_rows(self, tmp_path, name):
        config = hz.parse_config(GOLDEN_CONFIGS[name])
        report = hz.run(config, tmp_path)
        assert report.exit_code == 0
        rows = _csv_rows(report.csv_paths[0])
        golden = _csv_rows(DATA / f"rows_{name.replace('-', '_')}.csv")
        assert [list(row) for row in rows] == [list(row) for row in golden]
        floor = 1e-15 * lt.frobenius_norm(hz._sample_tensor(config))
        for row, expected in zip(rows, golden, strict=True):
            for column, value in expected.items():
                if column in ("error", "bound"):
                    assert float(row[column]) == pytest.approx(float(value), rel=1e-9, abs=floor), column
                else:
                    assert row[column] == value, column


class TestSingularVectorsComputed:
    """No singular vectors of a wide matrix are computed, and spectra compute none."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv", True)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return calls

    @pytest.mark.parametrize("fmt", hz._FORMAT_NAMES)
    def test_tolerance_decompose(self, tmp_path, svd_calls, fmt):
        raw = decompose_config(function={"id": "weighted_exp", "m": 4}, grid={"points_per_axis": 5},
                               format=fmt, ranks=None, tolerance=1e-6)
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        assert svd_calls
        for (rows, cols), compute_uv in svd_calls:
            assert not (compute_uv and cols >= svd.WIDE_RATIO * rows), (rows, cols)

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        original = np.linalg.qr

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        return calls

    @pytest.mark.parametrize("fmt", hz._FORMAT_NAMES)
    def test_wide_unfoldings_reduce_blockwise(self, tmp_path, qr_calls, fmt):
        # every mode unfolding and the first TT steps are 8 x 4096: no QR sees all 4096 rows of a transpose
        raw = decompose_config(function={"id": "weighted_exp", "m": 5}, grid={"points_per_axis": 8},
                               format=fmt, ranks=None, tolerance=1e-12)
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        assert any(len(shape) == 3 for shape in qr_calls), qr_calls  # one stacked QR over blocks of rows
        assert all(shape[-2] < 8 ** 4 for shape in qr_calls), qr_calls

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        return calls

    @pytest.mark.parametrize("name", ["spectrum", "decay-rate"])
    def test_spectrum(self, tmp_path, svd_calls, eig_calls, name):
        assert hz.run(hz.parse_config(SMALL_CONFIGS[name]), tmp_path).exit_code == 0
        # both kernels are symmetric: their values come from eigvalsh, with no SVD and no eigh
        assert svd_calls == []
        assert eig_calls == [("eigvalsh", (33, 33))]

    @pytest.mark.parametrize("shape", [(5, 7), (6, 6)])
    def test_non_symmetric_spectrum(self, svd_calls, eig_calls, shape):
        svd.spectrum(np.random.default_rng(2).standard_normal(shape))
        assert svd_calls == [(shape, False)]
        assert eig_calls == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_field_mutation_keeps_the_exit_code_contract(data):
    name = data.draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    raw = json.loads(json.dumps(SMALL_CONFIGS[name]))
    target = raw
    key = data.draw(st.sampled_from(sorted(raw)))
    if isinstance(raw[key], dict) and data.draw(st.booleans()):
        target = raw[key]  # one field of a nested object
        key = data.draw(st.sampled_from(sorted(target)))
    target[key] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        code = _run_cli(Path(tmp), raw, "--cap", "4096")
        assert code in (0, 1, 2)
        if code == 1:
            assert "FAIL" in (out / "summary.md").read_text()
