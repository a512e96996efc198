"""Self-tests of the benchmark: `python3 -m pytest bench -q` from the repo root."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import spans as spanlib
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lrtensor():
    return worker.import_program(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_in_the_seed(workload):
    first = workloads.generate_rounds(workload, 7, 2)
    assert first == workloads.generate_rounds(workload, 7, 2)
    assert first != workloads.generate_rounds(workload, 8, 2)
    assert workloads.warmup_config(workload, 7) == workloads.warmup_config(workload, 7)


def test_rounds_hold_every_combination_equally_often():
    (tol,) = workloads.generate_rounds("tol-6d", 3, 1)
    combos = Counter((c["grid"]["points_per_axis"], c["format"], c["function"]["id"]) for c in tol)
    assert len(combos) == 27 and set(combos.values()) == {1}
    (sweep,) = workloads.generate_rounds("rank-sweep", 3, 1)
    regimes = Counter(c["scheduler"]["regime"] for c in sweep)
    assert set(regimes) == set(workloads.REGIMES) and len(set(regimes.values())) == 1
    assert all(6 <= len(c["epsilons"]) <= 8 for c in sweep)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    samples = [{"wall_s": 0.1 + i / 100, "failure": None if i % 4 else "ShapeMismatchError: x"}
               for i in range(40)]
    values, _ = run.end_to_end(samples, [0.5, 0.4, 0.6], 100_000)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    printed = run.select(values, SPEC["end_to_end"])
    assert list(printed) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in printed.values())


def test_tail_counts_failures_above_completed_configs():
    times = [float(i) for i in range(1, 31)] + [math.inf] * 10
    q, value = run.tail_percentile(times, completed=30)
    assert (q, value) == (50, 20.0)
    assert sum(t > value and math.isfinite(t) for t in times) == run.TAIL_BEYOND


def _traced_runs(lrtensor, tmp_path, configs):
    tracer = spanlib.Tracer(lrtensor, lrtensor.core.DenseTensor)
    pairs = []
    for cid, config in enumerate(configs):
        untraced = worker.run_config(lrtensor, config, tmp_path / f"u{cid}")
        with tracer.traced(cid):
            traced = worker.run_config(lrtensor, config, tmp_path / f"t{cid}")
        pairs.append({"config": cid, "untraced": untraced, "traced": traced})
    return tracer, pairs


SMALL_CONFIGS = [
    {"experiment": "decompose", "function": {"id": "weighted_product", "m": 3},
     "grid": {"points_per_axis": 6}, "format": fmt, "tolerance": 1e-6}
    for fmt in workloads.FORMATS
] + [
    {"experiment": "spectrum", "function": {"id": "brownian_bridge"},
     "grid": {"points_per_axis": 64}},
    min((c for c in workloads.generate_rounds("rank-sweep", 1, 1)[0]
         if c["scheduler"]["regime"] == "tucker-unweighted"),
        key=lambda c: (c["grid"]["points_per_axis"], len(c["epsilons"]))),
]


def test_self_times_and_remainder_sum_to_traced_wall_time(lrtensor, tmp_path):
    tracer, pairs = _traced_runs(lrtensor, tmp_path, SMALL_CONFIGS)
    spans = tracer.recorder.spans
    selfs = spanlib.self_times(spans)
    for pair in pairs:
        mine = [s for s in spans if s.config == pair["config"]]
        roots = [s for s in mine if s.parent is None]
        assert [s.name for s in roots] == ["cli.main"]
        wall = pair["traced"]["wall_s"]
        remainder = wall - sum(s.end - s.start for s in roots)
        assert remainder >= 0
        assert math.isclose(sum(selfs[s.id] for s in mine) + remainder, wall,
                            rel_tol=1e-9, abs_tol=1e-12)
        assert all(selfs[s.id] >= -1e-9 for s in mine)


def test_tracer_reaches_imported_names_and_restores_them(lrtensor, tmp_path):
    original = lrtensor.tucker.full_svd
    tracer, _ = _traced_runs(lrtensor, tmp_path, SMALL_CONFIGS[:1])
    assert lrtensor.tucker.full_svd is original
    assert lrtensor.core.DenseTensor.weighted_values.__name__ == "weighted_values"
    assert not hasattr(lrtensor.core.DenseTensor.weighted_values, "__wrapped__")
    by_id = {s.id: s for s in tracer.recorder.spans}
    names = {s.name for s in by_id.values()}
    assert {"cli.main", "harness.run", "grids.sample", "tucker.hosvd", "svd.full_svd",
            "core.weighted_values", "tucker.tucker_error"} <= names
    svd_parents = {by_id[s.parent].name for s in by_id.values() if s.name == "svd.full_svd"}
    assert svd_parents == {"tucker.hosvd"}


def test_per_layer_names_match_benchmark_json(lrtensor, tmp_path):
    tracer, pairs = _traced_runs(lrtensor, tmp_path, SMALL_CONFIGS)
    rows = json.loads(json.dumps([s.as_list() for s in tracer.recorder.spans]))
    values, _ = run.per_layer([spanlib.Span.from_list(r) for r in rows], pairs)
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert set(declared) <= set(values)
    assert list(run.select(values, SPEC["per_layer"])) == declared
    # Each tolerance config runs a probe and a final decomposition and
    # reports one; rank-vs-eps reports each of its decompositions.
    sweep = len(SMALL_CONFIGS[-1]["epsilons"])
    assert values["harness.decomp_useful_ratio"] == pytest.approx((3 + sweep) / (6 + sweep))


def _write_decompose(out: Path, row: str) -> None:
    out.mkdir(parents=True)
    (out / "summary.md").write_text("# decompose\n")
    (out / "decompose.csv").write_text(
        "# lrtensor-csv v1 experiment=decompose\n"
        "format,ranks,error,bound,cost,storage,within_bound\n" + row + "\n")


@pytest.mark.parametrize("row, ok", [
    ("tucker,2x2x2,1.0e-08,2.0e-08,8,36,1", True),
    ("tucker,2x2x2,3.0e-08,2.0e-08,8,36,1", False),
    ("tucker,2x2x2,1.0e-08,2.0e-08,8,36,0", False),
    ("tucker,2x2x7,1.0e-08,2.0e-08,8,36,1", False),
    ("tucker,2x2,1.0e-08,2.0e-08,8,36,1", False),
    ("tucker,2xa,1.0e-08,2.0e-08,8,36,1", False),
])
def test_outside_checks_reject_bad_decompose_rows(tmp_path, row, ok):
    config = SMALL_CONFIGS[0]
    out = tmp_path / "out"
    _write_decompose(out, row)
    assert (checks.check_outputs(config, out, 0) is None) == ok
    assert checks.check_outputs(config, out, 1) is not None
