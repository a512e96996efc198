"""Seeded benchmark of `lrtensor experiment`: sample -> factorize -> error.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tol-6d --seed 1 --seconds 30 --trace 0

With `--trace 0` it spawns five fresh workload processes (BLAS/OpenMP
threads pinned to 1): four only set up, the fifth sets up and then runs
whole rounds of the seeded stream through `lrtensor.cli.main` in a
closed loop, one client, for about `--seconds` (at least one round). It
prints every end-to-end metric of `BENCHMARK.json` with its unit and
sample count. With `--trace 1` one
process runs each config untraced and traced (spans per module, see
`spans.py`) and it prints every per-layer metric instead. Every config
is checked from outside (`checks.py`); a config that exits nonzero,
raises or fails a check counts as failed and is never retried.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with the
environment, goes to `.bench_out/<run>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 5
TAIL_BEYOND = 10
DEADLINE_S = 170.0
PINNED_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                       "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
PEAK_SPANS = {
    "grids.sample_peak_x": "grids.sample",
    "tucker.hosvd_peak_x": "tucker.hosvd",
    "tucker.error_peak_x": "tucker.tucker_error",
    "train.tt_svd_peak_x": "train.tt_svd",
    "train.error_peak_x": "train.tt_error",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text())


def spawn_worker(root: Path, run_dir: Path, args, mode: str, deadline: float) -> dict:
    """Start one fresh workload process, wait for it, return its result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at), "--run-dir", str(run_dir), "--root", str(root)]
    log = run_dir / f"{mode}.stderr"
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise BenchError(f"{mode} process ended with {code}: {log.read_text()[-2000:]}")
    return json.loads((run_dir / f"{mode}.json").read_text())


def tail_percentile(times: list, completed: int) -> tuple:
    """(q, value): the highest percentile with TAIL_BEYOND completed samples beyond it.

    `times` holds every attempted config, failed ones as +inf, so failures
    rank above every completed config. Nearest-rank percentiles; the
    value is always a completed config's time.
    """
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank <= completed - TAIL_BEYOND:
            return q, ordered[rank - 1]
    raise BenchError(f"{completed} completed configs: a tail needs more than {TAIL_BEYOND}")


def end_to_end(samples: list, setups: list, peak_rss_kb: int) -> tuple:
    """Metric values and, per metric, a note with its sample count."""
    ok = [s["failure"] is None for s in samples]
    n, completed = len(samples), sum(ok)
    times = [s["wall_s"] if good else math.inf for s, good in zip(samples, ok)]
    q, tail = tail_percentile(times, completed)
    values = {
        "configs_per_s": completed / sum(s["wall_s"] for s in samples),
        "config_s_p50": statistics.median(times),
        "config_s_tail": tail,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_frac": completed / n,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "configs_per_s": f"{completed} verified / wall of {n} attempted",
        "config_s_p50": f"n={n}, {n - completed} failed counted as +inf",
        "config_s_tail": f"p{q} of n={n}, {completed - math.ceil(q * n / 100)} completed beyond",
        "peak_rss_mb": "ru_maxrss of the measuring process, n=1",
        "ok_frac": f"failed_frac {(n - completed) / n:.4f} = {n - completed}/{n}",
        "setup_s": f"median of n={len(setups)} fresh processes",
    }
    return values, notes


def per_layer(spans: list, pairs: list) -> tuple:
    """Per-layer metric values from the traced configs, with notes."""
    n = len(pairs)
    selfs = spanlib.self_times(spans)
    self_sum, calls = defaultdict(float), Counter()
    for s in spans:
        self_sum[s.name] += selfs[s.id]
        calls[s.name] += 1
    svd = spanlib.svd_counts(spans)
    decomps = spanlib.outermost_decompositions(spans)
    kept = sum(s.attrs["kept"] for s in decomps)
    computed = sum(s.attrs["computed"] for s in decomps)
    reported = sum(p["traced"]["reported"] for p in pairs)
    traced = sum(p["traced"]["wall_s"] for p in pairs)
    untraced = sum(p["untraced"]["wall_s"] for p in pairs)
    values = {
        "svd.ops_computed": svd["ops"] / n,
        "svd.bytes_computed": svd["bytes"] / n,
        "svd.kept_ratio": kept / computed if computed else 0.0,
        "svd.repeat_frac": svd["repeats"] / svd["calls"] if svd["calls"] else 0.0,
        "harness.decomp_useful_ratio": reported / len(decomps) if decomps else 0.0,
        "harness.bytes_written": sum(p["traced"]["bytes_written"] for p in pairs) / n,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    for metric, name in PEAK_SPANS.items():
        values[metric] = spanlib.peak_ratio(spans, name)
    for name in calls:
        values[f"{name}.self_s"] = self_sum[name] / n
        values[f"{name}.calls"] = calls[name] / n
    notes = {
        "svd.kept_ratio": f"{kept} kept / {computed} computed triplets, {len(decomps)} decompositions",
        "svd.repeat_frac": f"{svd['repeats']} / {svd['calls']} SVD calls",
        "harness.decomp_useful_ratio": f"{reported} reported / {len(decomps)} run",
        "trace.overhead_frac": f"traced {traced:.3f} s vs untraced {untraced:.3f} s over n={n} pairs",
    }
    return values, notes


def select(values: dict, declared: list) -> dict:
    """The declared metrics, in declared order; spans that never ran read 0."""
    out = {}
    for m in declared:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith((".self_s", ".calls")):
            value = 0.0
        else:
            raise BenchError(f"no rule computes the declared metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run(args, root: Path) -> dict:
    spec = load_spec(root)
    if not (root / "src" / "lrtensor" / "__init__.py").is_file():
        raise BenchError(f"{root}/src/lrtensor not found; run from the root of a checkout")
    deadline = time.perf_counter() + DEADLINE_S
    run_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    if args.trace:
        res = spawn_worker(root, run_dir, args, "trace", deadline)
        spans = [spanlib.Span.from_list(row)
                 for row in json.loads((run_dir / "spans.json").read_text())]
        pairs = res["pairs"]
        counted = [p["traced"] for p in pairs]
        samples = counted + [p["untraced"] for p in pairs]
        values, notes = per_layer(spans, pairs)
        metrics = select(values, spec["per_layer"])
        warmups = [res["warmup_failure"]]
    else:
        setups = [spawn_worker(root, run_dir, args, "setup", deadline)
                  for _ in range(SETUP_PROCESSES - 1)]
        res = spawn_worker(root, run_dir, args, "measure", deadline)
        samples = counted = res["samples"]
        values, notes = end_to_end(samples, [r["setup_s"] for r in setups + [res]],
                                   res["peak_rss_kb"])
        metrics = select(values, spec["end_to_end"])
        warmups = [r["warmup_failure"] for r in setups + [res]]
    attempted = len(counted)
    failed = sum(s["failure"] is not None for s in counted)
    failures = Counter(s["failure"].split(":")[0] for s in counted if s["failure"])
    # A crash is a failed config; an output that fails a check, a nonzero
    # exit or a failed warm-up makes the whole run incorrect.
    wrong = [s["failure"] for s in samples if s["failure"] and not s["exception"]]
    wrong += [w for w in warmups if w]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, 1 process",
        "rounds": res["rounds"], "loop_s": res["loop_s"],
        "threads_pinned_by_launcher": PINNED_THREADS, "env": res["env"],
        "metrics": metrics, "notes": notes, "failure_kinds": dict(failures),
        "incorrect": wrong[:20],
        "all_span_metrics": values if args.trace else None,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} configs attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f}), "
          f"{res['rounds']} rounds in {res['loop_s']:.1f} s; "
          f"closed loop, 1 client, threads pinned to 1 by the launcher")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for kind, count in sorted(failures.items()):
        print(f"  failures: {count} x {kind}")
    for reason in wrong[:5]:
        print(f"  incorrect: {reason}")
    print("env: " + json.dumps({**record["env"], "threads_pinned_by_launcher": PINNED_THREADS},
                               sort_keys=True))
    print(f"record: {run_dir / 'result.json'}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args, Path.cwd().resolve())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
