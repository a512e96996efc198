"""One workload process: set up, warm up, then run configs in a closed loop.

Started by `run.py` with BLAS/OpenMP threads pinned to 1. It imports
`lrtensor` from the checkout's `src/`, generates the seeded stream,
runs one uncounted warm-up config and reports its set-up time, measured
from the moment the launcher spawned it. In `setup` mode it stops there.
In `measure` mode it then calls `lrtensor.cli.main` on one config after
another (one client, no concurrency) for whole rounds of the stream,
starting another round only while it is expected to end within
`--seconds`. In `trace` mode each config
runs twice, untraced and traced in alternating order, and the spans of
the traced calls are written out once at the end.

Every run is checked from outside by `checks.py`. The result goes to
`<run-dir>/<mode>.json`; stdout is not used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads

MAX_ROUNDS = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program(root: Path):
    """Import `lrtensor` from `root/src`, refusing any other installed copy."""
    src = (root / "src").resolve()
    if not (src / "lrtensor" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/lrtensor not found; run from a checkout root")
    sys.path.insert(0, str(src))
    import lrtensor
    import lrtensor.cli

    if Path(lrtensor.__file__).resolve().parent != src / "lrtensor":
        raise SystemExit(f"error: imported lrtensor from {lrtensor.__file__}, not {src}")
    return lrtensor


def environment() -> dict:
    """What the timings depend on, as seen from inside the workload process."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, TypeError, ValueError):
        pass
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "platform": platform.platform(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_config(lrtensor, config: dict, cfg_dir: Path) -> dict:
    """Run one config through `lrtensor.cli.main` and check its outputs."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = cfg_dir / "config.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True))
    out = cfg_dir / "out"
    argv = ["experiment", "--config", str(cfg_path), "--out", str(out)]
    error = None
    started = time.perf_counter()
    try:
        code = lrtensor.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed config, never a benchmark error
        code = None
        error = f"{type(exc).__name__}: {exc}"
        (cfg_dir / "traceback.txt").write_text(traceback.format_exc())
    wall = time.perf_counter() - started
    failure = error or checks.check_outputs(config, out, code)
    sample = {
        "wall_s": wall,
        "failure": failure,
        "exception": error is not None,
        "bytes_written": _dir_bytes(out) if out.exists() else 0,
        "reported": checks.reported_decompositions(config, out) if failure is None else 0,
    }
    if failure is None:
        shutil.rmtree(cfg_dir)
    return sample


def _closed_loop(rounds, seconds: float, run_round) -> tuple:
    """Run the first round, then more while the next is expected to end in time."""
    started = time.perf_counter()
    done = 0
    for configs in rounds:
        elapsed = time.perf_counter() - started
        if done and elapsed + elapsed / done > seconds:
            break
        run_round(done, configs)
        done += 1
    return done, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="launcher's time.perf_counter() just before the spawn")
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)

    lrtensor = import_program(args.root)
    rounds = workloads.generate_rounds(args.workload, args.seed, MAX_ROUNDS)
    warm = workloads.warmup_config(args.workload, args.seed)
    work = args.run_dir / f"{args.mode}-{os.getpid()}"
    warm_sample = run_config(lrtensor, warm, work / "warmup")
    result = {
        "mode": args.mode,
        "setup_s": time.perf_counter() - args.spawned_at,
        "warmup_failure": warm_sample["failure"],
        "env": environment(),
    }
    if args.mode == "measure":
        samples = []

        def run_round(r, configs):
            for i, config in enumerate(configs):
                samples.append(run_config(lrtensor, config, work / f"r{r}c{i}"))

        result["rounds"], result["loop_s"] = _closed_loop(rounds, args.seconds, run_round)
        result["samples"] = samples
    elif args.mode == "trace":
        result.update(_trace(lrtensor, rounds, args.seconds, work, args.run_dir))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.run_dir / f"{args.mode}.json").write_text(json.dumps(result, sort_keys=True))
    return 0


def _trace(lrtensor, rounds, seconds: float, work: Path, run_dir: Path) -> dict:
    # Imported here so that measuring processes do not carry the tracer's
    # modules in their peak RSS.
    import spans as spanlib

    tracer = spanlib.Tracer(lrtensor, lrtensor.core.DenseTensor)
    pairs = []

    def run_round(r, configs):
        for i, config in enumerate(configs):
            cid = len(pairs)
            pair = {"config": cid}
            order = ("untraced", "traced") if cid % 2 == 0 else ("traced", "untraced")
            for kind in order:
                scope = tracer.traced(cid) if kind == "traced" else contextlib.nullcontext()
                with scope:
                    pair[kind] = run_config(lrtensor, config, work / f"r{r}c{i}-{kind}")
            pairs.append(pair)

    done, loop_s = _closed_loop(rounds, seconds, run_round)
    rows = [s.as_list() for s in tracer.recorder.spans]
    (run_dir / "spans.json").write_text(json.dumps(rows))
    return {"rounds": done, "loop_s": loop_s, "pairs": pairs}


if __name__ == "__main__":
    sys.exit(main())
