"""Seeded benchmark for the twistcat engine: one workload per invocation.

    python3 perfbench/run.py --workload probe-e|reduce-long|orbit-iso \\
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the engine is imported from
`src/`, nothing is installed.  The workload runs in fresh interpreters
started one after another (single thread, no pool): with --trace 0, two
that only set up and one that sets up and then runs the timed phase, so
`setup_s` is the median of three, each corrected for host speed like the
case times (see speed.py); with --trace 1, one traced run (see worker.py).  Prints a JSON report line, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  Exit code 0 when every case passed its checks and, for the
default seed, the result digest matched; 1 when a check failed or a worker
died; 2 when the engine sources or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every worker of one invocation ends within this


def _worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, return (its report, its start time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".cells"):
        return "cells"
    return "count"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="twistcat seeded benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small pools and few cases, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if not (ROOT / "src" / "twistcat" / "__init__.py").is_file():
        print(f"error: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            report, _ = _worker(args, [], deadline)
        else:
            setups, raw_setups = [], []
            for i in range(SETUP_RUNS):
                rep, started = _worker(args, [] if i == SETUP_RUNS - 1 else ["--setup-only"],
                                       deadline)
                raw_setups.append(rep["setup_end"] - started - rep["setup_kernel_s"])
                setups.append(raw_setups[-1] * rep["setup_scale"])
            report = rep
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["cases"], report["failed"]
    digest_ok = report["digest_expected"] in (None, report["digest"])
    if args.trace:
        metrics = {k: _metric(v, _per_layer_unit(k)) for k, v in sorted(report["trace"].items())}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "cases_per_s": _metric(report["cases_per_s"], "1/s"),
            "case_p50_ms": _metric(report["case_p50_ms"], "ms"),
            "case_p90_ms": _metric(report["case_p90_ms"], "ms"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
        }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cases": attempted,
        "fail_frac": _metric(failed / attempted, "ratio"),
        "wall_clock": report["raw"],
        "failures": report["failures"],
        "digest": report["digest"],
        "digest_expected": report["digest_expected"],
        "digest_ok": digest_ok,
        "inputs": report["properties"],
    }
    if not args.trace:
        summary["setup_s_runs"] = setups
        summary["wall_clock"]["setup_s_runs"] = raw_setups
    else:
        summary["spans_file"] = report["spans_file"]
    print(json.dumps(summary))
    correct = failed == 0 and digest_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
