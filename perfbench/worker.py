"""One workload in one fresh interpreter; started by run.py, one at a time.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--tiny]

Prints one JSON line.  `setup_end` is the CLOCK_MONOTONIC reading taken just
before the first timed case, so the parent can measure set-up from the
moment it started this process; `setup_kernel_s` is the part of that spent
in host-speed samples and `setup_scale` the correction they give.  With --trace 1 the set-up is traced, then
the timed phase runs once without wrappers for half of --seconds and once
more, over exactly the same cases, with them; the second pass gives the
per-layer metrics and the ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from speed import WINDOW, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

DEFAULT_SEED = 0
DIGEST_CASES = 100  # the digest covers the first this many cases of the schedule
MIN_CASES = 100  # so that p90 has at least ten samples above it
TINY_MIN_CASES = 6
TIMED_LIMIT_S = 120.0  # hard stop for the timed phase, whatever --seconds says


class Outcome:
    """What a timed phase did: cases, latencies, failures, first results per input."""

    def __init__(self):
        self.cases = []
        self.latencies: list[float] = []  # wall time of each case
        self.starts: list[float] = []  # perf_counter at the start of each case
        self.work_s = 0.0  # sum of latencies
        self.failures: list[str] = []
        self.digest_items: list = []
        self.seen: dict = {}  # (stratum, item id, variant) -> digest item
        self.props: dict = {}  # (stratum, item id) -> input properties
        self.speed = Speedometer()

    def corrected(self) -> list[float]:
        """Latencies at the reference host speed (see speed.py)."""
        return [dt * self.speed.scale_at(t) for dt, t in zip(self.latencies, self.starts)]


def timed_phase(wl, cases, seconds: float, min_cases: int, outcome: Outcome,
                tracer: Tracer | None = None, limit_s: float = TIMED_LIMIT_S) -> Outcome:
    """Run whole rounds of cases until `seconds` of engine time and `min_cases` cases are done.

    Stopping only at the end of a round keeps every run's size mix the same.
    Only the engine call is timed.  The first result for each input and
    variant goes through the workload's exact checks; a repeat must give
    the same digest item as the first.
    """
    wall_end = time.monotonic() + limit_s
    for case in cases:
        if time.monotonic() > wall_end:
            break
        if tracer is not None:
            tracer.case_id = case.case_id
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = wl.run(case)
        except Exception as exc:  # a case that raises is a failed case, not a crashed run
            result = None
            error = f"case {case.case_id}: {type(exc).__name__}: {exc}"
        else:
            error = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        outcome.cases.append(case)
        outcome.latencies.append(dt)
        outcome.work_s += dt
        outcome.starts.append(t0)
        outcome.speed.after_case(dt)
        item = None
        if error is None:
            error, item = _check(wl, case, result, outcome)
        if error is not None:
            outcome.failures.append(error)
        if len(outcome.digest_items) < DIGEST_CASES:
            outcome.digest_items.append(item)
        if case.round_end and len(outcome.latencies) >= min_cases and outcome.work_s >= seconds:
            break
    return outcome


def _check(wl, case, result, outcome: Outcome):
    """(failure description or None, digest item) for one result."""
    key = (case.stratum, case.item_id, case.variant)
    try:
        item = wl.digest_item(case, result)
        if key in outcome.seen:
            if item != outcome.seen[key]:
                return f"case {case.case_id}: result differs from the earlier run of its input", None
            return None, item
        problem = wl.check(case, result)
        if problem is not None:
            return f"case {case.case_id}: {problem}", None
        outcome.seen[key] = item
        if (case.stratum, case.item_id) not in outcome.props:
            outcome.props[(case.stratum, case.item_id)] = wl.properties(case, result)
    except Exception as exc:  # a check that cannot run counts against the case
        return f"case {case.case_id}: check raised {type(exc).__name__}: {exc}", None
    return None, item


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def expected_digest(workload: str, seed: int, tiny: bool) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(f"{workload}:tiny" if tiny else workload)


def input_properties(outcome: Outcome) -> dict:
    """Size properties of the inputs, weighted by how often each input ran."""
    rows = [outcome.props[(c.stratum, c.item_id)] for c in outcome.cases
            if (c.stratum, c.item_id) in outcome.props]
    if not rows:
        return {}
    gens = sorted(r["gens"] for r in rows)
    out = {
        "gens_p50": statistics.median(gens),
        "gens_max": gens[-1],
        "hom0_basis_max": max(r["hom0_basis"] for r in rows),
        "distinct_inputs": len(outcome.props),
    }
    for flag in ("zero_steps", "equal_after_minimize"):
        if flag in rows[0]:
            out[f"{flag}_frac"] = sum(r[flag] for r in rows) / len(rows)
    return out


def latency_summary(latencies: list[float]) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "work_s": sum(latencies),
        "cases_per_s": len(latencies) / sum(latencies),
        "case_p50_ms": 1000 * statistics.median(latencies),
        "case_p90_ms": 1000 * deciles[8],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    min_cases = TINY_MIN_CASES if args.tiny else MIN_CASES

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    setup_speed = Speedometer()
    t0 = time.perf_counter()
    wl = make_workload(args.workload, args.seed, args.tiny, setup_speed.tick)
    setup_work_s = time.perf_counter() - t0
    report: dict = {"setup_end": time.monotonic(), "setup_kernel_s": setup_speed.kernel_s()}
    for _ in range(WINDOW):
        setup_speed.sample()
    report["setup_scale"] = setup_speed.scale()
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if tracer is not None:
        tracer.active = False
        setup_metrics = tracer.layer_metrics(setup_work_s, prefix="setup.")
        setup_metrics["setup.base_s"] = setup_work_s
        tracer.uninstall()
        tracer.reset_counts()
        plain = timed_phase(wl, wl.schedule(), args.seconds / 2, min_cases, Outcome(),
                            limit_s=TIMED_LIMIT_S / 2)
        tracer.install()
        traced = Outcome()
        traced.seen, traced.props = plain.seen, plain.props
        timed_phase(wl, iter(plain.cases), 0, len(plain.cases), traced, tracer,
                    limit_s=TIMED_LIMIT_S / 2)
        tracer.uninstall()
        outcome = plain
        outcome.failures += traced.failures
        metrics = tracer.metrics()
        metrics.update(tracer.layer_metrics(traced.work_s))
        metrics.update(setup_metrics)
        metrics["trace.base_s"] = traced.work_s
        metrics["trace.overhead_frac"] = sum(traced.corrected()) / sum(plain.corrected()) - 1
        metrics["trace.spans"] = tracer.span_count()
        report["trace"] = metrics
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        outcome = timed_phase(wl, wl.schedule(), args.seconds, min_cases, Outcome())
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report.update(latency_summary(outcome.corrected()))
    report["raw"] = latency_summary(outcome.latencies)
    report["cases"] = len(outcome.latencies)
    report["failed"] = len(outcome.failures)
    report["failures"] = outcome.failures[:10]
    report["properties"] = input_properties(outcome)
    report["digest"] = digest(outcome.digest_items)
    report["digest_expected"] = expected_digest(args.workload, args.seed, args.tiny)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
