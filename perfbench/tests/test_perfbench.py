"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Smoke runs use --tiny (small pools, a handful of cases), so they check the
plumbing and the output contract, not the figures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import twistcat  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def tiny_run(workload: str, trace: int):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line), json.loads(result_line)


def engine_bindings() -> dict:
    """Every attribute of the engine's modules and of the target classes, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "twistcat" or name.startswith("twistcat."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for module_name, path, *_ in TARGETS:
        if "." in path:
            cls = getattr(sys.modules[module_name], path.split(".")[0])
            for attr, value in vars(cls).items():
                out[(cls.__qualname__, attr)] = value
    return out


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = tiny_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= worker.TINY_MIN_CASES
    assert report["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["digest_expected"] is not None and report["digest_ok"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    report, result = tiny_run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert (ROOT / report["spans_file"]).is_file()


def test_wrong_expected_verdict_counts_as_failure():
    wl = make_workload("orbit-iso", 0, tiny=True)
    cases = list(islice(wl.schedule(), 4))
    assert [c.expect for c in cases] == [True, False, True, False]
    cases[1].expect = True
    out = worker.timed_phase(wl, iter(cases), 0, len(cases), worker.Outcome())
    assert len(out.latencies) == 4
    assert len(out.failures) == 1 and "verdict" in out.failures[0]


def test_traced_run_restores_every_patched_attribute():
    before = engine_bindings()
    wl = make_workload("reduce-long", 0, tiny=True)
    tracer = Tracer()
    tracer.install()
    patched = list(tracer.patches)
    # names the engine imported from elsewhere are patched too
    assert (twistcat.twists, "minimize") in [(o, a) for o, a, _ in patched]
    assert (twistcat.reduce, "untwist") in [(o, a) for o, a, _ in patched]
    worker.timed_phase(wl, islice(wl.schedule(), 4), 0, 4, worker.Outcome(), tracer)
    tracer.uninstall()
    assert tracer.span_count() > 0
    assert tracer.calls["reduce.reduce_to_stable"] == 4
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    after = engine_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_patches_nothing(monkeypatch, capsys):
    def refuse():
        raise AssertionError("an untraced run must not build a tracer")

    monkeypatch.setattr(worker, "Tracer", refuse)
    before = engine_bindings()
    assert worker.main(["--workload", "orbit-iso", "--seed", "0", "--seconds", "0",
                        "--trace", "0", "--tiny"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["failed"] == 0
    after = engine_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_without_engine_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "probe-e", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
