"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs for about one second, untraced and traced. The tests
check that every end-to-end metric is printed with its unit, that no
operation fails at this commit, that every per-layer name is reported or
marked absent with a reason, that the Monte-Carlo output check rejects a
broken estimator stage, and that the benchmark refuses to run without the
package sources. The file is not named ``test_*.py``, so the repository's
own test run does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from unwrapkit import ef_estimate, estimators  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Every per-layer name the benchmark reports: the probe's, which every
#: workload gives, and those that are reported or marked absent with a
#: reason, depending on the layers the workload enters.
LAYER_NAMES = [name for name, _ in probe.METRICS] + list(run.PER_LAYER_SPANS)
OPTIONAL_NAMES = [name for name, _ in probe.OPTIONAL] + [
    name for name, _, _ in tracer.RUN_METRICS]


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _lines(stdout):
    """{metric: (value, unit)} from the human-readable lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 4:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(probe.METRICS) + [
        ("estimators.self_us_per_op", "us"), ("trace.overhead_frac", "fraction")]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_run(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for name, unit in run.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit and metric["value"] > 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    lines = _lines(proc.stdout)
    for name, unit in run.END_TO_END:
        assert lines[name][1] == unit
    assert lines["failed_frac"] == (0.0, "fraction")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = _lines(proc.stdout)
    absent = {
        line.split()[1]: line.split("absent:", 1)[1].strip()
        for line in proc.stdout.splitlines() if " absent: " in line
    }
    for name in LAYER_NAMES:
        assert name in result["metrics"]
    for name in OPTIONAL_NAMES:
        assert name in lines or absent.get(name), name
    assert not set(lines) & set(absent)


def test_all_runs_every_workload():
    proc = _run("all", 0)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    for workload in run.WORKLOADS:
        assert f"{workload} op_us_p50_norm " in proc.stdout


def test_run_metrics_mark_missing_layers_absent():
    present, absent = tracer.run_metrics(tracer.Tracer(), 1)
    for name, _, span_name in tracer.RUN_METRICS:
        if span_name is None:
            assert present[name][0] == 0.0
        else:
            assert absent[name]


def test_ef_candidates_are_counted_from_the_scan():
    plan = workloads._plan(144.0)
    obs = workloads._observations(plan, 40.0, 1, np.random.default_rng(1))[0]
    with probe.counting_ef_candidates() as chunks:
        ef_estimate(obs)
    # every lambda_0 multiple inside +/- K/2 plus one cycle of guard each side
    lam0 = plan.wavelengths_m[0]
    expected = math.floor(72.0 / lam0 + 1.0) - math.ceil(-72.0 / lam0 - 1.0) + 1
    assert sum(chunks) == expected == 1203
    assert np is estimators.np


def _probe_inputs(workload, tmp_path):
    wl = workloads.make(workload, 3, tmp_path)
    wl.setup()
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        wl.traced(tr)()
    finally:
        tr.restore()
    return wl.probe_inputs(tr)


def _no_ref():
    return 1.0


def test_probe_marks_a_removed_stage_function_absent(tmp_path, monkeypatch):
    import unwrapkit

    inputs = _probe_inputs("estimate_stream", tmp_path)
    inputs.observations = inputs.observations[:8]
    inputs.k_pair = inputs.k_pair[:4]
    monkeypatch.delattr(unwrapkit, "residual_estimate")
    monkeypatch.delattr(unwrapkit, "plan_from_csv")
    present, absent = probe.run(inputs, _no_ref, 1.0, size=0.05)
    assert "residual_estimate" in absent["estimators.residual_us"]
    assert "plan_from_csv" in absent["freqdesign.plan_from_csv_us"]
    for name, _ in probe.METRICS:
        if name not in ("estimators.residual_us", "freqdesign.plan_from_csv_us"):
            assert name in present, name


def test_monte_carlo_probe_uses_the_traced_observations(tmp_path):
    inputs = _probe_inputs("mc_concerto", tmp_path)
    assert len(inputs.observations) == tracer.KEEP_OBSERVATIONS
    assert inputs.plans[0] == workloads._plan(144.0)
    assert inputs.cold is None and inputs.why_not["cold"]


def test_cold_probe_plans_are_out_of_the_caches(tmp_path):
    wl = workloads.make("cold_estimate", 3, tmp_path)
    wl.setup()
    for _ in range(40):
        wl.block()
    inputs = wl.probe_inputs(None)
    n = len(wl.plan_obs)
    last = [(wl.cursor - 1 - k) % n for k in range(128)]
    cold_plans = {o.plan for o in inputs.cold}
    assert not cold_plans & {wl.plan_obs[j][0].plan for j in last}
    assert {p for p in inputs.plans} <= {wl.plan_obs[j][0].plan for j in last}


def test_broken_stage_fails_the_monte_carlo_check(tmp_path, monkeypatch):
    from unwrapkit import estimators

    original = estimators.lookup_estimator("concerto")

    def without_final_fit(obs):
        trace = original(obs)
        # the residual-stage range instead of the final fit
        return estimators.EstimateTrace(
            method=trace.method, m_chain=trace.m_chain, l_coarse_m=trace.l_coarse_m,
            l_residual_m=trace.l_residual_m, l_mid_m=trace.l_mid_m,
            fold_ints=trace.fold_ints, l_final_m=trace.l_mid_m, delta_m=None,
        )

    wl = workloads.make("mc_concerto", 3, tmp_path)
    wl.setup()
    monkeypatch.setitem(estimators._REGISTRY, "concerto", without_final_fit)
    failed = sum(wl.block().failed for _ in range(2)) + wl.finish()
    assert failed > 0


def test_intact_stage_passes_the_monte_carlo_check(tmp_path):
    wl = workloads.make("mc_compare", 3, tmp_path)
    wl.setup()
    # one invocation per SNR point
    assert sum(wl.block().failed for _ in range(2)) + wl.finish() == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_results", "__pycache__"))
    proc = _run("mc_concerto", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
