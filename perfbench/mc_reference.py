"""Record the Monte-Carlo reference values that the mc_* workloads check against.

    python3 perfbench/mc_reference.py          # rewrites perfbench/mc_reference.json

For every (method, SNR) row of ``mc_concerto`` and ``mc_compare`` this runs
``run_trials`` once with many trials, under the configuration that
``unwrapkit simulate`` builds for the workload's arguments (uniform truth
over +/- K/2), and stores the row's statistics with the standard errors
``run_trials`` computes. The workloads then accept a run's rows when they
lie within a few combined standard errors of these values, whatever the
seed. Re-record only when the estimators' statistical behaviour is meant to
change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("UNWRAP_KIT_THREADS", None)

from unwrapkit import NoiseSpec, TrialConfig, run_trials  # noqa: E402

import workloads  # noqa: E402

#: Reference trials per (workload, SNR point); the seed is fixed.
REFERENCE_TRIALS = {"mc_concerto": 100_000, "mc_compare": 8_000}
REFERENCE_SEED = 20_160_428


def record(name):
    spec = workloads.MC_SPECS[name]
    plan = workloads._plan(spec["k_m"])
    rows = []
    for snr_db in spec["snr_db_list"]:
        cfg = TrialConfig(
            plan=plan,
            noise=NoiseSpec.from_snr_db(snr_db),
            trials=REFERENCE_TRIALS[name],
            seed=REFERENCE_SEED,
            methods=spec["methods"],
        )
        start = time.perf_counter()
        report = run_trials(cfg, sweep_param=snr_db)
        print(f"{name} {snr_db:g} dB: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        for r in report.rows:
            rows.append({
                "method": r.method,
                "snr_db": snr_db,
                "n_trials": r.n_trials,
                "p_fail": r.p_fail_lambda0,
                "p_fail_stderr": r.p_fail_stderr,
                "mse_m2": r.mse_m2,
                "mse_stderr_m2": r.mse_stderr_m2,
                "rmse_m": r.rmse_m,
                "mean_error_m": r.mean_error_m,
                "crb_m2": r.crb_m2,
            })
    return {
        "k_m": spec["k_m"],
        "methods": list(spec["methods"]),
        "snr_db_list": list(spec["snr_db_list"]),
        "seed": REFERENCE_SEED,
        "rows": rows,
    }


def main():
    out = {name: record(name) for name in REFERENCE_TRIALS}
    workloads.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
