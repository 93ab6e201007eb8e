"""Print one SHA-256 digest per group of unwrapkit's outputs.

    python tools/output_digest.py

Two source trees whose digests are equal, on one machine, give the same
output bytes on these inputs. The groups:

* ``traces``: the repr of every ``concerto``, ``bw`` and ``ef`` trace on 160
  observations per plan (N = 51, K = 144 m and 1,440 m, 0-30 dB);
* ``stages``: the stage functions (``coarse_estimate``, ``compensate_phases``,
  ``residual_estimate``, ``fold_integers``, ``ls_refine``,
  ``beat_wavelengths``), ``sigma_e`` and ``crb`` on the same observations and
  plans, and the messages of the stages' and designs' refusals;
* ``simulate``: stdout, stderr and exit code of ``simulate`` on the
  ``mc_concerto`` argv (5,000 trials, seed 11) and the ``mc_compare`` argv
  (2,500 trials), and of one ``sweep-range`` with an infeasible K;
* ``cli``: stdout, stderr and exit code of ``design`` and of ``estimate``
  with each method on designed plan files (N 8-51, K 144 m to 14.4 km), and
  of their refusals.

Uses only the standard library and numpy, imports ``unwrapkit`` from the
``src/`` beside this directory, takes no flags and writes only to a
temporary directory. The digests depend on the platform's floating point
and numpy build: compare two trees on one machine, not against fixed values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from unwrapkit import (  # noqa: E402
    FrequencyPlan,
    NoiseSpec,
    UnwrapKitError,
    beat_wavelengths,
    bw_estimate,
    coarse_estimate,
    compensate_phases,
    concerto_estimate,
    crb,
    design_bw_plan,
    design_concerto_plan,
    ef_estimate,
    fold_integers,
    ls_refine,
    plan_to_csv,
    residual_estimate,
    sigma_e,
    synthesize_observation,
)
from unwrapkit import cli  # noqa: E402

F_HIGH_HZ, F_LOW_HZ, C_M_S = 2.5e9, 2.4e9, 3e8
SNR_DB = (0.0, 10.0, 20.0, 30.0)


def _plan(n, k_m):
    return design_concerto_plan(F_HIGH_HZ, F_LOW_HZ, n, k_m, C_M_S)


def _observations(plan, per_snr, seed):
    """``per_snr`` observations at each of ``SNR_DB``, truths uniform over +/- K/2."""
    rng = np.random.default_rng(seed)
    half = plan.range_budget_m / 2.0
    return [
        synthesize_observation(rng.uniform(-half, half), plan, NoiseSpec.from_snr_db(snr), rng)
        for snr in SNR_DB for _ in range(per_snr)
    ]


def _text(value) -> str:
    """repr of a value; an array as its dtype and bytes, a tuple item by item."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_text, value)) + ")"
    if isinstance(value, np.ndarray):
        return f"{value.dtype}:{value.tobytes().hex()}"
    return repr(value)


def _outcome(fn, *args) -> str:
    """The text of ``fn(*args)``, or the package error it raises, named with
    its message."""
    try:
        return _text(fn(*args))
    except UnwrapKitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _run(argv) -> str:
    """One in-process CLI call: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{argv!r}\nexit {code}\nstdout\n{out.getvalue()}stderr\n{err.getvalue()}"


def traces(plans) -> list:
    return [repr(estimate(obs)) for plan, observations in plans
            for obs in observations for estimate in (concerto_estimate, bw_estimate, ef_estimate)]


def stages(plans) -> list:
    lines = []
    for plan, observations in plans:
        lines.append(_outcome(beat_wavelengths, plan))
        lines += [_outcome(crb, plan, NoiseSpec.from_snr_db(snr)) for snr in SNR_DB]
        for obs in observations:
            l_c, m_chain = coarse_estimate(obs)
            comp = compensate_phases(obs, l_c)
            l_mid = l_c + residual_estimate(comp, plan)
            fold = fold_integers(obs, l_mid)
            lines += [_text((l_c, m_chain, comp, l_mid, fold)),
                      _outcome(residual_estimate, obs.phases_rad, plan),
                      _outcome(ls_refine, obs, fold)]
        obs = observations[0]
        for l_m in (math.nan, math.inf, -math.inf, "3.0", None, np.array([1.0, 2.0])):
            lines += [_outcome(compensate_phases, obs, l_m), _outcome(fold_integers, obs, l_m)]
        lines += [_outcome(residual_estimate, np.zeros(plan.n + 1), plan),
                  _outcome(residual_estimate, np.full(plan.n, math.nan), plan),
                  _outcome(ls_refine, obs, np.full(plan.n, 0.5)),
                  _outcome(ls_refine, obs, np.zeros(plan.n - 1))]
    lines += [_outcome(sigma_e, sigma, ratio)
              for sigma in (0.0, 0.1, 0.3, -0.1) for ratio in (0.5, 1.0, 5.0, 0.0)]
    lines += [_outcome(residual_estimate, np.zeros(3), FrequencyPlan(freqs_hz=(1e9,) * 3))]
    for n in (3, 8, 2, 2.5, "8"):
        for c_m_s in (C_M_S, 0.0, math.nan, math.inf):
            lines += [_outcome(design_concerto_plan, F_HIGH_HZ, F_LOW_HZ, n, 144.0, c_m_s),
                      _outcome(design_bw_plan, F_HIGH_HZ, F_HIGH_HZ - F_LOW_HZ, n, c_m_s)]
    for args in ((F_LOW_HZ, F_HIGH_HZ, 8, 144.0), (F_HIGH_HZ, F_LOW_HZ, 8, 0.5),
                 (F_HIGH_HZ, F_LOW_HZ, 8, math.inf), (F_HIGH_HZ, F_LOW_HZ, 60, 1e9)):
        lines.append(_outcome(design_concerto_plan, *args, C_M_S))
    lines += [_outcome(design_bw_plan, F_HIGH_HZ, 2 * F_HIGH_HZ, 8, C_M_S),
              _outcome(design_bw_plan, F_HIGH_HZ, F_HIGH_HZ - F_LOW_HZ, 40, C_M_S)]
    return lines


def simulate() -> list:
    Path("plan-144.csv").write_text(plan_to_csv(_plan(51, 144.0)))
    Path("plan-1440.csv").write_text(plan_to_csv(_plan(51, 1440.0)))
    return [_run(argv) for argv in (
        ["simulate", "--plan", "plan-144.csv", "--methods", "concerto",
         "--snr-db-list", "18.0,20.0,22.0", "--trials", "5000", "--seed", "11"],
        ["simulate", "--plan", "plan-1440.csv", "--methods", "concerto,bw,ef",
         "--snr-db-list", "10.0,20.0", "--trials", "2500", "--seed", "11"],
        ["sweep-range", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16", "--c", "3e8",
         "--k-list", "2,144,1440", "--snr-db", "10", "--trials", "3000", "--seed", "11"],
    )]


def cli_calls() -> list:
    lines = []
    design = ["design", "--f-high", "2.5e9", "--f-low", "2.4e9", "--c", "3e8"]
    for extra in (["--n", "12", "--k", "144"], ["--n", "6", "--pattern", "bw"],
                  ["--n", "2", "--k", "144"], ["--n", "8", "--k", "144", "--c", "0"],
                  ["--n", "8", "--k", "0.5"], ["--n", "40", "--pattern", "bw"]):
        lines.append(_run(design + extra))
    designs = itertools.product((8, 12, 20, 33, 51), (144.0, 1440.0, 14400.0))
    for seed, (n, k_m) in enumerate(designs, start=1):
        path = f"plan-{n}-{k_m:g}.csv"
        plan = _plan(n, k_m)
        Path(path).write_text(plan_to_csv(plan))
        for obs in _observations(plan, 1, seed)[1::2]:  # 10 and 30 dB
            phases = "--phases=" + ",".join(repr(float(p)) for p in obs.phases_rad)
            for method in ("concerto", "bw", "ef"):
                lines.append(_run(["estimate", "--plan", path, phases, "--method", method]))
            lines.append(_run(["estimate", "--plan", path, phases, "--truth-m", repr(obs.truth_m)]))
    # the refusals, on the last plan (N = 51, K = 14.4 km)
    Path("short.csv").write_text("".join(Path(path).read_text().splitlines(True)[:6]))
    estimate = ["estimate", "--plan", path]
    for args in (["--phases=0.1,0.2"], ["--phases=" + ",".join(["nan"] * 51)],
                 ["--phases=" + ",".join(["4.0"] * 51)], ["--phases=0.1,x"],
                 ["--phases=" + ",".join(["0.1"] * 51), "--method", "nope"]):
        lines.append(_run(estimate + args))
    lines += [_run(["estimate", "--plan", "missing.csv", "--phases=0.1"]),
              _run(["estimate", "--plan", "short.csv", "--phases=0.1,0.2,0.3,0.4"]),
              _run(["estimate", "--plan", path])]
    return lines


def main() -> None:
    plans = [(plan, _observations(plan, 40, int(k_m)))
             for k_m in (144.0, 1440.0) for plan in [_plan(51, k_m)]]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            groups = {"traces": traces(plans), "stages": stages(plans),
                      "simulate": simulate(), "cli": cli_calls()}
        finally:
            os.chdir(home)
    for name, lines in groups.items():
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{name} {digest} ({len(lines)} outputs)")


if __name__ == "__main__":
    main()
