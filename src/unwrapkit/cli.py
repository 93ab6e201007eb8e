"""Command-line front end: subcommand dispatch, config ingestion, CSV emission.

Exit codes: 0 success, 1 usage or config error, 2 invalid or infeasible
plan, 3 numeric failure (degenerate plan or undefined bound mid-run).

Output goes to standard output, or byte-identically to the file named by
``--out``. All tables are plain comma-separated text with a dot decimal
point; plan files written by ``design`` are accepted back by every
subcommand that takes ``--plan``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .core import C_VACUUM_M_S, NoiseSpec, PhaseObservation
from .errors import (
    ConfigError,
    DegeneratePlanError,
    InfeasibleDesignError,
    InvalidArgumentError,
    UndefinedBoundError,
    UnknownEstimatorError,
)
from .estimators import lookup_estimator
from .freqdesign import (
    design_bw_plan,
    design_concerto_plan,
    plan_from_csv,
    plan_to_csv,
    validate_plan,
)
from .simkit import (
    CSV_HEADER,
    TrialConfig,
    mix_seed,
    run_trials,
    snr_threshold,
    sweep_range,
    sweep_snr,
    synthesize_observation,
)
from .theory import crb

CONFIG_KEYS = (
    "f_high_hz",
    "f_low_hz",
    "n_freq",
    "range_k_m",
    "c_m_s",
    "seed",
    "trials",
    "snr_db_list",
    "k_list_m",
    "n_list",
    "methods",
    "truth_policy",
    "truth_m",
    "p_threshold",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def load_config(path: str) -> dict:
    """Parse a flat ``key = value`` config file into a dict.

    Unknown keys are rejected by name. List values are comma-separated.
    """
    text = Path(path).read_text()
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _parse_float_list(text: str) -> list:
    """Comma list of numbers, or an inclusive integer range 'a..b'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(float(lo)), int(float(hi))
            if hi_i < lo_i:
                raise ConfigError(f"empty range {text!r}")
            return [float(v) for v in range(lo_i, hi_i + 1)]
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc


def _pick(args_value, config, key, convert, default=None, required=False):
    if args_value is not None:
        return args_value
    if key in config:
        try:
            return convert(config[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    if required and default is None:
        raise ConfigError(f"missing required key {key!r} (flag or config file)")
    return default


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_bytes(text.encode())
    else:
        sys.stdout.write(text)


def _load_plan(path: str):
    plan = plan_from_csv(Path(path).read_text())
    violations = validate_plan(plan)
    if violations:
        raise InvalidArgumentError(
            f"plan file {path} is invalid: " + "; ".join(violations)
        )
    return plan


def _designed_plan(args, config):
    f_high = _pick(args.f_high, config, "f_high_hz", float, required=True)
    f_low = _pick(args.f_low, config, "f_low_hz", float, required=True)
    n = _pick(args.n, config, "n_freq", int, required=True)
    c = _pick(args.c, config, "c_m_s", float, default=C_VACUUM_M_S)
    pattern = getattr(args, "pattern", "concerto")
    if pattern == "bw":
        return design_bw_plan(f_high, f_high - f_low, n, c)
    k = _pick(args.k, config, "range_k_m", float, required=True)
    return design_concerto_plan(f_high, f_low, n, k, c)


def _plan_for(args, config):
    if getattr(args, "plan", None):
        return _load_plan(args.plan)
    return _designed_plan(args, config)


def _cmd_design(args, config):
    plan = _designed_plan(args, config)
    _emit(plan_to_csv(plan), args.out)
    return 0


def _cmd_estimate(args, config):
    plan = _load_plan(args.plan)
    try:
        phases = np.array([float(p) for p in args.phases.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse phase list: {exc}") from exc
    truth = args.truth_m
    obs = PhaseObservation(phases_rad=phases, plan=plan, truth_m=truth)
    trace = lookup_estimator(args.method)(obs)
    lines = [
        "key,value",
        f"method,{trace.method}",
        f"l_final_m,{trace.l_final_m!r}",
        f"l_coarse_m,{trace.l_coarse_m!r}",
        f"l_residual_m,{trace.l_residual_m!r}",
        f"l_mid_m,{trace.l_mid_m!r}",
        "m_chain," + ";".join(str(v) for v in trace.m_chain),
        "fold_ints," + ";".join(str(v) for v in trace.fold_ints),
        f"delta_m,{'nan' if trace.delta_m is None else repr(trace.delta_m)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_crb(args, config):
    plan = _plan_for(args, config)
    bound = crb(plan, NoiseSpec.from_snr_db(args.snr_db))
    _emit(f"crb_m2,rmse_m\n{bound!r},{math.sqrt(bound)!r}\n", args.out)
    return 0


def _trial_config(args, config, plan, methods):
    trials = _pick(args.trials, config, "trials", int, default=10000)
    seed = _pick(args.seed, config, "seed", int, default=0)
    policy = _pick(args.truth_policy, config, "truth_policy", str, default="uniform")
    truth_m = _pick(args.truth_m, config, "truth_m", float)
    return TrialConfig(
        plan=plan,
        noise=NoiseSpec(0.0),
        trials=trials,
        seed=seed,
        methods=tuple(methods),
        truth_policy=policy,
        truth_m=truth_m,
        truth_halfwidth_m=args.truth_halfwidth,
    )


def _cmd_simulate(args, config):
    plan = _plan_for(args, config)
    methods_text = _pick(args.methods, config, "methods", str, default="concerto,bw,ef")
    methods = [m.strip() for m in methods_text.split(",") if m.strip()]
    snr_text = _pick(args.snr_db_list, config, "snr_db_list", str, required=True)
    snr_list = _parse_float_list(snr_text)
    cfg = _trial_config(args, config, plan, methods)
    report = sweep_snr(cfg, snr_list)
    _emit(report.to_csv(), args.out)
    return 0


def _cmd_sweep_range(args, config):
    f_high = _pick(args.f_high, config, "f_high_hz", float, required=True)
    f_low = _pick(args.f_low, config, "f_low_hz", float, required=True)
    n = _pick(args.n, config, "n_freq", int, required=True)
    c = _pick(args.c, config, "c_m_s", float, default=C_VACUUM_M_S)
    k_text = _pick(args.k_list, config, "k_list_m", str, required=True)
    k_list = _parse_float_list(k_text)
    trials = _pick(args.trials, config, "trials", int, default=10000)
    seed = _pick(args.seed, config, "seed", int, default=0)
    snr_db = args.snr_db if args.snr_db is not None else 5.0
    report = sweep_range(f_high, f_low, n, k_list, snr_db, trials, seed, c)
    for row in report.rows:
        if row.error and not args.quiet:
            print(f"sweep-range: K={row.sweep_param:g} m skipped: {row.error}", file=sys.stderr)
    _emit(report.to_csv(), args.out)
    return 0


def _cmd_threshold(args, config):
    f_high = _pick(args.f_high, config, "f_high_hz", float, required=True)
    f_low = _pick(args.f_low, config, "f_low_hz", float, required=True)
    c = _pick(args.c, config, "c_m_s", float, default=C_VACUUM_M_S)
    k = _pick(args.k, config, "range_k_m", float, required=True)
    n_text = _pick(args.n_list, config, "n_list", str, required=True)
    n_list = [int(v) for v in _parse_float_list(n_text)]
    grid = _parse_float_list(args.snr_grid)
    trials = _pick(args.trials, config, "trials", int, default=10000)
    seed = _pick(args.seed, config, "seed", int, default=0)
    p_th = _pick(args.p_th, config, "p_threshold", float, default=1e-3)
    lines = ["n,threshold_db"]
    for n in n_list:
        result = snr_threshold(f_high, f_low, n, k, grid, trials, seed, p_th, c)
        value = "above_grid" if result.threshold_db is None else repr(result.threshold_db)
        lines.append(f"{n},{value}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args, config):
    if args.n_obs < 1:
        raise ConfigError(f"--n-obs must be >= 1, got {args.n_obs}")
    plan = _plan_for(args, config)
    methods_text = _pick(args.methods, config, "methods", str, default="concerto,bw,ef")
    methods = [m.strip() for m in methods_text.split(",") if m.strip()]
    seed = _pick(args.seed, config, "seed", int, default=0)
    noise = NoiseSpec.from_snr_db(args.snr_db if args.snr_db is not None else 20.0)
    halfwidth = (plan.range_budget_m or plan.umr_m) / 4.0
    observations = []
    for t in range(args.n_obs):
        rng = np.random.default_rng(mix_seed(seed, t))
        observations.append(
            synthesize_observation(rng.uniform(-halfwidth, halfwidth), plan, noise, rng)
        )
    k_cell = repr(plan.range_budget_m) if plan.range_budget_m is not None else "nan"
    lines = ["method,n,k_m,estimates_per_s"]
    for name in methods:
        fn = lookup_estimator(name)
        fn(observations[0])  # warm caches outside the timed region
        start = time.perf_counter()
        for obs in observations:
            fn(obs)
        elapsed = time.perf_counter() - start
        rate = len(observations) / elapsed if elapsed > 0 else math.inf
        lines.append(f"{name},{plan.n},{k_cell},{rate!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")


def _add_design_params(parser):
    parser.add_argument("--f-high", dest="f_high", type=float, default=None)
    parser.add_argument("--f-low", dest="f_low", type=float, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k", type=float, default=None)
    parser.add_argument("--c", type=float, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="unwrapkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a frequency plan and print it as CSV")
    _add_common(p)
    _add_design_params(p)
    p.add_argument("--pattern", choices=("concerto", "bw"), default="concerto")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("estimate", help="run one estimator on a phase list")
    _add_common(p)
    p.add_argument("--plan", required=True, help="plan CSV file (design output)")
    p.add_argument("--phases", required=True, help="comma-separated wrapped phases (rad)")
    p.add_argument("--method", default="concerto")
    p.add_argument("--truth-m", dest="truth_m", type=float, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("crb", help="print the range CRB for a plan and SNR")
    _add_common(p)
    _add_design_params(p)
    p.add_argument("--plan", default=None)
    p.add_argument("--snr-db", dest="snr_db", type=float, required=True)
    p.set_defaults(func=_cmd_crb)

    p = sub.add_parser("simulate", help="Monte-Carlo SNR sweep, CSV per (method, SNR)")
    _add_common(p)
    _add_design_params(p)
    p.add_argument("--plan", default=None)
    p.add_argument("--methods", default=None)
    p.add_argument("--snr-db-list", dest="snr_db_list", default=None,
                   help="comma list or inclusive range a..b (dB)")
    p.add_argument("--truth-policy", dest="truth_policy", default=None)
    p.add_argument("--truth-m", dest="truth_m", type=float, default=None)
    p.add_argument("--truth-halfwidth", dest="truth_halfwidth", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep-range", help="coarse-stage failure probability versus K")
    _add_common(p)
    _add_design_params(p)
    p.add_argument("--k-list", dest="k_list", default=None)
    p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
    p.set_defaults(func=_cmd_sweep_range)

    p = sub.add_parser("threshold", help="SNR threshold scan versus frequency count")
    _add_common(p)
    _add_design_params(p)
    p.add_argument("--n-list", dest="n_list", default=None)
    p.add_argument("--snr-grid", dest="snr_grid", default="0..20",
                   help="comma list or inclusive range a..b (dB), ascending")
    p.add_argument("--p-th", dest="p_th", type=float, default=None)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("bench", help="per-estimate throughput for each method")
    _add_common(p)
    _add_design_params(p)
    p.add_argument("--plan", default=None)
    p.add_argument("--methods", default=None)
    p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
    p.add_argument("--n-obs", dest="n_obs", type=int, default=2000)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 1
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ConfigError, UnknownEstimatorError) as exc:
        print(f"unwrapkit: error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleDesignError,) as exc:
        print(f"unwrapkit: infeasible plan: {exc}", file=sys.stderr)
        return 2
    except InvalidArgumentError as exc:
        print(f"unwrapkit: invalid input: {exc}", file=sys.stderr)
        return 2
    except (DegeneratePlanError, UndefinedBoundError) as exc:
        print(f"unwrapkit: numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"unwrapkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
