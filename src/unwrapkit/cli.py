"""Command-line front end: subcommand dispatch, config ingestion, CSV emission.

Exit codes: 0 success, 1 usage or config error, 2 invalid or infeasible
plan, 3 numeric failure (degenerate plan or undefined bound mid-run).

Output goes to standard output, or byte-identically to the file named by
``--out``. All tables are plain comma-separated text with a dot decimal
point; plan files written by ``design`` are accepted back by every
subcommand that takes ``--plan``.

Every subcommand is one entry of ``SUBCOMMANDS``. ``main`` builds the one
parser of all six on its first call and reuses it on later calls. When the
first argument names a subcommand, ``main`` hands the rest straight to that
subcommand's parser, which the top-level parser holds, and reports the
arguments it leaves over as the top-level parser would; any other argv
goes through the top-level parser. Reuse is safe because parsing never
changes a parser: every parse fills a new namespace, ``_resolve`` writes
only to that namespace, and help and usage text read the terminal width
each time they are formatted.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .core import C_VACUUM_M_S, NoiseSpec, PhaseObservation
from .errors import (
    ConfigError,
    DegeneratePlanError,
    InfeasibleDesignError,
    InvalidArgumentError,
    UndefinedBoundError,
    UnknownEstimatorError,
)
from .estimators import _EF_MAX_CANDIDATES, lookup_estimator, plan_constants
from .freqdesign import (
    design_bw_plan,
    design_concerto_plan,
    plan_from_csv,
    plan_to_csv,
    validate_plan,
)
from .simkit import (
    TrialConfig,
    snr_threshold,
    sweep_range,
    sweep_snr,
)
from .theory import crb

#: Every setting a config file may give: flag dest -> (config key, converter,
#: default, help). A flag overrides the file and the file overrides the
#: default; None means no default, and ``_require`` names the settings a
#: subcommand cannot run without. The flag of dest ``x_y`` is ``--x-y``.
SETTINGS = {
    "f_high": ("f_high_hz", float, None, "highest frequency f_0 (Hz)"),
    "f_low": ("f_low_hz", float, None, "lowest frequency (Hz)"),
    "n": ("n_freq", int, None, "number of frequencies N"),
    "k": ("range_k_m", float, None, "range budget K (m)"),
    "c": ("c_m_s", float, C_VACUUM_M_S, "propagation speed (m/s)"),
    "seed": ("seed", int, 0, "master seed"),
    "trials": ("trials", int, 10000, "Monte-Carlo trials per point"),
    "snr_db_list": ("snr_db_list", str, None, "SNR points (dB): comma list or range a..b"),
    "k_list": ("k_list_m", str, None, "range budgets (m): comma list or range a..b"),
    "n_list": ("n_list", str, None, "frequency counts: comma list or range a..b"),
    "methods": ("methods", str, "concerto,bw,ef", "comma list of estimator names"),
    "truth_m": ("truth_m", float, None, "true range (m); simulate fixes every trial at it"),
    "p_th": ("p_threshold", float, 1e-3, "target P(|error| > lambda_0)"),
}

CONFIG_KEYS = tuple(key for key, _, _, _ in SETTINGS.values())

#: A long flag without ``=value``, and the start of a negative number or
#: number list such as ``-0.3,0.1``, ``-1e3``, ``-inf``, ``-Infinity`` or
#: ``-nan`` (``float`` reads these words in any case).
_BARE_FLAG = re.compile(r"--[\w-]+")
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|(inf(inity)?|nan)\b)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_utf8(path: str, error) -> str:
    try:  # bytes: text mode's newline translation changes nothing splitlines sees
        with open(path, "rb", buffering=0) as f:
            return f.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def load_config(path: str) -> dict:
    """Parse a flat ``key = value`` config file into a dict.

    Unknown keys are rejected by name. List values are comma-separated.
    """
    out = {}
    for lineno, raw in enumerate(_read_utf8(path, ConfigError).splitlines(), start=1):
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


def _resolve(args, config: dict) -> None:
    """Fill each setting the parsed subcommand defines and no flag gave."""
    for dest in SUBCOMMANDS[args.command][2]:
        if getattr(args, dest) is not None:
            continue
        key, convert, default, _ = SETTINGS[dest]
        if key in config:
            try:
                default = convert(config[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        setattr(args, dest, default)


def _require(args, *dests) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            key = SETTINGS[dest][0]
            raise ConfigError(f"missing required key {key!r} (flag or config file)")


#: Most points an 'a..b' list range may hold; checked before the list is built.
MAX_RANGE_POINTS = 10_000


def _integer(text: str) -> int:
    """``text`` as an int; a non-integral number is refused, not truncated."""
    value = float(text)
    if int(value) != value:  # int() refuses inf and nan first
        raise ValueError(f"{text.strip()!r} is not an integer")
    return int(value)


def _parse_list(args, dest: str, read=float) -> list:
    """Setting ``dest`` of ``args``: a comma list of numbers read by ``read``,
    or an inclusive integer range 'a..b'. An empty list is refused, and so is
    a non-integral range bound, not truncated.
    """
    text = getattr(args, dest).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = _integer(lo), _integer(hi)
            if hi_i < lo_i:
                raise ConfigError(f"empty range {text!r}")
            if hi_i - lo_i + 1 > MAX_RANGE_POINTS:
                raise ConfigError(
                    f"range {text!r} has {hi_i - lo_i + 1} points, more than {MAX_RANGE_POINTS}"
                )
            return [read(v) for v in range(lo_i, hi_i + 1)]
        values = [read(part) for part in text.split(",") if part.strip()]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"--{dest.replace('_', '-')} is an empty list: {text!r}")
    return values


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "wb") as f:
            f.write(text.encode())
    else:
        sys.stdout.write(text)


def _load_plan(path: str):
    plan = plan_from_csv(_read_utf8(path, InvalidArgumentError))
    violations = validate_plan(plan)
    if violations:
        raise InvalidArgumentError(
            f"plan file {path} is invalid: " + "; ".join(violations)
        )
    return plan


def _plan_for(args):
    """The ``--plan`` file if one is given, else the plan the design settings make."""
    if getattr(args, "plan", None):
        return _load_plan(args.plan)
    _require(args, "f_high", "f_low", "n")
    if getattr(args, "pattern", "concerto") == "bw":
        return design_bw_plan(args.f_high, args.f_high - args.f_low, args.n, args.c)
    _require(args, "k")
    return design_concerto_plan(args.f_high, args.f_low, args.n, args.k, args.c)


def _cmd_design(args):
    return plan_to_csv(_plan_for(args))


def _cmd_estimate(args):
    plan = _load_plan(args.plan)
    try:
        phases = list(map(float, args.phases.split(",")))
    except ValueError as exc:
        raise ConfigError(f"cannot parse phase list: {exc}") from exc
    obs = PhaseObservation(phases_rad=phases, plan=plan, truth_m=args.truth_m)
    trace = lookup_estimator(args.method)(obs)
    lines = [
        "key,value",
        f"method,{trace.method}",
        f"l_final_m,{trace.l_final_m!r}",
        f"l_coarse_m,{trace.l_coarse_m!r}",
        f"l_residual_m,{trace.l_residual_m!r}",
        f"l_mid_m,{trace.l_mid_m!r}",
        "m_chain," + ";".join(map(str, trace.m_chain)),
        "fold_ints," + ";".join(map(str, trace.fold_ints)),
        f"delta_m,{'nan' if trace.delta_m is None else repr(trace.delta_m)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_crb(args):
    bound = crb(_plan_for(args), NoiseSpec.from_snr_db(args.snr_db))
    return f"crb_m2,rmse_m\n{bound!r},{math.sqrt(bound)!r}\n"


#: ``simulate`` notes on stderr, before its first SNR point, when ``ef`` is
#: among its methods and scans more than this many candidates per trial (and
#: no more than ``ef`` accepts).
EF_NOTICE_CANDIDATES = 10**6


def _ef_notice(cfg: TrialConfig, points: int) -> None:
    """The stderr note of a long ``ef`` scan; its candidate count is the one
    :func:`unwrapkit.estimators.ef_estimate` scans at the plan's range K."""
    if "ef" not in cfg.methods:
        return
    k = plan_constants(cfg.plan)
    half = k.search_range_m / (2.0 * k.lam0)
    if not math.isfinite(half):
        return  # ef_estimate refuses such a K
    candidates = math.floor(half + 1.0) - math.ceil(-half - 1.0) + 1
    if EF_NOTICE_CANDIDATES < candidates <= _EF_MAX_CANDIDATES:
        print(f"simulate: ef scans {candidates:,} candidates per trial; trials per SNR "
              f"point: {cfg.trials:,}, SNR points: {points} (--methods concerto,bw leaves "
              "ef out)", file=sys.stderr)


def _cmd_simulate(args):
    plan = _plan_for(args)
    _require(args, "snr_db_list")
    snr_list = _parse_list(args, "snr_db_list")
    cfg = TrialConfig(
        plan=plan,
        noise=NoiseSpec(0.0),
        trials=args.trials,
        seed=args.seed,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        truth_m=args.truth_m,
        truth_halfwidth_m=args.truth_halfwidth,
    )
    _ef_notice(cfg, len(snr_list))
    return sweep_snr(cfg, snr_list).to_csv()


def _cmd_sweep_range(args):
    _require(args, "f_high", "f_low", "n", "k_list")
    k_list = _parse_list(args, "k_list")
    report = sweep_range(
        args.f_high, args.f_low, args.n, k_list, args.snr_db, args.trials, args.seed, args.c
    )
    for row in report.rows:
        if row.error and not args.quiet:
            print(f"sweep-range: K={row.sweep_param:g} m skipped: {row.error}", file=sys.stderr)
    return report.to_csv()


def _cmd_threshold(args):
    _require(args, "f_high", "f_low", "k", "n_list")
    n_list = _parse_list(args, "n_list", _integer)
    grid = _parse_list(args, "snr_grid")
    lines = ["n,threshold_db"]
    for n in n_list:
        result = snr_threshold(
            args.f_high, args.f_low, n, args.k, grid, args.trials, args.seed, args.p_th, args.c
        )
        value = "above_grid" if result.threshold_db is None else repr(result.threshold_db)
        lines.append(f"{n},{value}")
    return "\n".join(lines) + "\n"


_DESIGN = ("f_high", "f_low", "n", "k", "c")

#: Every subcommand: name -> (handler, which returns the text ``main`` writes,
#: help, the ``SETTINGS`` entries it reads, whether it reads ``--config``, its
#: other arguments as (flag, ``add_argument`` keywords)). Its parser takes
#: ``--config``, ``--out``, a flag per setting and the other arguments, in order.
SUBCOMMANDS = {
    "design": (
        _cmd_design, "design a frequency plan and print it as CSV", _DESIGN, True, (
            ("--pattern", {"choices": ("concerto", "bw"), "default": "concerto"}),
        )),
    "estimate": (
        _cmd_estimate, "run one estimator on a phase list", ("truth_m",), False, (
            ("--plan", {"required": True, "help": "plan CSV file (design output)"}),
            ("--phases", {"required": True, "help": "comma-separated wrapped phases (rad)"}),
            ("--method", {"default": "concerto"}),
        )),
    "crb": (
        _cmd_crb, "print the range CRB for a plan and SNR", _DESIGN, True, (
            ("--plan", {}),
            ("--snr-db", {"type": float, "required": True}),
        )),
    "simulate": (
        _cmd_simulate, "Monte-Carlo SNR sweep, CSV per (method, SNR)",
        _DESIGN + ("seed", "trials", "methods", "snr_db_list", "truth_m"), True, (
            ("--plan", {}),
            ("--truth-halfwidth", {"type": float, "help": "uniform truths over +/- this (m)"}),
        )),
    "sweep-range": (
        _cmd_sweep_range, "coarse-stage failure probability versus K",
        ("f_high", "f_low", "n", "c", "seed", "trials", "k_list"), True, (
            ("--snr-db", {"type": float, "default": 5.0}),
            ("--quiet", {"action": "store_true", "help": "no note for a skipped K"}),
        )),
    "threshold": (
        _cmd_threshold, "SNR threshold scan versus frequency count",
        ("f_high", "f_low", "k", "c", "seed", "trials", "n_list", "p_th"), True, (
            ("--snr-grid", {"default": "0..20",
                            "help": "comma list or inclusive range a..b (dB), ascending"}),
        )),
}


def build_parser() -> _Parser:
    """The parser of every subcommand. Its ``commands`` maps each
    subcommand's name to that subcommand's own parser."""
    # --help shows the docstring without its last paragraph, on the build
    description = __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="unwrapkit", description=description, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        func, help_text, settings, config, extra = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="write output to this file instead of stdout")
        for dest in settings:
            _, convert, _, help_setting = SETTINGS[dest]
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=convert,
                           help=help_setting)
        for flag, options in extra:
            p.add_argument(flag, **options)
    parser.commands = sub.choices
    return parser


def _attach_negative_values(argv: list) -> list:
    """Write ``--flag -0.3,0.1`` as ``--flag=-0.3,0.1``.

    argparse reads a token that starts with '-' and is not a plain negative
    number, such as a phase list or ``-1e3``, as an unknown flag.
    """
    out = []
    for token in argv:
        if out and _BARE_FLAG.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> _Parser:
    """``build_parser()``, built on the first call only."""
    return build_parser()


def _parse_args(argv: list):
    """``_parser().parse_args(argv)``, without the top-level pass when
    ``argv`` starts with a subcommand's name.

    For ``[name, *rest]`` that pass only sets ``command`` to ``name``, hands
    ``rest`` to the subcommand's parser and refuses whatever that parser
    leaves over with the top-level usage line; this does the same directly.
    """
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 1
    try:
        _resolve(args, load_config(args.config) if getattr(args, "config", None) else {})
        _emit(args.func(args), args.out)
        return 0
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
