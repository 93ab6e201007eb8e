"""Command-line interface: subcommands, config precedence, exit codes,
output determinism."""

import argparse
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unwrapkit import (
    FrequencyPlan,
    NoiseSpec,
    PhaseObservation,
    TrialConfig,
    cli,
    design_bw_plan,
    design_concerto_plan,
    lookup_estimator,
    plan_from_csv,
    plan_to_csv,
    sweep_snr,
    true_phases,
)
from unwrapkit.cli import (
    CONFIG_KEYS,
    SETTINGS,
    SUBCOMMANDS,
    _attach_negative_values,
    build_parser,
    load_config,
    main,
)
from unwrapkit.errors import ConfigError, DegeneratePlanError
from unwrapkit.estimators import plan_constants
from unwrapkit.simkit import CSV_HEADER

DESIGN_ARGS = [
    "design", "--f-high", "2.5e9", "--f-low", "2.4e9",
    "--n", "51", "--k", "144", "--c", "3e8",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: A valid argv tail per subcommand; ``PLAN`` stands for a plan file.
DESIGN_TAIL = ["--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "8", "--k", "144", "--c", "3e8"]
BASE_ARGS = {
    "design": DESIGN_TAIL,
    "estimate": ["--plan", "PLAN", "--phases", "0.1,-0.2,0.3,0.1,-0.2,0.3,0.1,-0.2"],
    "crb": ["--plan", "PLAN", "--snr-db", "20"],
    "simulate": DESIGN_TAIL + ["--snr-db-list", "10", "--methods", "concerto,bw,ef"],
    "sweep-range": DESIGN_TAIL[:6] + ["--k-list", "1,144"],
    "threshold": DESIGN_TAIL[:4] + ["--k", "144", "--n-list", "3..5", "--snr-grid", "0..3"],
}


def _subparsers():
    """{subcommand: its parser} from the real parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


SUBCOMMAND_FLAGS = {
    name: sorted(o for o in parser._option_string_actions if o not in ("-h", "--help"))
    for name, parser in _subparsers().items()
}


def test_design_prints_plan(capsys):
    code, out, _ = _run(capsys, DESIGN_ARGS)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("#")
    assert "ratio=1.0822" in lines[0].replace("ratio=1.08220", "ratio=1.0822")
    assert lines[1] == "index,f_hz,lambda_m"
    assert len(lines) == 2 + 51
    plan = plan_from_csv(out)
    assert plan.n == 51
    assert plan.umr_m == pytest.approx(144.0, rel=1e-9)


def test_design_bw_pattern(capsys):
    code, out, _ = _run(capsys, [
        "design", "--pattern", "bw", "--f-high", "2.5e9", "--f-low", "2.4e9",
        "--n", "3", "--c", "3e8",
    ])
    assert code == 0
    plan = plan_from_csv(out)
    assert plan.freqs_hz[1] == pytest.approx(2496e6, rel=1e-12)


def test_out_file_matches_stdout(tmp_path, capsys):
    _, out, _ = _run(capsys, DESIGN_ARGS)
    target = tmp_path / "plan.csv"
    code, piped, _ = _run(capsys, DESIGN_ARGS + ["--out", str(target)])
    assert code == 0
    assert piped == ""
    assert target.read_bytes() == out.encode()


def test_simulate_notes_a_long_ef_scan_on_stderr(tmp_path, capsys):
    # The 6-frequency bw plan's K is its UMR, 1,171,875 m: ef scans 9,765,627
    # candidates per trial there, beyond cli.EF_NOTICE_CANDIDATES, and simulate
    # says so on stderr before its first SNR point. Its output is unchanged.
    bw_plan = tmp_path / "bw6.csv"
    code, _, _ = _run(capsys, [
        "design", "--pattern", "bw", "--f-high", "2.5e9", "--f-low", "2.4e9",
        "--n", "6", "--c", "3e8", "--out", str(bw_plan),
    ])
    assert code == 0
    argv = ["simulate", "--plan", str(bw_plan), "--snr-db-list", "20", "--trials", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert err == (
        "simulate: ef scans 9,765,627 candidates per trial; trials per SNR point: 1, "
        "SNR points: 1 (--methods concerto,bw leaves ef out)\n"
    )
    assert out.startswith(CSV_HEADER) and out.count("\n") == 4
    target = tmp_path / "sim.csv"
    code, piped, err_out = _run(capsys, argv + ["--out", str(target)])
    assert (code, piped, err_out) == (0, "", err)
    assert target.read_bytes() == out.encode()
    code, out_no_ef, err = _run(capsys, argv + ["--methods", "concerto,bw"])
    assert (code, err) == (0, "")
    assert out_no_ef.splitlines() == [line for line in out.splitlines() if ",ef," not in line]

    # the 51-frequency K = 1,440 m plan of the benchmark's method comparison:
    # 12,003 candidates per trial, no note
    plan = tmp_path / "plan1440.csv"
    code, _, _ = _run(capsys, [
        "design", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "51", "--k", "1440",
        "--c", "3e8", "--out", str(plan),
    ])
    assert code == 0
    code, out, err = _run(capsys, [
        "simulate", "--plan", str(plan), "--snr-db-list", "10,20", "--trials", "1",
    ])
    assert (code, err) == (0, "")
    assert out.count(",ef,") == 2

    # a scan ef refuses (top two frequencies 1 Hz apart: UMR 3e8 m, 2.5e9
    # candidates) gets ef's error alone
    huge = tmp_path / "huge.csv"
    huge.write_text(plan_to_csv(FrequencyPlan(freqs_hz=(2.5e9, 2.5e9 - 1.0, 2.4e9), c_m_s=3e8)))
    code, out, err = _run(capsys, [
        "simulate", "--plan", str(huge), "--snr-db-list", "20", "--trials", "1",
    ])
    assert (code, out) == (2, "")
    assert err.startswith("unwrapkit: invalid input: search of 2500000003 candidates")
    assert "ef scans" not in err


def test_estimate_round_trip(tmp_path, capsys):
    plan_file = tmp_path / "plan.csv"
    code, out, _ = _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    assert code == 0
    plan = plan_from_csv(plan_file.read_text())
    obs = true_phases(-12.345, plan)
    phases = ",".join(repr(float(p)) for p in obs.phases_rad)
    code, out, _ = _run(capsys, [
        "estimate", "--plan", str(plan_file), "--phases", phases,
        "--method", "concerto", "--truth-m", "-12.345",
    ])
    assert code == 0
    values = dict(line.split(",", 1) for line in out.strip().split("\n")[1:])
    assert float(values["l_final_m"]) == pytest.approx(-12.345, abs=1e-9)
    assert abs(float(values["delta_m"])) < 1e-9
    assert values["method"] == "concerto"
    assert values["m_chain"].startswith("0;")


def test_estimate_phase_list_starting_negative(tmp_path, capsys):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    phases = ",".join(["-0.3"] + ["0.1"] * 50)
    joined = _run(capsys, ["estimate", "--plan", str(plan_file), f"--phases={phases}"])
    split = _run(capsys, ["estimate", "--plan", str(plan_file), "--phases", phases])
    assert joined[0] == 0
    assert split == joined


def _estimate_text(trace) -> str:
    """What ``estimate`` prints for ``trace``, formatted field by field with
    f-strings and ``map(str, ...)``: the reference the CLI output must match."""
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


#: Most candidates (K / lambda_0) at which the output oracle also runs ``ef``.
ORACLE_EF_CANDIDATES = 20_000


@st.composite
def _oracle_plans(draw):
    """A concerto plan (N = 3..51 at several K), a bw plan or an explicit plan."""
    kind = draw(st.sampled_from(["concerto", "bw", "explicit"]))
    if kind == "concerto":
        n = draw(st.integers(3, 51))
        k_m = draw(st.sampled_from([5.0, 144.0, 600.0, 1440.0, 14_400.0]))
        return design_concerto_plan(2.5e9, 2.4e9, n, k_m, 3e8)
    if kind == "bw":
        bandwidth = draw(st.sampled_from([1e8, 5e8]))
        return design_bw_plan(2.5e9, bandwidth, draw(st.integers(3, 5)), 3e8)
    freqs = draw(st.lists(st.floats(1e9, 3e9), min_size=2, max_size=12, unique=True))
    return FrequencyPlan(freqs_hz=tuple(sorted(freqs, reverse=True)), c_m_s=3e8)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(plan=_oracle_plans(), data=st.data())
def test_estimate_output_matches_the_field_formatter(tmp_path, capsys, plan, data):
    # The estimate output, byte for byte, against each trace field formatted
    # on its own; the phases are random or near a truth's, where the chain
    # and fold integers are often -0.0 before they are printed.
    plan_file = tmp_path / "plan.csv"
    plan_file.write_text(plan_to_csv(plan))
    if data.draw(st.booleans(), "random phases"):
        phases = data.draw(st.lists(st.floats(-math.pi, math.pi, exclude_min=True),
                                    min_size=plan.n, max_size=plan.n), "phases")
    else:
        truth = data.draw(st.floats(-2.0, 2.0), "truth")
        phases = true_phases(truth, plan).phases_rad.tolist()
    truth_m = data.draw(st.none() | st.floats(-1e3, 1e3), "truth_m")
    methods = ["concerto", "bw"]
    if plan_constants(plan).search_range_m / plan_constants(plan).lam0 <= ORACLE_EF_CANDIDATES:
        methods.append("ef")
    obs = PhaseObservation(phases_rad=phases, plan=plan_from_csv(plan_file.read_text()),
                           truth_m=truth_m)
    argv = ["estimate", "--plan", str(plan_file), "--phases=" + ",".join(map(repr, phases))]
    if truth_m is not None:
        argv.append(f"--truth-m={truth_m!r}")
    for method in methods:
        code, out, err = _run(capsys, argv + ["--method", method])
        try:
            trace = lookup_estimator(method)(obs)
        except DegeneratePlanError as exc:  # wavelengths a near-repeated f makes equal
            assert (code, out, err) == (3, "", f"unwrapkit: numeric failure: {exc}\n")
            continue
        assert (code, err) == (0, "")
        assert out == _estimate_text(trace)
        assert len(out.splitlines()) == 9


@pytest.mark.parametrize("command", ["estimate", "crb"])
def test_plan_file_with_rows_missing_is_refused(tmp_path, capsys, command):
    # design output with its last two rows deleted: a 6-row file saying n=8
    plan_file = tmp_path / "plan.csv"
    _run(capsys, ["design"] + DESIGN_TAIL + ["--out", str(plan_file)])
    lines = plan_file.read_text().splitlines(keepends=True)
    plan_file.write_text("".join(lines[:-2]))
    tail = {"estimate": ["--phases", "0.1,-0.2,0.3,0.1,-0.2,0.3"], "crb": ["--snr-db", "20"]}
    code, out, err = _run(capsys, [command, "--plan", str(plan_file)] + tail[command])
    assert code == 2
    assert out == ""
    assert "n=8 in the header but 6 rows" in err


def test_files_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    # a UTF-8 byte-order mark, as some editors write it, on a plan file (with
    # CRLF line ends too) and on a config file
    plain_plan, marked_plan = tmp_path / "plan.csv", tmp_path / "plan-bom.csv"
    _run(capsys, ["design"] + DESIGN_TAIL + ["--out", str(plain_plan)])
    text = plain_plan.read_bytes()
    marked_plan.write_bytes(b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"))
    phases = "--phases=-0.2,0.1,0.3,0.1,-0.2,0.3,0.1,-0.2"
    for method in ("concerto", "bw", "ef"):
        plain = _run(capsys, ["estimate", "--plan", str(plain_plan), phases, "--method", method])
        assert plain[0] == 0 and "l_final_m," in plain[1]
        assert _run(capsys, ["estimate", "--plan", str(marked_plan), phases,
                             "--method", method]) == plain
    config = "seed = 3\ntrials = 10\nsnr_db_list = 12\nmethods = concerto\n"
    plain_cfg, marked_cfg = tmp_path / "run.cfg", tmp_path / "run-bom.cfg"
    plain_cfg.write_text(config)
    marked_cfg.write_bytes(b"\xef\xbb\xbf" + config.encode())
    argv = ["simulate"] + DESIGN_TAIL
    plain = _run(capsys, argv + ["--config", str(plain_cfg)])
    assert plain[0] == 0
    assert _run(capsys, argv + ["--config", str(marked_cfg)]) == plain
    # bytes that are not UTF-8 are named at their offset in the file
    marked_cfg.write_bytes(b"\xef\xbb\xbfseed = 3\xff\n")
    code, out, err = _run(capsys, argv + ["--config", str(marked_cfg)])
    assert (code, out) == (1, "")
    assert "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 11" in err


@pytest.mark.parametrize("name", ["missing.csv", "."])
def test_unreadable_plan_or_config_exits_1_naming_the_path(tmp_path, capsys, name):
    path = str(tmp_path / name)
    want = {"missing.csv": f"[Errno 2] No such file or directory: {path!r}",
            ".": f"[Errno 21] Is a directory: {path!r}"}[name]
    for argv in (["estimate", "--plan", path, "--phases", "0.1"], ["simulate", "--config", path]):
        assert _run(capsys, argv) == (1, "", f"unwrapkit: error: {want}\n")


def test_crb_subcommand(tmp_path, capsys):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    code, out, _ = _run(capsys, ["crb", "--plan", str(plan_file), "--snr-db", "20"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "crb_m2,rmse_m"
    crb_m2, rmse_m = (float(v) for v in row.split(","))
    assert rmse_m == pytest.approx(math.sqrt(crb_m2), rel=1e-12)
    assert crb_m2 == pytest.approx(3.649162085377936e-08, rel=1e-12)


def test_simulate_smoke_and_reproducibility(capsys):
    argv = [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k", "144", "--c", "3e8", "--methods", "concerto,bw",
        "--snr-db-list", "10,14", "--trials", "300", "--seed", "6",
        "--truth-halfwidth", "36",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    code2, out2, _ = _run(capsys, argv)
    assert code2 == 0 and out2 == out


def test_snr_range_syntax(capsys):
    argv = [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "8",
        "--k", "144", "--c", "3e8", "--methods", "concerto", "--trials", "50", "--seed", "1",
    ]
    code, out, _ = _run(capsys, argv + ["--snr-db-list", "10..12"])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3
    # integral bounds may be written in any float form
    assert _run(capsys, argv + ["--snr-db-list", "1e1..1.2e1"]) == (0, out, "")


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# operating point\n"
        "f_high_hz = 2.5e9\n"
        "f_low_hz = 2.4e9\n"
        "n_freq = 8\n"
        "range_k_m = 144\n"
        "c_m_s = 3e8\n"
        "trials = 10\n"
        "seed = 3\n"
        "snr_db_list = 12\n"
        "methods = concerto\n"
    )
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[2] == "10"

    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg), "--trials", "100"])
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[2] == "100"


#: A value per settings-table entry, none of them its default.
SETTING_VALUES = {
    "f_high": "2.5e9", "f_low": "2.4e9", "n": "8", "k": "144", "c": "3e8",
    "seed": "3", "trials": "20", "snr_db_list": "10,14", "k_list": "1,1000",
    "n_list": "8", "methods": "concerto,bw", "truth_m": "1.5", "p_th": "0.2",
}
#: Arguments outside the table that keep each run short or complete.
EXTRA_ARGS = {"crb": ["--snr-db", "20"], "threshold": ["--snr-grid", "0..30"]}


def _flag(dest):
    return "--" + dest.replace("_", "-")


@pytest.mark.parametrize("command,dest", [
    (command, dest)
    for command, flags in sorted(SUBCOMMAND_FLAGS.items()) if "--config" in flags
    for dest in SETTINGS if _flag(dest) in flags
])
def test_setting_as_flag_or_config_key(tmp_path, capsys, command, dest):
    argv = [command] + EXTRA_ARGS.get(command, [])
    for other in SETTINGS:
        if other != dest and _flag(other) in SUBCOMMAND_FLAGS[command]:
            argv += [_flag(other), SETTING_VALUES[other]]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{SETTINGS[dest][0]} = {SETTING_VALUES[dest]}\n")
    code, by_flag, _ = _run(capsys, argv + [_flag(dest), SETTING_VALUES[dest]])
    assert code == 0
    code, by_config, _ = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 0
    assert by_config == by_flag


@pytest.mark.parametrize("command,flag", [
    ("design", "--seed"), ("design", "--trials"), ("design", "--quiet"),
    ("crb", "--seed"), ("crb", "--trials"), ("crb", "--quiet"),
    ("estimate", "--config"), ("estimate", "--seed"), ("estimate", "--trials"),
    ("estimate", "--quiet"), ("simulate", "--quiet"), ("sweep-range", "--k"),
    ("threshold", "--n"), ("threshold", "--quiet"),
])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    base = [str(plan_file) if v == "PLAN" else v for v in BASE_ARGS[command]]
    code, _, err = _run(capsys, [command, *base, flag] + ([] if flag == "--quiet" else ["1"]))
    assert code == 1
    assert f"unrecognized arguments: {flag}" in err


def _parse(parser, argv, capsys):
    """The namespace or exit code of parsing ``argv``, with what it printed."""
    try:
        result = vars(parser.parse_args(_attach_negative_values(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _parser_argvs():
    """Argvs that reach every parse outcome: values, usage errors and help."""
    argvs = [
        DESIGN_ARGS, DESIGN_ARGS + ["--pattern", "bw", "--bogus"],
        ["estimate", "--plan", "p.csv", "--phases", "-0.3,0.1", "--method", "ef",
         "--truth-m", "-1"],
        ["estimate", "--plan", "p.csv", "--phases=-0.3,0.1", "-0.2"],
        ["estimate", "--phases", "0.1"], ["design", "estimate"], ["design", "--pat", "bw"],
        ["simulate", "--truth-halfwidth", "36", "--plan", "p.csv"], ["sweep-range", "--quiet"],
    ]
    for command in SUBCOMMANDS:
        tail = [v for flag in SUBCOMMAND_FLAGS[command] if flag != "--quiet"
                for v in (flag, SETTING_VALUES.get(flag[2:].replace("-", "_"), "1"))]
        argvs += [[command, *BASE_ARGS[command]], [command, *tail], [command, "--quiet", "1"],
                  [command, *BASE_ARGS[command], "--bogus"], [command, "-h"]]
    return argvs


def test_second_main_call_matches_the_first(capsys, monkeypatch):
    # the first call builds the parser, every later call reuses it
    monkeypatch.setenv("COLUMNS", "80")  # the usage line below wraps by width
    cli._parser.cache_clear()
    for argv in _parser_argvs() + [[], ["--help"], ["no-such-command"]]:
        assert _run(capsys, argv) == _run(capsys, argv), argv
    assert cli._parser.cache_info().misses == 1
    code, _, err = _run(capsys, ["design", "--bogus"])
    assert code == 1
    assert err.splitlines() == [
        "usage: unwrapkit [-h] {design,estimate,crb,simulate,sweep-range,threshold} ...",
        "unwrapkit: error: unrecognized arguments: --bogus",
    ]


def test_main_dispatch_matches_the_top_level_parse(capsys, monkeypatch):
    # main hands "name ..." straight to that subcommand's parser; every argv
    # must come out as the top-level parser's parse of it does, in exit code,
    # output and namespace
    monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap by width
    parser = build_parser()
    top_level = []
    parse_known_args = parser.parse_known_args

    def spy(*args, **kwargs):
        top_level.append(True)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    parsed_by_main = []

    def record(args, config):
        parsed_by_main.append(vars(args))
        raise ConfigError("parsed")

    monkeypatch.setattr(cli, "_resolve", record)
    monkeypatch.setattr(cli, "load_config", lambda path: {})
    argvs = _parser_argvs() + [
        [], ["--help"], ["no-such-command"],
        ["estimate"], ["estimate", "-h"], ["estimate", "--bogus"],
    ]
    for argv in argvs:
        want = _parse(build_parser(), argv, capsys)
        top_level.clear()
        parsed_by_main.clear()
        code, out, err = _run(capsys, argv)
        if isinstance(want[0], dict):
            assert parsed_by_main == [want[0]], argv
            assert "command" in want[0]
            assert want[1:] == ("", "")
            assert (code, out, err) == (1, "", "unwrapkit: error: parsed\n"), argv
        else:
            assert (code, out, err) == want, argv
            assert parsed_by_main == []
        # only an argv that does not start with a subcommand's name reaches
        # the top-level parser
        assert top_level == ([] if argv and argv[0] in SUBCOMMANDS else [True]), argv


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    estimate = ["estimate", "--plan", str(plan_file), "--phases", ",".join(["0.1"] * 51)]
    code, out, _ = _run(capsys, estimate + ["--truth-m", "1.5"])
    assert code == 0 and "delta_m,nan" not in out
    code, out, _ = _run(capsys, estimate)
    assert code == 0 and out.endswith("\ndelta_m,nan\n")
    # a usage error, then the valid call it came from
    code, _, err = _run(capsys, estimate + ["--bogus"])
    assert code == 1 and "unrecognized arguments: --bogus" in err
    assert _run(capsys, estimate) == (0, out, "")
    # a config file's values do not outlive the call that read it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 10\nseed = 3\nmethods = concerto\nsnr_db_list = 12\n")
    code, out, _ = _run(capsys, ["simulate", *DESIGN_TAIL, "--config", str(cfg)])
    assert code == 0
    assert [row.split(",")[1:3] for row in out.splitlines()[1:]] == [["concerto", "10"]]
    flags = ["simulate", *DESIGN_TAIL, "--snr-db-list", "20", "--trials", "7"]
    code, out, _ = _run(capsys, flags)
    assert code == 0
    assert [row.split(",")[1:3] for row in out.splitlines()[1:]] == [
        ["concerto", "7"], ["bw", "7"], ["ef", "7"]]
    cli._parser.cache_clear()
    assert _run(capsys, flags) == (0, out, "")
    # help is laid out at the width of the call that prints it
    monkeypatch.setenv("COLUMNS", "40")
    narrow = _run(capsys, ["estimate", "-h"])
    monkeypatch.setenv("COLUMNS", "120")
    wide = _run(capsys, ["estimate", "-h"])
    assert narrow != wide
    assert _parse(build_parser(), ["estimate", "-h"], capsys) == wide
    # no argv, a top-level flag and an unknown first token share that parser
    misses = cli._parser.cache_info().misses
    for argv in [[], ["--help"]] + [[f"unknown-{k}"] for k in range(50)]:
        _run(capsys, argv)
    assert cli._parser.cache_info().misses == misses
    assert cli._parser.cache_info().currsize == 1


def test_readme_lists_every_flag_and_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in readme.splitlines() if line.startswith("| `")
    ]
    flags = {row[0].strip("`"): sorted(re.findall(r"`(--[\w-]+)`", row[1]))
             for row in rows if len(row) == 2}
    assert flags == SUBCOMMAND_FLAGS
    keys = {row[0].strip("`"): row[1].strip("`") for row in rows if len(row) == 3}
    assert keys == {_flag(dest): key for dest, (key, *_) in SETTINGS.items()}
    assert tuple(keys.values()) == CONFIG_KEYS


def test_readme_lists_the_keys_estimate_prints(tmp_path, capsys):
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    sentence = re.search(r"`estimate` prints nine `key,value` lines, in this order: (.*?)\. ",
                         readme)
    listed = re.findall(r"`([\w,]+)`", sentence.group(1))
    plan_file = tmp_path / "plan.csv"
    main(["design", *DESIGN_TAIL, "--out", str(plan_file)])
    for method in ("concerto", "bw", "ef"):
        for truth in ([], ["--truth-m", "0.5"]):
            _, out, _ = _run(capsys, ["estimate", "--plan", str(plan_file),
                                      "--phases", BASE_ARGS["estimate"][3],
                                      "--method", method, *truth])
            header, *rows = out.splitlines()
            assert listed == [header] + [row.split(",")[0] for row in rows]


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("foo = 1\n")
    with pytest.raises(ConfigError, match="foo"):
        load_config(str(cfg))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 1
    assert "foo" in err
    # a line that is not a comment and has no '='
    cfg.write_text("# a comment\nn_freq 8\n")
    with pytest.raises(ConfigError, match=r":2: expected 'key = value', got 'n_freq 8'"):
        load_config(str(cfg))
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert "expected 'key = value'" in err


def test_truth_m_alone_fixes_the_simulated_truth(capsys):
    argv = ["simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--c", "3e8", "--n", "8",
            "--k", "1440", "--snr-db-list", "5..9", "--trials", "500", "--seed", "12",
            "--methods", "concerto,bw"]
    code, fixed, _ = _run(capsys, argv + ["--truth-m", "3.5"])
    assert code == 0
    plan = design_concerto_plan(2.5e9, 2.4e9, 8, 1440.0, 3e8)
    cfg = TrialConfig(plan=plan, noise=NoiseSpec(0.0), trials=500, seed=12,
                      methods=("concerto", "bw"), truth_m=3.5)
    assert fixed == sweep_snr(cfg, [5.0, 6.0, 7.0, 8.0, 9.0]).to_csv()
    code, uniform, _ = _run(capsys, argv)
    assert code == 0 and uniform != fixed


@pytest.mark.parametrize("extra, config, message", [
    # the truth policy follows from truth_m; its flag and key are gone
    (["--truth-policy", "fixed", "--truth-m", "3.5"], "",
     "unrecognized arguments: --truth-policy fixed"),
    ([], "truth_policy = fixed\n", "unknown key 'truth_policy'"),
    # a fixed truth and a half-width to draw truths over
    (["--truth-m", "3", "--truth-halfwidth", "2"], "",
     "give truth_m (a fixed truth) or truth_halfwidth_m, not both"),
    (["--truth-halfwidth", "2"], "truth_m = 3\n",
     "give truth_m (a fixed truth) or truth_halfwidth_m, not both"),
], ids=["truth-policy-flag", "truth-policy-key", "both-by-flag", "both-by-config"])
def test_truth_settings_that_cannot_hold_exit_1(tmp_path, capsys, extra, config, message):
    argv = ["simulate", *DESIGN_TAIL, "--snr-db-list", "20", "--trials", "5", *extra]
    if config:
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err


def test_config_missing_required_key(tmp_path, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("f_high_hz = 2.5e9\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 1
    assert "f_low_hz" in err


def test_exit_codes(tmp_path, capsys):
    # usage error
    code, _, _ = _run(capsys, ["no-such-command"])
    assert code == 1
    # infeasible design: B*K/c <= 1
    code, _, err = _run(capsys, [
        "design", "--f-high", "2.5e9", "--f-low", "2.4e9",
        "--n", "5", "--k", "1", "--c", "3e8",
    ])
    assert code == 2
    # invalid plan file
    bad = tmp_path / "bad_plan.csv"
    bad.write_text("index,f_hz,lambda_m\n0,2.5e9,0.12\n1,2.6e9,0.115\n")
    code, _, _ = _run(capsys, [
        "estimate", "--plan", str(bad), "--phases", "0.0,0.0",
    ])
    assert code == 2
    # numeric failure: CRB undefined at infinite SNR is not reachable via
    # snr-db flag, so drive the degenerate-plan path instead
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "# pattern=explicit,n=2,c_m_s=3e8,ratio=none,range_budget_m=none\n"
        "index,f_hz,lambda_m\n0,2.5e9,0.12\n1,2.5e9,0.12\n"
    )
    code, _, err = _run(capsys, [
        "estimate", "--plan", str(flat), "--phases", "0.0,0.0",
    ])
    assert code == 2  # order violation reported at load time
    assert "frequency-order" in err
    # numeric failure: top frequencies 1e-7 Hz apart pass validate_plan, but
    # their wavelengths round to one value, which concerto's and bw's chains
    # refuse; ef refuses its some 8e15-candidate search before it starts
    near = tmp_path / "near.csv"
    near.write_text(plan_to_csv(FrequencyPlan(
        (1007503751.8759379, 1007503751.8759378, 1006503751.8759378), c_m_s=3e8)))
    for method, want, message in (("concerto", 3, "repeated wavelength"),
                                  ("bw", 3, "repeated wavelength"),
                                  ("ef", 2, "exceeds the limit of 100000000")):
        start = time.perf_counter()
        code, out, err = _run(capsys, [
            "estimate", "--plan", str(near), "--phases", "0.1,0.2,0.3", "--method", method,
        ])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (want, ""), method
        assert message in err and "Traceback" not in err
    # malformed plan files: a non-numeric frequency cell or header value
    for name, text in (
        ("bad_cell.csv", "index,f_hz,lambda_m\n0,abc,0.12\n"),
        ("bad_c.csv", "# c_m_s=xyz\nindex,f_hz,lambda_m\n0,2.5e9,0.12\n"),
    ):
        malformed = tmp_path / name
        malformed.write_text(text)
        code, _, err = _run(capsys, [
            "estimate", "--plan", str(malformed), "--phases", "0.0",
        ])
        assert code == 2
        assert "not a number" in err
    # a non-positive propagation speed is named as such, not as infeasible
    code, _, err = _run(capsys, [
        "design", "--f-high", "2.5e9", "--f-low", "2.4e9",
        "--n", "5", "--k", "144", "--c", "-1",
    ])
    assert code == 2
    assert "propagation speed must be finite and positive" in err
    # a bw chain this long collapses its top frequencies onto f_0 (and its
    # range budget (c/B)*(f_0/B)^(n-2) overflows a float)
    code, out, err = _run(capsys, [
        "design", "--pattern", "bw", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "300",
    ])
    assert code == 2
    assert "n = 300 is too large" in err
    assert "Traceback" not in err and out == ""
    # designs whose offsets f_0 resolves too coarsely for the offset ratios
    # to hold, which the --plan loader would refuse: a bw chain at n = 7,
    # and a concerto plan at K = 1e8 m
    for argv, message in (
        (["--pattern", "bw", "--f-low", "2.4e9", "--n", "7"], "n = 7 is too large"),
        (["--f-low", "2.4e9", "--n", "11", "--k", "1e8"], "infeasible plan"),
    ):
        code, out, err = _run(capsys, ["design", "--f-high", "2.5e9", "--c", "3e8"] + argv)
        assert code == 2
        assert message in err and "ratio-mismatch" in err
        assert out == ""
    # uniform truths are drawn over the range budget, infinite for one frequency
    one = tmp_path / "one.csv"
    one.write_text(plan_to_csv(FrequencyPlan((2.4e9,))))
    code, out, err = _run(capsys, [
        "simulate", "--plan", str(one), "--snr-db-list", "20", "--trials", "5",
    ])
    assert code == 1
    assert "uniform truths need a finite range budget: give truth_m or truth_halfwidth_m" in err
    assert out == ""
    # a truth must be finite, as a phase must
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    phases = ",".join(["0.1"] * 51)
    for truth in ("--truth-m=nan", "--truth-m=inf", "--truth-m=-inf", "--truth-m -inf"):
        code, out, err = _run(capsys, [
            "estimate", "--plan", str(plan_file), "--phases", phases, *truth.split(),
        ])
        assert code == 2
        assert "truth_m must be finite" in err
        assert out == ""
    # a bare flag takes -inf, -infinity and -nan, in any case, as its value
    for snr_db in ("--snr-db=-inf", "--snr-db -inf", "--snr-db -Infinity", "--snr-db -NaN"):
        code, out, err = _run(capsys, ["crb", "--plan", str(plan_file), *snr_db.split()])
        assert code == 2
        assert "snr_db must be finite" in err
        assert out == ""
    # a truth half-width beyond UMR/2 would give a meaningless MSE
    code, _, err = _run(capsys, [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k", "144", "--c", "3e8", "--methods", "concerto",
        "--snr-db-list", "20", "--trials", "10", "--truth-halfwidth", "1e6",
    ])
    assert code == 1
    assert "half-width" in err
    # so would a fixed truth beyond UMR/2 (an 8-frequency, K = 144 m plan)
    code, out, err = _run(capsys, [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "8",
        "--k", "144", "--c", "3e8", "--methods", "concerto,bw",
        "--snr-db-list", "30", "--trials", "20", "--truth-m", "1e6",
    ])
    assert code == 1
    assert "truth_m 1000000.0 m lies beyond half the unambiguous range" in err
    assert out == ""
    # a range list is bounded before it is built
    start = time.perf_counter()
    code, out, err = _run(capsys, [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "8",
        "--k", "144", "--c", "3e8", "--snr-db-list", "0..1e9", "--trials", "5",
    ])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "range '0..1e9' has 1000000001 points, more than 10000" in err
    # an input invalid for every K stops sweep-range; only an infeasible K is a row
    for bad in (["--c", "0"], ["--n", "2"], ["--f-high", "2.4e9", "--f-low", "2.5e9"]):
        out_file = tmp_path / "sweep.csv"
        code, _, err = _run(capsys, [
            "sweep-range", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
            "--k-list", "1,1000", "--trials", "10", "--out", str(out_file), *bad,
        ])
        assert code == 2
        assert "skipped" not in err
        assert not out_file.exists()
    # files that are not UTF-8 text
    latin_cfg = tmp_path / "latin.cfg"
    latin_cfg.write_bytes(b"n_freq = 8\xff\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(latin_cfg)])
    assert code == 1
    assert "UTF-8" in err
    latin_plan = tmp_path / "latin.csv"
    latin_plan.write_bytes(b"index,f_hz,lambda_m\n0,2.5e9\xe9,0.12\n")
    code, _, err = _run(capsys, ["estimate", "--plan", str(latin_plan), "--phases", "0.0"])
    assert code == 2
    assert "UTF-8" in err
    # non-finite bounds and counts in number lists
    for argv in (
        ["simulate", "--n", "8", "--k", "144", "--snr-db-list", "1..1e400"],
        ["threshold", "--k", "144", "--n-list", "1e400"],
    ):
        code, _, err = _run(capsys, argv + [
            "--f-high", "2.5e9", "--f-low", "2.4e9", "--trials", "10",
        ])
        assert code == 1
        assert "cannot parse number list" in err
    # a non-integral range bound or count is refused, not truncated
    for argv, value in (
        (["simulate", "--n", "8", "--k", "144", "--snr-db-list", "1.5..3.7"], "'1.5'"),
        (["threshold", "--k", "144", "--n-list", "3.7"], "'3.7'"),
    ):
        code, out, err = _run(capsys, argv + [
            "--f-high", "2.5e9", "--f-low", "2.4e9", "--trials", "10",
        ])
        assert code == 1
        assert "cannot parse number list" in err and f"{value} is not an integer" in err
        assert out == ""
    # an estimator named twice would print its rows twice
    code, out, err = _run(capsys, [
        "simulate", *DESIGN_TAIL, "--snr-db-list", "20", "--trials", "5",
        "--methods", "concerto,bw,concerto",
    ])
    assert code == 1
    assert "method 'concerto' is listed more than once" in err
    assert out == ""


@pytest.mark.parametrize("command, flag, value", [("estimate", "--method", "nope"),
                                                  ("simulate", "--methods", "concerto,nope")])
def test_unknown_estimator_message_is_not_quoted(tmp_path, capsys, command, flag, value):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, ["design", *DESIGN_TAIL, "--out", str(plan_file)])
    base = [str(plan_file) if v == "PLAN" else v for v in BASE_ARGS[command]]
    code, out, err = _run(capsys, [command, *base, flag, value])
    assert (code, out) == (1, "")
    assert err == (
        "unwrapkit: error: unknown estimator 'nope'; registered: ['bw', 'concerto', 'ef']\n")


@pytest.mark.parametrize("field, value", [("ratio", "nan"), ("ratio", "inf"),
                                          ("range_budget_m", "nan")])
def test_plan_file_with_non_finite_metadata_is_refused(tmp_path, capsys, field, value):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    text = plan_file.read_text()
    plan_file.write_text(re.sub(f"{field}=[^,]*", f"{field}={value}", text, count=1))
    code, out, err = _run(capsys, [
        "estimate", "--plan", str(plan_file), "--phases", ",".join(["0.1"] * 51),
    ])
    assert code == 2
    assert out == ""
    assert f"not-finite: {field} = {value} is not finite" in err


@pytest.mark.parametrize("value", ["", " , "])
@pytest.mark.parametrize("command, dest", [
    ("simulate", "snr_db_list"), ("sweep-range", "k_list"),
    ("threshold", "n_list"), ("threshold", "snr_grid"),
])
def test_empty_list_is_refused(tmp_path, capsys, command, dest, value):
    # by flag, and by config key where the list is a setting
    flag = _flag(dest)
    tail = BASE_ARGS[command]
    others = [a for f, v in zip(tail[::2], tail[1::2]) if f != flag for a in (f, v)]
    runs = [[command, *others, flag, value]]
    if dest in SETTINGS:
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"{SETTINGS[dest][0]} ={value}\n")
        runs.append([command, *others, "--config", str(cfg)])
    for argv in runs:
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"{flag} is an empty list" in err


def test_sweep_range_cli(capsys):
    code, out, err = _run(capsys, [
        "sweep-range", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k-list", "1,1000", "--snr-db", "5", "--trials", "100",
        "--seed", "2", "--c", "3e8",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert "skipped" in err  # infeasible K reported on stderr


def test_threshold_cli(capsys):
    code, out, _ = _run(capsys, [
        "threshold", "--f-high", "2.5e9", "--f-low", "2.4e9", "--k", "144",
        "--n-list", "51", "--snr-grid", "24..25", "--trials", "200",
        "--seed", "5", "--p-th", "1e-3", "--c", "3e8",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,threshold_db"
    assert lines[1].startswith("51,")


def test_bench_cli(capsys):
    # bench is retired: single-estimate throughput is criterion 9's and perfbench's
    assert "bench" not in SUBCOMMANDS
    code, out, err = _run(capsys, [
        "bench", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k", "144", "--c", "3e8", "--methods", "concerto,bw", "--n-obs", "50",
    ])
    assert code == 1
    assert "argument command: invalid choice: 'bench'" in err
    assert out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_matches_main(tmp_path, capsys):
    plan_file = tmp_path / "plan.csv"
    _run(capsys, DESIGN_ARGS + ["--out", str(plan_file)])
    argv = ["estimate", "--plan", str(plan_file), "--phases", ",".join(["-0.3"] + ["0.1"] * 50)]
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "unwrapkit.cli", *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _run(capsys, argv)[1] != ""


# -- no argv ends in a traceback ---------------------------------------------

#: Values that are wrong for most flags.
BAD_VALUES = ("-1", "0", "nan", "inf", "-inf", "1e400", "", "5..1", "1..1e400", "x")

#: More values per flag, small enough that any run stays fast: at most 64
#: frequencies, plans whose ``ef`` scan is short, ranges at most 50 wide.
#: ``--trials`` takes a value from ``BOUNDED`` only.
FLAG_VALUES = {
    "--f-high": ("2.5e9",),
    "--f-low": ("2.4e9", "2.6e9"),
    "--n": ("2", "3", "8", "64"),
    "--k": ("144", "1e3"),
    "--c": ("3e8",),
    "--seed": ("7",),
    "--snr-db-list": ("10", "0..50", "-5,20", "4e3"),
    "--k-list": ("1,144", "1e3"),
    "--n-list": ("3..5", "64"),
    "--methods": ("concerto", "bw", "ef", "concerto,bw,ef", "nope", ","),
    "--method": ("concerto", "bw", "ef", "nope"),
    "--truth-m": ("1.5", "-2", "1e6"),
    "--truth-halfwidth": ("10", "1e6"),
    "--p-th": ("1e-3", "0.5", "1"),
    "--snr-db": ("20", "-5", "4e3", "-4e3"),
    "--snr-grid": ("0..3", "20,10", "10..60", "-4e3"),
    "--pattern": ("concerto", "bw"),
    "--phases": ("0.1,-0.2,0.3,0.1,-0.2,0.3,0.1,-0.2", "-0.3,0.1", "4.0", "0.1,,0.2"),
}
BOUNDED = {"--trials": ("5", "20", "1", "-1", "nan")}


@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_no_argv_ends_in_a_traceback(tmp_path, data):
    # A valid argv with at most one base flag dropped and up to two flags
    # added, from the subcommand's own flags and one it does not have.
    files = tmp_path / "files"
    if not files.exists():  # tmp_path is shared by every example
        files.mkdir()
        main(["design", *DESIGN_TAIL, "--out", str(files / "plan.csv")])
        (files / "latin.csv").write_bytes(b"index,f_hz,lambda_m\n0,2.5e9\xe9,0.12\n")
        (files / "bad.csv").write_text("index,f_hz,lambda_m\n0,abc,0.12\n")
        (files / "good.cfg").write_text(
            "f_high_hz = 2.5e9\nf_low_hz = 2.4e9\nn_freq = 8\nrange_k_m = 144\n"
            "c_m_s = 3e8\nseed = 1\nsnr_db_list = 10\nk_list_m = 144\nn_list = 8\n"
            "methods = concerto,bw\np_threshold = 0.01\n"
        )
        (files / "latin.cfg").write_bytes(b"n_freq = 8\xff\n")
        (files / "unknown.cfg").write_text("foo = 1\n")
        (files / "values.cfg").write_text("n_freq = nan\nrange_k_m = 1e400\nk_list_m = 5..1\n")
    paths = {
        "--plan": ("plan.csv", "latin.csv", "bad.csv", "missing.csv"),
        "--config": ("good.cfg", "latin.cfg", "unknown.cfg", "values.cfg", "missing.cfg"),
        "--out": ("out.csv", "."),
    }
    command = data.draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS) + ["nope"]), "command")
    own = SUBCOMMAND_FLAGS.get(command, [])
    argv = [command]
    tail = BASE_ARGS.get(command, [])
    base = dict(zip(tail[::2], tail[1::2]))
    dropped = data.draw(st.sampled_from(["", "", ""] + sorted(base)), "dropped")
    for flag, value in base.items():
        if flag != dropped:
            argv += [flag, str(files / "plan.csv") if value == "PLAN" else value]
    pool = [f for f in own if f not in BOUNDED] + ["--bogus"]
    for flag in data.draw(st.lists(st.sampled_from(pool), max_size=2), "flags"):
        argv.append(flag)
        if flag in paths:
            argv.append(data.draw(st.sampled_from([str(files / n) for n in paths[flag]]), flag))
        elif flag not in ("--quiet", "--bogus"):
            values = st.sampled_from(BAD_VALUES)
            if flag in FLAG_VALUES:
                values = st.sampled_from(FLAG_VALUES[flag]) | values
            argv.append(data.draw(values, flag))
    for flag, choices in BOUNDED.items():
        if flag in own:
            argv += [flag, data.draw(st.sampled_from(choices), flag)]
    assert main(argv) in (0, 1, 2, 3)
