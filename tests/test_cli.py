"""Command-line interface: subcommands, config precedence, exit codes,
output determinism."""

import math

import numpy as np
import pytest

from unwrapkit import plan_from_csv, true_phases
from unwrapkit.cli import load_config, main
from unwrapkit.errors import ConfigError
from unwrapkit.simkit import CSV_HEADER

DESIGN_ARGS = [
    "design", "--f-high", "2.5e9", "--f-low", "2.4e9",
    "--n", "51", "--k", "144", "--c", "3e8",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, _ = _run(capsys, [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "8",
        "--k", "144", "--c", "3e8", "--methods", "concerto",
        "--snr-db-list", "10..12", "--trials", "50", "--seed", "1",
    ])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3


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


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("foo = 1\n")
    with pytest.raises(ConfigError, match="foo"):
        load_config(str(cfg))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 1
    assert "foo" in err


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
    code, _, _ = _run(capsys, [
        "estimate", "--plan", str(flat), "--phases", "0.0,0.0",
    ])
    assert code in (2, 3)  # order violation reported at load time
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
    # no observations to time
    code, _, err = _run(capsys, [
        "bench", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k", "144", "--c", "3e8", "--n-obs", "0",
    ])
    assert code == 1
    assert "--n-obs" in err
    # a truth half-width beyond UMR/2 would give a meaningless MSE
    code, _, err = _run(capsys, [
        "simulate", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k", "144", "--c", "3e8", "--methods", "concerto",
        "--snr-db-list", "20", "--trials", "10", "--truth-halfwidth", "1e6",
    ])
    assert code == 1
    assert "half-width" in err


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
    code, out, _ = _run(capsys, [
        "bench", "--f-high", "2.5e9", "--f-low", "2.4e9", "--n", "16",
        "--k", "144", "--c", "3e8", "--methods", "concerto,bw",
        "--n-obs", "50", "--seed", "1",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,n,k_m,estimates_per_s"
    assert len(lines) == 3
    assert float(lines[1].split(",")[3]) > 0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
