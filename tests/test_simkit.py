"""Monte-Carlo harness: synthesis, determinism, metrics, sweep protocols."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unwrapkit import (
    ConfigError,
    InvalidArgumentError,
    NoiseSpec,
    PhaseObservation,
    SimReport,
    TrialConfig,
    UnknownEstimatorError,
    design_concerto_plan,
    lookup_estimator,
    mix_seed,
    run_trials,
    snr_threshold,
    sweep_range,
    sweep_snr,
    synthesize_observation,
    true_phases,
    wrap_phase,
)
from unwrapkit import estimators, simkit
from unwrapkit.core import TWO_PI
from unwrapkit.simkit import CSV_COLUMNS, CSV_HEADER, SimRow

C = 3e8
PLAN = design_concerto_plan(2500e6, 2400e6, 16, 144.0, C)


def test_synthesize_noiseless_equals_true_phases():
    rng = np.random.default_rng(0)
    obs = synthesize_observation(12.5, PLAN, NoiseSpec(0.0), rng)
    np.testing.assert_array_equal(obs.phases_rad, true_phases(12.5, PLAN).phases_rad)
    assert obs.truth_m == 12.5
    # both are wrap(2*pi*L/lambda_i), written out here on the wavelength tuple
    lam = np.array(PLAN.wavelengths_m)
    for l_m in [0.0, 3 * lam[0], *rng.uniform(-72.0, 72.0, 200)]:
        expected = wrap_phase(TWO_PI * l_m / lam)
        got = true_phases(l_m, PLAN).phases_rad
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_synthesize_refuses_a_range_whose_phases_are_not_finite():
    # 2*pi*L/lambda_i overflows at 1e308; the refusal comes with no warning
    for sigma in (0.0, 0.2):
        for l_m in (1e308, math.inf, -math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidArgumentError, match="^phase must be finite$"):
                    synthesize_observation(l_m, PLAN, NoiseSpec(sigma), np.random.default_rng(3))


def test_synthesize_deterministic_per_seed():
    a = synthesize_observation(3.1, PLAN, NoiseSpec(0.2), np.random.default_rng(77))
    b = synthesize_observation(3.1, PLAN, NoiseSpec(0.2), np.random.default_rng(77))
    np.testing.assert_array_equal(a.phases_rad, b.phases_rad)


def test_synthesize_gaussian_moment():
    # With truth 0 and sigma small the wrapped phases equal the raw noise.
    sigma = 0.1
    draws = []
    plan = design_concerto_plan(2500e6, 2400e6, 4, 144.0, C)
    for t in range(2500):
        rng = np.random.default_rng(mix_seed(123, t))
        draws.append(synthesize_observation(0.0, plan, NoiseSpec(sigma), rng).phases_rad * 100)
    sample = np.concatenate(draws) / 100
    assert sample.size == 10_000
    var = float(np.var(sample))
    assert var == pytest.approx(sigma**2, rel=0.05)
    big = np.random.default_rng(5).standard_normal(1_000_000) * sigma
    assert float(np.var(big)) == pytest.approx(sigma**2, rel=0.01)


def test_mix_seed_is_stable_and_spread():
    assert mix_seed(0, 0) == mix_seed(0, 0)
    values = {mix_seed(42, t) for t in range(10_000)}
    assert len(values) == 10_000
    assert all(0 <= v < 2**64 for v in values)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_block_seeding_matches_default_rng(drawn):
    # The one-pass block seeding must give exactly default_rng's streams;
    # a numpy release that seeds PCG64 or SeedSequence otherwise fails here.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + drawn
    streams = simkit._trial_streams(np.array(seeds, dtype=np.uint64))
    for seed, rng in zip(seeds, streams, strict=True):
        assert rng.bit_generator.state == np.random.PCG64(seed).state, seed
        reference = np.random.default_rng(seed)
        assert rng.uniform(-36.0, 36.0) == reference.uniform(-36.0, 36.0)
        np.testing.assert_array_equal(rng.standard_normal(51), reference.standard_normal(51))


def test_run_trials_noiseless_exact():
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec(0.0), trials=500, seed=1,
        methods=("concerto", "bw"),
    )
    report = run_trials(cfg)
    for row in report.rows:
        assert row.mse_m2 <= 1e-18
        assert row.p_fail_lambda0 == 0.0
        assert row.n_trials == 500
    assert math.isnan(report.rows[0].crb_m2)  # CRB undefined at sigma = 0


def test_run_trials_reproducible():
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec.from_snr_db(12.0), trials=3000, seed=9,
        methods=("concerto",),
    )
    a, b = run_trials(cfg), run_trials(cfg)
    ra, rb = a.rows[0], b.rows[0]
    assert ra.mse_m2 == rb.mse_m2
    assert ra.p_fail_lambda0 == rb.p_fail_lambda0
    assert ra.p_coarse_fail == rb.p_coarse_fail
    assert ra.mean_error_m == rb.mean_error_m


def test_run_trials_config_errors():
    with pytest.raises(ConfigError):
        TrialConfig(plan=PLAN, noise=NoiseSpec(0.1), trials=0, seed=0)
    with pytest.raises(ConfigError):
        TrialConfig(plan=PLAN, noise=NoiseSpec(0.1), trials=10, seed=0, methods=())
    with pytest.raises(ConfigError, match="method 'bw' is listed more than once"):
        TrialConfig(plan=PLAN, noise=NoiseSpec(0.1), trials=10, seed=0,
                    methods=("bw", "concerto", "bw"))
    # a fixed truth and a half-width to draw truths over cannot both hold
    with pytest.raises(ConfigError, match="truth_m .* truth_halfwidth_m, not both"):
        TrialConfig(plan=PLAN, noise=NoiseSpec(0.1), trials=10, seed=0,
                    truth_m=3.0, truth_halfwidth_m=2.0)
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec(0.1), trials=10, seed=0, methods=("dcrt",)
    )
    with pytest.raises(UnknownEstimatorError):
        run_trials(cfg)


def test_trial_config_refuses_what_run_trials_cannot_run():
    base = dict(plan=PLAN, noise=NoiseSpec(0.1))
    # a string is a sequence of letters, not of names: "bw" would run as
    # the unknown estimators 'b' and 'w', "concerto" repeats 'c'
    for names in ("concerto", "bw", "ef"):
        with pytest.raises(ConfigError, match="methods must be a sequence of names"):
            TrialConfig(**base, trials=10, seed=0, methods=names)
    # refused here, not later in run_trials with a bare TypeError
    for bad in (2.5, 10.0, "10", None):
        with pytest.raises(ConfigError, match="trials must be an integer"):
            TrialConfig(**base, trials=bad, seed=0)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            TrialConfig(**base, trials=10, seed=bad)
    # numpy integers are kept as ints, so a run matches the plain ints':
    # mix_seed's 64-bit masks would overflow an int64 or uint32 seed
    plain = run_trials(TrialConfig(**base, trials=3, seed=5)).to_csv()
    for dtype in (np.int64, np.uint32, np.uint64):
        cfg = TrialConfig(**base, trials=dtype(3), seed=dtype(5))
        assert type(cfg.trials) is int and type(cfg.seed) is int
        assert run_trials(cfg).to_csv() == plain


def test_truth_config_validation():
    base = dict(plan=PLAN, noise=NoiseSpec(0.1), trials=10, seed=0)
    for bad in (0.0, -1.0, math.inf, math.nan, 1e6):
        with pytest.raises(ConfigError, match="half-width"):
            TrialConfig(**base, truth_halfwidth_m=bad)
    with pytest.raises(ConfigError, match="half-width"):
        TrialConfig(**base, truth_halfwidth_m=PLAN.umr_m / 2.0 * (1.0 + 1e-8))
    # K/2 of a designed plan may sit about 1e-13 relative above UMR/2
    for halfwidth in (PLAN.range_budget_m / 2.0, PLAN.umr_m / 2.0 * (1.0 + 1e-12)):
        assert TrialConfig(**base, truth_halfwidth_m=halfwidth).resolved_halfwidth() == halfwidth
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="truth_m"):
            TrialConfig(**base, truth_m=bad)
    # a fixed truth beyond UMR/2 is as meaningless as such a half-width
    half_umr = PLAN.umr_m / 2.0
    for bad in (1e6, -1e6, half_umr * (1.0 + 1e-8), -half_umr * (1.0 + 1e-8)):
        with pytest.raises(ConfigError, match="truth_m .* beyond half the unambiguous range"):
            TrialConfig(**base, truth_m=bad)
    for truth in (half_umr, -half_umr, half_umr * (1.0 + 1e-12), 0.0):
        assert TrialConfig(**base, truth_m=truth).truth_m == truth


def test_uniform_truths_refuse_a_non_positive_range_budget(monkeypatch):
    # A library plan may carry a K that the CLI's plan validation refuses:
    # K = 0 would put every truth at 0, numpy refuses a draw at K < 0, and
    # K/2 beyond UMR/2 would draw truths that no estimator can place.
    def no_draw(seeds):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(simkit, "_trial_streams", no_draw)
    half_umr = PLAN.umr_m / 2.0
    beyond = "truth half-width {!r} m exceeds half the unambiguous range, " + f"{half_umr!r} m"
    for budget, message in (
        (0.0, "uniform truths need a positive range budget, got K = 0.0 m"),
        (-40.0, "uniform truths need a positive range budget, got K = -40.0 m"),
        (1e6, beyond.format(5e5)),
        (PLAN.umr_m * (1.0 + 1e-8), beyond.format(half_umr * (1.0 + 1e-8))),
    ):
        cfg = TrialConfig(plan=replace(PLAN, range_budget_m=budget), noise=NoiseSpec(0.01),
                          trials=50, seed=1)
        for call in (cfg.resolved_halfwidth, lambda: run_trials(cfg)):
            with pytest.raises(ConfigError) as err:
                call()
            assert str(err.value) == message


def test_fixed_truth_policy():
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec(0.0), trials=50, seed=4,
        methods=("concerto",), truth_m=31.25,
    )
    # a given truth_m alone fixes every trial's truth
    truths, _, _ = simkit._evaluate_block(cfg, 0, 50)
    assert truths.tolist() == [31.25] * 50
    row = run_trials(cfg).rows[0]
    assert row.mse_m2 <= 1e-18
    assert row.mean_error_m == pytest.approx(0.0, abs=1e-10)


def test_csv_text_is_pinned():
    # Cells are compared as text, so a 1.0 written as 1, or a float's
    # shortest repr lost, shows here.
    report = SimReport(rows=[
        SimRow(
            sweep_param=20.0, method="concerto", n_trials=3000,
            mse_m2=0.1 + 0.2, rmse_m=0.5477225575051661, p_fail_lambda0=1.0,
            p_fail_stderr=0.0, p_coarse_fail=0.25, p_coarse_fail_stderr=1e-300,
            crb_m2=2.5e-07, mean_error_m=-0.0, mse_stderr_m2=math.nan,
        ),
        SimRow(sweep_param=-5.0, method="bw", n_trials=12, mse_m2=0.0, rmse_m=0.0),
        SimRow(sweep_param=1.0, method="concerto", n_trials=0, error="infeasible"),
    ])
    assert report.to_csv() == (
        CSV_HEADER + "\n"
        "20.0,concerto,3000,0.30000000000000004,0.5477225575051661,"
        "-5.228787452803375,1.0,0.0,0.25,2.5e-07,-0.0,nan,1e-300\n"
        "-5.0,bw,12,0.0,0.0,-inf,nan,nan,nan,nan,nan,nan,nan\n"
        "1.0,concerto,0,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan\n"
    )
    assert CSV_HEADER == ",".join(CSV_COLUMNS)
    row = report.rows[0]
    assert [c for c in CSV_COLUMNS if not hasattr(row, c)] == []


def test_metric_consistency_and_csv_schema():
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec.from_snr_db(8.0), trials=2000, seed=12,
        methods=("concerto", "bw"), truth_halfwidth_m=36.0,
    )
    report = sweep_snr(cfg, [8.0, 14.0])
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # 2 SNR points x 2 methods
    for row in report.rows:
        assert row.rmse_m**2 == pytest.approx(row.mse_m2, rel=1e-12)
        assert 0.0 <= row.p_fail_lambda0 <= 1.0
        if row.mse_m2 > 0:
            assert row.mse_db == pytest.approx(10 * math.log10(row.mse_m2), rel=1e-12)
        assert row.p_fail_stderr == pytest.approx(
            math.sqrt(row.p_fail_lambda0 * (1 - row.p_fail_lambda0) / row.n_trials),
            rel=1e-12, abs=1e-15,
        )
    # every column keeps its position; the standard errors come last
    header = CSV_HEADER.split(",")
    assert header[:11] == (
        "sweep_param,method,n_trials,mse_m2,rmse_m,mse_db,"
        "p_fail_lambda0,p_fail_stderr,p_coarse_fail,crb_m2,mean_error_m"
    ).split(",")
    assert header[11:] == ["mse_stderr_m2", "p_coarse_fail_stderr"]
    for line, row in zip(lines[1:], report.rows):
        cells = dict(zip(header, line.split(",")))
        assert len(cells) == len(header) == len(line.split(","))
        assert float(cells["mse_stderr_m2"]) == row.mse_stderr_m2 > 0.0
        if row.method == "concerto":
            assert float(cells["p_coarse_fail_stderr"]) == row.p_coarse_fail_stderr
            assert row.p_coarse_fail_stderr == pytest.approx(
                math.sqrt(row.p_coarse_fail * (1 - row.p_coarse_fail) / row.n_trials),
                rel=1e-12, abs=1e-15,
            )
        else:
            assert math.isnan(float(cells["p_coarse_fail_stderr"]))


def test_sweep_snr_exact_in_high_snr_limit():
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec(0.1), trials=300, seed=21,
        methods=("concerto", "bw", "ef"), truth_halfwidth_m=36.0,
    )
    report = sweep_snr(cfg, [200.0])
    for row in report.rows:
        assert row.p_fail_lambda0 == 0.0
        assert row.mse_m2 < 1e-12


def test_sweep_snr_failure_rate_monotone_and_ordered():
    plan51 = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C)
    cfg = TrialConfig(
        plan=plan51, noise=NoiseSpec(0.1), trials=2000, seed=33,
        methods=("concerto", "bw", "ef"), truth_halfwidth_m=36.0,
    )
    grid = [6.0, 10.0, 14.0]
    report = sweep_snr(cfg, grid)
    conc = [r for r in report.rows if r.method == "concerto"]
    # common random numbers: non-increasing failure rate with SNR
    assert conc[0].p_fail_lambda0 >= conc[1].p_fail_lambda0 >= conc[2].p_fail_lambda0
    for snr_db in grid:
        rows = {r.method: r for r in report.rows if r.sweep_param == snr_db}
        slack = 3 * rows["concerto"].p_fail_stderr
        assert rows["concerto"].p_fail_lambda0 <= rows["bw"].p_fail_lambda0 + slack
        assert rows["concerto"].p_fail_lambda0 <= rows["ef"].p_fail_lambda0 + slack


def test_crb_floor_at_moderate_snr():
    plan51 = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C)
    cfg = TrialConfig(
        plan=plan51, noise=NoiseSpec.from_snr_db(15.0), trials=2000, seed=44,
        methods=("concerto", "bw"), truth_halfwidth_m=36.0,
    )
    for row in run_trials(cfg).rows:
        assert row.mse_m2 >= row.crb_m2 - 3 * row.mse_stderr_m2


def test_sweep_range_basics():
    report = sweep_range(2500e6, 2400e6, 16, [1e3, 1e4], 200.0, 400, 7, C)
    assert all(r.p_coarse_fail == 0.0 for r in report.rows)

    noisy = sweep_range(2500e6, 2400e6, 16, [1e3, 1e4], 5.0, 2000, 7, C)
    p = [r.p_coarse_fail for r in noisy.rows]
    se = [r.p_coarse_fail_stderr for r in noisy.rows]
    assert p[1] >= p[0] - 3 * (se[0] + se[1])


def test_sweep_range_infeasible_entry_continues():
    report = sweep_range(2500e6, 2400e6, 16, [1.0, 1e4], 5.0, 200, 7, C)
    assert report.rows[0].error is not None
    assert report.rows[0].n_trials == 0
    assert report.rows[1].error is None
    assert report.rows[1].n_trials == 200
    # error rows keep the CSV schema intact
    lines = report.to_csv().strip().split("\n")
    assert len(lines) == 3


def test_snr_threshold_first_point_and_sentinel():
    # easy configuration (many frequencies, small K, comfortable SNR):
    # threshold is the first grid point
    easy = snr_threshold(2500e6, 2400e6, 51, 144.0, [24.0, 25.0], 400, 5, 1e-3, C)
    assert easy.threshold_db == 24.0
    assert len(easy.rows) == 1

    # hopeless configuration: sentinel result, all rows evaluated
    hard = snr_threshold(2500e6, 2400e6, 4, 1e4, [-10.0, -9.0], 300, 5, 1e-3, C)
    assert hard.threshold_db is None
    assert len(hard.rows) == 2

    with pytest.raises(InvalidArgumentError):
        snr_threshold(2500e6, 2400e6, 16, 200.0, [], 100, 5, 1e-3, C)
    with pytest.raises(InvalidArgumentError):
        snr_threshold(2500e6, 2400e6, 16, 200.0, [10.0, 9.0], 100, 5, 1e-3, C)
    with pytest.raises(InvalidArgumentError):
        snr_threshold(2500e6, 2400e6, 16, 200.0, [10.0], 100, 5, 2.0, C)


def test_report_round_trip_floats():
    cfg = TrialConfig(
        plan=PLAN, noise=NoiseSpec.from_snr_db(10.0), trials=200, seed=2,
        methods=("concerto",),
    )
    report = run_trials(cfg)
    text = report.to_csv()
    fields = text.strip().split("\n")[1].split(",")
    assert float(fields[3]) == report.rows[0].mse_m2  # repr round-trips


@pytest.mark.parametrize(
    "snr_db,policy",
    [(10.0, "uniform"), (20.0, "uniform"), (10.0, "fixed"), (20.0, "fixed"), (None, "uniform")],
)
def test_row_blocks_match_trial_by_trial_scalar_path(snr_db, policy):
    # The parent trial-by-trial loop: one generator per trial, the truth
    # drawn first, then wrap(2*pi*L/lambda + sigma*z) and the scalar
    # estimators on each observation.
    noise = NoiseSpec(0.0) if snr_db is None else NoiseSpec.from_snr_db(snr_db)
    cfg = TrialConfig(
        plan=PLAN, noise=noise, trials=simkit.CHUNK_TRIALS, seed=17,
        methods=("concerto", "bw", "ef"), truth_m=-23.75 if policy == "fixed" else None,
    )
    lam = np.array(PLAN.wavelengths_m)
    halfwidth = cfg.resolved_halfwidth()
    coarse_limit = C / (2.0 * PLAN.bandwidth_hz)
    truths, phases, l_coarse, l_final = [], [], {}, {}
    for t in range(cfg.trials):
        rng = np.random.default_rng(mix_seed(cfg.seed, t))
        l_true = rng.uniform(-halfwidth, halfwidth) if policy == "uniform" else cfg.truth_m
        state = rng.bit_generator.state
        ideal = TWO_PI * l_true / lam
        if noise.sigma_rad > 0.0:
            ideal = ideal + noise.sigma_rad * rng.standard_normal(lam.size)
        obs = PhaseObservation(phases_rad=wrap_phase(ideal), plan=PLAN, truth_m=l_true)
        # the one-row synthesis draws the same normals
        rng.bit_generator.state = state
        again = synthesize_observation(l_true, PLAN, noise, rng)
        np.testing.assert_array_equal(again.phases_rad, obs.phases_rad)
        truths.append(l_true)
        phases.append(obs.phases_rad)
        for name in cfg.methods:
            trace = lookup_estimator(name)(obs)
            l_coarse.setdefault(name, []).append(trace.l_coarse_m)
            l_final.setdefault(name, []).append(trace.l_final_m)
    truths = np.array(truths)

    # With ef in the batch every trial is synthesized on its own for it;
    # concerto and bw alone take the block synthesis. Both give the same
    # phases, and concerto and bw the same estimates.
    batched = replace(cfg, methods=("concerto", "bw"))
    block_phases, block_coarse, block_final = [], {}, {}
    for lo in range(0, cfg.trials, simkit.BLOCK_ROWS):
        hi = min(lo + simkit.BLOCK_ROWS, cfg.trials)
        b_truths, b_phases, estimates = simkit._evaluate_block(cfg, lo, hi)
        np.testing.assert_array_equal(b_truths, truths[lo:hi])
        block_phases.append(b_phases)
        for name, (lc, lf) in estimates.items():
            block_coarse.setdefault(name, []).append(lc)
            block_final.setdefault(name, []).append(lf)
        o_truths, o_phases, only = simkit._evaluate_block(batched, lo, hi)
        np.testing.assert_array_equal(o_truths, b_truths)
        np.testing.assert_array_equal(o_phases, b_phases)
        for name in batched.methods:
            np.testing.assert_array_equal(only[name][0], estimates[name][0])
            np.testing.assert_array_equal(only[name][1], estimates[name][1])
    np.testing.assert_array_equal(np.concatenate(block_phases), np.array(phases))

    partial = simkit._run_chunk(cfg, 0, cfg.trials)
    for name in cfg.methods:
        scalar_final = np.array(l_final[name])
        batch_final = np.concatenate(block_final[name])
        assert np.max(np.abs(batch_final - scalar_final)) <= 1e-12, name
        e = scalar_final - truths
        assert partial[name]["fail"] == np.count_nonzero(np.abs(e) > lam[0]), name
        assert partial[name]["sum_e2"] == pytest.approx(float(np.sum(e * e)), rel=1e-9)
    np.testing.assert_array_equal(
        np.concatenate(block_coarse["concerto"]), np.array(l_coarse["concerto"]))
    coarse = np.abs(truths - np.array(l_coarse["concerto"])) > coarse_limit
    assert partial["concerto"]["coarse_fail"] == np.count_nonzero(coarse)
    if snr_db == 10.0:
        assert partial["concerto"]["fail"] > 0  # the comparison covers failures


def test_wrapped_estimator_sees_every_trial(monkeypatch):
    # A wrapper has no row-block kernel, so it is called once per trial, on
    # the observation synthesize_observation made for that trial.
    cfg = TrialConfig(plan=PLAN, noise=NoiseSpec.from_snr_db(15.0), trials=300, seed=8)
    expected = run_trials(cfg).rows[0]
    original = lookup_estimator("concerto")
    seen, synthesized = [], []

    def wrapper(obs):
        seen.append(obs)
        return original(obs)

    def synthesize(*args):
        synthesized.append(simkit_synthesize(*args))
        return synthesized[-1]

    simkit_synthesize = simkit.synthesize_observation
    monkeypatch.setitem(estimators._REGISTRY, "concerto", wrapper)
    monkeypatch.setattr(simkit, "synthesize_observation", synthesize)
    row = run_trials(cfg).rows[0]
    assert len(seen) == len(synthesized) == cfg.trials
    assert all(a is b for a, b in zip(seen, synthesized))
    assert (row.p_fail_lambda0, row.p_coarse_fail) == (
        expected.p_fail_lambda0, expected.p_coarse_fail)
    # the final fit's dot product sums in another order on a row block
    assert row.mse_m2 == pytest.approx(expected.mse_m2, rel=1e-12)
