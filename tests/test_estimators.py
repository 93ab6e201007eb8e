"""Estimator stages against independent brute-force oracles.

Oracles used here:
  * the residual stage's weighted least-squares form, with its weight matrix
    built from closed-form entries and literally as Gamma' (I - uu'/N) Gamma
    (``w_oracle``), against the package's O(N) phase-slope constants;
  * per-index folding integers recomputed from the definition at the truth;
  * the alignment-cost grid maximizer for the residual stage;
  * a fine grid plus exact parabolic refinement for the final-fit cost;
  * Gaussian tail rates for the chain rounding steps.
"""

import inspect
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unwrapkit import (
    DegeneratePlanError,
    EstimateTrace,
    FrequencyPlan,
    InvalidArgumentError,
    NoiseSpec,
    PhaseObservation,
    UnknownEstimatorError,
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
    lookup_estimator,
    ls_refine,
    mix_seed,
    residual_estimate,
    sigma_e,
    synthesize_observation,
    true_phases,
    validate_plan,
    wrap_phase,
)
from unwrapkit import estimators
from unwrapkit.core import wrap_inplace
from unwrapkit.estimators import (
    PlanConstants,
    _bw_rows,
    _chain,
    _concerto_rows,
    _residual,
    plan_constants,
)

from grid_oracle import cost_grid_oracle
from w_oracle import build_w, product_w, residual_constants, residual_oracle

C = 3e8
TWO_PI = 2.0 * math.pi
PLAN51 = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C)


def _noisy_obs(plan, l_true, sigma, rng):
    lam = np.array(plan.wavelengths_m)
    theta = sigma * rng.standard_normal(lam.size)
    phases = wrap_phase(TWO_PI * l_true / lam + theta)
    return PhaseObservation(phases_rad=phases, plan=plan, truth_m=l_true), theta


# -- residual weights -------------------------------------------------------
# The package builds the residual constants in O(N); the weight matrix of the
# weighted least-squares form they replace is test-side (``w_oracle``).

#: Relative tolerance of the package's residual constants, and of the residual
#: range, against the weighted least-squares form through W, fixed before the
#: constants were measured against it: they agreed to 1.1e-13 at worst over
#: 2,000 plans drawn as in the explicit-plan test below.
RESIDUAL_RTOL = 1e-12


def test_build_w_small_cases():
    np.testing.assert_allclose(build_w(3), [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)
    np.testing.assert_allclose(build_w(2), [[0.5]], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 51, 200])
def test_build_w_equals_matrix_product_oracle(n):
    np.testing.assert_allclose(build_w(n), product_w(n), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 51])
def test_w_symmetric_positive_definite(n):
    w = build_w(n)
    assert np.array_equal(w, w.T)
    assert np.linalg.eigvalsh(w).min() >= -1e-10


def test_residual_weights_reject_one_frequency():
    k = PlanConstants(FrequencyPlan(freqs_hz=(C / 0.7,), c_m_s=C))
    for name in ("w_delta_f", "residual_denom"):
        with pytest.raises(InvalidArgumentError, match="at least two frequencies"):
            getattr(k, name)


def _assert_residual_constants(plan):
    k = PlanConstants(plan)
    w_df, denom = residual_constants(plan)
    assert k.w_delta_f.flags.c_contiguous and k.w_delta_f.base is None
    np.testing.assert_allclose(k.w_delta_f, w_df, rtol=RESIDUAL_RTOL, atol=0.0)
    assert k.residual_denom == pytest.approx(denom, rel=RESIDUAL_RTOL, abs=0.0)


def test_residual_constants_match_the_product_oracle():
    for n in range(3, 65):
        for k_m in (150.0, 14_400.0):
            _assert_residual_constants(design_concerto_plan(2500e6, 2400e6, n, k_m, C))
    for n in range(3, 7):
        _assert_residual_constants(design_bw_plan(2500e6, 100e6, n, C))


@st.composite
def _decreasing_plans(draw):
    """Strictly decreasing explicit plans of 2 to 80 frequencies, with random,
    near-equal or ``bw``-pattern (geometric offsets from f_0) spacings, on
    bands from 1e-6 f_0 to 0.4 f_0."""
    n = draw(st.integers(2, 80))
    f0 = draw(st.sampled_from([1e9, 2.5e9, 77e9]))
    band = f0 * 10.0 ** draw(st.floats(-6.0, -0.4))
    spacing = draw(st.sampled_from(["random", "near-equal", "bw"]))
    if spacing == "random":
        gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    elif spacing == "near-equal":
        gaps = 1.0 + np.array(draw(st.lists(st.floats(-1e-6, 1e-6), min_size=n - 1,
                                            max_size=n - 1)))
    else:
        # the smallest offset stays above 1e-6 of the band
        top = 4.0 if n < 3 else min(4.0, 1e6 ** (1.0 / (n - 2)))
        rho = draw(st.floats(1.05, top))
        gaps = np.diff(rho ** np.arange(n, dtype=float))
    offsets = np.cumsum(gaps)
    offsets *= band / offsets[-1]
    freqs = np.concatenate(([f0], f0 - offsets))
    return FrequencyPlan(freqs_hz=tuple(freqs.tolist()), c_m_s=C)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plan=_decreasing_plans(), seed=st.integers(0, 2**32 - 1))
def test_residual_stage_matches_the_weighted_form_on_explicit_plans(plan, seed):
    assert all(a > b for a, b in zip(plan.freqs_hz, plan.freqs_hz[1:]))
    _assert_residual_constants(plan)
    # the residual range on random phases, within the tolerance relative to
    # the sum of its terms' magnitudes, which bounds its rounding
    k = plan_constants(plan)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        comp = rng.uniform(-math.pi, math.pi, plan.n)
        dphi = wrap_phase(comp[:-1] - comp[1:])
        scale = (C / TWO_PI) * float(np.abs(dphi) @ np.abs(k.w_delta_f)) / k.residual_denom
        want = residual_oracle(comp, plan)
        assert abs(residual_estimate(comp, plan) - want) <= RESIDUAL_RTOL * scale


# -- per-plan constants -----------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_plan_constants_match_the_per_plan_formulas_bit_for_bit():
    # PlanConstants builds every constant from one array of frequencies; each
    # must have the bits of the formula it replaced, written out here on the
    # plan's wavelength tuple.
    for n in range(3, 65):
        for k_m in (150.0, 14_400.0):
            plan = design_concerto_plan(2500e6, 2400e6, n, k_m, C)
            k = PlanConstants(plan)
            lam = np.array(plan.wavelengths_m)
            two_pi_inv_lam = TWO_PI * (1.0 / lam)
            beat_lam = lam[1:] * lam[0] / (lam[1:] - lam[0])
            assert np.array_equal(_bits(k.beat_lam), _bits(beat_lam))
            assert np.array_equal(_bits(k.beat_lam), _bits(beat_wavelengths(plan)))
            assert k.beat_ratios == (beat_lam[:-1] / beat_lam[1:]).tolist()
            assert k.beat_last.hex() == float(beat_lam[-1]).hex()
            step = two_pi_inv_lam[:-1] - two_pi_inv_lam[1:]
            assert np.array_equal(_bits(k.step_two_pi_inv_lam), _bits(step))
            for name, want in (("inv_lam", 1.0 / lam), ("two_pi_inv_lam", two_pi_inv_lam),
                               ("lam0", lam[0]),
                               ("inv_sq_sum", (1.0 / lam) @ (1.0 / lam))):
                assert np.array_equal(_bits(getattr(k, name)), _bits(want)), name


#: PlanConstants' lazy constants, by the group one build makes together.
_CHAIN_GROUP = ("beat_lam", "beat_ratios", "beat_last")
_RESIDUAL_GROUP = ("w_delta_f", "residual_denom", "step_two_pi_inv_lam")
_EF_GROUP = ("ef_screen_index", "ef_screen_inv_lam", "ef_screen_rows", "ef_full_rows",
             "ef_slack")


def test_plan_constants_build_each_lazy_group_once(monkeypatch):
    # Every lazy constant belongs to one of three groups. The first read of
    # any member runs the group's builder once and keeps every member, and
    # no other group's, in the instance dict; later reads build nothing.
    builders = {}
    for name, attr in vars(PlanConstants).items():
        if isinstance(attr, estimators._lazy):
            builders.setdefault(attr.fn, []).append(name)
    assert sorted(map(tuple, builders.values())) == sorted(
        [_CHAIN_GROUP, _RESIDUAL_GROUP, _EF_GROUP])
    calls = []
    for fn, names in builders.items():
        def counted(k, fn=fn):
            calls.append(fn)
            return fn(k)
        for name in names:
            monkeypatch.setattr(vars(PlanConstants)[name], "fn", counted)
    for fn, names in builders.items():
        for first in names:
            k = PlanConstants(PLAN51)
            before = set(vars(k))
            calls.clear()
            value = getattr(k, first)
            assert set(vars(k)) - before == set(names)
            assert vars(k)[first] is value
            for name in names:
                getattr(k, name)
            assert calls == [fn]


@pytest.mark.parametrize("freqs, error, residual_refused", [
    ((C / 0.7,), InvalidArgumentError, True),              # one frequency
    ((2.5e9, 2.5e9, 2.4e9), DegeneratePlanError, False),   # a repeated wavelength
    ((1e9, 1e9, 1e9), DegeneratePlanError, True),          # residual denominator 0
])
def test_degenerate_plans_fold_and_fit_but_refuse_the_chain(freqs, error, residual_refused):
    plan = FrequencyPlan(freqs_hz=freqs, c_m_s=C)
    # a lazy group whose build raises keeps none of its constants, so every
    # read raises again; the ef group still builds
    k = PlanConstants(plan)
    refused = _CHAIN_GROUP + (_RESIDUAL_GROUP if residual_refused else ())
    for _ in range(2):
        for name in refused:
            with pytest.raises(error):
                getattr(k, name)
    assert not set(refused) & set(vars(k))
    assert k.ef_full_rows >= 1 and set(_EF_GROUP) <= set(vars(k))
    obs = PhaseObservation(phases_rad=np.full(len(freqs), 0.3), plan=plan)
    fold = fold_integers(obs, 1.25)
    assert np.isfinite(ls_refine(obs, fold))
    for stage in (coarse_estimate, concerto_estimate, bw_estimate):
        with pytest.raises(error):
            stage(obs)
    if residual_refused:
        with pytest.raises(error):
            residual_estimate(obs.phases_rad, plan)
    else:
        assert np.isfinite(residual_estimate(obs.phases_rad, plan))


#: Residual differences on and next to 0, +-pi and +-2*pi, shifted by up to
#: 200 turns (K = 14,400 m reaches about 154), and anywhere in that span.
_WRAP_EDGES = st.sampled_from([s * m * math.pi for m in (0, 1, 2) for s in (1.0, -1.0)]).flatmap(
    lambda x: st.sampled_from([x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)])
)
_RESIDUAL_DIFFS = st.one_of(
    _WRAP_EDGES,
    st.builds(lambda turns, x: TWO_PI * turns + x, st.integers(-200, 200), _WRAP_EDGES),
    st.floats(-400 * math.pi, 400 * math.pi),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(_RESIDUAL_DIFFS, min_size=1, max_size=64), rows=st.integers(1, 4))
def test_wrap_inplace_matches_scalar_wrap_on_every_layout(xs, rows):
    # The one array wrap, element by element against wrap_phase's scalar
    # branch, signed zeros included: on one observation's differences, on a
    # (B, N) row block, and on the (N, B) transposed copy _chain wraps.
    want = _bits([wrap_phase(x) for x in xs])
    assert np.array_equal(_bits(wrap_inplace(np.array(xs))), want)
    size = len(xs) - len(xs) % rows
    if size == 0:
        return
    block = np.array(xs[:size]).reshape(rows, -1)
    want = want[:size].reshape(rows, -1)
    assert np.array_equal(_bits(wrap_inplace(block.copy())), want)
    assert np.array_equal(_bits(wrap_inplace(block.T.copy())), want.T)


# -- chain ------------------------------------------------------------------

def _beat_phases(obs):
    """The wrapped beat phases phi_0 - phi_i, i >= 1."""
    return wrap_phase(obs.phases_rad[0] - obs.phases_rad[1:])


def test_chain_noiseless_matches_per_index_oracle():
    rng = np.random.default_rng(31)
    bs_lam = beat_wavelengths(PLAN51)
    for _ in range(200):
        l_true = rng.uniform(-PLAN51.umr_m / 2, PLAN51.umr_m / 2)
        obs = true_phases(l_true, PLAN51)
        bp = _beat_phases(obs)
        oracle = np.round(l_true / bs_lam - bp / TWO_PI).astype(np.int64)
        np.testing.assert_array_equal(coarse_estimate(obs)[1], oracle)


def test_chain_noiseless_zero():
    obs = true_phases(0.0, PLAN51)
    assert np.all(coarse_estimate(obs)[1] == 0)


def test_chain_error_rate_tracks_sigma_e_tail():
    # High-ratio plan (rho = 20) where the per-step deviation formula is
    # predictive; the chain-failure rate should match its Gaussian tail.
    b = 100e6
    plan = design_concerto_plan(2500e6, 2400e6, 4, 400.0 * C / b, C)
    rho = plan.ratio
    sigma = 0.0532
    per_step = 2.0 * _q(0.5 / sigma_e(sigma, rho))
    predicted = 1.0 - (1.0 - per_step) ** (plan.n - 2)

    rng = np.random.default_rng(17)
    trials, wrong = 20_000, 0
    bs_lam = beat_wavelengths(plan)
    for _ in range(trials):
        l_true = rng.uniform(-plan.umr_m / 4, plan.umr_m / 4)
        obs, theta = _noisy_obs(plan, l_true, sigma, rng)
        bp = _beat_phases(obs)
        oracle = np.round(l_true / bs_lam - bp / TWO_PI).astype(np.int64)
        if not np.array_equal(coarse_estimate(obs)[1], oracle):
            wrong += 1
    rate = wrong / trials
    assert 0.6 * predicted < rate < 1.3 * predicted, (rate, predicted)


def _q(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# -- coarse stage -----------------------------------------------------------

def test_coarse_noiseless_exact():
    for l_true in (0.0, PLAN51.umr_m / 4, -33.7):
        l_c, m_chain = coarse_estimate(true_phases(l_true, PLAN51))
        assert l_c == pytest.approx(l_true, abs=1e-9 * PLAN51.umr_m)
        assert m_chain[0] == 0


# -- compensation -----------------------------------------------------------

def test_compensate_identity_and_exact_cases():
    obs = true_phases(3.7, PLAN51)
    np.testing.assert_array_equal(compensate_phases(obs, 0.0), obs.phases_rad)
    assert np.max(np.abs(compensate_phases(obs, 3.7))) < 1e-9


def test_compensate_shift_matches_substitution():
    lam = np.array(PLAN51.wavelengths_m)
    d = 0.4  # inside c/(2B) = 1.5 m
    obs = true_phases(21.0, PLAN51)
    comp = compensate_phases(obs, 21.0 - d)
    np.testing.assert_allclose(comp, wrap_phase(TWO_PI * d / lam), atol=1e-9)


# -- residual stage ---------------------------------------------------------

def test_residual_zero_input():
    assert residual_estimate(np.zeros(PLAN51.n), PLAN51) == 0.0


def test_residual_noiseless_recovery():
    lam = np.array(PLAN51.wavelengths_m)
    limit = C / (2 * PLAN51.bandwidth_hz)
    for d in np.linspace(-0.95 * limit, 0.95 * limit, 21):
        comp = wrap_phase(TWO_PI * d / lam)
        got = residual_estimate(comp, PLAN51)
        assert abs(got - d) <= 1e-9 * abs(d) + 1e-12


def test_residual_outside_regime_returns_value():
    lam = np.array(PLAN51.wavelengths_m)
    limit = C / (2 * PLAN51.bandwidth_hz)
    out = residual_estimate(wrap_phase(TWO_PI * (2.5 * limit) / lam), PLAN51)
    assert math.isfinite(out)


def test_residual_system_explicit_product_route():
    # The phase-slope fit, and the weighted least-squares form through W's
    # closed-form entries and through the literal Gamma'R^-1Gamma, must give
    # the same estimate to 1e-12 relative.
    rng = np.random.default_rng(23)
    w_entries = build_w(PLAN51.n)
    for _ in range(50):
        comp = rng.uniform(-math.pi, math.pi, PLAN51.n)
        got = residual_estimate(comp, PLAN51)
        assert got == pytest.approx(residual_oracle(comp, PLAN51, w_entries), rel=1e-12)
        assert got == pytest.approx(residual_oracle(comp, PLAN51), rel=1e-12)


def test_residual_degenerate_plan():
    plan = FrequencyPlan(freqs_hz=(1e9, 1e9, 1e9))
    with pytest.raises(DegeneratePlanError):
        residual_estimate(np.zeros(3), plan)
    with pytest.raises(InvalidArgumentError, match="phase count does not match plan"):
        residual_estimate(np.zeros(50), PLAN51)


def test_residual_wraps_the_phases_before_their_differences():
    n = PLAN51.n
    # a non-finite phase is refused before any arithmetic can warn
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match="phase must be finite"):
            residual_estimate(np.full(n, bad), PLAN51)
    # finite phases far outside (-pi, pi]: their difference would overflow
    wild = np.zeros(n)
    wild[:3] = 1e308, -1e308, -1.7976931348623157e308
    got = residual_estimate(wild, PLAN51)
    assert math.isfinite(got) and got == residual_estimate(wrap_phase(wild), PLAN51)
    # on phases in (-pi, pi], wrapping them first is the identity: the bits of
    # wrapping their differences alone
    rng = np.random.default_rng(5)
    k = plan_constants(PLAN51)
    for comp in [*rng.uniform(-math.pi, math.pi, (50, n)), np.full(n, math.pi)]:
        before = float(_residual(k, wrap_phase(comp[:-1] - comp[1:]), 0.0))
        assert residual_estimate(comp, PLAN51) == before


# -- grid oracle ------------------------------------------------------------

def test_cost_grid_oracle_zero_and_noiseless():
    step = C / (200 * PLAN51.bandwidth_hz)
    assert abs(cost_grid_oracle(np.zeros(PLAN51.n), PLAN51)) <= step / 100
    lam = np.array(PLAN51.wavelengths_m)
    for d in (-1.2, -0.31, 0.007, 0.9):
        comp = wrap_phase(TWO_PI * d / lam)
        assert abs(cost_grid_oracle(comp, PLAN51) - d) <= step / 100


def test_residual_matches_grid_oracle_under_noise():
    # 2x the refined grid step on first-stage outputs at 20 dB; the
    # acceptance suite runs the full thousand-trial version.
    rng = np.random.default_rng(41)
    sigma = NoiseSpec.from_snr_db(20.0).sigma_rad
    step = C / (200 * PLAN51.bandwidth_hz)
    hits = 0
    trials = 150
    for _ in range(trials):
        obs, _ = _noisy_obs(PLAN51, rng.uniform(-36.0, 36.0), sigma, rng)
        l_c, _ = coarse_estimate(obs)
        comp = compensate_phases(obs, l_c)
        if abs(residual_estimate(comp, PLAN51) - cost_grid_oracle(comp, PLAN51)) <= 2 * step / 100:
            hits += 1
    assert hits / trials >= 0.95


def test_cost_grid_oracle_argument_checks():
    with pytest.raises(InvalidArgumentError):
        cost_grid_oracle(np.zeros(PLAN51.n), PLAN51, step_m=-1.0)
    with pytest.raises(InvalidArgumentError):
        cost_grid_oracle(np.zeros(PLAN51.n), PLAN51, span_m=C / (4 * PLAN51.bandwidth_hz))


# -- folding ----------------------------------------------------------------

def test_fold_integers_examples():
    obs = true_phases(0.0, PLAN51)
    assert np.all(fold_integers(obs, 0.0) == 0)

    l_true = 17.31
    obs = true_phases(l_true, PLAN51)
    fold = fold_integers(obs, l_true)
    lam = np.array(PLAN51.wavelengths_m)
    recon = (fold + obs.phases_rad / TWO_PI) * lam
    np.testing.assert_allclose(recon, l_true, atol=1e-9)


def test_fold_round_half_away_from_zero():
    plan = FrequencyPlan(freqs_hz=(C,), c_m_s=C)  # lambda_0 = 1 m exactly
    obs_pos = PhaseObservation(phases_rad=[math.pi], plan=plan)
    # exact tie 3.0/1.0 - 0.5 = 2.5 rounds away from zero (3, not bankers' 2)
    assert fold_integers(obs_pos, 3.0)[0] == 3
    # exact tie -2.0/1.0 - 0.5 = -2.5 rounds away from zero (-3, not -2)
    assert fold_integers(obs_pos, -2.0)[0] == -3


def test_stages_refuse_a_range_whose_turns_a_float_cannot_hold():
    obs = true_phases(3.0, PLAN51)
    # l/lambda_0 = l * 8.33/m on PLAN51: 1e15 m is below 2**53 turns, 1.1e15 m above
    for stage in (fold_integers, compensate_phases):
        for l_m in (1.1e15, -1e200, 1e200, 1e308, np.float64(-1e308)):
            with pytest.raises(InvalidArgumentError, match="is too large: l/lambda_i exceeds 2"):
                stage(obs, l_m)
        for l_m in (1e15, -1e15):
            assert np.isfinite(stage(obs, l_m)).all()
    # an ordered plan's UMR/2 stays below the bound, even with its top two
    # frequencies an ulp apart, so bw's fold integers are never refused
    f_0 = 2.5e9
    plan = FrequencyPlan(freqs_hz=(f_0, np.nextafter(f_0, 0.0), 2.4e9), c_m_s=C)
    obs = PhaseObservation(phases_rad=np.full(3, 0.3), plan=plan)
    for l_m in (plan.umr_m / 2.0, -plan.umr_m / 2.0):
        assert fold_integers(obs, l_m).dtype == np.int64
        assert np.isfinite(compensate_phases(obs, l_m)).all()


# -- final fit --------------------------------------------------------------

def _j_cost(l_val, obs, fold):
    lam = np.array(obs.plan.wavelengths_m)
    resid = TWO_PI * l_val / lam - obs.phases_rad - TWO_PI * np.asarray(fold)
    return float(resid @ resid)


def _j_grid_minimizer(obs, fold, center):
    # Fine grid over [center - lambda_0, center + lambda_0] followed by an
    # exact parabolic vertex; the cost is quadratic in L, so this is exact.
    lam0 = obs.plan.wavelengths_m[0]
    grid = np.linspace(center - lam0, center + lam0, 2001)
    costs = np.array([_j_cost(g, obs, fold) for g in grid])
    i = min(max(int(np.argmin(costs)), 1), len(grid) - 2)
    x1, h = grid[i], grid[1] - grid[0]
    y0, y1, y2 = costs[i - 1], costs[i], costs[i + 1]
    denom = y0 - 2 * y1 + y2
    if denom == 0.0:
        return x1
    return x1 + 0.5 * h * (y0 - y2) / denom


def test_stage_functions_refuse_arguments_they_cannot_use():
    # ls_refine takes N finite integral fold integers, residual_estimate N
    # phases in one row, and compensate_phases and fold_integers one finite
    # range: anything else raises InvalidArgumentError, where a short fold
    # once broadcast, another shape failed inside numpy, and NaN or inf came
    # back as INT64_MIN or NaN.
    plan = design_concerto_plan(2500e6, 2400e6, 8, 144.0, C)
    obs = true_phases(3.0, plan)
    for comp in (np.zeros((2, 4)), np.zeros((8, 1))):
        with pytest.raises(InvalidArgumentError, match="phase count does not match plan"):
            residual_estimate(comp, plan)
    good = fold_integers(obs, 3.0)
    for fold in ([3], [1, 2], np.zeros((2, 8)), np.append(good[:-1], 0.5),
                 np.append(good[:-1], math.nan), np.append(good[:-1], math.inf)):
        with pytest.raises(InvalidArgumentError,
                           match="fold integers must be 8 finite integral values"):
            ls_refine(obs, fold)
    for stage in (fold_integers, compensate_phases):
        for l_m in (math.nan, math.inf, -math.inf, np.array([1.0, 2.0]), "3.0", None):
            with pytest.raises(InvalidArgumentError, match="range must be a finite scalar"):
                stage(obs, l_m)
    # what they take is as before: int or float, Python or numpy
    l_final = ls_refine(obs, good)
    assert l_final == pytest.approx(3.0, abs=1e-9)
    for fold in (tuple(good.tolist()), good.tolist(), good.astype(float)):
        assert ls_refine(obs, fold) == l_final
    for l_m in (3, np.int64(3), np.float64(3.0)):
        assert np.array_equal(fold_integers(obs, l_m), good)
        assert np.array_equal(compensate_phases(obs, l_m), compensate_phases(obs, 3.0))


def test_ls_refine_noiseless_and_single_frequency():
    l_true = -12.345
    obs = true_phases(l_true, PLAN51)
    fold = fold_integers(obs, l_true)
    assert ls_refine(obs, fold) == pytest.approx(l_true, abs=1e-9 * max(1.0, abs(l_true)))
    # the fit is exactly the quotient (sum_i m_f_i/lambda_i) / (sum_i lambda_i^-2)
    # of the unwrapped cycle counts m_f = fold + phi/(2*pi)
    inv_lam = 1.0 / np.array(PLAN51.wavelengths_m)
    m_f = fold + obs.phases_rad * (1.0 / TWO_PI)
    assert ls_refine(obs, fold) == m_f.dot(inv_lam) / inv_lam.dot(inv_lam)

    single = FrequencyPlan(freqs_hz=(C / 0.7,), c_m_s=C)
    obs1 = true_phases(0.4, single)
    fold1 = fold_integers(obs1, 0.4)
    lam0 = single.wavelengths_m[0]
    expected = (fold1[0] + obs1.phases_rad[0] / TWO_PI) * lam0
    assert ls_refine(obs1, fold1) == pytest.approx(expected, rel=1e-12)


def test_ls_refine_matches_grid_minimizer():
    rng = np.random.default_rng(53)
    sigma = 0.05
    for _ in range(100):
        l_true = rng.uniform(-60, 60)
        obs, _ = _noisy_obs(PLAN51, l_true, sigma, rng)
        fold = fold_integers(obs, l_true + rng.uniform(-0.01, 0.01))
        got = ls_refine(obs, fold)
        oracle = _j_grid_minimizer(obs, fold, got)
        assert abs(got - oracle) < 1e-6


# -- full pipelines ---------------------------------------------------------

def test_concerto_noiseless_examples():
    trace = concerto_estimate(true_phases(-12.345, PLAN51))
    assert trace.l_final_m == pytest.approx(-12.345, abs=1e-9)
    assert trace.method == "concerto"

    zero = concerto_estimate(true_phases(0.0, PLAN51))
    assert zero.l_final_m == 0.0
    assert zero.fold_ints == (0,) * 51


def test_concerto_noiseless_sweep():
    rng = np.random.default_rng(61)
    for _ in range(300):
        l_true = rng.uniform(-72.0, 72.0)
        trace = concerto_estimate(true_phases(l_true, PLAN51))
        assert abs(trace.l_final_m - l_true) < 1e-6


def test_concerto_trace_mid_identity():
    rng = np.random.default_rng(67)
    for _ in range(50):
        obs, _ = _noisy_obs(PLAN51, rng.uniform(-36, 36), 0.15, rng)
        for fn in (concerto_estimate, bw_estimate, ef_estimate):
            trace = fn(obs)
            assert trace.l_mid_m == trace.l_coarse_m + trace.l_residual_m
            assert math.isfinite(trace.l_final_m)
            assert trace.delta_m == trace.l_final_m - obs.truth_m


def test_concerto_stages_match_stage_functions():
    # concerto wraps the coarse-shifted adjacent phase differences in one
    # step, where the stage functions wrap each compensated phase first.
    # Modulo 2*pi the differences are the same, so the residual ranges agree
    # to rounding: the stage functions round 2*pi*l_c/lambda_i (up to 4e3 rad
    # here) to about 5e-13 rad, well inside 1e-12 m. Every integer and the
    # other ranges agree exactly.
    rng = np.random.default_rng(89)
    for _ in range(500):
        obs, _ = _noisy_obs(PLAN51, rng.uniform(-36, 36), rng.uniform(0.02, 0.3), rng)
        trace = concerto_estimate(obs)
        l_c, m_chain = coarse_estimate(obs)
        assert trace.l_coarse_m == l_c
        assert trace.m_chain == tuple(m_chain.tolist())
        l_r = residual_estimate(compensate_phases(obs, l_c), PLAN51)
        assert trace.l_residual_m == pytest.approx(l_r, rel=0.0, abs=1e-12)
        assert trace.fold_ints == tuple(fold_integers(obs, trace.l_mid_m).tolist())
        assert trace.l_final_m == ls_refine(obs, trace.fold_ints)


_TRACE_FIELDS = ("method", "m_chain", "l_coarse_m", "l_residual_m", "l_mid_m",
                 "fold_ints", "l_final_m", "delta_m")
_TRACE_RANGES = ("l_coarse_m", "l_residual_m", "l_mid_m", "l_final_m", "delta_m")


def _counting(fn, calls, key):
    def counted(*args):
        calls[key] += 1
        return fn(*args)
    return counted


def test_trace_integer_fields_and_immutability(monkeypatch):
    # bw's fold integers and ef's chain integers are computed on first read,
    # through these module-level functions
    calls = {"fold_integers": 0, "_ef_chain": 0}
    for name in calls:
        monkeypatch.setattr(estimators, name, _counting(getattr(estimators, name), calls, name))

    obs = true_phases(12.5, PLAN51)
    for fn in (concerto_estimate, bw_estimate, ef_estimate):
        trace = fn(obs)
        assert calls == {"fold_integers": 0, "_ef_chain": 0}
        assert trace.m_chain == tuple(coarse_estimate(obs)[1].tolist())
        for field in (trace.m_chain, trace.fold_ints):
            assert type(field) is tuple
            assert all(type(v) is int for v in field)
        for _ in range(3):
            trace.m_chain, trace.fold_ints
        lazy = {"bw": "fold_integers", "ef": "_ef_chain"}.get(trace.method)
        assert calls == {name: int(name == lazy) for name in calls}
        calls.update(dict.fromkeys(calls, 0))
        # plain Python floats, so `cli estimate` prints 12.5, not np.float64(12.5)
        for name in _TRACE_RANGES:
            assert type(getattr(trace, name)) is float, (trace.method, name)

        before = {name: getattr(trace, name) for name in _TRACE_FIELDS}
        for name in _TRACE_FIELDS:
            with pytest.raises(AttributeError):
                setattr(trace, name, before[name])
        with pytest.raises(AttributeError):
            trace.extra = 1
        assert {name: getattr(trace, name) for name in _TRACE_FIELDS} == before

        # the keyword constructor, with integer fields handed over as
        # functions: each is called once, however often it is read
        built_calls = {"m_chain": 0, "fold_ints": 0}
        built = EstimateTrace(**{
            name: _counting(lambda v=value: list(v), built_calls, name)
            if name in built_calls else value
            for name, value in before.items()
        })
        for _ in range(3):
            assert {name: getattr(built, name) for name in _TRACE_FIELDS} == before
        assert repr(built) == repr(trace)
        assert built_calls == {"m_chain": 1, "fold_ints": 1}

    fixed = EstimateTrace(
        method="concerto", m_chain=[0, 1.0, -2], l_coarse_m=1.5, l_residual_m=-0.25,
        l_mid_m=1.25, fold_ints=np.array([3.0, -1.0, 0.0]), l_final_m=0.1 + 0.2,
        delta_m=-2.5e-13,
    )
    assert repr(fixed) == (
        "EstimateTrace(method='concerto', m_chain=(0, 1, -2), l_coarse_m=1.5, "
        "l_residual_m=-0.25, l_mid_m=1.25, fold_ints=(3, -1, 0), "
        "l_final_m=0.30000000000000004, delta_m=-2.5e-13)"
    )


def test_stage2_regime_invariant():
    # Whenever the injected coarse error is inside c/(2B), the residual stage
    # recovers it on noiseless data.
    rng = np.random.default_rng(71)
    limit = C / (2 * PLAN51.bandwidth_hz)
    for _ in range(100):
        l_true = rng.uniform(-60, 60)
        d = rng.uniform(-0.99, 0.99) * limit
        obs = true_phases(l_true, PLAN51)
        comp = compensate_phases(obs, l_true - d)
        assert residual_estimate(comp, PLAN51) == pytest.approx(d, rel=1e-9, abs=1e-12)


def test_concerto_conditional_moments_small():
    # Conditional on correct folding integers, the error is the weighted
    # noise average: mean ~ 0 and MSE ~ the closed form. The full-size
    # version is acceptance criterion 3.
    rng = np.random.default_rng(73)
    sigma = NoiseSpec.from_snr_db(20.0).sigma_rad
    lam = np.array(PLAN51.wavelengths_m)
    errors = []
    trials = 20_000
    for _ in range(trials):
        l_true = rng.uniform(-36, 36)
        obs, theta = _noisy_obs(PLAN51, l_true, sigma, rng)
        trace = concerto_estimate(obs)
        true_fold = np.round(
            (TWO_PI * l_true / lam + theta - obs.phases_rad) / TWO_PI
        ).astype(np.int64)
        if np.array_equal(np.asarray(trace.fold_ints), true_fold):
            errors.append(trace.l_final_m - l_true)
    errors = np.array(errors)
    assert errors.size > 0.99 * trials
    theory = crb(PLAN51, NoiseSpec(sigma))
    mse = float(np.mean(errors**2))
    assert mse == pytest.approx(theory, rel=0.06)
    stderr = math.sqrt(mse / errors.size)
    assert abs(float(np.mean(errors))) < 5 * stderr


def test_bw_noiseless_and_m0_reliability():
    assert bw_estimate(true_phases(37.25, PLAN51)).l_final_m == pytest.approx(37.25, abs=1e-9)
    assert bw_estimate(true_phases(0.0, PLAN51)).l_final_m == 0.0

    # final rounding at lambda_0 survives small noise: m_0 = 0 for L = lambda_0/8
    rng = np.random.default_rng(79)
    lam0 = PLAN51.wavelengths_m[0]
    good = 0
    trials = 10_000
    for _ in range(trials):
        obs, _ = _noisy_obs(PLAN51, lam0 / 8, 0.01, rng)
        trace = bw_estimate(obs)
        if trace.fold_ints[0] == 0 and abs(trace.l_final_m - lam0 / 8) < lam0 / 2:
            good += 1
    assert good / trials >= 0.99


def _ef_over(obs, k_m):
    """``ef_estimate`` on ``obs`` with its plan's range budget, the range K
    that ``ef`` searches, set to ``k_m``."""
    plan = replace(obs.plan, range_budget_m=k_m)
    return ef_estimate(PhaseObservation(obs.phases_rad, plan, obs.truth_m))


def test_ef_noiseless_and_bounds():
    rng = np.random.default_rng(83)
    for _ in range(20):
        l_true = rng.uniform(-70, 70)
        trace = ef_estimate(true_phases(l_true, PLAN51))
        assert abs(trace.l_final_m - l_true) < 1e-9
    assert ef_estimate(true_phases(0.0, PLAN51)).l_final_m == 0.0

    with pytest.raises(InvalidArgumentError):
        _ef_over(true_phases(0.0, PLAN51), 2 * PLAN51.umr_m)
    with pytest.raises(InvalidArgumentError):
        _ef_over(true_phases(0.0, PLAN51), -1.0)
    # negative frequencies give a negative lambda_0, so no candidate lies
    # between the search bounds
    negative = FrequencyPlan(freqs_hz=(-1e9, -1.001e9), c_m_s=C)
    with pytest.raises(InvalidArgumentError, match="empty candidate set"):
        ef_estimate(PhaseObservation(phases_rad=np.zeros(2), plan=negative))


def test_ef_refuses_a_search_beyond_its_candidate_limit(monkeypatch):
    # Top frequencies an ulp apart pass validate_plan, but their UMR is
    # 6.3e14 m: some 5e15 candidates, years of scanning. The search is
    # refused before the scan's buffers are touched.
    wide = FrequencyPlan(freqs_hz=(2.5e9, math.nextafter(2.5e9, 0.0)), c_m_s=C)
    assert validate_plan(wide) == [] and wide.umr_m > 6e14

    def no_scan():
        raise AssertionError("the scan started")

    monkeypatch.setattr(estimators, "_ef_scratch", no_scan)
    with pytest.raises(InvalidArgumentError, match=r"search of \d+ candidates exceeds "
                                                   r"the limit of 100000000"):
        ef_estimate(PhaseObservation(phases_rad=np.zeros(2), plan=wide))
    monkeypatch.undo()
    # the limit is inclusive: criterion 9's small-K call scans 1,203 candidates
    obs = true_phases(1.0, PLAN51)
    monkeypatch.setattr(estimators, "_EF_MAX_CANDIDATES", 1203)
    assert ef_estimate(obs).l_final_m == pytest.approx(1.0, abs=1e-9)
    monkeypatch.setattr(estimators, "_EF_MAX_CANDIDATES", 1202)
    with pytest.raises(InvalidArgumentError, match="search of 1203 candidates exceeds "
                                                   "the limit of 1202"):
        ef_estimate(obs)


def _eager_ef_chain(obs, l_final):
    """``ef``'s beat-chain analogue, computed as every ``ef`` call once did."""
    phases = obs.phases_rad
    beat_turns = wrap_phase(phases[0] - phases[1:]) * (1 / TWO_PI)
    v = l_final / plan_constants(obs.plan).beat_lam - beat_turns
    return tuple(int(m) for m in np.copysign(np.floor(np.abs(v) + 0.5), v))


def _first_read_observations():
    """Criterion 1's noiseless observations, then criterion 9's timed ones."""
    seed = 20260810
    rng = np.random.default_rng(seed)
    observations = [true_phases(rng.uniform(-72.0, 72.0), PLAN51) for _ in range(1000)]
    noise = NoiseSpec.from_snr_db(20.0)
    plan_large = design_concerto_plan(2500e6, 2400e6, 51, 14_400.0, C)
    for plan, count in ((PLAN51, 300), (plan_large, 30)):
        for t in range(count):
            rng = np.random.default_rng(mix_seed(seed, t))
            l_true = rng.uniform(-plan.range_budget_m / 4, plan.range_budget_m / 4)
            observations.append(synthesize_observation(l_true, plan, noise, rng))
    return observations


def test_ef_m_chain_is_computed_on_first_read():
    for obs in _first_read_observations():
        trace = ef_estimate(obs)
        assert callable(trace._m_chain)
        assert trace.m_chain == _eager_ef_chain(obs, trace.l_final_m)
        assert trace.m_chain is trace.m_chain
        assert all(type(v) is int for v in trace.m_chain)


def test_bw_fold_ints_are_computed_on_first_read():
    for obs in _first_read_observations():
        trace = bw_estimate(obs)
        assert callable(trace._fold_ints)
        assert trace.fold_ints == tuple(fold_integers(obs, trace.l_final_m).tolist())
        assert trace.fold_ints is trace.fold_ints
        assert all(type(v) is int for v in trace.fold_ints)


def _one_pass_ef_oracle(obs, k_m):
    """``ef`` with its candidate scan in one pass: the whole (M, N-1) array of
    folding fractions at once, ``einsum`` per row, then the first ``argmin``.
    Returns (l_coarse_m, l_final_m, fold_ints, delta_m)."""
    lam = np.array(obs.plan.wavelengths_m)
    phases = obs.phases_rad
    phi0_turns = float(phases[0]) * (1.0 / TWO_PI)
    m_lo = math.ceil(-k_m / (2.0 * lam[0]) - 1.0)
    m_hi = math.floor(k_m / (2.0 * lam[0]) + 1.0)
    l_cand = (np.arange(m_lo, m_hi + 1, dtype=float) + phi0_turns) * lam[0]
    f = l_cand[:, None] * (1.0 / lam[1:]) - phases[1:] * (1.0 / TWO_PI)
    f -= np.rint(f)
    l_coarse = (m_lo + int(np.argmin(np.einsum("ij,ij->i", f, f))) + phi0_turns) * lam[0]
    fold = fold_integers(obs, l_coarse)
    l_final = ls_refine(obs, fold)
    return l_coarse, l_final, tuple(fold.tolist()), l_final - obs.truth_m


def _assert_ef_matches_oracle(obs, k_m):
    trace = _ef_over(obs, k_m)
    got = (trace.l_coarse_m, trace.l_final_m, trace.fold_ints, trace.delta_m)
    assert got == _one_pass_ef_oracle(obs, k_m)
    if obs.plan.n > 1:
        assert trace.m_chain == _eager_ef_chain(obs, trace.l_final_m)


def test_ef_scan_matches_one_pass_oracle():
    rng = np.random.default_rng(20261018)
    # the designed plans at every SNR, truths anywhere in the search range
    for k_m, per_snr in ((144.0, 30), (1440.0, 6), (14_400.0, 1)):
        plan = design_concerto_plan(2500e6, 2400e6, 51, k_m, C)
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            noise = NoiseSpec.from_snr_db(snr_db)
            for _ in range(per_snr):
                l_true = rng.uniform(-k_m / 2, k_m / 2)
                _assert_ef_matches_oracle(synthesize_observation(l_true, plan, noise, rng), k_m)

    # 0 and -5 dB at K = 1,440 m: most of the 12,003 candidates survive the
    # screen, so their full scores fill many chunks
    plan = design_concerto_plan(2500e6, 2400e6, 51, 1440.0, C)
    for snr_db in (0.0, -5.0):
        noise = NoiseSpec.from_snr_db(snr_db)
        for _ in range(3):
            l_true = rng.uniform(-720.0, 720.0)
            _assert_ef_matches_oracle(synthesize_observation(l_true, plan, noise, rng), 1440.0)

    # plans with N - 1 <= C, whose every fraction column the screen covers
    width = estimators._EF_SCREEN_COLUMNS
    for plan in (FrequencyPlan((2.5e9, 2.49e9), c_m_s=C),
                 design_concerto_plan(2500e6, 2400e6, 3, 144.0, C),
                 design_concerto_plan(2500e6, 2400e6, width + 1, 1440.0, C)):
        assert plan.n - 1 <= width
        k_m = plan.range_budget_m or plan.umr_m
        for snr_db in (-5.0, 0.0, 20.0, 40.0):
            noise = NoiseSpec.from_snr_db(snr_db)
            for _ in range(3):
                l_true = rng.uniform(-k_m / 2, k_m / 2)
                _assert_ef_matches_oracle(synthesize_observation(l_true, plan, noise, rng), k_m)

    # candidate counts around the screen's chunk rows, and around the row
    # count from which numpy runs a screen chunk unbuffered (3 x rows at
    # least its buffer size); an odd count is all a symmetric search range
    # gives, so the N = 18 plan, whose screen covers its 17 columns in an odd
    # row count, covers the count equal to it. The scan splits a count into
    # equal chunks; truths sit on the candidates either side of the first
    # chunk boundary.
    unbuffered = -(-estimators._EF_SCREEN_BUFSIZE // 3)
    for n in (51, 18):
        plan = design_concerto_plan(2500e6, 2400e6, n, 1440.0, C)
        cap = plan_constants(plan).ef_screen_rows
        lam0 = plan.wavelengths_m[0]
        for count in (unbuffered - 1, unbuffered, unbuffered + 1,
                      cap - 1, cap, cap + 1, 2 * cap + 1):
            if count % 2 == 0:
                continue
            k_m = (count - 2) * lam0
            m_lo = math.ceil(-k_m / (2.0 * lam0) - 1.0)
            assert math.floor(k_m / (2.0 * lam0) + 1.0) - m_lo + 1 == count
            chunks = -(-count // cap)
            rows = -(-count // chunks)
            for snr_db, index in ((40.0, 0), (40.0, rows - 1), (40.0, rows),
                                  (40.0, count - 1), (0.0, None), (0.0, None)):
                noise = NoiseSpec.from_snr_db(snr_db)
                if index is None:
                    l_true = rng.uniform(-k_m / 2, k_m / 2)
                else:
                    l_true = (m_lo + min(index, count - 1) + 0.1) * lam0
                _assert_ef_matches_oracle(synthesize_observation(l_true, plan, noise, rng), k_m)

    # one frequency: UMR is infinite and every score is exactly 0, so the tie
    # spans every chunk boundary and the first candidate, m_lo, must win
    plan = FrequencyPlan((2.4e9,), c_m_s=C)
    cap = plan_constants(plan).ef_screen_rows
    lam0 = plan.wavelengths_m[0]
    for k_m in (500.0, (cap - 3) * lam0, (cap - 1) * lam0, (2 * cap - 1) * lam0):
        obs = PhaseObservation(np.array([0.7]), plan, truth_m=3.0)
        _assert_ef_matches_oracle(obs, k_m)
        m_lo = math.ceil(-k_m / (2.0 * lam0) - 1.0)
        assert _ef_over(obs, k_m).l_coarse_m == (m_lo + 0.7 / TWO_PI) * lam0



def test_ef_leaves_numpy_settings_as_found():
    # The screen runs in a numpy context of its own: the caller's buffer size
    # and error handling are the same after a return and after each refusal,
    # and a thread's first estimate, which builds that context, leaves the
    # thread's defaults alone.
    obs = true_phases(3.0, PLAN51)

    def settings():
        return np.getbufsize(), np.geterr()

    refused = (0.0, -1.0, math.inf, -math.inf, math.nan, 2 * PLAN51.umr_m)
    with np.errstate(under="raise", invalid="ignore"):
        np.setbufsize(4096)
        before = settings()
        ef_estimate(obs)
        assert settings() == before
        for k_m in refused:
            with pytest.raises(InvalidArgumentError):
                _ef_over(obs, k_m)
            assert settings() == before

    seen = []

    def first_estimate():
        before = settings()
        trace = ef_estimate(obs)
        seen.append((before, settings(), trace.l_final_m))

    thread = threading.Thread(target=first_estimate)
    thread.start()
    thread.join(timeout=60.0)
    assert seen == [(settings(), settings(), ef_estimate(obs).l_final_m)]


def test_ef_blocks_match_one_pass_oracle(monkeypatch):
    # Candidate blocks shrunk so that 12,003 candidates span several: truths
    # on the candidates either side of a block boundary, where a later block
    # finds every partial score above the earlier best, and at 0 dB, where
    # the bound stays loose; one frequency ties every block.
    rng = np.random.default_rng(20261020)
    plan = design_concerto_plan(2500e6, 2400e6, 51, 1440.0, C)
    lam0 = plan.wavelengths_m[0]
    m_lo = math.ceil(-1440.0 / (2.0 * lam0) - 1.0)
    for block in (1000, 2561):
        monkeypatch.setattr(estimators, "_EF_BLOCK", block)
        for snr_db, index in ((40.0, block - 1), (40.0, block), (40.0, 2 * block),
                              (0.0, None), (-5.0, None)):
            noise = NoiseSpec.from_snr_db(snr_db)
            l_true = (rng.uniform(-720.0, 720.0) if index is None
                      else (m_lo + index + 0.1) * lam0)
            _assert_ef_matches_oracle(synthesize_observation(l_true, plan, noise, rng), 1440.0)
        one = FrequencyPlan((2.4e9,), c_m_s=C)
        obs = PhaseObservation(np.array([0.7]), one, truth_m=3.0)
        _assert_ef_matches_oracle(obs, 3 * block * one.wavelengths_m[0])


def _ef_full_score_count(obs):
    """Candidates ``ef_estimate`` scores in full on ``obs`` (one block), by its
    rule rebuilt from the plan constants: the window around the lowest
    partial score on the screen's columns, and every other candidate whose
    partial score is at most the window's best full score times the slack,
    plus the floor."""
    k = plan_constants(obs.plan)
    k_m = obs.plan.range_budget_m
    m_lo = math.ceil(-k_m / (2.0 * k.lam0) - 1.0)
    m_hi = math.floor(k_m / (2.0 * k.lam0) + 1.0)
    turns = obs.phases_rad * (1.0 / TWO_PI)
    l_cand = (np.arange(m_lo, m_hi + 1, dtype=float) + turns[0]) * k.lam0

    def squared_distances(columns, l_m):
        f = k.inv_lam[columns][:, None] * l_m - turns[columns][:, None]
        f -= np.rint(f)
        return f * f

    partial = squared_distances(k.ef_screen_index[:, 0], l_cand).sum(axis=0)
    star = int(partial.argmin())
    window = slice(max(star - estimators._EF_WINDOW, 0), star + estimators._EF_WINDOW + 1)
    bound = squared_distances(np.arange(1, obs.plan.n), l_cand[window]).sum(axis=0).min()
    partial[window] = math.inf
    outside = int((partial <= bound * k.ef_slack + estimators._EF_FLOOR).sum())
    return len(l_cand[window]) + outside, l_cand.size


def test_ef_screen_prunes_almost_every_candidate(monkeypatch):
    # The oracle tests check only what ef returns: a screen that let most
    # candidates through to a full score would pass them, and only a timing
    # would show it. On the 51-frequency plans the candidates that reach a
    # full score are counted, both as the scan itself scores them and by its
    # rule rebuilt from the plan constants; they stay within 1% of the search
    # on average and 5% in any call. Measured here at 12 to 20 screen
    # columns: at 10 dB means of 9 to 17 and maxima of 24 to 227 of 12,003
    # candidates; at 20 dB at most 6, of 12,003 or of 1,203. At the 14
    # columns in use: a mean of 13.2 and a maximum of 111 at 10 dB; at
    # 20 dB a mean of 5.0 and a maximum of 6, and 5 of 120,003 in each of
    # the 4 calls on the K = 14,400 m plan.
    scored = []
    full_scores = estimators._ef_best

    def counting(k, l_cand, *rest):
        scored.append(l_cand.size)
        return full_scores(k, l_cand, *rest)

    monkeypatch.setattr(estimators, "_ef_best", counting)
    rng = np.random.default_rng(20261021)
    for k_m, snr_db, calls in ((1440.0, 10.0, 40), (1440.0, 20.0, 40), (144.0, 20.0, 40),
                               (14_400.0, 20.0, 4)):
        plan = design_concerto_plan(2500e6, 2400e6, 51, k_m, C)
        noise = NoiseSpec.from_snr_db(snr_db)
        counts = []
        for _ in range(calls):
            obs = synthesize_observation(rng.uniform(-k_m / 2, k_m / 2), plan, noise, rng)
            scored.clear()
            ef_estimate(obs)
            count, candidates = _ef_full_score_count(obs)
            assert sum(scored) == count
            counts.append(count)
        assert sum(counts) <= 0.01 * candidates * len(counts)
        assert max(counts) <= 0.05 * candidates


def test_ef_threads_match_sequential():
    # Each thread scans in its own chunk buffers; the plan's screen constants
    # are shared, and on a fresh plan they are first built under contention.
    plan = design_concerto_plan(2500e6, 2400e6, 51, 1440.0, C)
    rng = np.random.default_rng(20261019)
    noise = NoiseSpec.from_snr_db(10.0)
    observations = [synthesize_observation(rng.uniform(-700.0, 700.0), plan, noise, rng)
                    for _ in range(12)]

    def traces(order):
        return {i: (t.l_coarse_m, t.l_final_m, t.fold_ints)
                for i, t in ((i, ef_estimate(observations[i])) for i in order)}

    results = []

    def work(shift):
        results.append(traces([(i + shift) % 12 for i in range(12)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = traces(range(12))
    assert len(results) == 4 and all(r == expected for r in results)


# -- registry ---------------------------------------------------------------

def test_registry_lookup():
    functions = {"bw": bw_estimate, "concerto": concerto_estimate, "ef": ef_estimate}
    assert estimators._REGISTRY.keys() == functions.keys()
    assert all(lookup_estimator(name) is fn for name, fn in functions.items())
    # ef has no row-block kernel
    assert estimators.BLOCK_KERNELS.keys() == {concerto_estimate, bw_estimate}


def test_every_estimator_takes_one_observation():
    # (PhaseObservation) -> EstimateTrace: ef searches its plan's range K
    for name, fn in estimators._REGISTRY.items():
        assert len(inspect.signature(fn).parameters) == 1, name


def test_registry_unknown_name():
    with pytest.raises(UnknownEstimatorError):
        lookup_estimator("dcrt")


# -- row-block kernels against the scalar estimators --------------------------


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(3, 51),
    k_log=st.floats(math.log(36.0), math.log(14_400.0)),
    snr_db=st.one_of(st.none(), st.floats(-5.0, 80.0)),
    truths=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_block_kernels_match_scalar_estimators(n, k_log, snr_db, truths, seed):
    # The row-block kernels run the scalar stages on (B, N); only the final
    # fit's dot product sums in another order (gemv against ddot), so
    # l_final may move by a few ulps of K, and nothing else may move.
    k_m = math.exp(k_log)
    plan = design_concerto_plan(2500e6, 2400e6, n, k_m, C)
    sigma = 0.0 if snr_db is None else NoiseSpec.from_snr_db(snr_db).sigma_rad
    l_true = np.array(truths) * k_m
    lam = np.array(plan.wavelengths_m)
    noise = sigma * np.random.default_rng(seed).standard_normal((l_true.size, n))
    phases = wrap_phase(TWO_PI * l_true[:, None] / lam + noise)
    bound = 4.0 * np.finfo(float).eps * k_m
    for rows, estimate in ((_concerto_rows, concerto_estimate), (_bw_rows, bw_estimate)):
        l_coarse, l_final = rows(plan_constants(plan), phases)
        for i, row in enumerate(phases):
            trace = estimate(PhaseObservation(phases_rad=row, plan=plan))
            assert l_coarse[i] == trace.l_coarse_m
            assert abs(l_final[i] - trace.l_final_m) <= bound


def _wrap_edge_rows(n):
    """Rows whose beat phases phi_0 - phi_j hit the wrap's edges at stage j:
    exactly +-pi, and +-2*pi after rounding (phi_0 = nextafter(-pi, 0)
    against pi, and the mirror case), with the phase before stage j a little
    above, at or below phi_0 so that the stage's integer and the coarse
    range come out as zeros of either sign."""
    pi = math.pi
    just_above_minus_pi = float(np.nextafter(-pi, 0.0))
    assert just_above_minus_pi - pi == -TWO_PI and pi - just_above_minus_pi == TWO_PI
    edges = [
        (pi / 2, -pi / 2),                  # +pi
        (-pi / 2, pi / 2),                  # -pi
        (just_above_minus_pi, pi),          # rounds to -2*pi
        (pi, just_above_minus_pi),          # rounds to +2*pi
    ]
    rows = []
    for phi0, phi_j in edges:
        for j in (1, n // 2, n - 1):
            for step in (-1e-15, 0.0, 1e-15, 0.3):
                row = np.full(n, phi0)
                row[j] = phi_j
                if j > 1 and -pi < phi0 + step <= pi:
                    row[j - 1] = phi0 + step
                rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 3, 51])
def test_one_observation_chain_matches_block_at_wrap_edges(n):
    # The one-observation chain folds its beat phases without wrap_inplace;
    # the row block still wraps with it. Compare bits, since -0.0 == 0.0.
    # (A chain integer that rounds from v = -0.0 is +0.0 on one observation
    # and -0.0 in a block; the next stage adds +0.0 to it either way, so only
    # its integer value is compared.)
    plan = PLAN51 if n == 51 else FrequencyPlan(freqs_hz=(2.5e9, 2.45e9, 2.4e9)[:n])
    k = plan_constants(plan)
    rows = _wrap_edge_rows(n)
    m_block, turns_block = _chain(k, rows)
    l_coarse_block = turns_block * k.beat_last
    negative_zeros = 0
    for i, row in enumerate(rows):
        m_chain, turns = _chain(k, row)
        assert turns.hex() == turns_block[i].hex()
        obs = PhaseObservation(phases_rad=row, plan=plan)
        for estimate in (concerto_estimate, bw_estimate):
            trace = estimate(obs)
            assert trace.l_coarse_m.hex() == l_coarse_block[i].hex()
            assert trace.m_chain == tuple(int(m[i]) for m in m_block)
        negative_zeros += turns == 0.0 and math.copysign(1.0, turns) < 0.0
    # With two or more stages some rows end in a coarse range of -0.0, so
    # the sign is really checked; one stage adds phi_0 - phi_1 to +0.0.
    assert negative_zeros > 0 if n > 2 else negative_zeros == 0
