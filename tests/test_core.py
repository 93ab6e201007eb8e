"""Wrapped-phase arithmetic, domain types, and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unwrapkit import (
    DegeneratePlanError,
    FrequencyPlan,
    InvalidArgumentError,
    NoiseSpec,
    PhaseObservation,
    beat_wavelengths,
    concerto_estimate,
    design_concerto_plan,
    true_phases,
    wrap_phase,
)

PI = math.pi


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# -- wrap_phase -------------------------------------------------------------

def test_wrap_identity_and_boundary():
    assert wrap_phase(0.0) == 0.0
    # (-pi, pi] convention: the boundary is +pi, never -pi
    assert wrap_phase(3 * PI) == PI
    assert wrap_phase(-PI) == PI
    assert wrap_phase(PI) == PI
    # on both paths, bit for bit; a zero keeps the sign of its input
    for x, want in ((PI, PI), (-PI, PI), (3 * PI, PI), (-3 * PI, PI),
                    (0.0, 0.0), (2 * PI, 0.0), (-0.0, -0.0), (-2 * PI, -0.0)):
        assert _bits(wrap_phase(x)) == _bits(want)
        assert _bits(wrap_phase(np.array([x]))) == _bits([want])


def test_wrap_range_and_idempotence():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-1e6, 1e6, size=100_000)
    w = wrap_phase(x)
    assert np.all(w > -PI) and np.all(w <= PI)
    assert np.array_equal(wrap_phase(w), w)


def test_wrap_array_matches_scalar_path():
    # The array kernel and the scalar branch implement one convention and
    # agree bit for bit, boundaries and signed zeros included.
    rng = np.random.default_rng(11)
    x = np.concatenate([
        rng.uniform(-1e4, 1e4, size=20_000),
        [PI, -PI, 3 * PI, -3 * PI, 2 * PI, -2 * PI, 0.0, -0.0],
    ])
    got = wrap_phase(x)
    want = np.array([wrap_phase(float(v)) for v in x])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_wrap_periodicity():
    rng = np.random.default_rng(7)
    x = rng.uniform(-PI, PI, size=10_000)
    k = rng.integers(-1_000_000, 1_000_001, size=10_000)
    shifted = x + 2.0 * PI * k
    assert np.max(np.abs(wrap_phase(shifted) - wrap_phase(x))) < 1e-9


def test_wrap_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        wrap_phase(math.nan)
    with pytest.raises(InvalidArgumentError):
        wrap_phase(np.array([0.0, math.inf]))


def test_wrap_scalar_type():
    assert isinstance(wrap_phase(1.0), float)
    assert isinstance(wrap_phase(np.float64(1.0)), float)
    # a 0-d array and a float32 take the array path, and come back as floats
    for x in (np.array(4.0), np.float32(4.0), np.array(-3 * PI)):
        got = wrap_phase(x)
        assert type(got) is float
        assert got == wrap_phase(float(x))


#: Angles on and next to the (-pi, pi] boundary and its multiples, where the
#: convention decides the result.
_EDGE_ANGLES = st.sampled_from([s * k * PI for k in (0, 1, 2, 3) for s in (1.0, -1.0)]).flatmap(
    lambda x: st.sampled_from([x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)])
)
_ANGLES = st.one_of(
    _EDGE_ANGLES,
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda k, x: 2.0 * PI * k + x,
              st.integers(-10**6, 10**6), st.floats(-PI, PI)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(_ANGLES, min_size=1, max_size=8))
def test_wrap_convention_property(xs):
    scalar = [wrap_phase(x) for x in xs]
    for r in scalar:
        assert -PI < r <= PI
    # the array path and the scalar path agree bit for bit, signed zeros included
    assert np.array_equal(_bits(wrap_phase(np.array(xs))), _bits(scalar))
    assert np.array_equal(_bits([wrap_phase(r) for r in scalar]), _bits(scalar))


# -- wrapped differences ----------------------------------------------------

def test_wrap_diff_examples():
    assert wrap_phase(PI - (-PI / 2)) == pytest.approx(-PI / 2, abs=1e-15)
    for x in (0.0, 1.3, -2.9, PI):
        assert wrap_phase(x - x) == 0.0
    assert wrap_phase(0.1 - (-0.1)) == pytest.approx(0.2, abs=1e-15)


def test_wrap_diff_matches_wrap_of_difference():
    # The wrapped difference of two arrays equals the scalar one element by element.
    rng = np.random.default_rng(11)
    a = rng.uniform(-50, 50, size=20_000)
    b = rng.uniform(-50, 50, size=20_000)
    assert np.array_equal(
        wrap_phase(a - b), [wrap_phase(float(x) - float(y)) for x, y in zip(a, b)]
    )


# -- FrequencyPlan ----------------------------------------------------------

def test_plan_wavelength_consistency():
    plan = design_concerto_plan(2500e6, 2400e6, 51, 144.0, 3e8)
    for f, lam in zip(plan.freqs_hz, plan.wavelengths_m):
        assert abs(f * lam - plan.c_m_s) <= 1e-12 * plan.c_m_s


def test_plan_basic_fields():
    plan = FrequencyPlan(freqs_hz=(10e9, 9e9, 8e9), c_m_s=3e8)
    assert plan.n == 3
    assert plan.bandwidth_hz == 2e9
    assert plan.umr_m == pytest.approx(0.3, rel=1e-12)
    assert plan.pattern_kind == "explicit"


def test_plan_rejects_nonsense():
    with pytest.raises(InvalidArgumentError):
        FrequencyPlan(freqs_hz=())
    with pytest.raises(InvalidArgumentError):
        FrequencyPlan(freqs_hz=(1e9, math.nan))
    with pytest.raises(InvalidArgumentError):
        FrequencyPlan(freqs_hz=(1e9,), c_m_s=0.0)
    with pytest.raises(InvalidArgumentError):
        FrequencyPlan(freqs_hz=(1e9,), pattern_kind="mystery")


def test_plan_hashable_for_caching():
    a = FrequencyPlan(freqs_hz=(2e9, 1e9))
    b = FrequencyPlan(freqs_hz=(2e9, 1e9))
    assert a == b and hash(a) == hash(b)


# -- PhaseObservation -------------------------------------------------------

def test_observation_validation():
    plan = FrequencyPlan(freqs_hz=(2e9, 1.5e9, 1e9))
    obs = PhaseObservation(phases_rad=[0.1, -0.2, PI], plan=plan, truth_m=1.0)
    assert obs.n == 3
    assert not obs.phases_rad.flags.writeable
    with pytest.raises(InvalidArgumentError, match="expected 3 phases"):
        PhaseObservation(phases_rad=[0.1, -0.2], plan=plan)
    # the message names the first check a phase fails: finiteness, then range
    for bad, message in ((math.nan, "phases must be finite"),
                         (math.inf, "phases must be finite"),
                         (-math.inf, "phases must be finite"),
                         (3.5, r"phases must lie in \(-pi, pi\]"),
                         (-PI, r"phases must lie in \(-pi, pi\]")):
        for phases in ([0.1, -0.2, bad], [bad, 3.5, -PI]):
            with pytest.raises(InvalidArgumentError, match=message):
                PhaseObservation(phases_rad=phases, plan=plan)
    for truth in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(InvalidArgumentError, match="truth_m must be finite"):
            PhaseObservation(phases_rad=[0.1, -0.2, PI], plan=plan, truth_m=truth)
    assert PhaseObservation(phases_rad=[0.1, -0.2, PI], plan=plan).truth_m is None


# -- beat wavelengths and beat phases --------------------------------------

def _plan_from_wavelengths(lams, c=3e8):
    return FrequencyPlan(freqs_hz=tuple(c / l for l in lams), c_m_s=c)


def _beat_phases(obs):
    """The wrapped beat phases phi_0 - phi_i, i >= 1."""
    return wrap_phase(obs.phases_rad[0] - obs.phases_rad[1:])


def test_beat_wavelength_published_set():
    # lambda_0 = 1.1, lambda_3 = 1.9: Lambda_3 = 1.9*1.1/0.8 = 2.6125
    plan = _plan_from_wavelengths([1.1, 1.1001, 1.1075, 1.9])
    lams = beat_wavelengths(plan)
    assert lams.shape == (plan.n - 1,)
    assert lams[-1] == pytest.approx(2.6125, abs=1e-9)
    assert np.all(np.diff(lams) < 0)


def test_beat_phases_zero_and_quarter_range():
    plan = design_concerto_plan(2500e6, 2400e6, 11, 100.0, 3e8)
    assert np.all(_beat_phases(true_phases(0.0, plan)) == 0.0)
    bp = _beat_phases(true_phases(plan.umr_m / 4.0, plan))
    assert bp[0] == pytest.approx(PI / 2, rel=1e-9)


def test_beat_wavelengths_decreasing_on_random_plans():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f_high = rng.uniform(1e8, 1e10)
        b = f_high * rng.uniform(0.01, 0.5)
        n = int(rng.integers(3, 12))
        k = rng.uniform(1.5, 1e5) * 3e8 / b
        plan = design_concerto_plan(f_high, f_high - b, n, k, 3e8)
        lams = beat_wavelengths(plan)
        assert np.all(np.diff(lams) < 0)
        assert np.all(lams > 0)


def test_beat_wavelengths_degenerate_plan():
    plan = FrequencyPlan(freqs_hz=(1e9, 1e9, 0.5e9))
    with pytest.raises(DegeneratePlanError):
        beat_wavelengths(plan)
    # c / f overflows for subnormal f: lambda_1 repeats an infinite lambda_0
    with np.errstate(over="ignore"), pytest.raises(DegeneratePlanError):
        beat_wavelengths(FrequencyPlan(freqs_hz=(1e-320, 5e-321, 1e9)))


def test_beat_wavelengths_returns_a_fresh_array():
    plan = design_concerto_plan(2500e6, 2400e6, 11, 100.0, 3e8)
    obs = true_phases(17.3, plan)
    before = concerto_estimate(obs)
    first = beat_wavelengths(plan)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(beat_wavelengths(plan), expected)
    assert repr(concerto_estimate(obs)) == repr(before)
    with pytest.raises(InvalidArgumentError):
        beat_wavelengths(FrequencyPlan(freqs_hz=(1e9,)))


# -- true_phases ------------------------------------------------------------

def test_true_phases_examples():
    plan = _plan_from_wavelengths([1.1, 1.2, 1.9])
    assert np.all(true_phases(0.0, plan).phases_rad == 0.0)
    lam0 = plan.wavelengths_m[0]
    assert true_phases(lam0, plan).phases_rad[0] == 0.0
    assert true_phases(lam0 / 4.0, plan).phases_rad[0] == pytest.approx(PI / 2, abs=1e-15)
    assert true_phases(1.0, plan).truth_m == 1.0
    with pytest.raises(InvalidArgumentError):
        true_phases(math.inf, plan)


# -- NoiseSpec --------------------------------------------------------------

def test_noise_spec_round_trip():
    for snr_db in np.linspace(-20.0, 60.0, 81):
        spec = NoiseSpec.from_snr_db(snr_db)
        assert spec.snr_db == pytest.approx(snr_db, rel=1e-12, abs=1e-12)


def test_noise_spec_examples():
    assert NoiseSpec.from_snr_db(0.0).sigma_rad == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert NoiseSpec(0.0).snr_db == math.inf
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(-0.1)
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(math.nan)
    # 10^(snr/10) overflows above about 3082 dB and is 0 below about -3240 dB
    for snr_db in (4000.0, -4000.0):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            NoiseSpec.from_snr_db(snr_db)


#: Values at which the range and finiteness checks decide: NaN, the
#: infinities, the (-pi, pi] edges and their neighbours, signed zeros and
#: subnormals.
_CHECK_VALUES = st.sampled_from([
    math.nan, -math.nan, math.inf, -math.inf, PI, -PI,
    math.nextafter(PI, math.inf), math.nextafter(-PI, math.inf),
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 0.5, -3.0, 7.0,
]) | st.floats(-4.0, 4.0)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_CHECK_VALUES, min_size=1, max_size=12))
def test_phase_checks_match_the_method_predicates(values):
    # PhaseObservation raises exactly when, and with the message that, the
    # ndarray min/max range test and np.all(np.isfinite) decide; so does
    # wrap_phase on its finiteness test.
    arr = np.array(values)
    plan = FrequencyPlan(freqs_hz=tuple(1e9 + 1e6 * i for i in range(arr.size, 0, -1)))
    if arr.min() > -PI and arr.max() <= PI:
        obs = PhaseObservation(phases_rad=values, plan=plan)
        assert np.array_equal(_bits(obs.phases_rad), _bits(arr))
    else:
        message = ("phases must be finite" if not np.all(np.isfinite(arr))
                   else r"phases must lie in \(-pi, pi\]")
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            PhaseObservation(phases_rad=values, plan=plan)
    if np.all(np.isfinite(arr)):
        got = wrap_phase(arr)
        assert np.array_equal(_bits(got), _bits([wrap_phase(float(v)) for v in values]))
        assert np.array_equal(_bits(arr), _bits(values))  # the input is not wrapped in place
    else:
        with pytest.raises(InvalidArgumentError, match="^phase must be finite$"):
            wrap_phase(arr)
