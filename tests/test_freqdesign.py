"""Frequency-pattern design, validation, and the plan file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unwrapkit import (
    FrequencyPlan,
    InfeasibleDesignError,
    InvalidArgumentError,
    design_bw_plan,
    design_concerto_plan,
    plan_from_csv,
    plan_to_csv,
    validate_plan,
)

C = 3e8


def test_ratio_matches_published_operating_point():
    # f_0 = 2500 MHz, f_50 = 2400 MHz, K = 144 m: B*K/c = 48, r = 48^(1/49)
    plan = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C)
    assert plan.ratio == pytest.approx(48.0 ** (1.0 / 49.0), rel=1e-12)
    assert round(plan.ratio, 4) == 1.0822
    assert plan.umr_m == pytest.approx(144.0, rel=1e-9)


def test_published_wavelength_sets_regenerate():
    published = {
        4: (1.1, 1.1001, 1.1075, 1.9),
        6: (1.1, 1.1001, 1.1011, 1.1092, 1.1849, 2.9),
        8: (1.1, 1.1001, 1.1005, 1.1023, 1.1098, 1.1433, 1.3144, 3.7),
    }
    for n, lams in published.items():
        plan = design_concerto_plan(C / lams[0], C / lams[-1], n, 1e4, C)
        # agreement at the fourth decimal place (one unit in the last digit)
        diffs = [abs(got - pub) for got, pub in zip(plan.wavelengths_m, lams)]
        assert max(diffs) < 1e-4, (n, diffs)
        assert plan.umr_m == pytest.approx(1e4, rel=1e-9)


def test_concerto_ratio_chain_equal():
    plan = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C)
    f = np.array(plan.freqs_hz)
    ratios = (f[0] - f[2:]) / (f[0] - f[1:-1])
    assert np.max(np.abs(ratios / plan.ratio - 1.0)) < 1e-9


def test_concerto_umr_identity_and_r_above_one():
    # UMR = (c/B) * r^(N-2) whenever B*K/c > 1
    for n, k in ((3, 2.0), (5, 144.0), (16, 1e5), (51, 144.0)):
        b = 100e6
        kk = max(k, 1.5 * C / b)
        plan = design_concerto_plan(2500e6, 2400e6, n, kk, C)
        assert plan.ratio > 1.0
        assert plan.umr_m == pytest.approx((C / b) * plan.ratio ** (n - 2), rel=1e-9)
        assert plan.umr_m / kk == pytest.approx(1.0, abs=1e-9)


def test_design_monotone_in_n():
    ratios = [
        design_concerto_plan(2500e6, 2400e6, n, 144.0, C).ratio
        for n in (3, 5, 9, 17, 51, 101)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_design_errors():
    with pytest.raises(InvalidArgumentError):
        design_concerto_plan(2500e6, 2400e6, 2, 144.0, C)
    with pytest.raises(InfeasibleDesignError):
        design_concerto_plan(2500e6, 2400e6, 5, 1.0, C)  # B*K/c = 1/3
    with pytest.raises(InvalidArgumentError):
        design_concerto_plan(2400e6, 2500e6, 5, 144.0, C)
    with pytest.raises(InvalidArgumentError):
        design_bw_plan(2500e6, 100e6, 2, C)
    # the speed is checked before B*K/c, which it would otherwise make look infeasible
    for bad_c in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match="propagation speed"):
            design_concerto_plan(2500e6, 2400e6, 5, 144.0, bad_c)
        with pytest.raises(InvalidArgumentError, match="propagation speed"):
            design_bw_plan(2500e6, 100e6, 5, bad_c)


def test_bw_design_closed_form():
    # rho = f_0/B = 25: f_1 = 2500 MHz - 100 MHz/25 = 2496 MHz, f_2 = 2400 MHz
    plan = design_bw_plan(2500e6, 100e6, 3, C)
    assert plan.ratio == 25.0
    assert plan.freqs_hz[1] == pytest.approx(2496e6, rel=1e-12)
    assert plan.freqs_hz[2] == pytest.approx(2400e6, rel=1e-12)
    assert plan.umr_m == pytest.approx(75.0, rel=1e-9)
    assert validate_plan(plan) == []


def test_bw_design_rejects_collapsing_frequencies():
    # rho = 25: from n = 7 f_0 resolves the smallest offset B*rho^-(n-2) too
    # coarsely for the offset ratios to hold rho, at n = 13 that offset falls
    # below half an ulp of f_0, and beyond n = 222 rho^(n-2) overflows a float
    assert design_bw_plan(2500e6, 100e6, 6, C).n == 6
    for n in (7, 12, 13, 300):
        with pytest.raises(InvalidArgumentError, match=f"n = {n} is too large"):
            design_bw_plan(2500e6, 100e6, n, C)


def test_designed_plans_are_refused_or_valid_as_plan_files():
    # Every plan a design function returns passes validate_plan, also when
    # re-read from its CSV as the CLI's --plan loader reads it; every other
    # design is refused. The bw draws span the CSV round-trip property's bw
    # space, and the concerto grid reaches K = 1e10 m.
    rng = np.random.default_rng(2024)
    draws = 4000
    designs = [
        (InvalidArgumentError, design_bw_plan, (f_high, f_high * frac, n, c))
        for f_high, frac, n, c in zip(
            rng.uniform(1e8, 1e10, draws).tolist(), rng.uniform(0.02, 0.6, draws).tolist(),
            rng.integers(3, 13, draws).tolist(), rng.uniform(1e8, 3e8, draws).tolist(),
        )
    ] + [
        (InfeasibleDesignError, design_concerto_plan, (2500e6, 2400e6, n, k_m, C))
        for n in range(3, 65, 4) for k_m in np.logspace(0, 10, 41).tolist()
    ]
    refused = 0
    for refusal, design, args in designs:
        try:
            plan = design(*args)
        except refusal:
            refused += 1
            continue
        assert validate_plan(plan) == [], args
        again = plan_from_csv(plan_to_csv(plan))
        assert again == plan and validate_plan(again) == [], args
    # about 500 bw draws and 280 concerto designs are refused
    assert 0 < refused < len(designs) // 2


def test_bw_design_last_ratio_automatic():
    # The chain ends at lambda_0: Lambda_{N-1}/lambda_0 = f_0/B holds by construction.
    plan = design_bw_plan(2500e6, 100e6, 6, C)
    beat_last = plan.c_m_s / plan.bandwidth_hz
    assert beat_last / plan.wavelengths_m[0] == pytest.approx(plan.ratio, rel=1e-12)


def test_validate_plan_violations():
    good = design_concerto_plan(2500e6, 2400e6, 11, 144.0, C)
    assert validate_plan(good) == []

    flat = FrequencyPlan(freqs_hz=(2.5e9, 2.5e9, 2.4e9), c_m_s=C)
    assert any("frequency-order" in v for v in validate_plan(flat))

    # 1 Hz perturbation of an interior frequency breaks the ratio chain
    freqs = list(good.freqs_hz)
    freqs[5] += 1.0
    bent = FrequencyPlan(
        freqs_hz=tuple(freqs),
        c_m_s=C,
        pattern_kind="concerto",
        range_budget_m=good.range_budget_m,
        ratio=good.ratio,
    )
    assert any("ratio-mismatch" in v for v in validate_plan(bent))

    negative = FrequencyPlan(freqs_hz=(1e9, -2e9))
    assert any("positivity" in v for v in validate_plan(negative))

    short = FrequencyPlan(
        freqs_hz=(2.5e9, 2.4e9), c_m_s=C, pattern_kind="concerto",
        range_budget_m=10.0, ratio=2.0,
    )
    assert any("frequency-count" in v for v in validate_plan(short))

    broke_budget = FrequencyPlan(
        freqs_hz=good.freqs_hz, c_m_s=C, pattern_kind="concerto",
        range_budget_m=good.range_budget_m * 2.0, ratio=good.ratio,
    )
    assert any("umr-below-budget" in v for v in validate_plan(broke_budget))


def test_design_round_trip_random_draws():
    # Physically sensible envelope: carriers up to 10 GHz, fractional
    # bandwidth >= 2%, range budgets up to B*K/c = 1e4. Smaller fractional
    # offsets would sink below the carrier's float resolution.
    rng = np.random.default_rng(99)
    for _ in range(1000):
        f_high = rng.uniform(1e8, 1e10)
        b = f_high * rng.uniform(0.02, 0.6)
        n = int(rng.integers(3, 40))
        k = rng.uniform(1.5, 1e4) * C / b
        plan = design_concerto_plan(f_high, f_high - b, n, k, C)
        assert validate_plan(plan) == []


def test_plan_csv_round_trip():
    plan = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C)
    again = plan_from_csv(plan_to_csv(plan))
    assert again == plan

    explicit = FrequencyPlan(freqs_hz=(2.0e9, 1.7e9, 1.1e9))
    assert plan_from_csv(plan_to_csv(explicit)) == explicit

    with pytest.raises(InvalidArgumentError):
        plan_from_csv("index,f_hz,lambda_m\n")
    with pytest.raises(InvalidArgumentError):
        plan_from_csv("not a plan\n")
    with pytest.raises(InvalidArgumentError, match="line 2: f_hz 'abc'"):
        plan_from_csv("index,f_hz,lambda_m\n0,abc,0.12\n")
    for key in ("c_m_s", "ratio", "range_budget_m"):
        with pytest.raises(InvalidArgumentError, match=key):
            plan_from_csv(f"# {key}=xyz\nindex,f_hz,lambda_m\n0,2.5e9,0.12\n")


def _field_bits(plan):
    """Every field of a plan, each float as its bit pattern."""
    def bits(v):
        return v if v is None or isinstance(v, str) else float(v).hex()
    return (tuple(map(bits, plan.freqs_hz)), bits(plan.c_m_s), plan.pattern_kind,
            bits(plan.range_budget_m), bits(plan.ratio))


_SPEEDS = st.floats(1e8, 3e8)
_CONCERTO = st.builds(
    lambda f_high, frac, n, bk, c: (f_high, f_high * (1.0 - frac), n, bk * c / (f_high * frac), c),
    st.floats(1e8, 1e10), st.floats(0.02, 0.6), st.integers(3, 64), st.floats(1.5, 1e4), _SPEEDS,
)
_BW = st.tuples(st.floats(1e8, 1e10), st.floats(0.02, 0.6), st.integers(3, 12), _SPEEDS)
_OPTIONAL = st.none() | st.floats(allow_nan=False)
_EXPLICIT = st.builds(
    FrequencyPlan,
    freqs_hz=st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool),
                      min_size=1, max_size=8).map(tuple),
    c_m_s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    range_budget_m=_OPTIONAL,
    ratio=_OPTIONAL,
)


def _bw_plan_or_none(f_high, frac, n, c):
    """The designed ``bw`` plan, or None where ``design_bw_plan`` refuses it
    (a small B/f_0 with a large n fails ``validate_plan``)."""
    try:
        return design_bw_plan(f_high, f_high * frac, n, c)
    except InvalidArgumentError:
        return None


def _numpy_scalars(args):
    """The design arguments with every float as a numpy float64 scalar."""
    return tuple(np.float64(a) if isinstance(a, float) else a for a in args)


_EXPLICIT_NUMPY = st.builds(
    FrequencyPlan,
    freqs_hz=st.lists(st.floats(1e6, 1e11).map(np.float64), min_size=1, max_size=8).map(tuple),
    c_m_s=_SPEEDS.map(np.float64),
    range_budget_m=st.none() | st.floats(1.0, 1e6).map(np.float64),
    ratio=st.none() | st.floats(1.0, 1e3).map(np.float64),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plan=st.one_of(
    _CONCERTO.map(lambda a: design_concerto_plan(*a)),
    _BW.map(lambda a: _bw_plan_or_none(*a)).filter(lambda p: p is not None),
    _EXPLICIT,
    # numpy scalars in, as a caller computing the design inputs with numpy
    # hands them over; the plan must still write a file it can read back
    _CONCERTO.map(lambda a: design_concerto_plan(*_numpy_scalars(a))),
    _BW.map(lambda a: _bw_plan_or_none(*_numpy_scalars(a))).filter(lambda p: p is not None),
    _EXPLICIT_NUMPY,
))
def test_plan_csv_round_trip_property(plan):
    again = plan_from_csv(plan_to_csv(plan))
    assert again == plan
    assert _field_bits(again) == _field_bits(plan)
