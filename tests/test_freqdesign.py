"""Frequency-pattern design, validation, and the plan file format."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from plan_oracle import validate_plan_oracle

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
from unwrapkit.freqdesign import RATIO_RTOL

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
    for f_high, bandwidth in ((2500e6, 0.0), (2500e6, -1.0), (100e6, 100e6), (100e6, 2500e6)):
        with pytest.raises(InvalidArgumentError, match="need f_high > bandwidth > 0"):
            design_bw_plan(f_high, bandwidth, 5, C)
    # the speed is checked before B*K/c, which it would otherwise make look infeasible
    for bad_c in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match="propagation speed"):
            design_concerto_plan(2500e6, 2400e6, 5, 144.0, bad_c)
        with pytest.raises(InvalidArgumentError, match="propagation speed"):
            design_bw_plan(2500e6, 100e6, 5, bad_c)


def test_design_refuses_a_count_that_is_not_an_integer():
    # refused up front, not as a bare TypeError from range()
    for bad_n in (3.5, 5.0, "5", None):
        with pytest.raises(InvalidArgumentError, match="n must be an integer"):
            design_concerto_plan(2500e6, 2400e6, bad_n, 144.0, C)
        with pytest.raises(InvalidArgumentError, match="n must be an integer"):
            design_bw_plan(2500e6, 100e6, bad_n, C)
    # numpy integers are integers
    assert design_concerto_plan(2500e6, 2400e6, np.int64(5), 144.0, C).n == 5
    assert design_bw_plan(2500e6, 100e6, np.int64(4), C).n == 4


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


def test_bw_design_budget_holds_the_umr_or_is_refused():
    # The closed-form budget (c/B)*(f_0/B)^(N-2) drifts from c/(f_0 - f_1)
    # as f_0 resolves the smallest offset ever more coarsely: at f_0 = 373 MHz,
    # B/f_0 = 0.32 it lies 1.09e-9 above the UMR at n = 16, beyond the
    # tolerance, while the offset ratios still hold. Over every n each draw
    # accepts, a returned plan passes validate_plan with its budget within
    # 1e-8 of its UMR; the first n refused stops the draw.
    assert design_bw_plan(372835221.1063768, 0.31916635705795526 * 372835221.1063768,
                          15, C).n == 15
    with pytest.raises(InvalidArgumentError, match="n = 16 is too large.*umr-below-budget"):
        design_bw_plan(372835221.1063768, 0.31916635705795526 * 372835221.1063768, 16, C)
    rng = np.random.default_rng(7)
    draws = 300
    accepted = worst = 0
    for f_high, frac, c in zip(rng.uniform(1e8, 1e10, draws).tolist(),
                               rng.uniform(0.005, 0.9, draws).tolist(),
                               rng.uniform(1e8, 3e8, draws).tolist()):
        for n in range(3, 400):
            try:
                plan = design_bw_plan(f_high, f_high * frac, n, c)
            except InvalidArgumentError:
                break
            assert validate_plan(plan) == [], (f_high, frac, n, c)
            worst = max(worst, abs(plan.range_budget_m - plan.umr_m) / plan.umr_m)
            accepted += 1
    assert accepted > 5000
    assert worst < 1e-8


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

    # a designed pattern without its ratio, a concerto one without its K
    assert "ratio-missing: designed pattern lacks its common ratio" in validate_plan(
        replace(good, ratio=None))
    assert validate_plan(replace(good, range_budget_m=None)) == [
        "range-budget-missing: concerto pattern lacks K"]
    # a given budget is positive and within the UMR, whatever the pattern
    bw = design_bw_plan(2.5e9, 0.1e9, 5, C)
    for plan in (good, bw, FrequencyPlan(freqs_hz=good.freqs_hz, c_m_s=C)):
        for budget in (0.0, -0.0, -5.0):
            assert validate_plan(replace(plan, range_budget_m=budget)) == [
                f"range-budget: K = {budget!r} m is not positive"]
        too_far = plan.umr_m * (1.0 + 2e-9)
        assert validate_plan(replace(plan, range_budget_m=too_far)) == [
            f"umr-below-budget: UMR = {plan.umr_m!r} m is below K = {too_far!r} m"]
        assert validate_plan(replace(plan, range_budget_m=plan.umr_m * (1.0 + 5e-10))) == []
    assert bw.umr_m == 46875.0
    assert validate_plan(replace(bw, range_budget_m=1e9)) == [
        "umr-below-budget: UMR = 46875.0 m is below K = 1000000000.0 m"]

    # c / f overflows to inf for a subnormal frequency, so lambda * f != c:
    # the wavelength-consistency check can report, and must keep doing so
    overflow = FrequencyPlan(freqs_hz=(2.4e9, 1e-320), c_m_s=C)
    assert math.isinf(overflow.wavelengths_m[1])
    assert validate_plan(overflow) == ["wavelength-consistency: index 1"]


@pytest.mark.parametrize("field, value", [
    ("ratio", math.nan), ("ratio", math.inf), ("ratio", -math.inf),
    ("range_budget_m", math.nan),
])
@pytest.mark.parametrize("design", [
    lambda: design_concerto_plan(2500e6, 2400e6, 11, 144.0, C),
    lambda: design_bw_plan(2.5e9, 0.1e9, 5, C),
], ids=["concerto", "bw"])
def test_validate_plan_names_a_non_finite_ratio_or_budget(design, field, value):
    # NaN passes the ratio-mismatch and umr-below-budget comparisons, and
    # so do some infinities: each is a violation of its own, named first,
    # also after a plan file round trip
    broken = replace(design(), **{field: value})
    for plan in (broken, plan_from_csv(plan_to_csv(broken))):
        assert validate_plan(plan)[0] == f"not-finite: {field} = {value!r} is not finite"


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
    with pytest.raises(InvalidArgumentError, match="malformed row '0'"):
        plan_from_csv("index,f_hz,lambda_m\n0\n")
    for key in ("c_m_s", "ratio", "range_budget_m"):
        with pytest.raises(InvalidArgumentError, match=key):
            plan_from_csv(f"# {key}=xyz\nindex,f_hz,lambda_m\n0,2.5e9,0.12\n")


def test_plan_csv_reads_crlf_blank_lines_padded_cells_and_two_columns():
    plan = design_concerto_plan(2500e6, 2400e6, 8, 144.0, C)
    lines = plan_to_csv(plan).splitlines()
    assert plan_from_csv("\r\n".join(lines) + "\r\n") == plan
    # blank and whitespace-only lines among the rows, cells padded with
    # spaces and tabs, and rows of only index and f_hz
    padded = [lines[0], "", lines[1], "   "]
    padded += ["  " + row.replace(",", " ,\t") + " " for row in lines[2:6]]
    padded += ["\t", *(",".join(row.split(",")[:2]) for row in lines[6:]), "  ", ""]
    assert plan_from_csv("\n".join(padded)) == plan
    assert plan_from_csv("\r\n".join(padded)) == plan


def _refusal(text):
    with pytest.raises(InvalidArgumentError) as info:
        plan_from_csv(text)
    return str(info.value)


def test_plan_csv_errors_name_the_line_at_fault():
    # line numbers count every line of the file: comments, blank lines and
    # the header too, whatever the line ending
    head = "# pattern=explicit\r\n\r\nindex,f_hz,lambda_m\r\n0,2.5e9,0.12\r\n\r\n  # note\r\n"
    assert _refusal(head + "1, 2e9x ,0.13\r\n") == (
        "plan file: line 7: f_hz ' 2e9x ' is not a number")
    assert _refusal(head + "1, 2e9x \r\n") == "plan file: line 7: f_hz ' 2e9x' is not a number"
    assert _refusal(head + "1,\r\n") == "plan file: line 7: f_hz '' is not a number"
    assert _refusal("index,f_hz,lambda_m\n0,abc,0.12\n") == (
        "plan file: line 2: f_hz 'abc' is not a number")
    # a row without a second cell is named by its stripped text
    assert _refusal(head + "  1  \r\n") == "plan file: malformed row '1'"
    # the first bad row is the one named
    assert _refusal(head + "1\n2,abc\n") == "plan file: malformed row '1'"
    assert _refusal(head + "1,abc\n2\n") == "plan file: line 7: f_hz 'abc' is not a number"
    # before the header only comments and blank lines may stand
    assert _refusal("# n=1\n x \nindex,f_hz\n0,2.5e9\n") == "plan file: unexpected line 'x'"
    assert _refusal("0,2.5e9\n") == "plan file: unexpected line '0,2.5e9'"
    for text in ("", "\n \n", "# n=0\n", "index,f_hz,lambda_m\n", "index,f_hz\n# 0,2.5e9\n\n"):
        assert _refusal(text) == "plan file contains no frequency rows"
    assert _refusal("# c_m_s=xyz\nindex,f_hz\n0,2.5e9\n") == "plan file: c_m_s 'xyz' is not a number"
    assert _refusal("# n=2\nindex,f_hz\n0,2.5e9\n") == "plan file: n=2 in the header but 1 rows"


def test_plan_csv_reads_metadata_from_the_header_comment_only():
    # '#' lines among or after the rows are comments: a key=value pair there
    # changes neither the propagation speed nor the range budget
    plan = design_concerto_plan(2500e6, 2400e6, 8, 144.0, C)
    lines = plan_to_csv(plan).splitlines(keepends=True)
    stray_speed = "".join(lines[:5] + ["# c_m_s=3.1e8\n"] + lines[5:])
    trailing_budget = "".join(lines + ["# range_budget_m=100.0\n"])
    for text in (stray_speed, trailing_budget):
        assert _field_bits(plan_from_csv(text)) == _field_bits(plan)
    # before the header, blank lines and several comment lines may stand
    split_header = lines[0].replace(",n=8,", "\n\n#n=8,", 1)
    assert plan_from_csv(split_header + "".join(lines[1:])) == plan


def test_plan_csv_refuses_rows_that_disagree_with_n():
    text = plan_to_csv(design_concerto_plan(2500e6, 2400e6, 8, 144.0, C))
    lines = text.splitlines(keepends=True)
    assert lines[0].startswith("# pattern=concerto,n=8,")
    for rows in (6, 7):
        with pytest.raises(InvalidArgumentError, match=f"n=8 in the header but {rows} rows"):
            plan_from_csv("".join(lines[:2 + rows]))
    with pytest.raises(InvalidArgumentError, match="n=8 in the header but 9 rows"):
        plan_from_csv(text + "8,2.3e9,0.13\n")
    with pytest.raises(InvalidArgumentError, match="plan file: n 'xyz' is not a number"):
        plan_from_csv(text.replace("n=8,", "n=xyz,", 1))
    # a file without n= still loads, and so does a file whose n= is right
    no_n = lines[0].replace("n=8,", "")
    assert plan_from_csv(no_n + "".join(lines[1:])) == plan_from_csv(text)
    assert plan_from_csv(no_n + "".join(lines[1:8])).n == 6


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


#: A ratio or budget that is missing, NaN, infinite, negative or zero.
_ODD_METADATA = st.sampled_from([None, math.nan, math.inf, -math.inf, -2.0, 0.0, -0.0])


@st.composite
def _broken_plans(draw):
    """A designed or explicit plan, with its frequencies shuffled, one
    repeated, negated or nudged, and its ratio and budget perturbed or odd."""
    plan = draw(st.one_of(
        _CONCERTO.map(lambda a: design_concerto_plan(*a)),
        _BW.map(lambda a: _bw_plan_or_none(*a)).filter(lambda p: p is not None),
        _EXPLICIT,
    ))
    freqs = list(plan.freqs_hz)
    i = draw(st.integers(0, len(freqs) - 1))
    edit = draw(st.sampled_from(["none", "shuffle", "repeat", "negate", "nudge"]))
    if edit == "shuffle":
        freqs = draw(st.permutations(freqs))
    elif edit == "repeat":
        freqs.insert(i, freqs[i])
    elif edit == "negate":
        freqs[i] = -freqs[i]
    elif edit == "nudge":
        freqs[i] *= 1.0 + draw(st.floats(-1e-6, 1e-6))

    def perturbed(value):
        near = st.floats(-1e-8, 1e-8).map(lambda e: value * (1.0 + e))
        return draw(st.just(value) | _ODD_METADATA | (st.nothing() if value is None else near))

    return FrequencyPlan(
        freqs_hz=tuple(freqs),
        c_m_s=plan.c_m_s,
        pattern_kind=draw(st.sampled_from([plan.pattern_kind, "concerto", "bw"])),
        range_budget_m=perturbed(plan.range_budget_m),
        ratio=perturbed(plan.ratio),
    )


def _ratio_edge_plans():
    """A 3-frequency concerto plan with its stored ratio r set one ulp either
    side of each edge of the ratio check, so that its one offset ratio q lies
    just inside and just outside r +/- RATIO_RTOL * r, above r and below it."""
    plan = design_concerto_plan(2.5e9, 2.4e9, 3, 144.0, C)
    f_0, f_1, f_2 = plan.freqs_hz
    q = (f_0 - f_2) / (f_0 - f_1)

    def inside(r):
        return abs(q - r) <= RATIO_RTOL * r

    plans = []
    for toward, start in ((0.0, q / (1.0 + RATIO_RTOL)), (math.inf, q / (1.0 - RATIO_RTOL))):
        r = start  # walk to the last r, moving away from q, that still passes
        while not inside(r):
            r = math.nextafter(r, q)
        while inside(math.nextafter(r, toward)):
            r = math.nextafter(r, toward)
        plans += [replace(plan, ratio=r), replace(plan, ratio=math.nextafter(r, toward))]
    return plans


_RATIO_EDGE_PLANS = _ratio_edge_plans()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(plan=_broken_plans())
# c / f overflows for a subnormal f; huge offsets of opposite signs overflow,
# and their quotient, or an infinite ratio taken from it, is NaN
@example(plan=FrequencyPlan(freqs_hz=(2.4e9, 1e-320), c_m_s=C))
@example(plan=FrequencyPlan(freqs_hz=(2.4e9, 1e-320), c_m_s=C, pattern_kind="bw", ratio=2.0))
@example(plan=FrequencyPlan(freqs_hz=(1.7e308, 1e308, -1.7e308), pattern_kind="concerto",
                            range_budget_m=1.0, ratio=2.0))
@example(plan=FrequencyPlan(freqs_hz=(1.7e308, -1e308, -1.5e308), pattern_kind="bw",
                            ratio=math.inf))
# the edges of the plans whose wavelength-consistency loop is skipped: c / f_0
# at the smallest normal float and one ulp below it, subnormal c / f_0 that
# the loop reports, c / f_1 = inf for a normal f_1, a c whose 1e-12 c is
# subnormal (with c / f_0 subnormal or not) or rounds to 0, and a c so near
# the largest float that c / f_i * f_i overflows though c / f_i is normal
@example(plan=FrequencyPlan(freqs_hz=(2.0**1022, 1e9), c_m_s=1.0))
@example(plan=FrequencyPlan(freqs_hz=(math.nextafter(2.0**1022, math.inf), 1e9), c_m_s=1.0))
@example(plan=FrequencyPlan(freqs_hz=(7e21, 1e9), c_m_s=1e-290))
@example(plan=FrequencyPlan(freqs_hz=(2.0, 0.5), c_m_s=1.7e308))
@example(plan=FrequencyPlan(freqs_hz=(7e11, 3e11, 1e11), c_m_s=1e-300))
@example(plan=FrequencyPlan(freqs_hz=(2.5e-3, 2.4e-3), c_m_s=1e-300))
@example(plan=FrequencyPlan(freqs_hz=(3e-13, 1e-13), c_m_s=1e-320))
@example(plan=FrequencyPlan(freqs_hz=(1.123370110330993, 1.103309929789368, 1.0772316950852558),
                            c_m_s=sys.float_info.max))
@example(plan=FrequencyPlan(freqs_hz=(1.123370110330993, 1.0), c_m_s=sys.float_info.max / 2.0))
# the ratio check's edges, one ulp inside and outside on either side, and a
# NaN offset ratio q = inf / inf, which the check does not report
@example(plan=_RATIO_EDGE_PLANS[0])
@example(plan=_RATIO_EDGE_PLANS[1])
@example(plan=_RATIO_EDGE_PLANS[2])
@example(plan=_RATIO_EDGE_PLANS[3])
@example(plan=FrequencyPlan(freqs_hz=(1.7e308, -1e308, -1.5e308), pattern_kind="concerto",
                            range_budget_m=1.0, ratio=2.0))
def test_validate_plan_matches_the_loop_oracle(plan):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_plan(plan) == validate_plan_oracle(plan)
