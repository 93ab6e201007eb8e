"""Construction and validation of measurement frequency patterns.

Two designed families are supported:

  * ``concerto``: the offsets f_0 - f_i form a geometric chain with common
    ratio r = (B*K/c)^(1/(N-2)), which pins the unambiguous range
    c/(f_0 - f_1) to the range budget K and equalizes the noise
    amplification of every rounding step in the coarse chain.
  * ``bw``: the classical chain whose common ratio is f_0/B, so that the
    last step (unwrapping at lambda_0 itself) is also covered.

Plans are stored at full floating precision; no synthesizer grid rounding.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import replace

from .core import C_VACUUM_M_S, UMR_RTOL, FrequencyPlan, huge_int_as_inf
from .errors import InfeasibleDesignError, InvalidArgumentError

#: Relative tolerance for the common-ratio structure of designed plans; a
#: plan's UMR is held to its range budget K with :data:`~unwrapkit.core.UMR_RTOL`.
RATIO_RTOL = 1e-9

_MIN_NORMAL = sys.float_info.min
_HALF_MAX = sys.float_info.max / 2.0


def _check_design(n: int, c_m_s: float) -> None:
    if not (math.isfinite(huge_int_as_inf(c_m_s)) and c_m_s > 0.0):
        raise InvalidArgumentError("propagation speed must be finite and positive")
    if not isinstance(n, numbers.Integral):
        raise InvalidArgumentError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise InvalidArgumentError(f"designed patterns need n >= 3, got {n}")


def design_concerto_plan(
    f_high_hz: float,
    f_low_hz: float,
    n: int,
    k_m: float,
    c_m_s: float,
) -> FrequencyPlan:
    """Design an N-frequency geometric-offset plan covering range budget ``k_m``.

    The ratio is set with equality, r = (B*K/c)^(1/(N-2)), which makes the
    unambiguous range equal to K (up to rounding) and minimizes the noise
    amplification per chain step. A plan that fails :func:`validate_plan`
    (at very large K the offsets are too fine for f_0 to resolve) raises
    :class:`InfeasibleDesignError`.
    """
    _check_design(n, c_m_s)
    f_high_hz, f_low_hz = huge_int_as_inf(f_high_hz), huge_int_as_inf(f_low_hz)
    if not (f_high_hz > f_low_hz > 0.0):
        raise InvalidArgumentError("need f_high > f_low > 0")
    if not (k_m > 0.0 and math.isfinite(huge_int_as_inf(k_m))):
        raise InvalidArgumentError("range budget must be positive and finite")
    b = f_high_hz - f_low_hz
    bk_over_c = b * k_m / c_m_s
    if bk_over_c <= 1.0:
        raise InfeasibleDesignError(
            f"bandwidth-range product B*K/c = {bk_over_c:.6g} <= 1: "
            "geometric pattern degenerates (r <= 1)"
        )
    r = bk_over_c ** (1.0 / (n - 2))
    freqs = [f_high_hz]
    for i in range(1, n - 1):
        freqs.append(f_high_hz - b * r ** (-(n - 1 - i)))
    freqs.append(f_low_hz)
    plan = FrequencyPlan(
        freqs_hz=tuple(freqs),
        c_m_s=c_m_s,
        pattern_kind="concerto",
        range_budget_m=float(k_m),
        ratio=r,
    )
    violations = validate_plan(plan)
    if violations:
        raise InfeasibleDesignError(
            f"n = {n} at K = {k_m:.6g} m gives an invalid plan: {violations[0]}"
        )
    return plan


def design_bw_plan(
    f_high_hz: float,
    bandwidth_hz: float,
    n: int,
    c_m_s: float,
) -> FrequencyPlan:
    """Design the classical chain pattern with common ratio f_0/B.

    The range budget is set to the resulting unambiguous range
    (c/B)*(f_0/B)^(N-2); there is no independent K for this family. An
    ``n`` whose plan fails :func:`validate_plan` is rejected with
    :class:`InvalidArgumentError`.
    """
    _check_design(n, c_m_s)
    f_high_hz, bandwidth_hz = huge_int_as_inf(f_high_hz), huge_int_as_inf(bandwidth_hz)
    if not (f_high_hz > bandwidth_hz > 0.0):
        raise InvalidArgumentError("need f_high > bandwidth > 0")
    rho = f_high_hz / bandwidth_hz
    freqs = [f_high_hz]
    for i in range(1, n):
        freqs.append(f_high_hz - bandwidth_hz * rho ** (-(n - 1 - i)))
    # As n grows the smallest offset B*rho^-(N-2) is resolved ever more
    # coarsely by f_0: first the offset ratios miss rho, then the top
    # frequencies collapse onto f_0, long before rho^(N-2) could overflow.
    # The closed-form budget can miss c/(f_0 - f_1) beyond UMR_RTOL while
    # the ratios still hold, so the plan is checked again with its budget.
    plan = FrequencyPlan(freqs_hz=tuple(freqs), c_m_s=c_m_s, pattern_kind="bw", ratio=rho)
    violations = validate_plan(plan)
    if not violations:
        plan = replace(plan, range_budget_m=(c_m_s / bandwidth_hz) * rho ** (n - 2))
        violations = validate_plan(plan)
    if violations:
        raise InvalidArgumentError(
            f"n = {n} is too large for f_0/B = {rho:.6g}: {violations[0]}"
        )
    return plan


def validate_plan(plan: FrequencyPlan) -> list:
    """Check every plan invariant, returning a list of violation strings.

    An empty list means the plan is valid. Each violation names the broken
    invariant and, where applicable, the offending index. Violations are
    data, not errors: broken plans are inspectable.

    The per-frequency wavelength-consistency loop runs only where it can
    report: when some f_i <= 0, c / max f is below the smallest normal
    float, c / min f is infinite, 1e-12 * c is subnormal or 2 * c
    overflows. Otherwise every |fl(fl(c / f_i) * f_i) - c| <= 2.3e-16 c,
    well inside its bound of 1e-12 c.
    """
    violations = []
    freqs = plan.freqs_hz
    n, c, ratio = plan.n, plan.c_m_s, plan.ratio

    # Each check is one pass over the frequencies that builds a message only
    # for an index that fails, in plain floats: numpy's per-call cost is more
    # than a whole pass over the tens of frequencies a plan has.
    ordered = all(map(operator.gt, freqs, freqs[1:]))
    lowest, highest = (freqs[-1], freqs[0]) if ordered else (min(freqs), max(freqs))
    if lowest <= 0.0:
        violations += [f"positivity: freqs_hz[{i}] = {f!r} is not positive"
                       for i, f in enumerate(freqs) if f <= 0.0]
    if not ordered:
        violations += [
            f"frequency-order: freqs_hz[{i + 1}] = {freqs[i + 1]!r} is not "
            f"strictly below freqs_hz[{i}] = {freqs[i]!r}"
            for i in range(n - 1) if not freqs[i] > freqs[i + 1]
        ]

    # lambda_i * f_i against c, with lambda_i = c / f_i as plan.wavelengths_m
    # has it, only where the loop can report (see the docstring)
    tol = 1e-12 * c
    if (lowest <= 0.0 or tol < _MIN_NORMAL or c > _HALF_MAX
            or c / highest < _MIN_NORMAL or c / lowest == math.inf):
        violations += [f"wavelength-consistency: index {i}"
                       for i, f in enumerate(freqs) if abs(c / f * f - c) > tol]

    # NaN, and inf or -inf in some cases, would pass the comparisons below.
    for name in ("ratio", "range_budget_m"):
        value = getattr(plan, name)
        if value is not None and not math.isfinite(value):
            violations.append(f"not-finite: {name} = {value!r} is not finite")

    designed = plan.pattern_kind in ("concerto", "bw")
    if designed and n < 3:
        violations.append(f"frequency-count: designed pattern has n = {n} < 3")
    if designed and ratio is None:
        violations.append("ratio-missing: designed pattern lacks its common ratio")

    if designed and ordered and n >= 3 and ratio is not None:
        # Offset chain (f_0 - f_{i+1})/(f_0 - f_i) must equal the stored ratio.
        f_0 = freqs[0]
        chain_tol = RATIO_RTOL * ratio
        # a message only for a quotient q that fails; a NaN q is not reported
        violations += [
            f"ratio-mismatch: (f_0-f_{i + 1})/(f_0-f_{i}) = {q!r} "
            f"differs from r = {ratio!r} beyond {RATIO_RTOL:g} relative"
            for i, (f, g) in enumerate(zip(freqs[1:], freqs[2:]), start=1)
            if abs((q := (f_0 - g) / (f_0 - f)) - ratio) > chain_tol
        ]
        if plan.pattern_kind == "bw":
            rho = f_0 / plan.bandwidth_hz
            if abs(ratio - rho) > RATIO_RTOL * rho:
                violations.append(
                    f"ratio-mismatch: stored ratio {ratio!r} differs from f_0/B = {rho!r}"
                )

    budget = plan.range_budget_m
    if plan.pattern_kind == "concerto" and budget is None:
        violations.append("range-budget-missing: concerto pattern lacks K")
    if budget is not None and math.isfinite(budget):
        if not budget > 0.0:
            violations.append(f"range-budget: K = {budget!r} m is not positive")
        elif ordered and plan.umr_m < budget * (1.0 - UMR_RTOL):
            violations.append(
                f"umr-below-budget: UMR = {plan.umr_m!r} m is below K = {budget!r} m"
            )
    return violations


# ---------------------------------------------------------------------------
# Plan file format: the `design` output re-ingested (self-round-tripping CSV).
# ---------------------------------------------------------------------------

def plan_to_csv(plan: FrequencyPlan) -> str:
    """Render a plan as CSV: one comment header line, then index,f_hz,lambda_m rows."""
    meta = [
        f"pattern={plan.pattern_kind}",
        f"n={plan.n}",
        f"c_m_s={plan.c_m_s!r}",
        f"bandwidth_hz={plan.bandwidth_hz!r}",
        f"ratio={'none' if plan.ratio is None else repr(plan.ratio)}",
        f"range_budget_m={'none' if plan.range_budget_m is None else repr(plan.range_budget_m)}",
        f"umr_m={plan.umr_m!r}",
    ]
    lines = ["# " + ",".join(meta), "index,f_hz,lambda_m"]
    for i, (f, lam) in enumerate(zip(plan.freqs_hz, plan.wavelengths_m)):
        lines.append(f"{i},{f!r},{lam!r}")
    return "\n".join(lines) + "\n"


def _csv_float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InvalidArgumentError(f"plan file: {what} {value!r} is not a number") from None


def _row_error(rows: list, first_lineno: int) -> InvalidArgumentError:
    """The error for the first of ``rows`` (file lines from ``first_lineno``
    on) whose f_hz cell is missing or not a number."""
    for lineno, line in enumerate(map(str.strip, rows), start=first_lineno):
        if not line or line[0] == "#":
            continue
        parts = line.split(",", 2)
        if len(parts) < 2:
            return InvalidArgumentError(f"plan file: malformed row {line!r}")
        try:
            float(parts[1])
        except ValueError:
            return InvalidArgumentError(
                f"plan file: line {lineno}: f_hz {parts[1]!r} is not a number"
            )
    raise AssertionError("every row has a number in its f_hz cell")


def plan_from_csv(text: str) -> FrequencyPlan:
    """Parse a plan written by :func:`plan_to_csv`.

    Before the ``index,`` header stand only blank lines and ``#`` lines, whose
    ``key=value`` pairs are the plan's metadata. Each later line is a row,
    whose second cell is a frequency, or else blank or a ``#`` comment.
    A malformed file raises :class:`InvalidArgumentError` naming the line or
    header key at fault, and so does a file whose rows are not the ``n`` its
    header gives.
    """
    lines = text.splitlines()
    meta = {}
    for header, line in enumerate(map(str.strip, lines), start=1):
        if not line:
            continue
        if line[0] != "#":
            if not line.lower().startswith("index,"):
                raise InvalidArgumentError(f"plan file: unexpected line {line!r}")
            break
        for item in line.lstrip("#").strip().split(","):
            if "=" in item:
                key, value = item.split("=", 1)
                meta[key.strip()] = value.strip()
    else:
        header = len(lines)
    rows = lines[header:]
    try:
        freqs = tuple(map(float, [line.split(",", 2)[1] for line in map(str.strip, rows)
                                  if line and line[0] != "#"]))
    except (IndexError, ValueError):
        raise _row_error(rows, header + 1) from None
    if not freqs:
        raise InvalidArgumentError("plan file contains no frequency rows")
    if "n" in meta and _csv_float(meta["n"], "n") != len(freqs):
        raise InvalidArgumentError(f"plan file: n={meta['n']} in the header but {len(freqs)} rows")

    def _opt_float(key):
        value = meta.get(key, "none")
        return None if value == "none" else _csv_float(value, key)

    return FrequencyPlan(
        freqs_hz=freqs,
        c_m_s=_csv_float(meta.get("c_m_s", repr(C_VACUUM_M_S)), "c_m_s"),
        pattern_kind=meta.get("pattern", "explicit"),
        range_budget_m=_opt_float("range_budget_m"),
        ratio=_opt_float("ratio"),
    )
