"""Loop reference for plan validation, read only by the tests.

:func:`validate_plan_oracle` checks every invariant one frequency at a
time in Python floats; :func:`unwrapkit.validate_plan` must return the
same list of violations, string for string and in the same order.
"""

import math

from unwrapkit import FrequencyPlan
from unwrapkit.freqdesign import RATIO_RTOL


def validate_plan_oracle(plan: FrequencyPlan) -> list:
    violations = []
    freqs = plan.freqs_hz
    n = plan.n

    for i, f in enumerate(freqs):
        if f <= 0.0:
            violations.append(f"positivity: freqs_hz[{i}] = {f!r} is not positive")
    ordered = True
    for i in range(n - 1):
        if not freqs[i] > freqs[i + 1]:
            ordered = False
            violations.append(
                f"frequency-order: freqs_hz[{i + 1}] = {freqs[i + 1]!r} is not "
                f"strictly below freqs_hz[{i}] = {freqs[i]!r}"
            )

    lam = plan.wavelengths_m
    for i in range(n):
        if abs(lam[i] * freqs[i] - plan.c_m_s) > 1e-12 * plan.c_m_s:
            violations.append(f"wavelength-consistency: index {i}")

    # NaN, and inf or -inf in some cases, would pass the comparisons below.
    for name in ("ratio", "range_budget_m"):
        value = getattr(plan, name)
        if value is not None and not math.isfinite(value):
            violations.append(f"not-finite: {name} = {value!r} is not finite")

    designed = plan.pattern_kind in ("concerto", "bw")
    if designed and n < 3:
        violations.append(f"frequency-count: designed pattern has n = {n} < 3")
    if designed and plan.ratio is None:
        violations.append("ratio-missing: designed pattern lacks its common ratio")

    if designed and ordered and n >= 3 and plan.ratio is not None:
        # Offset chain (f_0 - f_{i+1})/(f_0 - f_i) must equal the stored ratio.
        for i in range(1, n - 1):
            lo = freqs[0] - freqs[i]
            hi = freqs[0] - freqs[i + 1]
            if abs(hi / lo - plan.ratio) > RATIO_RTOL * plan.ratio:
                violations.append(
                    f"ratio-mismatch: (f_0-f_{i + 1})/(f_0-f_{i}) = {hi / lo!r} "
                    f"differs from r = {plan.ratio!r} beyond {RATIO_RTOL:g} relative"
                )
        if plan.pattern_kind == "bw":
            rho = freqs[0] / plan.bandwidth_hz
            if abs(plan.ratio - rho) > RATIO_RTOL * rho:
                violations.append(
                    f"ratio-mismatch: stored ratio {plan.ratio!r} differs from f_0/B = {rho!r}"
                )

    budget = plan.range_budget_m
    if plan.pattern_kind == "concerto" and budget is None:
        violations.append("range-budget-missing: concerto pattern lacks K")
    if budget is not None and math.isfinite(budget):
        if not budget > 0.0:
            violations.append(f"range-budget: K = {budget!r} m is not positive")
        elif ordered and plan.umr_m < budget * (1.0 - RATIO_RTOL):
            violations.append(
                f"umr-below-budget: UMR = {plan.umr_m!r} m is below K = {budget!r} m"
            )
    return violations
