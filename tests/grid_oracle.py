"""Brute-force grid oracle for the residual stage, read only by the tests.

:func:`cost_grid_oracle` maximizes the alignment cost on a grid and refines
the best grid point; it is an independent check of
:func:`unwrapkit.residual_estimate`.
"""

import math

import numpy as np

from unwrapkit import DegeneratePlanError, FrequencyPlan, InvalidArgumentError
from unwrapkit.core import TWO_PI


def _alignment_cost(l_grid: np.ndarray, freqs: np.ndarray, comp: np.ndarray, c: float) -> np.ndarray:
    ang = (TWO_PI / c) * np.outer(l_grid, freqs) - comp[None, :]
    z = np.exp(1j * ang).sum(axis=1)
    return (z * z.conj()).real


def cost_grid_oracle(
    compensated_rad,
    plan: FrequencyPlan,
    span_m: float | None = None,
    step_m: float | None = None,
) -> float:
    """Brute-force residual estimate: grid search over the alignment cost.

    Maximizes |sum_i exp(j(2*pi*f_i*L/c - phi_i))|^2 on a grid spanning
    ``span_m`` with spacing ``step_m`` (defaults 2c/B and c/(200B)), then
    refines around the best grid point by golden-section search to well
    below step/100. Slow by construction; exists as an independent check
    of :func:`residual_estimate`.
    """
    comp = np.asarray(compensated_rad, dtype=float)
    c = plan.c_m_s
    b = plan.bandwidth_hz
    if b <= 0.0:
        raise DegeneratePlanError("grid oracle needs a positive bandwidth")
    if span_m is None:
        span_m = 2.0 * c / b
    if step_m is None:
        step_m = c / (200.0 * b)
    if step_m <= 0.0:
        raise InvalidArgumentError("step must be positive")
    if span_m < c / b:
        raise InvalidArgumentError("span must cover at least c/B")
    freqs = np.array(plan.freqs_hz)
    grid = np.arange(-span_m / 2.0, span_m / 2.0 + step_m / 2.0, step_m)
    costs = _alignment_cost(grid, freqs, comp, c)
    x0 = float(grid[int(np.argmax(costs))])

    # Golden-section refinement; 40 halvings shrink the bracket far below step/100.
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b_hi = x0 - step_m, x0 + step_m
    x1 = b_hi - gr * (b_hi - a)
    x2 = a + gr * (b_hi - a)
    f1 = float(_alignment_cost(np.array([x1]), freqs, comp, c)[0])
    f2 = float(_alignment_cost(np.array([x2]), freqs, comp, c)[0])
    for _ in range(40):
        if f1 < f2:
            a = x1
            x1, f1 = x2, f2
            x2 = a + gr * (b_hi - a)
            f2 = float(_alignment_cost(np.array([x2]), freqs, comp, c)[0])
        else:
            b_hi = x2
            x2, f2 = x1, f1
            x1 = b_hi - gr * (b_hi - a)
            f1 = float(_alignment_cost(np.array([x1]), freqs, comp, c)[0])
    return (a + b_hi) / 2.0
