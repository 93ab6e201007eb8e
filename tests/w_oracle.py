"""The residual stage's weight matrix, read only by the tests.

The package builds the residual stage's two per-plan constants in O(N), as
the least-squares slope of phase against frequency
(:class:`unwrapkit.estimators.PlanConstants`). The weighted least-squares
form they replace is kept here as an independent check:

    L_r = (c / 2*pi) * (df' W dphi) / (df' W df),  df_i = f_i - f_{i+1},

with W the (N-1, N-1) matrix Gamma' R^-1 Gamma, Gamma the lower-triangular
ones and R^-1 = I - uu'/N. :func:`build_w` builds W from its closed-form
entries and :func:`product_w` from that literal product.
"""

import math

import numpy as np

from unwrapkit import FrequencyPlan, wrap_phase


def build_w(n: int) -> np.ndarray:
    """W from its closed-form entries (n * min(j, k) - j * k) / n,
    j, k = 1..n-1, one operation at a time."""
    idx = np.arange(1, n, dtype=float)
    w = np.minimum.outer(idx, idx)
    w *= n
    w -= np.multiply.outer(idx, idx)
    w /= n
    return w


def product_w(n: int) -> np.ndarray:
    """W as the literal product Gamma' (I - uu'/n) Gamma."""
    gamma = np.tril(np.ones((n - 1, n - 1)))
    r_inv = np.eye(n - 1) - np.ones((n - 1, n - 1)) / n
    return gamma.T @ r_inv @ gamma


def residual_constants(plan: FrequencyPlan, w: np.ndarray | None = None):
    """(W @ df, df' W df) of the plan, with W the product form unless given."""
    if w is None:
        w = product_w(plan.n)
    df = -np.diff(np.array(plan.freqs_hz))
    w_df = w @ df
    return w_df, float(df @ w_df)


def residual_oracle(compensated_rad, plan: FrequencyPlan, w: np.ndarray | None = None) -> float:
    """The residual range through W: (c / 2*pi) (df' W dphi) / (df' W df)."""
    comp = np.asarray(compensated_rad, dtype=float)
    dphi = wrap_phase(comp[:-1] - comp[1:])
    w_df, denom = residual_constants(plan, w)
    return (plan.c_m_s / (2.0 * math.pi)) * float(dphi @ w_df) / denom
