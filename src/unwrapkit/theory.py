"""Closed-form error statistics: a chain rounding step's noise deviation, and
the Cramer-Rao bound, which equals the final stage's MSE given correct folding
integers. The SNR/sigma conversion is :class:`unwrapkit.core.NoiseSpec`'s.
"""

from __future__ import annotations

import math

from .core import FrequencyPlan, NoiseSpec
from .errors import InvalidArgumentError, UndefinedBoundError

FOUR_PI_SQ = 4.0 * math.pi**2


def sigma_e(sigma_rad: float, lambda_ratio: float) -> float:
    """Noise deviation of one chain rounding step, before rounding.

    For a beat-wavelength ratio rho = Lambda_i / Lambda_{i+1}:

        sigma_e = (sqrt(2)*sigma / 2*pi) * sqrt(rho^2 + 1)
    """
    if sigma_rad < 0.0:
        raise InvalidArgumentError("sigma must be >= 0")
    if not math.isfinite(sigma_rad):
        raise InvalidArgumentError("sigma must be finite and >= 0")
    if lambda_ratio <= 0.0:
        raise InvalidArgumentError("wavelength ratio must be positive")
    if not math.isfinite(lambda_ratio):
        raise InvalidArgumentError("wavelength ratio must be finite and positive")
    return (math.sqrt(2.0) * sigma_rad / (2.0 * math.pi)) * math.sqrt(
        lambda_ratio**2 + 1.0
    )


def crb(plan: FrequencyPlan, noise: NoiseSpec) -> float:
    """Cramer-Rao bound on the range estimate, in m^2.

    Valid under the high-SNR Gaussian approximation of the wrapped phase
    noise. Undefined at sigma = 0. sigma^2 / (4*pi^2 * sum_k lambda_k^-2) is
    also the final stage's MSE given correct folding integers.
    """
    if noise.sigma_rad == 0.0:
        raise UndefinedBoundError("CRB is undefined for sigma = 0")
    inv_sq_sum = sum((1.0 / lam) ** 2 for lam in plan.wavelengths_m)
    return noise.sigma_rad**2 / (FOUR_PI_SQ * inv_sq_sum)

