"""Closed-form error statistics: chain noise amplification, the final-stage
mean-square error and the Cramer-Rao bound. The SNR/sigma conversion is
:class:`unwrapkit.core.NoiseSpec`'s (``from_snr_db`` and ``snr_db``).

The final-stage MSE (conditional on correct folding integers) and the CRB
are the same expression, sigma^2 / (4*pi^2 * sum_k lambda_k^-2); both are
computed by one shared helper so the identity holds exactly.
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
    if lambda_ratio <= 0.0:
        raise InvalidArgumentError("wavelength ratio must be positive")
    return (math.sqrt(2.0) * sigma_rad / (2.0 * math.pi)) * math.sqrt(
        lambda_ratio**2 + 1.0
    )


def _final_stage_mse(plan: FrequencyPlan, sigma_rad: float) -> float:
    inv_sq_sum = sum((1.0 / lam) ** 2 for lam in plan.wavelengths_m)
    return sigma_rad**2 / (FOUR_PI_SQ * inv_sq_sum)


def concerto_mse(plan: FrequencyPlan, sigma_rad: float) -> float:
    """Final-stage MSE conditional on correct folding integers, in m^2."""
    if sigma_rad < 0.0:
        raise InvalidArgumentError("sigma must be >= 0")
    return _final_stage_mse(plan, sigma_rad)


def crb(plan: FrequencyPlan, noise: NoiseSpec) -> float:
    """Cramer-Rao bound on the range estimate, in m^2.

    Valid under the high-SNR Gaussian approximation of the wrapped phase
    noise. Undefined at sigma = 0.
    """
    if noise.sigma_rad == 0.0:
        raise UndefinedBoundError("CRB is undefined for sigma = 0")
    return _final_stage_mse(plan, noise.sigma_rad)

