"""Closed-form error statistics and the SNR/sigma correspondence."""

import math

import numpy as np
import pytest

from unwrapkit import (
    FrequencyPlan,
    InvalidArgumentError,
    NoiseSpec,
    UndefinedBoundError,
    crb,
    design_concerto_plan,
    sigma_e,
)

C = 3e8


def test_sigma_e_examples():
    assert sigma_e(0.0, 5.0) == 0.0
    # ratio 1: sqrt(2)*sigma*sqrt(2)/(2*pi) = sigma/pi
    assert sigma_e(0.3, 1.0) == pytest.approx(0.3 / math.pi, rel=1e-12)
    r = design_concerto_plan(2500e6, 2400e6, 51, 144.0, C).ratio
    expected = (math.sqrt(2) * 0.1 / (2 * math.pi)) * math.sqrt(r**2 + 1)
    assert sigma_e(0.1, r) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        sigma_e(-0.1, 1.0)
    with pytest.raises(InvalidArgumentError):
        sigma_e(0.1, 0.0)


def test_sigma_e_refuses_non_finite_inputs():
    for sigma in (math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match=r"^sigma must be finite and >= 0$"):
            sigma_e(sigma, 2.0)
    for ratio in (math.nan, math.inf):
        with pytest.raises(InvalidArgumentError,
                           match="^wavelength ratio must be finite and positive$"):
            sigma_e(0.1, ratio)
    # what was refused before keeps its message
    for sigma in (-0.1, -math.inf):
        with pytest.raises(InvalidArgumentError, match=r"^sigma must be >= 0$"):
            sigma_e(sigma, 2.0)
    for ratio in (0.0, -math.inf):
        with pytest.raises(InvalidArgumentError, match="^wavelength ratio must be positive$"):
            sigma_e(0.1, ratio)


def test_mse_examples_and_crb_identity():
    # crb's expression is also the conditional final-stage MSE
    plan1 = FrequencyPlan(freqs_hz=(C,), c_m_s=C)  # single 1 m wavelength
    sigma = 0.27
    assert crb(plan1, NoiseSpec(sigma)) == pytest.approx(sigma**2 / (4 * math.pi**2), rel=1e-15)
    assert crb(plan1, NoiseSpec(1.0)) == pytest.approx(1 / (4 * math.pi**2), rel=1e-15)


def test_crb_scaling_and_undefined():
    plan = design_concerto_plan(2500e6, 2400e6, 11, 144.0, C)
    one = crb(plan, NoiseSpec(0.05))
    four = crb(plan, NoiseSpec(0.10))
    assert four == pytest.approx(4.0 * one, rel=1e-12)
    with pytest.raises(UndefinedBoundError):
        crb(plan, NoiseSpec(0.0))


def test_crb_decreases_when_adding_a_frequency():
    noise = NoiseSpec(0.1)
    freqs = [2.5e9, 2.45e9, 2.4e9]
    base = crb(FrequencyPlan(freqs_hz=tuple(freqs), c_m_s=C), noise)
    wider = crb(FrequencyPlan(freqs_hz=tuple(freqs + [2.3e9]), c_m_s=C), noise)
    assert wider < base


def test_snr_sigma_conversion():
    def sigma(snr_db):
        return NoiseSpec.from_snr_db(snr_db).sigma_rad

    assert sigma(0.0) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert sigma(300.0) < 1e-15
    assert sigma(5.0) == pytest.approx(1 / math.sqrt(2 * 10**0.5), rel=1e-12)
    for snr_db in np.linspace(-20, 60, 161):
        assert NoiseSpec(sigma(snr_db)).snr_db == pytest.approx(snr_db, rel=1e-12, abs=1e-12)
