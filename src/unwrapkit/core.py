"""Wrapped-phase arithmetic and the domain types shared by every other module.

Conventions, fixed package-wide:
  * angles in radians, wrapped to the half-open interval (-pi, pi] with the
    branch point assigned to +pi;
  * distances in meters, frequencies in Hz, speeds in m/s;
  * phases are plain 64-bit floats, no quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlanError, InvalidArgumentError

TWO_PI = 2.0 * math.pi

#: Default propagation speed (vacuum speed of light, m/s).
C_VACUUM_M_S = 299_792_458.0

_PATTERN_KINDS = ("concerto", "bw", "explicit")


def wrap_phase(x):
    """Wrap an angle (scalar or array) into (-pi, pi].

    Built on exact floating remainder (fmod), so the only error is the
    representation of 2*pi itself; the boundary maps to +pi, never -pi.
    """
    if isinstance(x, (float, int)):
        if not math.isfinite(x):
            raise InvalidArgumentError(f"phase must be finite, got {x!r}")
        r = math.fmod(x, TWO_PI)
        if r > math.pi:
            r -= TWO_PI
        elif r <= -math.pi:
            r += TWO_PI
        return r
    arr = np.array(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("phase must be finite")
    wrap_inplace(arr)
    if arr.ndim == 0:
        return float(arr)
    return arr


def wrap_inplace(r: np.ndarray) -> np.ndarray:
    """Wrap a float array into (-pi, pi] in place and return it.

    The array kernel of :func:`wrap_phase`, without its finiteness check,
    for arrays the package builds itself.
    """
    np.fmod(r, TWO_PI, out=r)
    np.subtract(r, TWO_PI, out=r, where=r > math.pi)
    np.add(r, TWO_PI, out=r, where=r <= -math.pi)
    return r


@dataclass(frozen=True)
class FrequencyPlan:
    """An ordered set of measurement frequencies plus design metadata.

    ``freqs_hz`` is expected strictly decreasing (f_0 highest). Violations of
    that and of pattern-specific structure are reported by
    :func:`unwrapkit.freqdesign.validate_plan` rather than rejected here, so
    that broken plans can be inspected.

    ``range_budget_m`` (K) and ``ratio`` (the common offset ratio r) are set
    by the design constructors and are None for hand-built explicit plans.
    """

    freqs_hz: tuple
    c_m_s: float = C_VACUUM_M_S
    pattern_kind: str = "explicit"
    range_budget_m: float | None = None
    ratio: float | None = None

    def __post_init__(self):
        # Numbers are stored as Python floats, so that numpy scalars handed
        # in do not reach the plan file as "np.float64(...)".
        freqs = tuple(float(f) for f in self.freqs_hz)
        if len(freqs) == 0:
            raise InvalidArgumentError("plan needs at least one frequency")
        if not all(math.isfinite(f) and f != 0.0 for f in freqs):
            raise InvalidArgumentError("frequencies must be finite and nonzero")
        c_m_s = float(self.c_m_s)
        if not (math.isfinite(c_m_s) and c_m_s > 0.0):
            raise InvalidArgumentError("propagation speed must be finite and positive")
        if self.pattern_kind not in _PATTERN_KINDS:
            raise InvalidArgumentError(
                f"unknown pattern_kind {self.pattern_kind!r}, expected one of {_PATTERN_KINDS}"
            )
        init = object.__setattr__
        init(self, "freqs_hz", freqs)
        init(self, "c_m_s", c_m_s)
        for name in ("range_budget_m", "ratio"):
            value = getattr(self, name)
            if value is not None:
                init(self, name, float(value))

    @property
    def n(self) -> int:
        return len(self.freqs_hz)

    @property
    def wavelengths_m(self) -> tuple:
        c = self.c_m_s
        return tuple(c / f for f in self.freqs_hz)

    @property
    def bandwidth_hz(self) -> float:
        return self.freqs_hz[0] - self.freqs_hz[-1]

    @property
    def umr_m(self) -> float:
        """Unambiguous measurement range, c / (f_0 - f_1)."""
        if self.n < 2 or self.freqs_hz[0] == self.freqs_hz[1]:
            return math.inf
        return self.c_m_s / (self.freqs_hz[0] - self.freqs_hz[1])


@dataclass(frozen=True, eq=False, slots=True)
class PhaseObservation:
    """N wrapped phases tied to a plan, optionally with the ground-truth range."""

    phases_rad: np.ndarray
    plan: FrequencyPlan
    truth_m: float | None = None

    def __post_init__(self):
        arr = np.array(self.phases_rad, dtype=float)
        if arr.ndim != 1 or arr.size != self.plan.n:
            raise InvalidArgumentError(
                f"expected {self.plan.n} phases, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("phases must be finite")
        if not np.all((arr > -math.pi) & (arr <= math.pi)):
            raise InvalidArgumentError("phases must lie in (-pi, pi]")
        arr.setflags(write=False)
        object.__setattr__(self, "phases_rad", arr)

    @property
    def n(self) -> int:
        return self.plan.n


def beat_wavelengths(plan: FrequencyPlan) -> np.ndarray:
    """Synthetic wavelengths of the plan, one per frequency below f_0."""
    if plan.n < 2:
        raise InvalidArgumentError("beat quantities need at least two frequencies")
    lam = np.array(plan.wavelengths_m)
    if np.any(lam[1:] == lam[0]):
        raise DegeneratePlanError("repeated wavelength: beat wavelength undefined")
    return lam[1:] * lam[0] / (lam[1:] - lam[0])


def true_phases(l_m: float, plan: FrequencyPlan) -> PhaseObservation:
    """Noise-free wrapped phases of a target at range ``l_m``."""
    if not math.isfinite(l_m):
        raise InvalidArgumentError("range must be finite")
    lam = np.array(plan.wavelengths_m)
    phases = wrap_phase(TWO_PI * l_m / lam)
    return PhaseObservation(phases_rad=phases, plan=plan, truth_m=float(l_m))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-frequency Gaussian phase-noise level.

    The SNR correspondence is SNR = 1/(2 sigma^2), reported in dB as
    10*log10(1/(2 sigma^2)).
    """

    sigma_rad: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_rad) and self.sigma_rad >= 0.0):
            raise InvalidArgumentError("sigma must be finite and >= 0")
        object.__setattr__(self, "sigma_rad", float(self.sigma_rad))

    @property
    def snr_db(self) -> float:
        if self.sigma_rad == 0.0:
            return math.inf
        return 10.0 * math.log10(1.0 / (2.0 * self.sigma_rad**2))

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseSpec":
        if not math.isfinite(snr_db):
            raise InvalidArgumentError("snr_db must be finite")
        try:
            return cls(sigma_rad=1.0 / math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)))
        except (OverflowError, ZeroDivisionError):
            raise InvalidArgumentError(f"snr_db {snr_db!r} is out of range") from None
