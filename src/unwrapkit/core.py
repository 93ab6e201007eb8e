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

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

#: Default propagation speed (vacuum speed of light, m/s).
C_VACUUM_M_S = 299_792_458.0

#: Relative tolerance of the UMR bounds on a range budget K, truth or truth
#: half-width: a designed plan's K equals its UMR up to rounding.
UMR_RTOL = 1e-9

_PATTERN_KINDS = ("concerto", "bw", "explicit")


def huge_int_as_inf(x):
    """``x``, or +/-inf for an int beyond the float range, on which ``float``
    and ``math.isfinite`` raise a bare ``OverflowError``."""
    if isinstance(x, int):
        try:
            float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    return x


def wrap_phase(x):
    """Wrap an angle (scalar or array) into (-pi, pi].

    Built on exact floating remainder (fmod), so the only error is the
    representation of 2*pi itself; the boundary maps to +pi, never -pi.
    """
    if isinstance(x, (float, int)):
        x = huge_int_as_inf(x)
        if not math.isfinite(x):
            raise InvalidArgumentError(f"phase must be finite, got {x!r}")
        r = math.fmod(x, TWO_PI)
        if r > math.pi:
            r -= TWO_PI
        elif r <= -math.pi:
            r += TWO_PI
        return r
    arr = np.array(x, dtype=float)
    # the bare ufunc reduction: np.all's wrapper costs more than the test
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise InvalidArgumentError("phase must be finite")
    wrap_inplace(arr)
    if arr.ndim == 0:
        return float(arr)
    return arr


_WRAP_EDGES = np.array([-math.pi, math.pi])
_WRAP_STEP = np.array([TWO_PI, -0.0, -TWO_PI])


def wrap_inplace(r: np.ndarray) -> np.ndarray:
    """Wrap a float array of any shape into (-pi, pi] in place and return it.

    The package's one array wrap: :func:`wrap_phase` without its finiteness
    check. After ``fmod``, |r| < 2*pi, so one step adds +2*pi, -0.0 (a no-op,
    even on a zero's sign) or -2*pi as r <= -pi, -pi < r <= pi or r > pi.
    """
    np.fmod(r, TWO_PI, out=r)
    r += _WRAP_STEP.take(_WRAP_EDGES.searchsorted(r))
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
        try:
            freqs = tuple(map(float, self.freqs_hz))
        except OverflowError:
            freqs = tuple(float(huge_int_as_inf(f)) for f in self.freqs_hz)
        if len(freqs) == 0:
            raise InvalidArgumentError("plan needs at least one frequency")
        if 0.0 in freqs or not all(map(math.isfinite, freqs)):
            raise InvalidArgumentError("frequencies must be finite and nonzero")
        c_m_s = float(huge_int_as_inf(self.c_m_s))
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
                init(self, name, float(huge_int_as_inf(value)))

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
        # bare ufunc reductions, as the min and max methods' wrappers cost
        # more than the test; NaN fails it too, as min and max pass NaN on
        if not (np.minimum.reduce(arr) > -math.pi and np.maximum.reduce(arr) <= math.pi):
            if not np.logical_and.reduce(np.isfinite(arr)):
                raise InvalidArgumentError("phases must be finite")
            raise InvalidArgumentError("phases must lie in (-pi, pi]")
        if self.truth_m is not None and not math.isfinite(truth := huge_int_as_inf(self.truth_m)):
            raise InvalidArgumentError(f"truth_m must be finite, got {truth!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "phases_rad", arr)

    @property
    def n(self) -> int:
        return self.plan.n


@dataclass(frozen=True)
class NoiseSpec:
    """Per-frequency Gaussian phase-noise level.

    The SNR correspondence is SNR = 1/(2 sigma^2), reported in dB as
    10*log10(1/(2 sigma^2)).
    """

    sigma_rad: float

    def __post_init__(self):
        if not (math.isfinite(huge_int_as_inf(self.sigma_rad)) and self.sigma_rad >= 0.0):
            raise InvalidArgumentError("sigma must be finite and >= 0")
        object.__setattr__(self, "sigma_rad", float(self.sigma_rad))

    @property
    def snr_db(self) -> float:
        if self.sigma_rad == 0.0:
            return math.inf
        return 10.0 * math.log10(1.0 / (2.0 * self.sigma_rad**2))

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseSpec":
        if not math.isfinite(huge_int_as_inf(snr_db)):
            raise InvalidArgumentError("snr_db must be finite")
        try:
            return cls(sigma_rad=1.0 / math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)))
        except (OverflowError, ZeroDivisionError):
            raise InvalidArgumentError(f"snr_db {snr_db!r} is out of range") from None
