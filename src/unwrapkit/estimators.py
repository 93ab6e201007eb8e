"""Range estimators on multi-frequency phase observations.

Three estimators are provided and registered by name:

  * ``bw``       - the classical sequential chain over beat wavelengths,
                   finishing with a rounding step at lambda_0;
  * ``concerto`` - three coherent stages: the same chain stopped at the
                   finest beat wavelength (coarse), a closed-form weighted
                   least-squares residual over adjacent wrapped differences
                   of the compensated phases, and a final scalar
                   least-squares fit over all unwrapped phases;
  * ``ef``       - excess fractions: exhaustive scoring of every candidate
                   location at lambda_0, refined by the same final fit.

No matrix inversion or decomposition happens at estimate time: the residual
weight matrix has a closed-form entry formula and the final fit is a scalar
quotient. Per-plan constants are cached, so repeated estimates on one plan
only pay for the per-observation arithmetic. All entry points are pure
functions and safe for concurrent use.

Each stage has one kernel that takes one observation's phases (N,) or a
row block (B, N). The public estimators compose them on one observation;
the Monte-Carlo harness runs ``concerto`` and ``bw`` on whole row blocks
through their ``BLOCK_KERNELS`` forms, which compose the same kernels on (B, N).

Rounding convention: round-half-away-from-zero, everywhere an integer is
recovered from a noisy real value. Ties are measure-zero but deterministic.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property, partial

import numpy as np

from .core import (
    TWO_PI,
    FrequencyPlan,
    PhaseObservation,
    beat_wavelengths,
    wrap_inplace,
    wrap_phase,
)
from .errors import (
    DegeneratePlanError,
    DuplicateEstimatorError,
    InvalidArgumentError,
    UnknownEstimatorError,
)


_INV_TWO_PI = 1.0 / TWO_PI


def _round_half_away_arr(x: np.ndarray) -> np.ndarray:
    # trunc(x +/- 0.5) equals copysign(floor(|x| + 0.5), x) bit for bit
    r = np.copysign(0.5, x)
    r += x
    return np.trunc(r, out=r)


def _round_half_away(v: float) -> int:
    if v >= 0.0:
        return int(math.floor(v + 0.5))
    return -int(math.floor(0.5 - v))


class EstimateTrace:
    """Every intermediate quantity of a single estimate. Immutable.

    ``l_mid_m`` always equals ``l_coarse_m + l_residual_m`` exactly as
    computed. ``delta_m`` is filled when the observation carried its truth.
    ``m_chain`` and ``fold_ints`` read as tuples of ints. Either may be handed
    over as any sequence of integer values, or as a function of no arguments
    that returns one; the function is called, and the tuple built, when the
    field is first read.
    """

    __slots__ = (
        "method", "_m_chain", "l_coarse_m", "l_residual_m", "l_mid_m",
        "_fold_ints", "l_final_m", "delta_m",
    )

    def __init__(self, method, m_chain, l_coarse_m, l_residual_m, l_mid_m,
                 fold_ints, l_final_m, delta_m=None):
        init = object.__setattr__
        init(self, "method", method)
        init(self, "_m_chain", m_chain)
        init(self, "l_coarse_m", l_coarse_m)
        init(self, "l_residual_m", l_residual_m)
        init(self, "l_mid_m", l_mid_m)
        init(self, "_fold_ints", fold_ints)
        init(self, "l_final_m", l_final_m)
        init(self, "delta_m", delta_m)

    def __setattr__(self, name, value):
        raise AttributeError(f"EstimateTrace is immutable; cannot set {name!r}")

    def _int_field(self, slot: str) -> tuple:
        values = getattr(self, slot)
        if type(values) is not tuple:
            if callable(values):
                values = values()
            if isinstance(values, np.ndarray):
                values = values.tolist()
            values = tuple(map(int, values))
            object.__setattr__(self, slot, values)
        return values

    @property
    def m_chain(self) -> tuple:
        return self._int_field("_m_chain")

    @property
    def fold_ints(self) -> tuple:
        return self._int_field("_fold_ints")

    def __repr__(self):
        return (
            f"EstimateTrace(method={self.method!r}, m_chain={self.m_chain!r}, "
            f"l_coarse_m={self.l_coarse_m!r}, l_residual_m={self.l_residual_m!r}, "
            f"l_mid_m={self.l_mid_m!r}, fold_ints={self.fold_ints!r}, "
            f"l_final_m={self.l_final_m!r}, delta_m={self.delta_m!r})"
        )


def build_w(n: int) -> np.ndarray:
    """Residual-stage weight matrix for an n-frequency plan, shape (n-1, n-1)."""
    if n < 2:
        raise InvalidArgumentError(f"weight matrix needs n >= 2, got {n}")
    idx = np.arange(1, n, dtype=float)
    j = idx[:, None]
    k = idx[None, :]
    return (n * np.minimum(j, k) - j * k) / n


class PlanConstants:
    """The per-plan constants of every stage kernel.

    Get it with :func:`plan_constants`, which keeps one instance on each plan
    object. The chain and residual constants are built on first use, so the
    stages that need neither (fold integers, final fit) also work on plans
    with fewer than two frequencies or repeated wavelengths; a stage that
    does need them raises the degenerate-plan error it always raised.
    """

    def __init__(self, plan: FrequencyPlan):
        self.plan = plan
        lam = np.array(plan.wavelengths_m)
        self.lam0 = float(lam[0])
        self.inv_lam = 1.0 / lam
        self.inv_sq_sum = float(self.inv_lam @ self.inv_lam)
        self.two_pi_inv_lam = TWO_PI * self.inv_lam
        self.delta_f = -np.diff(np.array(plan.freqs_hz))

    @cached_property
    def beat_lam(self) -> np.ndarray:
        return beat_wavelengths(self.plan)

    @cached_property
    def beat_ratios(self) -> list:
        """Lambda_i / Lambda_{i+1} for consecutive beat wavelengths."""
        return (self.beat_lam[:-1] / self.beat_lam[1:]).tolist()

    @cached_property
    def beat_last(self) -> float:
        return float(self.beat_lam[-1])

    @cached_property
    def w_delta_f(self) -> np.ndarray:
        """W @ delta_f, with delta_f_i = f_i - f_{i+1}."""
        return build_w(self.plan.n) @ self.delta_f

    @cached_property
    def residual_denom(self) -> float:
        """delta_f' W delta_f."""
        denom = float(self.delta_f @ self.w_delta_f)
        if denom == 0.0:
            raise DegeneratePlanError("residual stage denominator is zero")
        return denom

    @cached_property
    def step_two_pi_inv_lam(self) -> np.ndarray:
        """2*pi/lambda_i - 2*pi/lambda_{i+1}: how a range shift moves each
        adjacent phase difference."""
        return self.two_pi_inv_lam[:-1] - self.two_pi_inv_lam[1:]

    @cached_property
    def ef_inv_lam_tile(self) -> np.ndarray:
        """1/lambda_i for i >= 1 down every row of the longest ``ef`` scan
        chunk (0.4 MB), so the scan multiplies two contiguous arrays."""
        rest = self.inv_lam[1:]
        return np.tile(rest, (_ef_rows(rest.size), 1))


def plan_constants(plan: FrequencyPlan) -> PlanConstants:
    """The plan's :class:`PlanConstants`, built once and kept on the plan.

    The frozen plan's instance dict holds it, outside the dataclass fields,
    so plan equality, hashing and repr do not see it.
    """
    try:
        return plan.__dict__["_constants"]
    except KeyError:
        constants = plan.__dict__["_constants"] = PlanConstants(plan)
        return constants


def _chain(k: PlanConstants, phases: np.ndarray):
    """Shared chain kernel on one observation (N,) or a row block (B, N).

    Returns the chain integers M_1..M_{N-1} as integer-valued floats (one
    float, or one (B,) array, per stage) and the unwrapped beat phase at the
    finest beat wavelength, in turns; the coarse range is that times
    ``k.beat_last``. A block runs the same recurrence and rounding on one
    (B,) vector per stage, so every row matches its one-observation result
    bit for bit, except that a chain integer rounded from v = -0.0 is +0.0
    on one observation and -0.0 in a block; the next stage adds it to +0.0,
    so the integers and the beat phase in turns still match.

    One observation folds each beat phase phi_0 - phi_i inside its Python
    loop instead of calling :func:`wrap_inplace`. That relies on every phase
    lying in (-pi, pi], as :class:`PhaseObservation` enforces: a difference
    then lies in [-2*pi, 2*pi], where wrap_inplace's ``fmod`` changes only
    -2*pi (to -0.0) and 2*pi (to +0.0, which its subtraction also gives), so
    its two corrections alone, with -2*pi mapped to -0.0, give the same bits.
    """
    ratios = k.beat_ratios
    if phases.ndim == 1:
        # One observation: a Python-float loop, since (1, N) column
        # arithmetic costs about 15x more.
        pi, two_pi, inv_two_pi = math.pi, TWO_PI, _INV_TWO_PI
        diffs = (phases[0] - phases[1:]).tolist()
        b = diffs[0]
        if b > pi:
            b -= two_pi
        elif b <= -pi:
            b = b + two_pi if b != -two_pi else -0.0
        b *= inv_two_pi
        m = 0.0
        m_chain = [m]
        for b_next, ratio in zip(diffs[1:], ratios):
            # the fold of b above, inlined to save a call per stage
            if b_next > pi:
                b_next -= two_pi
            elif b_next <= -pi:
                b_next = b_next + two_pi if b_next != -two_pi else -0.0
            b_next *= inv_two_pi
            v = (m + b) * ratio - b_next
            # round half away from zero; // 1.0 is an exact float floor
            m = (v + 0.5) // 1.0 if v >= 0.0 else -((0.5 - v) // 1.0)
            m_chain.append(m)
            b = b_next
        return m_chain, m + b
    # A row block: one row of beat phases per stage.
    bp = wrap_inplace((phases[:, :1] - phases[:, 1:]).T.copy())
    bp *= _INV_TWO_PI
    m = np.zeros(len(phases))
    m_chain = [m]
    for b, b_next, ratio in zip(bp, bp[1:], ratios):
        v = m + b
        v *= ratio
        v -= b_next
        m = _round_half_away_arr(v)
        m_chain.append(m)
    return m_chain, m + bp[-1]


def coarse_estimate(obs: PhaseObservation):
    """First-stage coarse range: unwrap at the finest beat wavelength.

    Returns (L_c, m_chain). Conditional on a correct chain the error lies
    within +/- c/(2B).
    """
    k = plan_constants(obs.plan)
    m_chain, turns = _chain(k, obs.phases_rad)
    return turns * k.beat_last, np.array(m_chain, dtype=np.int64)


def compensate_phases(obs: PhaseObservation, l_c: float) -> np.ndarray:
    """Remove the coarse range from every phase: wrap(phi_i - 2*pi*l_c/lambda_i)."""
    two_pi_inv_lam = plan_constants(obs.plan).two_pi_inv_lam
    return wrap_inplace(obs.phases_rad - l_c * two_pi_inv_lam)


def _residual(k: PlanConstants, dphi: np.ndarray):
    """Residual-stage kernel on the wrapped adjacent differences ``dphi``,
    shape (..., N-1)."""
    return (k.plan.c_m_s / TWO_PI) * dphi.dot(k.w_delta_f) / k.residual_denom


def residual_estimate(compensated_rad, plan: FrequencyPlan) -> float:
    """Closed-form residual range from compensated phases.

    Weighted least squares over the adjacent wrapped differences of the
    compensated phases:

        L_r = (c / 2*pi) * (df' W dphi) / (df' W df)

    The closed form is exact only for residuals inside +/- c/(2B); outside
    that regime a value is still returned, and the failure shows up
    statistically rather than as an error.
    """
    comp = np.asarray(compensated_rad, dtype=float)
    if comp.size != plan.n:
        raise InvalidArgumentError("compensated phase count does not match plan")
    return float(_residual(plan_constants(plan), wrap_phase(comp[:-1] - comp[1:])))


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


def _fold(k: PlanConstants, l_m, phase_turns: np.ndarray) -> np.ndarray:
    """Fold-integer kernel: integer-valued floats round(l_m/lambda_i - phi_i/2pi)
    for one range and phases (N,), or a (B, 1) column of ranges and (B, N)."""
    return _round_half_away_arr(l_m * k.inv_lam - phase_turns)


def _fit(k: PlanConstants, fold: np.ndarray, phase_turns: np.ndarray):
    """Final-fit kernel: the least-squares range for the integer branch
    ``fold``, per row of (..., N) arrays."""
    return (fold + phase_turns).dot(k.inv_lam) / k.inv_sq_sum


def fold_integers(obs: PhaseObservation, l_m: float) -> np.ndarray:
    """Folding integers at every wavelength implied by the range guess ``l_m``."""
    fold = _fold(plan_constants(obs.plan), l_m, obs.phases_rad * _INV_TWO_PI)
    return fold.astype(np.int64)


def ls_refine(obs: PhaseObservation, fold_ints) -> float:
    """Scalar least-squares range over all phases for a fixed integer branch.

    Minimizes sum_i (2*pi*L/lambda_i - phi_i - 2*pi*m_i)^2; the minimizer is
    the quotient (sum_i m_f_i/lambda_i) / (sum_i lambda_i^-2).
    """
    fold = np.asarray(fold_ints, dtype=float)
    return float(_fit(plan_constants(obs.plan), fold, obs.phases_rad * _INV_TWO_PI))


def _delta(l_final: float, obs: PhaseObservation):
    return None if obs.truth_m is None else l_final - obs.truth_m


def bw_estimate(obs: PhaseObservation) -> EstimateTrace:
    """Classical chain estimate, including the final rounding step at lambda_0.

    The trace's residual field is 0 and its fold integers are the ones the
    final range implies at every wavelength (index 0 is the rounded m_0),
    computed when the trace's ``fold_ints`` is first read.
    """
    k = plan_constants(obs.plan)
    phases = obs.phases_rad
    m_chain, turns = _chain(k, phases)
    l_c = turns * k.beat_last
    phi0_turns = float(phases[0]) * _INV_TWO_PI
    m0 = _round_half_away(turns * (k.beat_last / k.lam0) - phi0_turns)
    l_final = (m0 + phi0_turns) * k.lam0
    return EstimateTrace(
        method="bw",
        m_chain=m_chain,
        l_coarse_m=l_c,
        l_residual_m=0.0,
        l_mid_m=l_c + 0.0,
        fold_ints=partial(fold_integers, obs, l_final),
        l_final_m=l_final,
        delta_m=_delta(l_final, obs),
    )


def _bw_rows(k: PlanConstants, phases: np.ndarray):
    """:func:`bw_estimate` on a row block (B, N): (l_coarse_m, l_final_m)."""
    _, turns = _chain(k, phases)
    phi0_turns = phases[:, 0] * _INV_TWO_PI
    m0 = _round_half_away_arr(turns * (k.beat_last / k.lam0) - phi0_turns)
    return turns * k.beat_last, (m0 + phi0_turns) * k.lam0


def concerto_estimate(obs: PhaseObservation) -> EstimateTrace:
    """Three-stage estimate: coarse chain, residual correction, final fit.

    The residual stage wraps the adjacent differences of the phases shifted
    by the coarse range in one step; wrapping each compensated phase first,
    as :func:`compensate_phases` does, changes no difference modulo 2*pi.

    Assumes |true range| < UMR/2; the only raised errors are degenerate-plan
    conditions propagated from the stage kernels.
    """
    k = plan_constants(obs.plan)
    phases = obs.phases_rad

    m_chain, turns = _chain(k, phases)
    l_c = turns * k.beat_last

    dphi = phases[:-1] - phases[1:]
    dphi -= l_c * k.step_two_pi_inv_lam
    l_r = float(_residual(k, wrap_inplace(dphi)))
    l_m = l_c + l_r

    phase_turns = phases * _INV_TWO_PI
    fold = _fold(k, l_m, phase_turns)
    l_final = float(_fit(k, fold, phase_turns))
    return EstimateTrace(
        method="concerto",
        m_chain=m_chain,
        l_coarse_m=l_c,
        l_residual_m=l_r,
        l_mid_m=l_m,
        fold_ints=fold,
        l_final_m=l_final,
        delta_m=_delta(l_final, obs),
    )


def _concerto_rows(k: PlanConstants, phases: np.ndarray):
    """:func:`concerto_estimate` on a row block (B, N): (l_coarse_m, l_final_m)."""
    _, turns = _chain(k, phases)
    l_c = turns * k.beat_last

    dphi = phases[:, :-1] - phases[:, 1:]
    dphi -= l_c[:, None] * k.step_two_pi_inv_lam
    l_m = l_c + _residual(k, wrap_inplace(dphi))

    phase_turns = phases * _INV_TWO_PI
    fold = _fold(k, l_m[:, None], phase_turns)
    return l_c, _fit(k, fold, phase_turns)


#: Elements (candidates x (N-1)) in the longest chunk of the ``ef`` candidate
#: scan: each of the scan's float64 chunk buffers holds this many, 0.4 MB, so
#: one chunk's buffers stay in a core's L2 cache (1,024 candidates at N = 51).
_EF_CHUNK_ELEMENTS = 51_200
_EF_LOCAL = threading.local()


def _ef_rows(cols: int) -> int:
    """Candidates in the longest ``ef`` scan chunk: the most whose rows of
    ``cols`` fractions fit ``_EF_CHUNK_ELEMENTS``."""
    return max(1, _EF_CHUNK_ELEMENTS // max(cols, 1))


def _ef_scratch(cols: int):
    """The calling thread's three (rows, cols) buffers of the ``ef`` scan,
    rows = :func:`_ef_rows`: a chunk's folding fractions, their rounded
    values, and the targets row tiled down the rows.

    Per-thread buffers keep the scan reentrant without paying an allocation
    (and page faults) per estimate.
    """
    cached = getattr(_EF_LOCAL, "buffers", None)
    if cached is None or cached[0].shape[1] != cols:
        cached = tuple(np.empty((_ef_rows(cols), cols)) for _ in range(3))
        _EF_LOCAL.buffers = cached
    return cached


def _ef_chain(k: PlanConstants, phases: np.ndarray, l_final: float) -> np.ndarray:
    """Beat-chain analogue implied by an ``ef`` final range, for the trace."""
    bp = wrap_inplace(phases[0] - phases[1:])
    bp *= _INV_TWO_PI
    return _round_half_away_arr(l_final / k.beat_lam - bp)


def ef_estimate(obs: PhaseObservation, k_m: float | None = None) -> EstimateTrace:
    """Excess-fractions estimate over the search range ``k_m``.

    Every candidate location at lambda_0 inside +/- k/2 (plus one cycle of
    guard) is scored by the summed squared distance of its implied folding
    fractions to the nearest integers; the winner is refined by the final
    least-squares fit. Cost is linear in k.

    The scan is exact and has one path for every k. Candidates are scored
    in as few equal chunks as the per-thread buffers of :func:`_ef_scratch`
    hold. Each chunk's arithmetic runs on contiguous arrays: its ranges are
    copied down the rows and multiplied by the plan's tiled inverse
    wavelengths, then the targets row, tiled once per call, is subtracted.
    Each score is ``einsum`` over its own C-contiguous row of N-1 squared
    fractions, so it does not depend on the chunking; ``argmin`` within a
    chunk and the strict ``<`` across chunks keep the first candidate on an
    exact tie.
    """
    plan = obs.plan
    umr_m = plan.umr_m
    if k_m is None:
        k_m = plan.range_budget_m if plan.range_budget_m is not None else umr_m
    if not (k_m > 0.0 and math.isfinite(k_m)):
        raise InvalidArgumentError("search range must be positive and finite")
    if k_m > umr_m * (1.0 + 1e-9):
        raise InvalidArgumentError(
            f"search range {k_m!r} m exceeds the unambiguous range {umr_m!r} m"
        )
    k = plan_constants(plan)
    lam0 = k.lam0
    phases = obs.phases_rad
    phi0_turns = float(phases[0]) * _INV_TWO_PI
    m_lo = math.ceil(-k_m / (2.0 * lam0) - 1.0)
    m_hi = math.floor(k_m / (2.0 * lam0) + 1.0)
    if m_hi < m_lo:
        raise InvalidArgumentError("empty candidate set")

    phase_turns = phases * _INV_TWO_PI
    inv_lam_tile = k.ef_inv_lam_tile
    frac, scratch, targets = _ef_scratch(inv_lam_tile.shape[1])
    total = m_hi - m_lo + 1
    chunks = (total + frac.shape[0] - 1) // frac.shape[0]
    rows = (total + chunks - 1) // chunks
    targets = targets[:rows]
    targets[...] = phase_turns[1:]
    best_score = math.inf
    best_m = m_lo
    for start in range(m_lo, m_hi + 1, rows):
        cand = np.arange(start, min(start + rows, m_hi + 1), dtype=float)
        l_cand = (cand + phi0_turns) * lam0
        count = cand.size
        f = frac[:count]
        s = scratch[:count]
        f[...] = l_cand[:, None]
        np.multiply(f, inv_lam_tile[:count], out=f)
        np.subtract(f, targets[:count], out=f)
        np.rint(f, out=s)
        np.subtract(f, s, out=f)
        scores = np.einsum("ij,ij->i", f, f)
        local = int(scores.argmin())
        if scores[local] < best_score:
            best_score = float(scores[local])
            best_m = start + local

    l_cand_best = (best_m + phi0_turns) * lam0
    fold = _fold(k, l_cand_best, phase_turns)
    l_final = float(_fit(k, fold, phase_turns))

    return EstimateTrace(
        method="ef",
        m_chain=partial(_ef_chain, k, phases, l_final),
        l_coarse_m=l_cand_best,
        l_residual_m=0.0,
        l_mid_m=l_cand_best + 0.0,
        fold_ints=fold,
        l_final_m=l_final,
        delta_m=_delta(l_final, obs),
    )


# ---------------------------------------------------------------------------
# Estimator registry: name -> (PhaseObservation) -> EstimateTrace.
# Immutable after startup in normal use; duplicate names are rejected.
# ---------------------------------------------------------------------------

_REGISTRY: dict = {}


def register_estimator(name: str, fn) -> None:
    if name in _REGISTRY:
        raise DuplicateEstimatorError(f"estimator {name!r} is already registered")
    _REGISTRY[name] = fn


def lookup_estimator(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEstimatorError(
            f"unknown estimator {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_estimators() -> tuple:
    return tuple(sorted(_REGISTRY))


register_estimator("bw", bw_estimate)
register_estimator("concerto", concerto_estimate)
register_estimator("ef", ef_estimate)

#: Row-block forms of estimator functions, keyed by the function. Each kernel
#: maps (plan constants, phases (B, N)) to (l_coarse_m, l_final_m), one (B,)
#: array each, equal to what the function gives row by row (``l_final_m`` up
#: to the summation order of the final fit's dot product). Only the registered
#: ``concerto`` and ``bw`` functions have one. Any other function, including a
#: wrapper around one of them or a function patched into the registry, has
#: none: the Monte-Carlo harness then calls it on one observation per trial,
#: so a wrapper sees every trial.
BLOCK_KERNELS = {bw_estimate: _bw_rows, concerto_estimate: _concerto_rows}
