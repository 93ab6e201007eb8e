"""Range estimators on multi-frequency phase observations.

Three estimators are provided, looked up by name:

  * ``bw``       - the classical sequential chain over beat wavelengths,
                   finishing with a rounding step at lambda_0;
  * ``concerto`` - three coherent stages: the same chain stopped at the
                   finest beat wavelength (coarse), a closed-form residual,
                   the least-squares slope of the compensated phases against
                   frequency, unwrapped through their adjacent wrapped
                   differences, and a final scalar least-squares fit over
                   all unwrapped phases;
  * ``ef``       - excess fractions: the best-scoring candidate location at
                   lambda_0, refined by the same final fit. Every candidate
                   is screened on a few fraction columns, and only those the
                   screen cannot rule out get a full score; the winner is
                   the one exhaustive scoring finds, bit for bit.

No matrix is built, inverted or decomposed, per plan or per estimate: the
residual slope fit needs O(N) per-plan weights and the final fit is a scalar
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

import contextvars
import math
import numbers
import threading
from functools import partial
from operator import attrgetter

import numpy as np

from .core import (
    TWO_PI,
    UMR_RTOL,
    FrequencyPlan,
    PhaseObservation,
    wrap_inplace,
    wrap_phase,
)
from .errors import (
    DegeneratePlanError,
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

    Each field is a read-only property over a private slot, so assigning
    to a field, or to an attribute the class does not have, raises
    ``AttributeError``.
    ``l_mid_m`` always equals ``l_coarse_m + l_residual_m`` exactly as
    computed. ``delta_m`` is filled when the observation carried its truth.
    ``m_chain`` and ``fold_ints`` read as tuples of ints. Either may be handed
    over as any sequence of integer values, or as a function of no arguments
    that returns one; the function is called, and the tuple built, when the
    field is first read.
    """

    __slots__ = (
        "_method", "_m_chain", "_l_coarse_m", "_l_residual_m", "_l_mid_m",
        "_fold_ints", "_l_final_m", "_delta_m",
    )

    def __init__(self, method, m_chain, l_coarse_m, l_residual_m, l_mid_m,
                 fold_ints, l_final_m, delta_m=None):
        self._method = method
        self._m_chain = m_chain
        self._l_coarse_m = l_coarse_m
        self._l_residual_m = l_residual_m
        self._l_mid_m = l_mid_m
        self._fold_ints = fold_ints
        self._l_final_m = l_final_m
        self._delta_m = delta_m

    method = property(attrgetter("_method"))
    l_coarse_m = property(attrgetter("_l_coarse_m"))
    l_residual_m = property(attrgetter("_l_residual_m"))
    l_mid_m = property(attrgetter("_l_mid_m"))
    l_final_m = property(attrgetter("_l_final_m"))
    delta_m = property(attrgetter("_delta_m"))

    def _int_field(self, slot: str) -> tuple:
        values = getattr(self, slot)
        if type(values) is not tuple:
            if callable(values):
                values = values()
            if isinstance(values, np.ndarray):
                values = values.tolist()
            values = tuple(map(int, values))
            setattr(self, slot, values)
        return values

    @property
    def m_chain(self) -> tuple:
        return self._int_field("_m_chain")

    @property
    def fold_ints(self) -> tuple:
        return self._int_field("_fold_ints")

    def __repr__(self):
        fields = ", ".join(f"{slot[1:]}={getattr(self, slot[1:])!r}" for slot in self.__slots__)
        return f"EstimateTrace({fields})"


class _lazy:
    """One of several per-instance constants that ``fn`` builds together,
    returning them by name. The first read of any of them keeps every one
    in the instance dict, where each then shadows this non-data descriptor;
    a build that raises keeps none, and raises again on the next read.
    Unlike ``functools.cached_property`` on Python 3.11 it takes no lock:
    threads racing on a first read each build the same values, and one set
    is kept."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        values = obj.__dict__
        values.update(self.fn(obj))
        return values[self.name]


class PlanConstants:
    """The per-plan constants of every stage kernel.

    Get it with :func:`plan_constants`, which keeps one instance on each plan
    object. The chain constants are built together on the first read of any
    of them, and so are the residual stage's and ``ef``'s, so the stages that
    need neither chain nor residual constants (fold integers, final fit) also
    work on plans with fewer than two frequencies or repeated wavelengths; a
    stage that does need them raises the degenerate-plan error it always
    raised.
    The wavelength, chain and final-fit constants come from one frequency
    array, where ``c / f_i`` rounds as in ``plan.wavelengths_m``, so each has
    the bits of its formula on the wavelength tuple. The residual weights
    ``w_delta_f`` and ``residual_denom`` match W @ df and df' W df of
    :func:`residual_estimate`'s weighted form to 1e-12 relative, not bit for
    bit.
    """

    def __init__(self, plan: FrequencyPlan):
        self.plan = plan
        self.freqs = freqs = np.array(plan.freqs_hz)
        self.lam = lam = plan.c_m_s / freqs
        self.lam0 = float(lam[0])
        self.inv_lam = 1.0 / lam
        self.inv_sq_sum = float(self.inv_lam @ self.inv_lam)
        self.two_pi_inv_lam = TWO_PI * self.inv_lam
        # the plan's range K: its range budget, else its UMR
        budget = plan.range_budget_m
        self.search_range_m = plan.umr_m if budget is None else budget

    def _chain_constants(self) -> dict:
        lam, lam0 = self.lam[1:], self.lam0
        if lam.size < 1:
            raise InvalidArgumentError("beat quantities need at least two frequencies")
        # lambda_i - lambda_0 is 0 exactly where lambda_i repeats a finite
        # lambda_0; an infinite one is compared first, as inf - inf is NaN and
        # warns. np.count_nonzero, not .all(): its method wrapper costs more.
        if (math.isinf(lam0) and np.count_nonzero(lam == lam0)
                or np.count_nonzero(gap := lam - lam0) != gap.size):
            raise DegeneratePlanError("repeated wavelength: beat wavelength undefined")
        beat_lam = lam * lam0
        beat_lam /= gap
        return {"beat_lam": beat_lam, "beat_ratios": (beat_lam[:-1] / beat_lam[1:]).tolist(),
                "beat_last": float(beat_lam[-1])}

    #: Synthetic (beat) wavelengths lambda_0 lambda_i / (lambda_i - lambda_0), i >= 1.
    beat_lam = _lazy(_chain_constants)
    #: Lambda_i / Lambda_{i+1} for consecutive beat wavelengths, as floats.
    beat_ratios = _lazy(_chain_constants)
    #: The finest beat wavelength, as a float.
    beat_last = _lazy(_chain_constants)

    def _residual_constants(self) -> dict:
        freqs = self.freqs
        if freqs.size < 2:
            raise InvalidArgumentError("the residual stage needs at least two frequencies")
        # f_i - mean(f), centred from the offsets f_i - f_0, which are exact
        # when every f_i is at least f_0/2, so a narrow band keeps its digits
        centred = freqs - self.plan.freqs_hz[0]
        # np.mean's sum, np.cumsum and np.dot as their bare ufuncs and method:
        # at these sizes the Python wrappers cost more than their arithmetic
        centred -= np.add.reduce(centred) / freqs.size
        denom = float(centred.dot(centred))
        if denom == 0.0:
            raise DegeneratePlanError("residual stage denominator is zero")
        two_pi_inv_lam = self.two_pi_inv_lam
        return {"w_delta_f": np.add.accumulate(centred[:-1]), "residual_denom": denom,
                "step_two_pi_inv_lam": two_pi_inv_lam[:-1] - two_pi_inv_lam[1:]}

    #: Residual weights: cumsum(f - mean f) over the first N-1 entries.
    w_delta_f = _lazy(_residual_constants)
    #: sum_i (f_i - mean f)^2.
    residual_denom = _lazy(_residual_constants)
    #: 2*pi/lambda_i - 2*pi/lambda_{i+1}: how a range shift moves each
    #: adjacent phase difference.
    step_two_pi_inv_lam = _lazy(_residual_constants)

    def _ef_constants(self) -> dict:
        n = self.plan.n
        if n - 1 <= _EF_SCREEN_COLUMNS:
            index = np.arange(1, n)
        else:
            index = 1 + np.linspace(0, n - 2, _EF_SCREEN_COLUMNS).round().astype(np.intp)
        index = index[:, None]
        return {"ef_screen_index": index, "ef_screen_inv_lam": self.inv_lam.take(index),
                "ef_screen_rows": max(1, _EF_CHUNK_ELEMENTS // max(index.shape[0], 1)),
                "ef_full_rows": max(1, _EF_CHUNK_ELEMENTS // n), "ef_slack": _EF_SLACK + 1e-15 * n}

    #: Indices i >= 1 of the ``ef`` screen's fraction columns, spread evenly
    #: over 1..N-1 (all of them when N-1 <= C), as a (C, 1) column.
    ef_screen_index = _lazy(_ef_constants)
    #: 1/lambda_i at the ``ef`` screen's columns, as a (C, 1) column.
    ef_screen_inv_lam = _lazy(_ef_constants)
    #: Candidates in the longest chunk of the ``ef`` screen: the most whose
    #: C fractions each fit ``_EF_CHUNK_ELEMENTS``, and at least one.
    ef_screen_rows = _lazy(_ef_constants)
    #: Candidates in the longest chunk of the ``ef`` full scores, likewise of N.
    ef_full_rows = _lazy(_ef_constants)
    #: The factor that widens the ``ef`` screen's bound.
    ef_slack = _lazy(_ef_constants)


def plan_constants(plan: FrequencyPlan) -> PlanConstants:
    """The plan's :class:`PlanConstants`, built once and kept on the plan.

    The frozen plan's instance dict holds it, outside the dataclass fields,
    so plan equality, hashing and repr do not see it.
    """
    # dict.get: on a new plan a raised KeyError costs more than the lookup
    constants = plan.__dict__.get("_constants")
    if constants is None:
        constants = plan.__dict__["_constants"] = PlanConstants(plan)
    return constants


def beat_wavelengths(plan: FrequencyPlan) -> np.ndarray:
    """Synthetic wavelengths of the plan, one per frequency below f_0."""
    return plan_constants(plan).beat_lam.copy()


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

    One observation reads its phases once as Python floats, then takes each
    beat phase phi_0 - phi_i and folds it inside its Python loop, instead of
    a numpy difference and :func:`wrap_inplace`. Both subtractions round the
    same float64 operands, so the difference has the same bits. The fold
    relies on every phase lying in (-pi, pi], as :class:`PhaseObservation`
    enforces: a difference then lies in [-2*pi, 2*pi], where wrap_inplace's
    ``fmod`` changes only -2*pi (to -0.0) and 2*pi (to +0.0, which
    subtracting 2*pi also gives), so one correction, with -2*pi mapped to
    -0.0, gives the same bits.
    """
    ratios = k.beat_ratios
    if phases.ndim == 1:
        # One observation: a Python-float loop, since (1, N) column
        # arithmetic costs about 15x more.
        pi, two_pi, inv_two_pi = math.pi, TWO_PI, _INV_TWO_PI
        phases = phases.tolist()
        phi0 = phases[0]
        b = phi0 - phases[1]
        if b > pi:
            b -= two_pi
        elif b <= -pi:
            b = b + two_pi if b != -two_pi else -0.0
        b *= inv_two_pi
        m = 0.0
        m_chain = [m]
        for phi, ratio in zip(phases[2:], ratios):
            # the fold of b above, inlined to save a call per stage
            b_next = phi0 - phi
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


def _check_range(l_m, k: PlanConstants) -> None:
    """Refuse a range handed to a stage that is not one finite real number, or
    whose l/lambda_i on the plan of ``k`` exceeds 2**53, where a float holds
    no fraction of a turn."""
    if not (isinstance(l_m, numbers.Real) and math.isfinite(l_m)):
        raise InvalidArgumentError(f"range must be a finite scalar, got {l_m!r}")
    if abs(float(l_m)) * float(np.maximum.reduce(np.abs(k.inv_lam))) > 2.0**53:
        raise InvalidArgumentError(f"range {l_m!r} m is too large: l/lambda_i exceeds 2**53")


def compensate_phases(obs: PhaseObservation, l_c: float) -> np.ndarray:
    """Remove the coarse range from every phase: wrap(phi_i - 2*pi*l_c/lambda_i)."""
    k = plan_constants(obs.plan)
    _check_range(l_c, k)
    return wrap_inplace(obs.phases_rad - l_c * k.two_pi_inv_lam)


def _residual(k: PlanConstants, dphi: np.ndarray, l_c):
    """Residual-stage kernel on the adjacent differences phi_i - phi_{i+1},
    (N-1,) or (B, N-1), and the coarse range, a float or a (B, 1) column:
    shifts and wraps ``dphi`` in place, then fits the phase slope of
    :func:`residual_estimate`."""
    dphi -= l_c * k.step_two_pi_inv_lam
    return (k.plan.c_m_s / TWO_PI) * wrap_inplace(dphi).dot(k.w_delta_f) / k.residual_denom


def residual_estimate(compensated_rad, plan: FrequencyPlan) -> float:
    """Closed-form residual range from compensated phases.

    The least-squares slope of phase against frequency, the phases unwrapped
    by summing their wrapped adjacent differences
    dphi_i = wrap(phi_i - phi_{i+1}):

        L_r = (c / 2*pi) * sum_i S_i dphi_i / sum_i (f_i - mean f)^2,
        S_i = sum_{j <= i} (f_j - mean f),  i = 0..N-2.

    It equals the weighted least-squares form (df' W dphi) / (df' W df), with
    df_i = f_i - f_{i+1} and W = Gamma' (I - uu'/N) Gamma, (N-1, N-1), but
    builds no matrix. The closed form is exact only for residuals inside
    +/- c/(2B); outside that regime a value is still returned, and the
    failure shows up statistically rather than as an error.
    """
    comp = np.asarray(compensated_rad, dtype=float)
    if comp.shape != (plan.n,):
        raise InvalidArgumentError("compensated phase count does not match plan")
    # wrapped first: no difference of the phases can overflow or warn
    comp = wrap_phase(comp)
    return float(_residual(plan_constants(plan), comp[:-1] - comp[1:], 0.0))


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
    k = plan_constants(obs.plan)
    _check_range(l_m, k)
    return _fold(k, l_m, obs.phases_rad * _INV_TWO_PI).astype(np.int64)


def ls_refine(obs: PhaseObservation, fold_ints) -> float:
    """Scalar least-squares range over all phases for a fixed integer branch.

    Minimizes sum_i (2*pi*L/lambda_i - phi_i - 2*pi*m_i)^2; the minimizer is
    the quotient (sum_i m_f_i/lambda_i) / (sum_i lambda_i^-2).
    """
    n = obs.plan.n
    fold = np.asarray(fold_ints, dtype=float)
    if fold.shape != (n,) or not np.isfinite(fold).all() or np.count_nonzero(fold % 1.0):
        raise InvalidArgumentError(f"fold integers must be {n} finite integral values")
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

    l_r = float(_residual(k, phases[:-1] - phases[1:], l_c))
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

    l_m = l_c + _residual(k, phases[:, :-1] - phases[:, 1:], l_c[:, None])

    phase_turns = phases * _INV_TWO_PI
    fold = _fold(k, l_m[:, None], phase_turns)
    return l_c, _fit(k, fold, phase_turns)


#: Elements (candidates x columns) in the longest chunk of the ``ef`` candidate
#: scan: each of the scan's two float64 chunk buffers holds this many, 0.2 MB,
#: so one chunk's buffers stay well inside a core's L2 cache. A screen chunk
#: holds at most 1,828 candidates (C = 14), and a block of more than that is
#: split into equal chunks of 915 or more, so the screen's cost per candidate
#: is about the same at every search range.
_EF_CHUNK_ELEMENTS = 25_600
#: Fraction columns of the ``ef`` screen: every candidate is first scored on
#: this many of its N-1 folding fractions, spread evenly over them.
_EF_SCREEN_COLUMNS = 14
#: The screen's bound is widened by this factor plus 1e-15 per frequency,
#: and by this floor for squares that underflow (see :func:`ef_estimate`).
_EF_SLACK = 1.0 + 1e-12
_EF_FLOOR = 1e-290
#: Candidates either side of a block's lowest partial score that the ``ef``
#: scan scores in full for its bound.
_EF_WINDOW = 2
#: Candidates per block of the ``ef`` scan: a block's ranges and partial
#: scores, 2 MiB each, are screened before any of them gets a full score.
_EF_BLOCK = 262_144
#: Most candidates one ``ef`` search may scan: about 3-16 s. On a 2-CPU x86-64
#: host (N = 51, 20 dB) a candidate cost 25-50 ns at K <= 14.4 km, but 70-160 ns
#: (median 112 ns) at K = 144 km, where every block scanned before the
#: winner's scores nearly all of its candidates in full. A wider search, such
#: as on a plan whose top two frequencies are an ulp apart (UMR 6e14 m), is
#: refused before it starts.
_EF_MAX_CANDIDATES = 10**8
#: numpy's ufunc buffer size, in elements, inside the screen's context. numpy
#: iterates a broadcast operation, such as the screen's (C, 1) column times
#: its (rows,) candidates, through its buffers, at 2-4 times the time per
#: element, while 3 x rows is below the buffer size (8,192 by default): every
#: screen chunk of 342 rows or more runs unbuffered at this size.
_EF_SCREEN_BUFSIZE = 1024
#: Chunk shapes whose buffer views a thread keeps (see :class:`_EfViews`).
_EF_VIEW_SHAPES = 64
_EF_LOCAL = threading.local()


class _EfViews(dict):
    """A thread's two ``ef`` chunk buffers of ``_EF_CHUNK_ELEMENTS`` floats,
    a chunk's folding fractions and their rounded values. ``views[rows, cols]``
    is a pair of C-contiguous (rows, cols) views of their first rows x cols
    floats, and the first view without its first column; each shape's views
    are made once (up to ``_EF_VIEW_SHAPES`` shapes), since making them costs
    about as much as a small ufunc call."""

    __slots__ = ("frac", "scratch")

    def __init__(self):
        super().__init__()
        self.frac = np.empty(_EF_CHUNK_ELEMENTS)
        self.scratch = np.empty(_EF_CHUNK_ELEMENTS)

    def __missing__(self, shape):
        if len(self) >= _EF_VIEW_SHAPES:
            self.clear()
        size = shape[0] * shape[1]
        fractions = self.frac[:size].reshape(shape)
        views = self[shape] = (fractions, self.scratch[:size].reshape(shape), fractions[:, 1:])
        return views


def _ef_scratch():
    """The calling thread's ``ef`` scan state: its :class:`_EfViews` and the
    context the screen runs in.

    Per-thread buffers keep the scan reentrant without paying an allocation
    (and page faults) per estimate. numpy keeps its ufunc settings in a
    context variable, so the screen's buffer size lives in a context of its
    own: a fresh one, with numpy's default settings but for a buffer size of
    ``_EF_SCREEN_BUFSIZE``. Entering it costs a small fraction of setting and
    restoring the caller's buffer size, and the caller's settings never
    change; the screen runs under numpy's default floating-point error
    handling, whatever the caller's. A context can be entered by one thread
    at a time, hence one per thread.
    """
    cached = getattr(_EF_LOCAL, "state", None)
    if cached is None:
        context = contextvars.Context()
        context.run(np.setbufsize, _EF_SCREEN_BUFSIZE)
        cached = _EF_LOCAL.state = (_EfViews(), context)
    return cached


def _ef_screen(views, inv_lam, targets, l_all, max_rows, out):
    """The ``ef`` screen of one block, run in the screen's context: ``out``
    gets the partial score of each candidate range in ``l_all`` on the
    fraction columns whose 1/lambda_i and phi_i/2pi are the (C, 1) columns
    ``inv_lam`` and ``targets``, in equal chunks of at most ``max_rows``
    candidates laid out (C, rows) in the buffers of ``views``."""
    width = inv_lam.shape[0]
    total = l_all.size
    chunks = -(-total // max_rows)
    rows = -(-total // chunks)
    for lo in range(0, total, rows):
        l_cand = l_all[lo:lo + rows]
        count = l_cand.size
        f, s, _ = views[width, count]
        np.multiply(inv_lam, l_cand, out=f)
        f -= targets
        np.rint(f, out=s)
        f -= s
        np.einsum("ij,ij->j", f, f, out=out[lo:lo + count])


def _ef_best(k: PlanConstants, l_cand, phase_turns, views):
    """The lowest full ``ef`` score among the candidate ranges ``l_cand``, the
    first candidate that has it and the nearest integers to that candidate's
    l/lambda_i - phi_i/2pi, as (score, range, integers). Candidates go in
    chunks of at most ``k.ef_full_rows``, laid out (rows, N) in the buffers of
    ``views``; a score is ``einsum`` over its own row of the squared distances
    to those integers, i >= 1, so the chunking does not change it."""
    n = phase_turns.size
    rows = k.ef_full_rows
    best = (math.inf,)
    for lo in range(0, l_cand.size, rows):
        chunk = l_cand[lo:lo + rows, None]
        dist, nearest, scored = views[chunk.shape[0], n]
        np.multiply(chunk, k.inv_lam, out=dist)
        dist -= phase_turns
        np.rint(dist, out=nearest)
        dist -= nearest
        scores = np.einsum("ij,ij->i", scored, scored)
        i = int(scores.argmin())
        score = float(scores[i])
        if score < best[0]:
            best = (score, float(chunk[i, 0]), nearest[i].copy())
    return best


def _ef_chain(k: PlanConstants, phases: np.ndarray, l_final: float) -> np.ndarray:
    """Beat-chain analogue implied by an ``ef`` final range, for the trace."""
    bp = wrap_inplace(phases[0] - phases[1:])
    bp *= _INV_TWO_PI
    return _round_half_away_arr(l_final / k.beat_lam - bp)


def ef_search_bounds(k: PlanConstants) -> tuple:
    """The first and last candidate m, (m_lo, m_hi), that ``ef`` scans on the
    plan of ``k``: +/- K/2, K = ``k.search_range_m``, plus one cycle of guard.
    Raises :class:`InvalidArgumentError`, in this order, for a K that is not
    positive and finite, a K beyond the UMR, an empty candidate set and more
    than ``_EF_MAX_CANDIDATES`` candidates; the limit is read on every call."""
    k_m, umr_m = k.search_range_m, k.plan.umr_m
    if not (k_m > 0.0 and math.isfinite(k_m)):
        raise InvalidArgumentError("search range must be positive and finite")
    if k_m > umr_m * (1.0 + UMR_RTOL):
        raise InvalidArgumentError(
            f"search range {k_m!r} m exceeds the unambiguous range {umr_m!r} m"
        )
    m_lo = math.ceil(-k_m / (2.0 * k.lam0) - 1.0)
    m_hi = math.floor(k_m / (2.0 * k.lam0) + 1.0)
    if m_hi < m_lo:
        raise InvalidArgumentError("empty candidate set")
    if m_hi - m_lo + 1 > _EF_MAX_CANDIDATES:
        raise InvalidArgumentError(
            f"search of {m_hi - m_lo + 1} candidates exceeds the limit of {_EF_MAX_CANDIDATES}"
        )
    return m_lo, m_hi


def ef_estimate(obs: PhaseObservation) -> EstimateTrace:
    """Excess-fractions estimate over the plan's range K, ``search_range_m``.

    Every candidate location at lambda_0 inside +/- K/2 (plus one cycle of
    guard) is scored by the summed squared distance of its implied folding
    fractions to the nearest integers; the winner is refined by the final
    least-squares fit. Cost is linear in K. The candidates, and the searches
    refused, are those of :func:`ef_search_bounds`.

    The scan is exact and has one path for every K. Candidates go in blocks
    of ``_EF_BLOCK``, and each block in chunks of the per-thread buffers of
    :func:`_ef_scratch`:

    * a screen scores every candidate on C = ``_EF_SCREEN_COLUMNS`` fraction
      columns spread over the N-1 (all of them when N-1 <= C), laid out
      (C, candidates) in equal chunks of at most ``_EF_CHUNK_ELEMENTS``, in
      the thread's screen context, where numpy runs them unbuffered. Each
      fraction is computed as in the full score,
      ``l/lambda_i - target_i - rint(...)``, so it has the same bits;
    * the candidates within ``_EF_WINDOW`` of the block's lowest partial
      score get a full score: ``einsum`` over their own C-contiguous row of
      N-1 squared fractions, so it does not depend on the chunking. A
      candidate's neighbours are the ones a screen separates worst: a step
      of j candidates moves fraction i by j(f_0 - f_i)/f_0, which a narrow
      band keeps small. The bound is the lower of the best full score so
      far and the window's;
    * only a candidate outside the window whose partial score is at most the
      bound times ``_EF_SLACK`` plus 1e-15 per frequency, plus ``_EF_FLOOR``,
      gets a full score too. The first lowest full score of a block's
      window or survivors, which keep candidate order, wins it; across them
      the lower range wins an exact tie, and the strict ``<`` across blocks
      keeps the first candidate. The integers nearest the winner's
      fractions come with its full score, and they are the final fit's
      folding integers (:func:`_fold`'s) unless the score is 1/4 or more.

    Nothing that could win or tie is pruned. A partial score sums a subset
    of the full score's non-negative squares, and a sum of n squares here is
    within 2n rounding steps of u = 2**-53, relative, of its exact value; so
    a candidate whose full score is at most the bound has a partial score at
    most the bound times 1 + 2(N-1+C)u (1 + 1.4e-14 at N = 51), inside the
    slack for any N. Squares that underflow err by about 1e-323 each, inside
    the floor. The trace is bit for bit that of scoring every candidate in
    full. Where most candidates survive (low SNR), a call costs that full
    scoring plus the screen.
    """
    k = plan_constants(obs.plan)
    m_lo, m_hi = ef_search_bounds(k)
    lam0 = k.lam0
    phases = obs.phases_rad
    phase_turns = phases * _INV_TWO_PI
    phi0_turns = float(phase_turns[0])
    views, screen_context = _ef_scratch()

    screen_targets = phase_turns.take(k.ef_screen_index)
    slack = k.ef_slack
    best_score = math.inf
    for start in range(m_lo, m_hi + 1, _EF_BLOCK):
        # the screen: the block's candidate ranges and partial scores
        l_all = np.arange(start, min(start + _EF_BLOCK, m_hi + 1), dtype=float)
        l_all += phi0_turns
        l_all *= lam0
        partial_scores = np.empty(l_all.size)
        screen_context.run(_ef_screen, views, k.ef_screen_inv_lam, screen_targets,
                           l_all, k.ef_screen_rows, partial_scores)

        # the bound: the best full score in the window around the lowest
        # partial score
        star = int(partial_scores.argmin())
        lo = max(star - _EF_WINDOW, 0)
        hi = star + _EF_WINDOW + 1
        score, l_best, fold = _ef_best(k, l_all[lo:hi], phase_turns, views)
        limit = min(best_score, score) * slack + _EF_FLOOR

        # the full scores of the survivors outside the window; an exact tie
        # goes to the lower range, the earlier candidate
        partial_scores[lo:hi] = math.inf
        survivors = partial_scores <= limit
        if np.count_nonzero(survivors):  # cheaper than the .any() method
            other = _ef_best(k, l_all[survivors], phase_turns, views)
            if other[:2] < (score, l_best):
                score, l_best, fold = other
        if score < best_score:
            best_score, best_l, best_fold = score, l_best, fold

    # rint and _fold's rounding differ only on a fraction exactly half way
    # between integers, which adds 1/4 to a score: column 0 lies within
    # 1e-7 of an integer for every candidate
    if best_score >= 0.25:
        best_fold = _fold(k, best_l, phase_turns)
    l_final = float(_fit(k, best_fold, phase_turns))

    return EstimateTrace(
        method="ef",
        m_chain=partial(_ef_chain, k, phases, l_final),
        l_coarse_m=best_l,
        l_residual_m=0.0,
        l_mid_m=best_l + 0.0,
        fold_ints=best_fold,
        l_final_m=l_final,
        delta_m=_delta(l_final, obs),
    )


# ---------------------------------------------------------------------------
# The fixed estimator set: name -> (PhaseObservation) -> EstimateTrace.
# ---------------------------------------------------------------------------

# A plain dict, so a test can patch in a wrapper with monkeypatch.setitem.
_REGISTRY = {"bw": bw_estimate, "concerto": concerto_estimate, "ef": ef_estimate}


def lookup_estimator(name: str):
    """The estimator function named ``name``; UnknownEstimatorError if none."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEstimatorError(
            f"unknown estimator {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


#: Row-block forms of estimator functions, keyed by the function. Each kernel
#: maps (plan constants, phases (B, N)) to (l_coarse_m, l_final_m), one (B,)
#: array each, equal to what the function gives row by row (``l_final_m`` up
#: to the summation order of the final fit's dot product). Only the
#: ``concerto`` and ``bw`` functions have one. Any other function, including a
#: wrapper around one of them patched into ``_REGISTRY``, has none: the
#: Monte-Carlo harness then calls it on one observation per trial, so a
#: wrapper sees every trial.
BLOCK_KERNELS = {bw_estimate: _bw_rows, concerto_estimate: _concerto_rows}
