"""Reproducible Monte-Carlo harness: observation synthesis, trial batches,
aggregated metrics, and the three sweep protocols (SNR, range budget K,
frequency count N via an SNR-threshold scan).

Determinism contract
--------------------
Trial t of a batch with master seed s draws from the stream
``np.random.default_rng(mix_seed(s, t))``, where :func:`mix_seed` is
splitmix64, a documented 64-bit avalanche mixer: the uniform truth first
(when drawn), then N standard normals (sigma > 0). Each row block seeds
its trials' streams in one pass: splitmix64, numpy's ``SeedSequence`` hash
and the PCG64 seeding run over the whole block as array arithmetic, and
each trial's state is loaded into one reused generator, so every draw is
the one ``default_rng(mix_seed(s, t))`` makes. The tests check that
seeding against numpy's own, so a numpy release that seeds ``default_rng``
otherwise fails them instead of moving results. Trials are aggregated in
fixed-size chunks whose partial sums are merged in chunk order, so results
depend only on the seed, the trial count and :data:`CHUNK_TRIALS`.
The Gaussian draws are numpy's; they are not bit-compatible with other
implementations.

Evaluation: a chunk is drawn, synthesized and estimated in row blocks of
``BLOCK_ROWS`` trials, one (B, N) array per block. ``concerto`` and ``bw``
run their stage kernels on the whole block. An estimator without a
row-block kernel (``ef``, or any wrapper around ``concerto`` or ``bw``) is
called on one observation per trial, made by
:func:`synthesize_observation`; a block that needs those observations is
synthesized trial by trial, so a wrapper of either name sees every trial.
Either way the per-trial random streams, and so the synthesized phases, are
the ones a trial-by-trial loop over :func:`synthesize_observation` draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .core import (
    C_VACUUM_M_S,
    TWO_PI,
    UMR_RTOL,
    FrequencyPlan,
    NoiseSpec,
    PhaseObservation,
    huge_int_as_inf,
    wrap_inplace,
    wrap_phase,
)
from .errors import (
    ConfigError,
    InfeasibleDesignError,
    InvalidArgumentError,
    UndefinedBoundError,
)
from .estimators import BLOCK_KERNELS, lookup_estimator, plan_constants
from .freqdesign import design_concerto_plan
from .theory import crb

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (O'Neill, "PCG", 2014); _trial_streams reproduces the seeding
# np.random.default_rng(seed) performs.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Trials per aggregation chunk. The chunk sums are merged in chunk order,
#: so this size fixes the last bits of every aggregate; it also bounds the
#: per-chunk error arrays.
CHUNK_TRIALS = 2048

#: Trials evaluated together as one (B, N) row block inside a chunk. Whole
#: 2048-row temporaries raised peak RSS by about 4.6 MB in a bare process;
#: 256-row blocks keep it flat.
BLOCK_ROWS = 256

#: The sweep CSV's columns, in order: each is a :class:`SimRow` attribute.
CSV_COLUMNS = (
    "sweep_param", "method", "n_trials", "mse_m2", "rmse_m", "mse_db",
    "p_fail_lambda0", "p_fail_stderr", "p_coarse_fail", "crb_m2", "mean_error_m",
    "mse_stderr_m2", "p_coarse_fail_stderr",
)
CSV_HEADER = ",".join(CSV_COLUMNS)


def mix_seed(seed: int, index):
    """splitmix64 avalanche of (seed + index * golden gamma); 64-bit.

    ``index`` is an int, or a uint64 array whose wrapping arithmetic gives
    the same value for each element.
    """
    z = ((seed & _MASK64) + index * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _trial_streams(seeds: np.ndarray):
    """Yield ``np.random.default_rng(s)`` for each uint64 seed s in turn.

    ``default_rng(s)`` is ``PCG64(SeedSequence(s))``. ``SeedSequence`` hashes
    the seed's 32-bit words into a pool of four (a seed below 2**64 has at
    most two words, and a missing high word hashes like the pool's zero
    padding), and ``generate_state(4, uint64)`` hashes the pool into the
    PCG64 seed and increment; both run here as uint32 array recurrences
    over all seeds at once. PCG64 then takes two 128-bit LCG steps. Each
    state is loaded into one reused generator, so the same object is
    yielded every time: draw from it before asking for the next.
    """
    def hasher(hash_const, mult):
        # numpy's hashmix: the multiplier advances with every word hashed
        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * mult & _MASK32
            value *= np.uint32(hash_const)
            value ^= value >> _XSHIFT
            return value

        return hashmix

    hashmix = hasher(_INIT_A, _MULT_A)
    words = seeds.astype("<u8").view("<u4").reshape(-1, 2)
    zero = np.zeros(len(words), np.uint32)
    pool = [hashmix(words[:, 0]), hashmix(words[:, 1]), hashmix(zero), hashmix(zero)]
    for src, dst in permutations(range(4), 2):
        mixed = pool[dst] * np.uint32(_MIX_MULT_L) - hashmix(pool[src]) * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    generate = hasher(_INIT_B, _MULT_B)
    state = np.stack([generate(pool[i % 4]) for i in range(8)], axis=1).astype("<u4", copy=False)

    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    loaded = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for high, low, inc_high, inc_low in state.view("<u8").tolist():
        inc = ((inc_high << 65) | (inc_low << 1) | 1) & _MASK128
        pcg_state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
        loaded["state"] = {"state": pcg_state, "inc": inc}
        bit_generator.state = loaded
        yield rng


def _synthesize_block(plan: FrequencyPlan, truths, sigma: float, draws) -> np.ndarray:
    """Wrapped phases wrap(2*pi*L/lambda_i + sigma*z_i) of a row block.

    ``truths`` holds one range per row, or is one range for one row of shape
    (N,); ``draws`` holds the standard normals z in that shape, scaled in
    place, or is None when sigma is 0 (no noise added). Raises the
    :func:`wrap_phase` error for a non-finite phase, and otherwise wraps in
    place; wrapped finite phases always lie in (-pi, pi].
    """
    ideal = np.divide.outer(TWO_PI * truths, plan_constants(plan).lam)
    if draws is not None:
        draws *= sigma
        ideal += draws
    if not np.logical_and.reduce(np.isfinite(ideal), axis=None):
        wrap_phase(ideal)  # raises the package's error for a non-finite phase
    return wrap_inplace(ideal)


def synthesize_observation(
    l_m: float,
    plan: FrequencyPlan,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> PhaseObservation:
    """One noisy observation: wrap(2*pi*L/lambda_i + theta_i), theta iid Gaussian.

    One row of the Monte-Carlo synthesis; draws N standard normals from
    ``rng`` when sigma > 0, the stream of a (1, N) block.
    """
    l_m = float(huge_int_as_inf(l_m))
    sigma = noise.sigma_rad
    draws = rng.standard_normal(plan.n) if sigma > 0.0 else None
    phases = _synthesize_block(plan, l_m, sigma, draws)
    return PhaseObservation(phases_rad=phases, plan=plan, truth_m=l_m)


def true_phases(l_m: float, plan: FrequencyPlan) -> PhaseObservation:
    """Noise-free wrapped phases of a target at range ``l_m``."""
    l_m = huge_int_as_inf(l_m)
    if not math.isfinite(l_m):
        raise InvalidArgumentError("range must be finite")
    return synthesize_observation(l_m, plan, NoiseSpec(0.0), None)


@dataclass(frozen=True)
class TrialConfig:
    """One Monte-Carlo batch: plan, noise level, trial count, seed, truth.

    A given ``truth_m`` fixes every trial's truth there; otherwise the range
    is drawn uniformly over +/- ``truth_halfwidth_m`` (default K/2, with K the
    plan's finite, positive ``search_range_m``), so the two are not given
    together. A fixed truth must be finite with magnitude at most UMR/2, and
    a half-width, given or K/2, finite, positive and at most UMR/2 (with the
    relative tolerance :data:`unwrapkit.core.UMR_RTOL`), since no estimator
    can place a truth beyond it.
    """

    plan: FrequencyPlan
    noise: NoiseSpec
    trials: int
    seed: int
    methods: tuple = ("concerto",)
    truth_m: float | None = None
    truth_halfwidth_m: float | None = None

    def __post_init__(self):
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            # kept as an int: mix_seed's 64-bit masks overflow numpy's int64
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if isinstance(self.methods, str):
            raise ConfigError(f"methods must be a sequence of names, got {self.methods!r}")
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("methods must be non-empty")
        for i, name in enumerate(methods):
            if name in methods[:i]:
                raise ConfigError(f"method {name!r} is listed more than once")
        object.__setattr__(self, "methods", methods)
        if self.truth_m is not None and self.truth_halfwidth_m is not None:
            raise ConfigError("give truth_m (a fixed truth) or truth_halfwidth_m, not both")
        for name in ("truth_m", "truth_halfwidth_m"):
            object.__setattr__(self, name, huge_int_as_inf(getattr(self, name)))
        if self.truth_m is not None:
            half_umr = self.plan.umr_m / 2.0
            if not math.isfinite(self.truth_m):
                raise ConfigError(f"truth_m must be finite, got {self.truth_m!r}")
            if abs(self.truth_m) > half_umr * (1.0 + UMR_RTOL):
                raise ConfigError(
                    f"truth_m {self.truth_m!r} m lies beyond half the unambiguous "
                    f"range, {half_umr!r} m"
                )
        elif self.truth_halfwidth_m is not None:
            self.resolved_halfwidth()  # a given half-width is refused at once

    def resolved_halfwidth(self) -> float:
        """The half-width the truths are drawn over: 0 for a fixed truth, else
        the given one or K/2, refused as the class docstring says."""
        if self.truth_m is not None:
            return 0.0
        halfwidth = self.truth_halfwidth_m
        if halfwidth is None:
            k_m = plan_constants(self.plan).search_range_m
            if not math.isfinite(k_m):
                raise ConfigError("uniform truths need a finite range budget: give truth_m or "
                                  "truth_halfwidth_m")
            if not k_m > 0.0:
                raise ConfigError(f"uniform truths need a positive range budget, got K = {k_m!r} m")
            halfwidth = k_m / 2.0
        elif not (math.isfinite(halfwidth) and halfwidth > 0.0):
            raise ConfigError(f"truth half-width must be finite and positive, got {halfwidth!r}")
        half_umr = self.plan.umr_m / 2.0
        if halfwidth > half_umr * (1.0 + UMR_RTOL):
            raise ConfigError(f"truth half-width {halfwidth!r} m exceeds half the unambiguous "
                              f"range, {half_umr!r} m")
        return halfwidth


@dataclass
class SimRow:
    """Aggregated metrics for one (method, sweep point)."""

    sweep_param: float
    method: str
    n_trials: int
    mse_m2: float = math.nan
    rmse_m: float = math.nan
    p_fail_lambda0: float = math.nan
    p_fail_stderr: float = math.nan
    p_coarse_fail: float = math.nan
    p_coarse_fail_stderr: float = math.nan
    crb_m2: float = math.nan
    mean_error_m: float = math.nan
    mse_stderr_m2: float = math.nan
    error: str | None = None

    @property
    def mse_db(self) -> float:
        if self.mse_m2 > 0.0:
            return 10.0 * math.log10(self.mse_m2)
        return -math.inf if self.mse_m2 == 0.0 else math.nan


@dataclass
class SimReport:
    """Ordered collection of sweep rows plus the CSV emitter."""

    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(str(getattr(r, c)) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def _evaluate_block(cfg: TrialConfig, start: int, stop: int):
    """Draw, synthesize and estimate trials [start, stop) as one row block.

    Estimators with a row-block kernel run on the whole (B, N) block. Any
    other estimator is called on one observation per trial, and the block's
    trials are then synthesized one at a time by :func:`synthesize_observation`
    (the one-row view of the block synthesis, so the phases are the same).

    Returns the truths (B,), the phases (B, N) and
    {method: (l_coarse_m, l_final_m)}, one (B,) array each.
    """
    plan = cfg.plan
    rows = stop - start
    sigma = cfg.noise.sigma_rad
    uniform = cfg.truth_m is None
    halfwidth = cfg.resolved_halfwidth()
    estimators = {name: lookup_estimator(name) for name in cfg.methods}
    kernels = {name: BLOCK_KERNELS.get(fn) for name, fn in estimators.items()}

    truths = np.empty(rows) if uniform else np.full(rows, float(cfg.truth_m))
    if all(kernels.values()):
        observations = None
        draws = np.empty((rows, plan.n)) if sigma > 0.0 else None
    else:
        observations = []
        phases = np.empty((rows, plan.n))
    seeds = mix_seed(cfg.seed, np.arange(start, stop, dtype=np.uint64))
    for i, rng in enumerate(_trial_streams(seeds)):
        if uniform:
            truths[i] = rng.uniform(-halfwidth, halfwidth)
        if observations is not None:
            obs = synthesize_observation(truths[i], plan, cfg.noise, rng)
            phases[i] = obs.phases_rad
            observations.append(obs)
        elif draws is not None:
            rng.standard_normal(out=draws[i])
    if observations is None:
        phases = _synthesize_block(plan, truths, sigma, draws)

    k = plan_constants(plan)
    estimates = {}
    for name, fn in estimators.items():
        kernel = kernels[name]
        if kernel is not None:
            estimates[name] = kernel(k, phases)
        else:
            traces = [fn(obs) for obs in observations]
            estimates[name] = (
                np.array([t.l_coarse_m for t in traces]),
                np.array([t.l_final_m for t in traces]),
            )
    return truths, phases, estimates


def _run_chunk(cfg: TrialConfig, start: int, stop: int) -> dict:
    """Aggregate trials [start, stop) into per-method partial sums."""
    plan = cfg.plan
    lam0 = plan_constants(plan).lam0
    coarse_limit = plan.c_m_s / (2.0 * plan.bandwidth_hz) if plan.n >= 2 else math.inf

    errors = {name: np.empty(stop - start) for name in cfg.methods}
    coarse_fail = dict.fromkeys(cfg.methods, 0)
    for lo in range(start, stop, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, stop)
        truths, _, estimates = _evaluate_block(cfg, lo, hi)
        for name, (l_coarse, l_final) in estimates.items():
            errors[name][lo - start:hi - start] = l_final - truths
            if name == "concerto":
                coarse_fail[name] += int(np.count_nonzero(np.abs(truths - l_coarse) > coarse_limit))

    partial = {}
    for name, e in errors.items():
        e2 = e * e
        partial[name] = {
            "sum_e": math.fsum(e.tolist()),
            "sum_e2": math.fsum(e2.tolist()),
            "sum_e4": math.fsum((e2 * e * e).tolist()),
            "fail": int(np.count_nonzero(np.abs(e) > lam0)),
            "coarse_fail": coarse_fail[name],
        }
    return partial


def _binomial(count: float, n: int) -> tuple:
    """The rate count/n and its binomial standard error."""
    p = count / n
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / n)


def run_trials(cfg: TrialConfig, sweep_param: float | None = None) -> SimReport:
    """Run one Monte-Carlo batch and aggregate the metrics per method.

    Unknown method names fail before any trial runs. The report carries one
    row per method, tagged with ``sweep_param`` (defaults to the batch's
    SNR in dB).
    """
    for name in cfg.methods:
        lookup_estimator(name)
    if sweep_param is None:
        sweep_param = cfg.noise.snr_db

    n = cfg.trials
    partials = [_run_chunk(cfg, lo, min(lo + CHUNK_TRIALS, n)) for lo in range(0, n, CHUNK_TRIALS)]

    try:
        crb_m2 = crb(cfg.plan, cfg.noise)
    except UndefinedBoundError:
        crb_m2 = math.nan

    report = SimReport()
    for name in cfg.methods:
        # math.fsum rounds once, so the integer counts stay exact
        sums = {key: math.fsum(p[name][key] for p in partials) for key in partials[0][name]}
        mse = sums["sum_e2"] / n
        p_fail, p_fail_stderr = _binomial(sums["fail"], n)
        row = SimRow(
            sweep_param=float(sweep_param),
            method=name,
            n_trials=n,
            mse_m2=mse,
            rmse_m=math.sqrt(mse),
            p_fail_lambda0=p_fail,
            p_fail_stderr=p_fail_stderr,
            crb_m2=crb_m2,
            mean_error_m=sums["sum_e"] / n,
            mse_stderr_m2=math.sqrt(max(sums["sum_e4"] / n - mse * mse, 0.0) / n),
        )
        if name == "concerto":
            row.p_coarse_fail, row.p_coarse_fail_stderr = _binomial(sums["coarse_fail"], n)
        report.rows.append(row)
    return report


def sweep_snr(cfg: TrialConfig, snr_db_list) -> SimReport:
    """Run the batch at each SNR point; one row per (method, snr_db).

    All points share the master seed, so they see common random numbers;
    comparisons across SNR are paired.
    """
    report = SimReport()
    for snr_db in snr_db_list:
        point = replace(cfg, noise=NoiseSpec.from_snr_db(snr_db))
        report.rows.extend(run_trials(point, sweep_param=snr_db).rows)
    return report


#: Sweep protocols keep the sampled truth this fraction of K away from the
#: origin (halfwidth = fraction * K), inside the unambiguous boundary.
SWEEP_TRUTH_FRACTION = 0.25


def _concerto_point(plan, noise, trials, seed, sweep_param) -> SimReport:
    """``concerto`` alone at one sweep point, truths uniform over +/- fraction * K."""
    cfg = TrialConfig(
        plan=plan,
        noise=noise,
        trials=trials,
        seed=seed,
        methods=("concerto",),
        truth_halfwidth_m=SWEEP_TRUTH_FRACTION * plan.range_budget_m,
    )
    return run_trials(cfg, sweep_param=sweep_param)


def sweep_range(
    f_high_hz: float,
    f_low_hz: float,
    n: int,
    k_list_m,
    snr_db: float,
    trials: int,
    seed: int,
    c_m_s: float,
) -> SimReport:
    """Coarse-stage validity versus range budget K.

    Designs a fresh plan per K and reports the coarse-failure probability
    of the three-stage estimator. An infeasible K produces a row with the
    error recorded and no trials; the sweep continues. Any other invalid
    input raises.
    """
    report = SimReport()
    noise = NoiseSpec.from_snr_db(snr_db)
    for k in k_list_m:
        try:
            plan = design_concerto_plan(f_high_hz, f_low_hz, n, k, c_m_s)
        except InfeasibleDesignError as exc:
            report.rows.append(
                SimRow(sweep_param=float(k), method="concerto", n_trials=0, error=str(exc))
            )
            continue
        report.rows.extend(_concerto_point(plan, noise, trials, seed, k).rows)
    return report


@dataclass
class ThresholdResult:
    """Smallest grid SNR meeting the reliability target, or None if none does."""

    threshold_db: float | None
    rows: list


def snr_threshold(
    f_high_hz: float,
    f_low_hz: float,
    n: int,
    k_m: float,
    snr_db_grid,
    trials: int,
    seed: int,
    p_threshold: float = 1e-3,
    c_m_s: float = C_VACUUM_M_S,
) -> ThresholdResult:
    """Scan an ascending SNR grid for the reliability threshold.

    The threshold is the smallest grid SNR at which the three-stage
    estimator's P(|error| > lambda_0) is at or below ``p_threshold``. The
    scan ends at the first passing point and returns the rows it evaluated.
    """
    grid = [float(s) for s in snr_db_grid]
    if not grid:
        raise InvalidArgumentError("SNR grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidArgumentError("SNR grid must be strictly ascending")
    if not (0.0 < p_threshold < 1.0):
        raise InvalidArgumentError("p_threshold must lie in (0, 1)")
    plan = design_concerto_plan(f_high_hz, f_low_hz, n, k_m, c_m_s)
    rows = []
    threshold = None
    for snr_db in grid:
        noise = NoiseSpec.from_snr_db(snr_db)
        row = _concerto_point(plan, noise, trials, seed, snr_db).rows[0]
        rows.append(row)
        if row.p_fail_lambda0 <= p_threshold:
            threshold = snr_db
            break
    return ThresholdResult(threshold_db=threshold, rows=rows)
