"""The four benchmark workloads.

Every workload is a closed loop with a single caller. A workload builds its
inputs from the workload seed in ``setup`` and then runs ``block`` again and
again until the run's time is used up. A block returns how many operations
it attempted, how long they took, how many failed their output check and,
where single operations are timed, each operation's latency.

* ``mc_concerto``  - ``unwrapkit simulate --methods concerto`` in process, on
  the paper's 51-frequency plan (K = 144 m) at 18, 20 and 22 dB.
* ``mc_compare``   - the same CLI path with ``concerto,bw,ef`` on the
  K = 1440 m plan at 10 and 20 dB.
* ``estimate_stream`` - ``concerto_estimate`` and ``bw_estimate``, one
  observation at a time, interleaved over the K = 144 m and K = 14,400 m
  plans; no ``simkit`` code on the timed path.
* ``cold_estimate`` - ``unwrapkit estimate --plan f --phases=...`` in
  process, each call on another of 240 plan files, so the per-plan caches
  in ``estimators`` (``lru_cache(maxsize=128)``) never hit.
"""

from __future__ import annotations

import array
import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from unwrapkit import cli, freqdesign, simkit
from unwrapkit import NoiseSpec, bw_estimate, concerto_estimate

from probe import ProbeInputs

F_HIGH_HZ = 2.5e9
F_LOW_HZ = 2.4e9
C_M_S = 3e8
N_FREQ = 51
LAMBDA0_M = C_M_S / F_HIGH_HZ

#: z-score of every Monte-Carlo tolerance; wide, because one run makes
#: hundreds of comparisons and a false failure must stay negligible.
MC_Z = 8.0
#: Upper-tail probability below which one row's failure count is rejected.
ROW_TAIL_P = 1e-9

REFERENCE_FILE = Path(__file__).with_name("mc_reference.json")

perf_counter = time.perf_counter


def _plan(k_m, n=N_FREQ):
    return freqdesign.design_concerto_plan(F_HIGH_HZ, F_LOW_HZ, n, k_m, C_M_S)


def _observations(plan, snr_db, count, rng):
    """Noisy observations with truth drawn uniformly over +/- K/4."""
    noise = NoiseSpec.from_snr_db(snr_db)
    half = plan.range_budget_m / 4.0
    return [
        simkit.synthesize_observation(rng.uniform(-half, half), plan, noise, rng)
        for _ in range(count)
    ]


#: Observations the layer probe times stages on.
PROBE_OBSERVATIONS = 128
#: Why a workload has no inputs for the probe's optional figures.
ONE_K = "the workload runs on one range budget"
CACHED = "the workload's plans stay in the per-plan caches"


class Block:
    """What one block of operations did."""

    __slots__ = ("ops", "seconds", "failed", "latencies", "ref", "scale")

    def __init__(self, ops, seconds, failed, latencies=None):
        self.ops = ops
        self.seconds = seconds
        self.failed = failed
        # {kind: array of seconds} for workloads that time single operations
        self.latencies = latencies
        # host reference-routine seconds measured around the block, and the
        # factor that brings the block's timings to reference speed
        self.ref = None
        self.scale = None


# ---------------------------------------------------------------------------
# Monte-Carlo workloads: one ``simulate`` invocation per block.
# ---------------------------------------------------------------------------

#: ``trials`` is per SNR point and per invocation: one whole
#: ``simkit.CHUNK_TRIALS`` chunk, the unit ``run_trials`` works in.
#: ``points_per_call`` SNR points go into one invocation, taken in turn.
MC_SPECS = {
    # about 0.6-1.1 s per invocation
    "mc_concerto": {
        "k_m": 144.0, "methods": ("concerto",),
        "snr_db_list": (18.0, 20.0, 22.0), "trials": simkit.CHUNK_TRIALS,
        "points_per_call": 3, "ref_arrays": False, "sample_interval": 0.1,
    },
    # about 85% of the time is the ef scan over (4096 x 50) arrays; one
    # point per invocation (about 7 s) keeps several invocations in a run
    "mc_compare": {
        "k_m": 1440.0, "methods": ("concerto", "bw", "ef"),
        "snr_db_list": (10.0, 20.0), "trials": simkit.CHUNK_TRIALS,
        "points_per_call": 1, "ref_arrays": True, "sample_interval": 0.2,
    },
}


def _binom_upper_tail(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(k, n + 1):
        log_term = (
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * log_p + (n - j) * log_q
        )
        total += math.exp(log_term)
    return total


class _Group:
    """Rows of one (method, SNR) that passed their row checks, pooled over a run."""

    __slots__ = ("n", "fails", "sum_e", "sum_e2")

    def __init__(self):
        self.n = 0
        self.fails = 0
        self.sum_e = 0.0
        self.sum_e2 = 0.0


class MonteCarlo:
    """``cli.main(["simulate", ...])``; checks each CSV row it writes.

    An operation is one trial: one synthesized observation, estimated by
    every method. A trial fails when a row of its SNR point fails a check.
    """

    op_unit = "trial"

    def __init__(self, name, seed, work_dir):
        spec = MC_SPECS[name]
        self.name = name
        self.k_m = spec["k_m"]
        self.methods = spec["methods"]
        self.snr_db_list = spec["snr_db_list"]
        self.trials = spec["trials"]
        self.points_per_call = spec["points_per_call"]
        self.ref_arrays = spec["ref_arrays"]
        self.sample_interval = spec["sample_interval"]
        self.seed = seed
        self.work_dir = work_dir
        self.calls = 0
        ref = json.loads(REFERENCE_FILE.read_text())[name]
        if (ref["k_m"], ref["methods"], ref["snr_db_list"]) != (
            self.k_m, list(self.methods), list(self.snr_db_list)
        ):
            raise RuntimeError(f"{REFERENCE_FILE.name} does not describe {name}")
        self.reference = {(r["method"], r["snr_db"]): r for r in ref["rows"]}
        self.groups = {key: _Group() for key in self.reference}
        # trials per SNR point: run, and already counted as failed by a row check
        self.point_trials = {snr: 0 for snr in self.snr_db_list}
        self.row_failed = {snr: 0 for snr in self.snr_db_list}
        self.group_report = {}

    def setup(self):
        self.plan_path = self.work_dir / f"{self.name}-plan.csv"
        self.plan_path.write_text(freqdesign.plan_to_csv(_plan(self.k_m)))
        self.out_path = self.work_dir / f"{self.name}-out.csv"

    def points(self, call):
        """The SNR points of invocation ``call``."""
        k = self.points_per_call
        start = call * k % len(self.snr_db_list)
        return tuple(self.snr_db_list[(start + j) % len(self.snr_db_list)] for j in range(k))

    def argv(self, seed, points):
        return [
            "simulate", "--plan", str(self.plan_path),
            "--methods", ",".join(self.methods),
            "--snr-db-list", ",".join(repr(s) for s in points),
            "--trials", str(self.trials), "--seed", str(seed),
            "--out", str(self.out_path),
        ]

    def block(self, main=cli.main):
        # Each invocation draws its own trials: a seed per call, derived
        # from the workload seed.
        seed = self.seed * 1_000_003 + self.calls
        points = self.points(self.calls)
        self.calls += 1
        argv = self.argv(seed, points)
        start = perf_counter()
        code = main(argv)
        seconds = perf_counter() - start
        if code != 0:
            failed_points = set(points)
        else:
            failed_points = self._check_csv(self.out_path.read_text(), points)
        for snr in points:
            self.point_trials[snr] += self.trials
        for snr in failed_points:
            self.row_failed[snr] += self.trials
        return Block(self.trials * len(points), seconds, self.trials * len(failed_points))

    def _check_csv(self, text, points):
        """Row checks; returns the SNR points with a missing or failing row."""
        lines = text.strip().splitlines()
        if not lines or lines[0] != simkit.CSV_HEADER:
            return set(points)
        header = lines[0].split(",")
        expected = [key for key in self.reference if key[1] in points]
        rows = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            try:
                key = (row["method"], float(row["sweep_param"]))
            except (KeyError, ValueError):
                return set(points)
            if key not in expected or key in rows:
                return set(points)
            rows[key] = row
        failed = set()
        for key in expected:
            if key not in rows or not self._row_ok(rows[key], key):
                failed.add(key[1])
        return failed

    def _row_ok(self, row, key):
        ref = self.reference[key]
        try:
            n = int(row["n_trials"])
            mse = float(row["mse_m2"])
            p_fail = float(row["p_fail_lambda0"])
            mean = float(row["mean_error_m"])
            crb_m2 = float(row["crb_m2"])
        except (KeyError, ValueError):
            return False
        if n != self.trials or not all(map(math.isfinite, (mse, p_fail, mean, crb_m2))):
            return False
        if abs(crb_m2 - ref["crb_m2"]) > 1e-9 * ref["crb_m2"]:
            return False
        fails = round(p_fail * n)
        if abs(fails - p_fail * n) > 1e-6:
            return False
        p_hi = min(1.0, ref["p_fail"] + MC_Z * ref["p_fail_stderr"] + 1.0 / ref["n_trials"])
        if _binom_upper_tail(fails, n, p_hi) < ROW_TAIL_P:
            return False
        group = self.groups[key]
        group.n += n
        group.fails += fails
        group.sum_e += mean * n
        group.sum_e2 += mse * n
        return True

    def finish(self):
        """Pooled checks per (method, SNR); returns the trials they fail.

        Each pooled statistic must lie within ``MC_Z`` combined standard
        errors of the reference recorded when the benchmark was defined
        (``mc_reference.json``). The errors are the ones ``run_trials``
        computes: ``p_fail_stderr``, ``mse_stderr_m2`` and the RMSE. A
        change to the random streams passes; a broken stage moves a failure
        rate, a mean or a mean-square error far outside. When a group fails,
        every trial of its SNR point not already failed by a row check fails.
        """
        failed_points = set()
        for key, group in self.groups.items():
            if group.n == 0:
                continue
            ref = self.reference[key]
            n, n_ref = group.n, ref["n_trials"]
            p = group.fails / n
            mean = group.sum_e / n
            mse = group.sum_e2 / n
            p_floor = max(ref["p_fail"], 1.0 / n)
            tol_p = MC_Z * math.sqrt(p_floor * (1.0 - ref["p_fail"]) / n
                                     + ref["p_fail_stderr"] ** 2) + 1.0 / n
            tol_mean = MC_Z * math.sqrt(mse / n + ref["rmse_m"] ** 2 / n_ref)
            sd_e2 = ref["mse_stderr_m2"] * math.sqrt(n_ref)
            tol_mse = MC_Z * math.sqrt(sd_e2 ** 2 / n + ref["mse_stderr_m2"] ** 2)
            ok = (
                abs(p - ref["p_fail"]) <= tol_p
                and abs(mean - ref["mean_error_m"]) <= tol_mean
                and abs(mse - ref["mse_m2"]) <= tol_mse
            )
            self.group_report[f"{key[0]}@{key[1]:g}dB"] = {
                "trials": n, "p_fail": p, "ref_p_fail": ref["p_fail"],
                "mse_m2": mse, "ref_mse_m2": ref["mse_m2"], "ok": ok,
            }
            if not ok:
                failed_points.add(key[1])
        return sum(self.point_trials[snr] - self.row_failed[snr] for snr in failed_points)

    def traced(self, tracer):
        main = tracer.span("cli.main", cli.main)
        return lambda: self.block(main=main)

    def probe_inputs(self, tracer):
        """The observations the traced invocations synthesized first."""
        obs = tracer.kept["simkit.synthesize_observation"]
        return ProbeInputs([obs[0].plan], obs, 20.0,
                           why_not={"k_pair": ONE_K, "cold": CACHED})

    #: Invocations are the only timed unit, and a run makes only a few
    #: (about 3 to 20), so the tail is p90 over them.
    tail_q = 0.90

    def headline(self, blocks, scale):
        """Per-trial seconds of each invocation."""
        return np.array([b.seconds / b.ops * scale(b) for b in blocks])

    def report(self, blocks, scale):
        return {"trials_per_s": (_rate(blocks, scale), "1/s")}

    def describe(self):
        return {
            "plan": f"concerto N={N_FREQ} {F_LOW_HZ:g}-{F_HIGH_HZ:g} Hz K={self.k_m:g} m c={C_M_S:g}",
            "methods": list(self.methods),
            "snr_db": list(self.snr_db_list),
            "trials_per_point_per_call": self.trials,
            "points_per_call": self.points_per_call,
            "calls": self.calls,
            "pooled_checks": self.group_report,
        }


def _rate(blocks, scale):
    seconds = sum(b.seconds * scale(b) for b in blocks)
    return sum(b.ops for b in blocks) / seconds


def _quantile(values, q):
    """Quantile by linear interpolation (numpy's default)."""
    return float(np.quantile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# Single estimates on pre-synthesized observations.
# ---------------------------------------------------------------------------

class EstimateStream:
    """concerto and bw, one observation at a time, on the K-ratio plan pair."""

    op_unit = "estimate"
    name = "estimate_stream"
    ref_arrays = False
    sample_interval = None
    pool = 2048
    rounds_per_block = 128

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.kinds = ("concerto@144", "bw@144", "concerto@14400", "bw@14400")

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        obs = {}
        for k_m in (144.0, 14_400.0):
            obs[k_m] = _observations(_plan(k_m), 40.0, self.pool, rng)
        # One round: every (method, plan) once, so all four see the same
        # host speed.
        self.rounds = [
            (obs[144.0][i], obs[14_400.0][i]) for i in range(self.pool)
        ]
        self.cursor = 0
        for small, large in self.rounds[:2]:
            concerto_estimate(small), bw_estimate(small)
            concerto_estimate(large), bw_estimate(large)

    def block(self, concerto=concerto_estimate, bw=bw_estimate):
        lat = {k: array.array("d") for k in self.kinds}
        c_small, b_small, c_large, b_large = (lat[k].append for k in self.kinds)
        half = LAMBDA0_M / 2.0
        failed = 0
        for _ in range(self.rounds_per_block):
            small, large = self.rounds[self.cursor]
            self.cursor = (self.cursor + 1) % self.pool
            t0 = perf_counter()
            r1 = concerto(small)
            t1 = perf_counter()
            r2 = bw(small)
            t2 = perf_counter()
            r3 = concerto(large)
            t3 = perf_counter()
            r4 = bw(large)
            t4 = perf_counter()
            c_small(t1 - t0)
            b_small(t2 - t1)
            c_large(t3 - t2)
            b_large(t4 - t3)
            failed += (
                (abs(r1.l_final_m - small.truth_m) >= half)
                + (abs(r2.l_final_m - small.truth_m) >= half)
                + (abs(r3.l_final_m - large.truth_m) >= half)
                + (abs(r4.l_final_m - large.truth_m) >= half)
            )
        seconds = sum(sum(v) for v in lat.values())
        return Block(4 * self.rounds_per_block, seconds, failed, lat)

    def finish(self):
        return 0

    def traced(self, tracer):
        concerto = tracer.span("estimators.concerto_estimate", concerto_estimate)
        bw = tracer.span("estimators.bw_estimate", bw_estimate)
        return lambda: self.block(concerto=concerto, bw=bw)

    def probe_inputs(self, tracer):
        """Stages on the K = 144 m observations; K ratios on the pairs."""
        small = [r[0] for r in self.rounds[:PROBE_OBSERVATIONS]]
        return ProbeInputs([small[0].plan], small, 40.0, k_pair=self.rounds[:64],
                           why_not={"cold": CACHED})

    tail_q = 0.99

    def headline(self, blocks, scale):
        """concerto on the K = 144 m plan: criterion 9's estimate."""
        return _pool_latencies(blocks, scale)["concerto@144"]

    def report(self, blocks, scale):
        lat = _pool_latencies(blocks, scale)
        conc = np.concatenate([lat["concerto@144"], lat["concerto@14400"]])
        bw = np.concatenate([lat["bw@144"], lat["bw@14400"]])
        out = {
            "estimates_per_s": (1.0 / float(np.mean(lat["concerto@144"])), "1/s"),
            "concerto_us_p50": (_quantile(conc, 0.5) * 1e6, "us"),
            "concerto_us_p99": (_quantile(conc, 0.99) * 1e6, "us"),
            "bw_us_p50": (_quantile(bw, 0.5) * 1e6, "us"),
            "bw_us_p99": (_quantile(bw, 0.99) * 1e6, "us"),
        }
        for kind, values in lat.items():
            out[f"{kind}_us_p50"] = (_quantile(values, 0.5) * 1e6, "us")
        return out

    def describe(self):
        return {
            "plans": f"concerto N={N_FREQ} K=144 m and K=14400 m, c={C_M_S:g}",
            "snr_db": 40.0,
            "observations_per_plan": self.pool,
            "order": list(self.kinds),
        }


def _pool_latencies(blocks, scale):
    """{kind: latencies of every block, each multiplied by its block's scale}."""
    pooled = {}
    for b in blocks:
        factor = scale(b)
        for kind, values in b.latencies.items():
            pooled.setdefault(kind, []).append(np.frombuffer(values) * factor)
    return {kind: np.concatenate(parts) for kind, parts in pooled.items()}


# ---------------------------------------------------------------------------
# One CLI estimate per plan file.
# ---------------------------------------------------------------------------

#: 40 frequency counts x 6 range budgets = 240 distinct plans, more than the
#: 128 entries of each per-plan cache.
COLD_N = tuple(range(12, 52))
COLD_K_M = (150.0, 300.0, 600.0, 1200.0, 2400.0, 4800.0)


class ColdEstimate:
    """``cli.main(["estimate", "--plan", f, "--phases=..."])``, a new plan each call.

    The phase list is passed as ``--phases=<list>``: argparse rejects
    ``--phases -0.3,...`` (a list with a leading minus sign) as a missing
    argument, exit code 1.
    """

    op_unit = "invocation"
    name = "cold_estimate"
    ref_arrays = False
    sample_interval = None
    per_plan = 4
    calls_per_block = 8

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        designs = [(n, k) for n in COLD_N for k in COLD_K_M]
        order = rng.permutation(len(designs))
        self.calls = []
        # observations of the j-th plan of the order, and {(N, K): j}
        self.plan_obs = []
        self.design_index = {}
        for j, idx in enumerate(order):
            n, k_m = designs[idx]
            plan = _plan(k_m, n)
            path = self.work_dir / f"cold-{j:03d}.csv"
            path.write_text(freqdesign.plan_to_csv(plan))
            self.plan_obs.append(_observations(plan, 40.0, self.per_plan, rng))
            self.design_index[(n, k_m)] = j
            for obs in self.plan_obs[-1]:
                phases = ",".join(repr(float(p)) for p in obs.phases_rad)
                self.calls.append(
                    (["estimate", "--plan", str(path), f"--phases={phases}"], obs.truth_m)
                )
        # Consecutive calls walk the plans in order; each plan's
        # observations come one full cycle apart.
        n_plans = len(designs)
        self.calls = [self.calls[p * self.per_plan + r]
                      for r in range(self.per_plan) for p in range(n_plans)]
        self.cursor = 0

    def block(self, main=cli.main):
        lat = array.array("d")
        failed = 0
        buf = io.StringIO()
        half = LAMBDA0_M / 2.0
        with contextlib.redirect_stdout(buf):
            for _ in range(self.calls_per_block):
                argv, truth = self.calls[self.cursor]
                self.cursor = (self.cursor + 1) % len(self.calls)
                buf.seek(0)
                buf.truncate()
                t0 = perf_counter()
                code = main(argv)
                lat.append(perf_counter() - t0)
                failed += code != 0 or not _estimate_ok(buf.getvalue(), truth, half)
        return Block(self.calls_per_block, sum(lat), failed, {"cold": lat})

    def finish(self):
        return 0

    def traced(self, tracer):
        main = tracer.span("cli.main", cli.main)
        return lambda: self.block(main=main)

    def probe_inputs(self, tracer):
        """Stages on the plans used last, which the caches still hold; cold
        estimates on the plans used longest ago, which they no longer hold;
        K ratios between the smallest and largest K at each N.

        Call ``i`` runs on plan ``i % plans``, so after ``cursor`` calls the
        most recent plans are ``cursor - 1``, ``cursor - 2``, ... and, of
        240 plans with 128 cache entries, ``cursor`` to ``cursor + 111``
        are no longer cached (or never were).
        """
        n = len(self.plan_obs)
        recent = [(self.cursor - 1 - k) % n for k in range(32)]
        stale = [(self.cursor + k) % n for k in range(32)]
        obs = [o for j in recent for o in self.plan_obs[j]]
        pairs = [
            (self.plan_obs[self.design_index[(n_f, COLD_K_M[0])]][0],
             self.plan_obs[self.design_index[(n_f, COLD_K_M[-1])]][0])
            for n_f in COLD_N
        ]
        return ProbeInputs([self.plan_obs[j][0].plan for j in recent], obs, 40.0,
                           k_pair=pairs, cold=[self.plan_obs[j][0] for j in stale])

    #: Beyond p95 the invocations are garbage collections and host bursts:
    #: p99 (printed as cold_us_p99) spread 14% over ten runs, p95 is steady.
    tail_q = 0.95

    def headline(self, blocks, scale):
        return _pool_latencies(blocks, scale)["cold"]

    def report(self, blocks, scale):
        lat = _pool_latencies(blocks, scale)["cold"]
        return {
            "cold_us_p50": (_quantile(lat, 0.5) * 1e6, "us"),
            "cold_us_p99": (_quantile(lat, 0.99) * 1e6, "us"),
        }

    def describe(self):
        return {
            "plans": f"{len(COLD_N) * len(COLD_K_M)} concerto designs, N in "
                     f"{COLD_N[0]}..{COLD_N[-1]}, K in {list(COLD_K_M)} m",
            "snr_db": 40.0,
            "observations_per_plan": self.per_plan,
        }


def _estimate_ok(text, truth, half):
    for line in text.splitlines():
        if line.startswith("l_final_m,"):
            try:
                return abs(float(line.split(",", 1)[1]) - truth) < half
            except ValueError:
                return False
    return False


def make(name, seed, work_dir):
    if name in MC_SPECS:
        return MonteCarlo(name, seed, work_dir)
    if name == "estimate_stream":
        return EstimateStream(seed, work_dir)
    if name == "cold_estimate":
        return ColdEstimate(seed, work_dir)
    raise KeyError(name)

