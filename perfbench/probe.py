"""Layer probe: times calls into each layer's public functions on the
workload's own inputs.

After a traced workload, ``run`` times the stage functions of ``core``,
``estimators``, ``freqdesign`` and ``theory`` on the plans and observations
that workload used (``ProbeInputs``, from the workload's ``probe_inputs``).
Each time is the median of single-call timings scaled to reference host
speed like the workloads' timings; the other figures are counts, a computed
byte count and ratios. The ``simkit`` and ``cli`` figures come only from the
traced workload's spans (``tracer.run_metrics``), not from here.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

import unwrapkit
from unwrapkit import NoiseSpec, bw_estimate, concerto_estimate, ef_estimate, estimators

perf_counter = time.perf_counter

#: Figures every workload's probe gives, in report order, with their units.
METRICS = (
    ("core.wrap_phase_us", "us"),
    ("core.observation_us", "us"),
    ("core.wavelengths_m_us", "us"),
    ("core.plan_hash_us", "us"),
    ("freqdesign.design_us", "us"),
    ("freqdesign.validate_us", "us"),
    ("freqdesign.plan_from_csv_us", "us"),
    ("freqdesign.plan_to_csv_us", "us"),
    ("estimators.chain_us", "us"),
    ("estimators.compensate_us", "us"),
    ("estimators.residual_us", "us"),
    ("estimators.fold_us", "us"),
    ("estimators.fit_us", "us"),
    ("estimators.concerto_us", "us"),
    ("estimators.bw_us", "us"),
    ("estimators.ef_us", "us"),
    ("estimators.ef_candidates", "count"),
    ("estimators.ef_ns_per_candidate", "ns"),
    ("estimators.ef_bytes_computed", "B"),
    ("theory.crb_us", "us"),
)
#: Figures only the workloads that have the inputs for them give.
OPTIONAL = (
    ("estimators.k_ratio_concerto", "ratio"),
    ("estimators.k_ratio_bw", "ratio"),
    ("estimators.plan_cold_us", "us"),
)


#: Single-call stages: (metric, the unwrapkit names it calls, a factory that
#: takes those functions and returns the call on one prepared input). A
#: stage whose function unwrapkit no longer has is reported absent.
OBSERVATION_STAGES = (
    ("core.wrap_phase_us", ("wrap_phase",), lambda wrap: lambda p: wrap(p.unwrapped)),
    ("core.observation_us", ("PhaseObservation",), lambda make: lambda p: make(
        phases_rad=p.obs.phases_rad, plan=p.obs.plan, truth_m=p.obs.truth_m)),
    ("core.wavelengths_m_us", (), lambda: lambda p: p.obs.plan.wavelengths_m),
    ("core.plan_hash_us", (), lambda: lambda p: hash(p.obs.plan)),
    ("estimators.chain_us", ("coarse_estimate",), lambda chain: lambda p: chain(p.obs)),
    ("estimators.compensate_us", ("compensate_phases",),
     lambda comp: lambda p: comp(p.obs, p.trace.l_coarse_m)),
    ("estimators.residual_us", ("compensate_phases", "residual_estimate"),
     lambda _, resid: lambda p: resid(p.compensated, p.obs.plan)),
    ("estimators.fold_us", ("fold_integers",), lambda fold: lambda p: fold(p.obs, p.trace.l_mid_m)),
    ("estimators.fit_us", ("fold_integers", "ls_refine"), lambda _, fit: lambda p: fit(p.obs, p.fold)),
    ("estimators.concerto_us", ("concerto_estimate",), lambda est: lambda p: est(p.obs)),
    ("estimators.bw_us", ("bw_estimate",), lambda est: lambda p: est(p.obs)),
)
PLAN_STAGES = (
    ("freqdesign.design_us", ("design_concerto_plan",), lambda design: lambda q: design(*q.design)),
    ("freqdesign.validate_us", ("validate_plan",), lambda validate: lambda q: validate(q.plan)),
    ("freqdesign.plan_from_csv_us", ("plan_to_csv", "plan_from_csv"),
     lambda _, parse: lambda q: parse(q.text)),
    ("freqdesign.plan_to_csv_us", ("plan_to_csv",), lambda write: lambda q: write(q.plan)),
    ("theory.crb_us", ("crb",), lambda bound: lambda q: bound(q.plan, q.noise)),
)


def _resolve(stages, absent):
    """[(metric, call)] for the stages whose functions unwrapkit has; the
    others go into ``absent`` with the names missing."""
    calls = []
    for name, needs, factory in stages:
        missing = [n for n in needs if not hasattr(unwrapkit, n)]
        if missing:
            absent[name] = f"unwrapkit has no {', '.join(missing)}"
        else:
            calls.append((name, factory(*(getattr(unwrapkit, n) for n in needs))))
    return calls


def _timed(win, calls, items, reps, flush_every=8):
    """Time every call on every item, ``reps`` times, interleaved per item."""
    for _ in range(reps):
        for i, item in enumerate(items):
            for name, call in calls:
                t0 = perf_counter()
                call(item)
                win.add(name, perf_counter() - t0)
            if i % flush_every == flush_every - 1:
                win.flush()
        win.flush()


class ProbeInputs:
    """A workload's inputs for the probe.

    ``plans`` and ``observations`` are ones the workload ran on, with every
    plan still in the per-plan caches; ``snr_db`` is the workload's noise
    level. ``k_pair`` is a list of (observation on a small-K plan, one on a
    large-K plan), or None; ``cold`` is a list of observations on plans no
    longer in the caches, one per plan, or None. ``why_not`` gives the
    reason for each None.
    """

    def __init__(self, plans, observations, snr_db, k_pair=None, cold=None, why_not=None):
        self.plans = list(plans)
        self.observations = list(observations)
        self.snr_db = snr_db
        self.k_pair = k_pair
        self.cold = cold
        self.why_not = why_not or {}


class _Window:
    """Single-call timings, scaled window by window to reference host speed.

    ``ref`` is the benchmark's reference routine; it runs at every
    ``flush``, and the timings added since the last flush are multiplied by
    ``nominal`` over the mean of the readings before and after them, as the
    workloads' blocks are. A reading is the faster of two runs: one window
    can hold a whole probe section, and a garbage collection inside a
    single reading would distort all of it.
    """

    def __init__(self, ref, nominal):
        self.ref = ref
        self.nominal = nominal
        self.samples = {}
        self._pending = []
        self._before = self._reading()

    def _reading(self):
        return min(self.ref(), self.ref())

    def add(self, name, seconds):
        self._pending.append((name, seconds))

    def flush(self):
        after = self._reading()
        factor = self.nominal / (0.5 * (self._before + after))
        self._before = after
        for name, seconds in self._pending:
            self.samples.setdefault(name, []).append(seconds * factor)
        self._pending.clear()

    def median_us(self, name):
        return statistics.median(self.samples[name]) * 1e6


@contextlib.contextmanager
def counting_ef_candidates():
    """Count the candidates ``ef_estimate``'s scan scores.

    ``estimators.np`` is replaced, while the block runs, by a proxy whose
    ``arange`` adds up the length of each candidate chunk that
    ``ef_estimate`` itself builds; numpy is untouched. Yields the list of
    chunk lengths.
    """
    chunks = []
    scan_code = estimators.ef_estimate.__code__

    class _Numpy:
        def __getattr__(self, attr):
            return getattr(np, attr)

        @staticmethod
        def arange(*args, **kwargs):
            out = np.arange(*args, **kwargs)
            if sys._getframe(1).f_code is scan_code:
                chunks.append(out.size)
            return out

    original = estimators.np
    estimators.np = _Numpy()
    try:
        yield chunks
    finally:
        estimators.np = original


def run(inputs, ref, nominal, size=1.0):
    """All probe figures: ({name: (value, unit)}, {name: reason absent}).

    Times are scaled to reference host speed with ``ref`` and ``nominal``
    (see ``run.ref_loop``); ``size`` shrinks the probe for short runs.
    """
    out, absent = {}, {}
    obs = inputs.observations
    reps = max(1, round(2 * size))
    win = _Window(ref, nominal)

    # core and estimator stages, interleaved per observation; each stage
    # gets the inputs the full concerto estimate gave it (which, with the bw
    # estimate, also fills the per-plan caches)
    calls = _resolve(OBSERVATION_STAGES, absent)
    prepared = []
    for o in obs:
        trace = concerto_estimate(o)
        bw_estimate(o)
        prepared.append(SimpleNamespace(
            obs=o, trace=trace,
            unwrapped=2.0 * math.pi * o.truth_m / np.array(o.plan.wavelengths_m),
            compensated=(unwrapkit.compensate_phases(o, trace.l_coarse_m)
                         if hasattr(unwrapkit, "compensate_phases") else None),
            fold=(unwrapkit.fold_integers(o, trace.l_mid_m)
                  if hasattr(unwrapkit, "fold_integers") else None),
        ))
    _timed(win, calls, prepared, reps)

    # ef: time-boxed, at least 6 calls; then one untimed pass over the same
    # observations counts the candidates each call scored
    ef_estimate(obs[0])
    timed = []
    budget_end = perf_counter() + 0.3 * size
    for i, o in enumerate(obs * 4):
        t0 = perf_counter()
        ef_estimate(o)
        win.add("estimators.ef_us", perf_counter() - t0)
        timed.append(o)
        if i % 2 == 1:
            win.flush()
            if i >= 5 and perf_counter() > budget_end:
                break
    win.flush()
    candidates, scanned_bytes = [], []
    for o in timed:
        with counting_ef_candidates() as chunks:
            ef_estimate(o)
        candidates.append(sum(chunks))
        # computed, not measured: the two float64 (chunk x (N-1)) buffers
        # the scan writes per chunk
        scanned_bytes.append(sum(2 * 8 * c * (o.plan.n - 1) for c in chunks))
    ef_us = win.samples["estimators.ef_us"]
    out["estimators.ef_us"] = (win.median_us("estimators.ef_us"), "us")
    if all(candidates):
        out["estimators.ef_candidates"] = (statistics.median(candidates), "count")
        out["estimators.ef_ns_per_candidate"] = (
            statistics.median(t / c for t, c in zip(ef_us, candidates)) * 1e9, "ns")
        out["estimators.ef_bytes_computed"] = (statistics.median(scanned_bytes), "B")
    else:
        reason = "ef_estimate built no candidate chunk with np.arange"
        for name in ("ef_candidates", "ef_ns_per_candidate", "ef_bytes_computed"):
            absent[f"estimators.{name}"] = reason

    # first estimate on a plan the caches no longer hold, minus the second
    if inputs.cold:
        for j, o in enumerate(inputs.cold):
            t0 = perf_counter()
            concerto_estimate(o)
            t1 = perf_counter()
            concerto_estimate(o)
            t2 = perf_counter()
            win.add("estimators.plan_cold_us", (t1 - t0) - (t2 - t1))
            if j % 8 == 7:
                win.flush()
        win.flush()
    else:
        absent["estimators.plan_cold_us"] = inputs.why_not["cold"]

    # freqdesign and theory, over the workload's plans
    noise = NoiseSpec.from_snr_db(inputs.snr_db)
    write = getattr(unwrapkit, "plan_to_csv", None)
    plans = [
        SimpleNamespace(
            plan=p, noise=noise, text=write(p) if write else None,
            design=(max(p.freqs_hz), min(p.freqs_hz), p.n, p.range_budget_m, p.c_m_s),
        )
        for p in inputs.plans
    ]
    _timed(win, _resolve(PLAN_STAGES, absent), plans * (16 // len(plans) or 1), reps)

    # K independence: the workload's plan pairs, interleaved per observation;
    # a ratio within one window needs no scaling
    if inputs.k_pair:
        for s, lg in inputs.k_pair:
            concerto_estimate(s), concerto_estimate(lg), bw_estimate(s), bw_estimate(lg)
        lat = {"cs": [], "cl": [], "bs": [], "bl": []}
        for _ in range(reps):
            for s, lg in inputs.k_pair:
                t0 = perf_counter()
                concerto_estimate(s)
                t1 = perf_counter()
                concerto_estimate(lg)
                t2 = perf_counter()
                bw_estimate(s)
                t3 = perf_counter()
                bw_estimate(lg)
                t4 = perf_counter()
                lat["cs"].append(t1 - t0)
                lat["cl"].append(t2 - t1)
                lat["bs"].append(t3 - t2)
                lat["bl"].append(t4 - t3)
        out["estimators.k_ratio_concerto"] = (
            statistics.median(lat["cl"]) / statistics.median(lat["cs"]), "ratio")
        out["estimators.k_ratio_bw"] = (
            statistics.median(lat["bl"]) / statistics.median(lat["bs"]), "ratio")
    else:
        for name in ("estimators.k_ratio_concerto", "estimators.k_ratio_bw"):
            absent[name] = inputs.why_not["k_pair"]

    for name, unit in METRICS + OPTIONAL:
        if unit == "us" and name in win.samples and name not in out:
            out[name] = (win.median_us(name), "us")
    return out, absent
