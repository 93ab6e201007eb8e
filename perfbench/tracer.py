"""Spans around the calls into each unwrapkit layer, recorded from outside.

Nothing in ``src/`` is edited. ``install`` replaces, for the duration of a
traced run, the module-level names through which one layer calls another
(``cli.build_parser``, ``simkit.synthesize_observation``, the functions
``lookup_estimator`` returns, ...) with wrappers that record a span. Every
name is restored by ``Tracer.restore``.

A span is (name, start, end, parent index, operation id). The layer of a
span is the part of its name before the first dot. A span's self time is its
duration minus the durations of its direct children; calls are single
threaded, so children never overlap.
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict

import numpy as np

from unwrapkit import cli, simkit

perf_counter = time.perf_counter

LAYERS = ("core", "freqdesign", "estimators", "theory", "simkit", "cli")
#: Observations of a traced Monte-Carlo run kept for the layer probe.
KEEP_OBSERVATIONS = 128


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.records = []
        # {span name: the first results of its calls}, for spans made with ``keep``
        self.kept = {}
        self._stack = []
        self._op = -1
        self._patches = []
        self._estimators = {}

    def span(self, name, fn, keep=0):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        A call with no enclosing span starts a new operation id. With
        ``keep``, the results of the first ``keep`` calls are kept in
        ``kept[name]``.
        """
        records = self.records
        stack = self._stack
        kept = self.kept.setdefault(name, []) if keep else None

        def traced(*args, **kwargs):
            idx = len(records)
            records.append(None)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._op += 1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                records[idx] = (name, start, end, parent, self._op)
            if kept is not None and len(kept) < keep:
                kept.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, keep=0):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, keep))

    def _patch_lookup(self, owner):
        original = owner.lookup_estimator
        self._patches.append((owner, "lookup_estimator", original))

        def lookup(name):
            wrapped = self._estimators.get(name)
            if wrapped is None:
                wrapped = self.span(f"estimators.{name}_estimate", original(name))
                self._estimators[name] = wrapped
            return wrapped

        owner.lookup_estimator = lookup

    def _patch_numpy(self, owner, name):
        """Wrap ``owner.np.random.default_rng`` without touching numpy itself."""
        rng_factory = self.span(name, np.random.default_rng)

        class _Random:
            def __getattr__(self, attr):
                return getattr(np.random, attr)

        random = _Random()
        random.default_rng = rng_factory

        class _Numpy:
            def __getattr__(self, attr):
                return getattr(np, attr)

        proxy = _Numpy()
        proxy.random = random
        self._patches.append((owner, "np", owner.np))
        owner.np = proxy

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def by_name(self):
        """{name: [calls, total seconds, self seconds]} over all spans."""
        child = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.records):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return dict(out)

    def write(self, path):
        """Write every span as CSV: name,start_s,end_s,parent,op."""
        if not self.records:
            path.write_text("name,start_s,end_s,parent,op\n")
            return
        t0 = self.records[0][1]
        with path.open("w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.records:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


def install(tracer):
    """Wrap the names each layer calls through; undo with ``tracer.restore``."""
    tracer.patch(cli, "build_parser", "cli.build_parser", keep=1)
    tracer.patch(cli, "_emit", "cli.emit")
    for name in ("plan_from_csv", "validate_plan", "design_concerto_plan", "plan_to_csv"):
        tracer.patch(cli, name, f"freqdesign.{name}")
    tracer.patch(cli, "sweep_snr", "simkit.sweep_snr")
    tracer.patch(cli, "crb", "theory.crb")
    tracer.patch(cli, "PhaseObservation", "core.PhaseObservation")
    tracer._patch_lookup(cli)

    tracer.patch(simkit, "run_trials", "simkit.run_trials")
    tracer.patch(simkit, "_run_chunk", "simkit.run_chunk")
    tracer.patch(simkit, "synthesize_observation", "simkit.synthesize_observation",
                 keep=KEEP_OBSERVATIONS)
    tracer.patch(simkit.SimReport, "to_csv", "simkit.to_csv")
    tracer.patch(simkit, "crb", "theory.crb")
    tracer.patch(simkit, "wrap_phase", "core.wrap_phase")
    tracer.patch(simkit, "PhaseObservation", "core.PhaseObservation")
    tracer._patch_lookup(simkit)
    tracer._patch_numpy(simkit, "simkit.default_rng")


def layer_self_seconds(summary):
    """{layer: self seconds} from a ``by_name`` summary."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def count_parser_actions(parser):
    """argparse actions over a parser and every subcommand parser."""
    total = len(parser._actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            total += sum(count_parser_actions(sub) for sub in action.choices.values())
    return total


#: The span figures of a traced run: (name, unit, span that must have been
#: called). Times are at reference host speed.
RUN_METRICS = tuple(
    [(f"{layer}.self_us_per_op", "us", None) for layer in LAYERS]
    + [
        ("simkit.trials", "count", "simkit.run_trials"),
        ("simkit.chunks", "count", "simkit.run_trials"),
        ("simkit.rng_us", "us", "simkit.default_rng"),
        ("simkit.synth_us", "us", "simkit.synthesize_observation"),
        ("simkit.estimator_us_per_trial", "us", "simkit.run_trials"),
        ("simkit.self_us_per_trial", "us", "simkit.run_trials"),
        ("simkit.run_trials_s", "s", "simkit.run_trials"),
        ("cli.main_us", "us", "cli.main"),
        ("cli.parser_us", "us", "cli.build_parser"),
        ("cli.parser_actions", "count", "cli.build_parser"),
        ("cli.self_us", "us", "cli.main"),
        ("cli.csv_emit_us", "us", "cli.main"),
    ]
)


def run_metrics(tracer, ops, scale=1.0):
    """The span figures of a traced run.

    ``ops`` is the number of workload operations traced; times are
    multiplied by ``scale``. Returns {name: (value, unit)} and
    {name: reason} for the figures of layers the run never entered.
    """
    summary = tracer.by_name()

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    def mean_us(name):
        return total(name) / calls(name) * 1e6

    trials = calls("simkit.synthesize_observation") if calls("simkit.run_trials") else 0
    est = sum(v[1] for k, v in summary.items() if k.startswith("estimators."))
    parsers = tracer.kept.get("cli.build_parser")
    values = {f"{layer}.self_us_per_op": lambda s=seconds: s / ops * 1e6
              for layer, seconds in layer_self_seconds(summary).items()}
    values.update({
        "simkit.trials": lambda: trials,
        "simkit.chunks": lambda: calls("simkit.run_chunk"),
        "simkit.rng_us": lambda: mean_us("simkit.default_rng"),
        "simkit.synth_us": lambda: mean_us("simkit.synthesize_observation"),
        "simkit.estimator_us_per_trial": lambda: est / trials * 1e6,
        "simkit.self_us_per_trial": lambda: (
            self_s("simkit.run_trials") + self_s("simkit.run_chunk")) / trials * 1e6,
        "simkit.run_trials_s": lambda: total("simkit.run_trials") / calls("simkit.run_trials"),
        "cli.main_us": lambda: mean_us("cli.main"),
        "cli.parser_us": lambda: mean_us("cli.build_parser"),
        "cli.parser_actions": lambda: count_parser_actions(parsers[0]),
        "cli.self_us": lambda: self_s("cli.main") / calls("cli.main") * 1e6,
        "cli.csv_emit_us": lambda: (
            total("cli.emit") + total("simkit.to_csv")) / calls("cli.main") * 1e6,
    })
    present, absent = {}, {}
    for name, unit, span_name in RUN_METRICS:
        if span_name is not None and not calls(span_name):
            absent[name] = f"the workload never calls {span_name}"
            continue
        value = values[name]()
        present[name] = (value * scale if unit in ("us", "s") else value, unit)
    return present, absent
