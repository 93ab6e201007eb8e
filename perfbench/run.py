"""unwrapkit benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mc_concerto --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``unwrapkit`` from ``src/``.
Human-readable lines (``<workload> <metric> <value> <unit>``) go to standard
output, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced blocks
alternate, the layer probe follows on the workload's own inputs, and the
metrics are the per-layer ones. Every run also writes a results file with
the run metadata, and a traced run its spans, under ``perfbench/_results/``.

See ``perfbench/README.md`` for the workloads, the metrics and how the host
noise of small shared machines is handled.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = HERE / "_results"

WORKLOADS = ("mc_concerto", "mc_compare", "estimate_stream", "cold_estimate")

#: End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("op_per_s_norm", "1/s"),
    ("op_us_p50_norm", "us"),
    ("op_us_tail_norm", "us"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of every traced run besides the probe's
#: (``probe.METRICS``): the time spent in ``estimators`` per operation, from
#: the spans, and the tracing overhead.
PER_LAYER_SPANS = ("estimators.self_us_per_op", "trace.overhead_frac")

#: Set-up is measured this many times before the run, and once more every
#: ``SETUP_EVERY_S`` seconds of the run, between blocks; the medians of all
#: the measurements are reported.
SETUP_REPEATS = 3
SETUP_EVERY_S = 2.0
#: Times ``import numpy, unwrapkit`` in a fresh interpreter and prints the
#: seconds; ``argv[1]`` is the ``src/`` directory.
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, unwrapkit\n"
    "print(time.perf_counter() - t)\n"
)
#: Untimed operations after set-up, so lazy caches fill before timing.
WARMUP_S = 0.3
#: The reference routine's time in the host's fast phase on the machine the
#: benchmark was defined on (2 vCPU x86-64, Python 3.11.7, numpy 2.4.6),
#: without and with its array part. ``*_norm`` timings are expressed at
#: this reference speed.
REF_NOMINAL_S = 600e-6
REF_ARRAYS_NOMINAL_S = 3100e-6

perf_counter = time.perf_counter
_REF_ARRAY = np.arange(64.0)
# operands of the array part: the shape of one ef candidate chunk
_REF_SCAN = (
    np.arange(4096.0), np.linspace(8.0, 8.4, 50), np.linspace(-0.5, 0.5, 50),
    np.empty((4096, 50)), np.empty((4096, 50)),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def import_unwrapkit():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "unwrapkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import unwrapkit

    if Path(unwrapkit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported unwrapkit from {unwrapkit.__file__}")
    return unwrapkit


# ---------------------------------------------------------------------------
# Host and run metadata
# ---------------------------------------------------------------------------

def ref_loop(arrays=False):
    """Seconds for a fixed stdlib and numpy routine that uses no unwrapkit code.

    The host of this benchmark switches between a fast and a slow speed in
    phases of 0.1 s to many seconds, and the share of a run spent slow
    differs from run to run. The routine runs between every two blocks of a
    workload. It mixes the three kinds of work the workloads do: a Python
    arithmetic loop, small numpy arrays, and building and using an argparse
    parser (object and dict heavy). Each slow phase stretches it about as
    much as the workloads (within 2-10% on this host), so a block's time
    divided by the routine's time around it barely depends on the phase,
    while a change to unwrapkit moves it in full.

    Some slow phases stretch interpreted Python but not passes over large
    arrays. ``arrays=True`` adds such passes, in the shape of the ``ef``
    candidate scan, for the workload that spends most of its time there.
    """
    start = perf_counter()
    acc = 0
    for i in range(1000):
        acc += i * i % 7
    a = _REF_ARRAY
    for _ in range(30):
        a = np.sqrt(a * a + 1.0) - 0.5
    parser = argparse.ArgumentParser(prog="ref", add_help=False)
    sub = parser.add_subparsers(dest="cmd")
    for k in range(2):
        p = sub.add_parser(f"s{k}", add_help=False)
        for j in range(5):
            p.add_argument(f"--a{j}", type=float, default=None)
    parser.parse_args(["s1", "--a3", "1.5"])
    if arrays:
        cand, inv, target, f, r = _REF_SCAN
        for _ in range(2):
            np.multiply(cand[:, None], inv[None, :], out=f)
            np.subtract(f, target[None, :], out=f)
            np.rint(f, out=r)
            np.subtract(f, r, out=f)
            np.einsum("ij,ij->i", f, f)
    return perf_counter() - start


def import_seconds():
    """Seconds ``import numpy, unwrapkit`` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def host_ref_loop_us(repeats=9):
    """Median reference-loop time; a diagnostic of the host's current speed."""
    return statistics.median(ref_loop() for _ in range(repeats)) * 1e6


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_caches():
    """Cache levels and sizes of CPU 0, read from sysfs."""
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({
            "level": _read(index / "level"),
            "type": _read(index / "type"),
            "size": _read(index / "size"),
        })
    return caches


def git_commit():
    """HEAD of the checkout, read from ``.git``; None outside a git repository."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(ROOT / ".git" / ref)
    if value:
        return value
    packed = _read(ROOT / ".git" / "packed-refs") or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return None


def metadata(unwrapkit, args, threads_was_set):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "cpu_caches": cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "unwrapkit": unwrapkit.__version__,
        "git_commit": git_commit(),
        "UNWRAP_KIT_THREADS": "unset (was set, removed)" if threads_was_set else "unset",
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Sampler:
    """Reads the reference routine every ``interval`` seconds (if set) while
    blocks run, from a ``SIGALRM`` handler in the benchmark's only thread.

    Used for workloads whose blocks are long against the host's speed
    phases and that time no single call (a handler inside a timed call
    would add to that call). ``spent`` is the time the handler took, which
    the caller takes out of the block's time.
    """

    def __init__(self, arrays, interval):
        self.arrays = arrays
        self.interval = interval
        self.readings = []
        self.spent = 0.0

    def _read(self, signum, frame):
        start = perf_counter()
        self.readings.append(ref_loop(self.arrays))
        self.spent += perf_counter() - start

    def start(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self._read)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_blocks(wl, seconds, *block_fns, between=None):
    """Call the block functions in turn until ``seconds`` have passed.

    Returns one list of Blocks per function. The reference routine runs
    between blocks, and for workloads with ``wl.sample_interval`` also
    every that many seconds inside them; each block's ``scale`` is the
    routine's nominal time over the mean of its readings just before,
    inside and just after the block. ``between``, if given, is called
    between blocks every ``SETUP_EVERY_S`` seconds.
    """
    nominal = REF_ARRAYS_NOMINAL_S if wl.ref_arrays else REF_NOMINAL_S
    runs = [[] for _ in block_fns]
    sampler = Sampler(wl.ref_arrays, wl.sample_interval)
    before = ref_loop(wl.ref_arrays)
    end = perf_counter() + seconds
    next_between = perf_counter() + SETUP_EVERY_S
    try:
        sampler.start()
        while True:
            for block, blocks in zip(block_fns, runs):
                first, spent = len(sampler.readings), sampler.spent
                b = block()
                b.seconds -= sampler.spent - spent
                after = ref_loop(wl.ref_arrays)
                readings = [before] + sampler.readings[first:] + [after]
                b.ref = statistics.fmean(readings)
                b.scale = nominal / b.ref
                before = after
                blocks.append(b)
                if between is not None and perf_counter() >= next_between:
                    sampler.stop()
                    between()
                    sampler.start()
                    next_between = perf_counter() + SETUP_EVERY_S
                    before = ref_loop(wl.ref_arrays)
            if perf_counter() >= end:
                return runs
    finally:
        sampler.stop()


def raw(block):
    return 1.0


def norm(block):
    """Scale of a block's timings to the reference speed."""
    return block.scale


def us_per_op_norm(blocks):
    return sum(b.seconds * norm(b) for b in blocks) / sum(b.ops for b in blocks) * 1e6


def tail_us(wl, blocks, scale):
    """Tail latency: the median over consecutive groups of blocks of each
    group's ``tail_q`` quantile.

    Tail events come in bursts a few seconds long. Up to 8 groups are used,
    as many as leave 10 samples beyond the quantile in each.
    """
    samples = len(wl.headline(blocks, scale))
    groups = int(max(1, min(8, samples * (1.0 - wl.tail_q) / 10)))
    size = len(blocks) // groups
    return statistics.median(
        float(np.quantile(wl.headline(blocks[i * size:(i + 1) * size], scale), wl.tail_q))
        for i in range(groups)
    ) * 1e6


def end_to_end(wl, blocks, setup_s):
    latencies = wl.headline(blocks, norm)
    seconds = sum(b.seconds * norm(b) for b in blocks)
    return {
        "setup_s": (setup_s, "s"),
        "op_per_s_norm": (sum(b.ops for b in blocks) / seconds, "1/s"),
        "op_us_p50_norm": (float(np.quantile(latencies, 0.5)) * 1e6, "us"),
        "op_us_tail_norm": (tail_us(wl, blocks, norm), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def diagnostics(wl, blocks):
    raw_lat = wl.headline(blocks, raw)
    refs = sorted(b.ref for b in blocks)
    fast_ref = refs[len(refs) // 10]
    return {
        "blocks": (len(blocks), "count"),
        "headline_samples": (len(raw_lat), "count"),
        "tail_quantile": (wl.tail_q, "quantile"),
        "raw.op_us_p50": (float(np.quantile(raw_lat, 0.5)) * 1e6, "us"),
        "raw.op_us_tail": (tail_us(wl, blocks, raw), "us"),
        "host.ref_loop_us_median": (statistics.median(refs) * 1e6, "us"),
        "host.slow_block_frac": (sum(r > 1.3 * fast_ref for r in refs) / len(refs), "fraction"),
    }


def run_all(args):
    """Run every workload in turn, each in a fresh process; print their output."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=sys.stdout, check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    threads_was_set = os.environ.pop("UNWRAP_KIT_THREADS", None) is not None
    unwrapkit = import_unwrapkit()
    import_s = perf_counter() - _START
    sys.path.insert(0, str(HERE))
    import probe
    import tracer as tracing
    import workloads

    RESULTS_DIR.mkdir(exist_ok=True)
    work_dir = RESULTS_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        # One set-up measurement imports the package in a fresh interpreter
        # and sets up a spare copy of the workload. The import's time
        # switches between two levels for seconds at a time, independently
        # of the reference routine, so measurements are spread over the run
        # and the import is not scaled; the set-up, ordinary Python and
        # numpy work, is scaled like the blocks.
        spare = work_dir / "spare"
        spare.mkdir()
        wl = workloads.make(args.workload, args.seed, work_dir)
        wl.setup()
        imports, setups = [], []

        def measure_setup():
            imports.append(import_seconds())
            before = min(ref_loop(), ref_loop())
            start = perf_counter()
            workloads.make(args.workload, args.seed, spare).setup()
            seconds = perf_counter() - start
            after = min(ref_loop(), ref_loop())
            setups.append(seconds * REF_NOMINAL_S / (0.5 * (before + after)))
            gc.collect()

        for _ in range(SETUP_REPEATS):
            measure_setup()

        ref_before = host_ref_loop_us()
        (warm,) = run_blocks(wl, WARMUP_S, wl.block)
        spans = None
        if args.trace:
            # Untraced and traced blocks alternate, so both halves see the
            # same host phases and their difference is the tracing overhead.
            spans = tracing.Tracer()
            traced_block = wl.traced(spans)

            def traced_fn():
                tracing.install(spans)
                try:
                    return traced_block()
                finally:
                    spans.restore()

            blocks, traced = run_blocks(wl, args.seconds, wl.block, traced_fn,
                                        between=measure_setup)
        else:
            (blocks,) = run_blocks(wl, args.seconds, wl.block, between=measure_setup)
            traced = []
        ref_after = host_ref_loop_us()
        setup_s = statistics.median(imports) + statistics.median(setups)
        every = warm + blocks + traced
        attempted = sum(b.ops for b in every)
        failed = min(attempted, sum(b.failed for b in every) + wl.finish())

        e2e = end_to_end(wl, blocks, setup_s)
        report = {}
        absent = {}
        if args.trace:
            layer, absent = probe.run(wl.probe_inputs(spans), ref_loop, REF_NOMINAL_S,
                                      size=min(1.0, args.seconds / 20.0))
            scale = sum(b.seconds * b.scale for b in traced) / sum(b.seconds for b in traced)
            run_present, run_absent = tracing.run_metrics(
                spans, sum(b.ops for b in traced), scale)
            layer.update(run_present)
            absent.update(run_absent)
            untraced_us = us_per_op_norm(blocks)
            traced_us = us_per_op_norm(traced)
            layer["trace.overhead_frac"] = (traced_us / untraced_us - 1.0, "fraction")
            names = [name for name, _ in probe.METRICS] + list(PER_LAYER_SPANS)
            metrics = {name: layer.pop(name) for name in names if name in layer}
            report.update(layer)
            report["trace.untraced_us_per_op_norm"] = (untraced_us, "us")
            report["trace.traced_us_per_op_norm"] = (traced_us, "us")
            report["trace.spans"] = (len(spans.records), "count")
            report.update({f"untraced.{k}": v for k, v in e2e.items()})
        else:
            metrics = e2e
        report.update(wl.report(blocks, raw))
        report.update({f"{k}_norm": v for k, v in wl.report(blocks, norm).items()})
        report["failed_frac"] = (failed / attempted, "fraction")
        report["host.ref_loop_us_before"] = (ref_before, "us")
        report["host.ref_loop_us_after"] = (ref_after, "us")
        report["import_s"] = (import_s, "s")
        report["setup.samples"] = (len(setups), "count")
        report["setup.import_s"] = (statistics.median(imports), "s")
        report["setup.workload_s_norm"] = (statistics.median(setups), "s")
        report.update(diagnostics(wl, blocks))

        for name, (value, unit) in list(metrics.items()) + list(report.items()):
            print(f"{args.workload} {name} {value:.6g} {unit}")
        for name, reason in absent.items():
            print(f"{args.workload} {name} absent: {reason}")

        meta = metadata(unwrapkit, args, threads_was_set)
        meta.update({"attempted": attempted, "op_unit": wl.op_unit}, **wl.describe())
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (RESULTS_DIR / f"{stem}.json").write_text(json.dumps({
            "meta": meta,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
            "absent": absent,
        }, indent=1) + "\n")
        if spans is not None:
            spans.write(RESULTS_DIR / f"{stem}-spans.csv")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
