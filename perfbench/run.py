#!/usr/bin/env python3
"""End-to-end benchmark of upblab, with an optional per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload pptes_6q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client thread runs items back to back (a closed loop) in this process.
Each item gets its own seeded input, and each output is checked outside
the timed region by code in this directory.  Timings are in reference
seconds: wall time scaled by the machine's speed, measured between items
with a fixed reference loop (see speed.py).  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs every item twice in a row, untraced
and then with the tracer installed, and prints the per-layer split.

A run is incorrect when an item raises or fails its check, when its result
digest differs from the reference recorded for its seed in digests.json, or,
traced, when the two passes disagree on the digest.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 for a correct run, 1 for an incorrect one,
and 2 when the library cannot be found.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("pptes_6q", "subtract_2xn", "template_scan")
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
TAIL_BEYOND = 10

# Run in a fresh interpreter: imports the library, or with "reference" a
# fixed set of standard-library modules, and prints the import's wall time.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[2:]
t0 = time.perf_counter()
if sys.argv[1] == "reference":
    import argparse, asyncio, csv, difflib, email.mime.text, http.client, logging
    import multiprocessing.pool, tarfile, unittest, urllib.request, xml.dom.minidom
else:
    import upblab, workloads
print(time.perf_counter() - t0)
"""
# About the reference import's median time on the baseline machine.  It only
# sets the scale.
REFERENCE_IMPORT_S = 0.1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_library():
    """Import upblab from this checkout's src/ and the benchmark modules.

    Returns the environment block."""
    if not os.path.isfile(os.path.join(SRC, "upblab", "__init__.py")):
        print(f"error: no upblab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "UPBLAB_KERNELS": os.environ.get("UPBLAB_KERNELS"),
        # The scan runs serially: the thread variable is recorded, then unset.
        "UPBLAB_THREADS": os.environ.pop("UPBLAB_THREADS", None),
    }
    sys.path[:0] = [SRC, HERE]
    import upblab
    import workloads  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(upblab.__file__))) != SRC:
        print(f"error: upblab was imported from {upblab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    env["kernel_backend"] = upblab.kernel_backend
    return env


def import_time():
    """Median import time of the library over fresh interpreters:
    (reference s, wall s).

    The import's speed drifts with the machine, but less than the reference
    loop's does, so it is scaled by reference imports instead: each library
    import by ``REFERENCE_IMPORT_S / r``, with ``r`` the mean of the
    reference imports run just before and just after it."""

    def probe(which):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, which, SRC, HERE],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(out.stdout)

    refs = [probe("reference")]
    wall, scaled = [], []
    for _ in range(IMPORT_REPEATS):
        t = probe("library")
        refs.append(probe("reference"))
        wall.append(t)
        scaled.append(t * REFERENCE_IMPORT_S * 2 / (refs[-2] + refs[-1]))
    return statistics.median(scaled), statistics.median(wall)


class Inputs:
    """Item inputs by index.  Set-up builds the digest prefix and keeps it;
    later inputs are built on demand, outside the timed region, and not
    kept, so memory stays flat however many items a run completes."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.prefix = [self.build(i) for i in range(wl.digest_items)]

    def build(self, index):
        return self.wl.materialize(self.wl.spec(self.seed, index))

    def __getitem__(self, index):
        if index < len(self.prefix):
            return self.prefix[index]
        return self.build(index)


def set_up(name, seed, speed):
    """Build the workload, its inputs and one warm-up item, several times.

    Returns (workload, inputs, median reference s, median wall s)."""
    import workloads

    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = speed.sample()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name]()
        inputs = Inputs(wl, seed)
        wl.run(wl.materialize(wl.spec(seed, workloads.WARMUP)))
        dt = time.perf_counter() - t0
        speed.sample()
        wall.append(dt)
        scaled.append(speed.scale(dt, before))
    return wl, inputs, statistics.median(scaled), statistics.median(wall)


class Pass:
    """Item times, canonical records and failures of one measured pass."""

    def __init__(self):
        self.wall = []
        self.marks = []  # speedometer sample taken before each item
        self.times = []  # reference seconds, filled in by finish()
        self.records = []
        self.failures = []

    def finish(self, speed):
        self.times = [speed.scale(dt, k) for dt, k in zip(self.wall, self.marks)]

    def digest(self, k):
        blob = json.dumps(self.records[:k], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_item(wl, inp, index, res, speed, tracer=None):
    """Time one item, check its output after the timer stops, and record
    both in ``res``."""
    from checks import CheckFailed

    res.marks.append(speed.mark())
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
        error = None
    except Exception:  # an item that raises is a failed item, not a crash
        out, error = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.end_item(dt)
    res.wall.append(dt)
    record = None
    if error is None:
        try:
            record = wl.check(inp, out)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
    if error is not None:
        res.failures.append(index)
        if len(res.failures) == 1:
            print(f"{wl.name}: item {index} failed\n{error}", file=sys.stderr)
    res.records.append(record)


def measure(wl, inputs, speed, seconds=None, count=None, min_items=0, tracer=None):
    """Run items 0, 1, ... until ``count`` items, or until ``seconds`` of wall
    time and at least ``min_items`` items.

    With a tracer, each item runs untraced and then traced, back to back, so
    both passes see the same machine state.  Returns (untraced pass, traced
    pass or None)."""
    plain = Pass()
    with_trace = Pass() if tracer is not None else None
    gc.collect()
    start = time.perf_counter()
    i = 0

    def more():
        if count is not None:
            return i < count
        return i < min_items or time.perf_counter() - start < seconds

    while more():
        inp = inputs[i]
        run_item(wl, inp, i, plain, speed)
        if tracer is not None:
            run_item(wl, inp, i, with_trace, speed, tracer)
        # Drop the input before the next item starts, so that item's garbage
        # collections do not traverse this one's objects.
        inp = None
        i += 1
    speed.sample()
    for res in (plain, with_trace):
        if res is not None:
            res.finish(speed)
    return plain, with_trace


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile).  With too few samples, the maximum."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, inputs, speed, setup, seconds):
    res, _ = measure(wl, inputs, speed, seconds=seconds, min_items=wl.digest_items)
    n = len(res.times)
    tail_s, pct = tail(res.times)
    setup_s, import_wall_s, setup_wall_s = setup
    metrics = {
        "item_p50_s": (statistics.median(res.times), "s"),
        "item_tail_s": (tail_s, "s"),
        "items_per_s": (n / sum(res.times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    failed = len(res.failures)
    ref = speed.samples
    notes = [
        f"item_tail_s is p{pct:.1f} of {n} items ({TAIL_BEYOND} beyond it)",
        f"failed_ratio {failed / n:.4g} ({failed}/{n})",
        f"wall time: item p50 {statistics.median(res.wall):.6g} s, "
        f"tail {tail(res.wall)[0]:.6g} s, {n / sum(res.wall):.6g} items/s, "
        f"import {import_wall_s:.6g} s, other set-up {setup_wall_s:.6g} s",
        f"reference loop: {len(ref)} samples, median {statistics.median(ref) * 1e3:.4g} ms, "
        f"range {min(ref) * 1e3:.4g}-{max(ref) * 1e3:.4g} ms",
    ]
    return metrics, n, failed, notes, res.digest(wl.digest_items), []


def traced(wl, inputs, speed, seconds):
    from tracing import Tracer

    tracer = Tracer()
    plain, with_trace = measure(
        wl, inputs, speed, seconds=seconds, min_items=wl.digest_items, tracer=tracer
    )
    m = len(plain.times)
    metrics = tracer.metrics(sum(plain.wall))
    failed = len(plain.failures) + len(with_trace.failures)
    d_plain, d_traced = plain.digest(m), with_trace.digest(m)
    notes = [f"{m} items, each run untraced and then traced; sha256:{d_plain} over all {m}"]
    notes += tracer.notes()
    problems = []
    if d_plain != d_traced:
        problems.append(f"DIGEST MISMATCH: traced {d_traced}, untraced {d_plain}")
    return metrics, 2 * m, failed, notes, plain.digest(wl.digest_items), problems


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def compare_reference(name, seed, digest):
    """Check the digest prefix against the recorded reference for this seed.

    Returns (note, problems); a seed with no recorded reference passes."""
    expected = load_digests().get(name, {}).get(str(seed))
    if expected is None:
        return "no reference digest recorded for this seed", []
    if expected == digest:
        return "digest matches the recorded reference", []
    return "digest differs from the recorded reference", [
        f"DIGEST MISMATCH: the reference for seed {seed} is {expected}"
    ]


def main(argv=None):
    args = parse_args(argv)
    env = import_library()
    print("env " + json.dumps(env, sort_keys=True))
    from speed import Speedometer

    speed = Speedometer()
    import_s, import_wall_s = import_time() if not args.trace else (0.0, 0.0)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    attempted = failed = 0
    problems = []
    for name in names:
        wl, inputs, setup_s, setup_wall_s = set_up(name, args.seed, speed)
        if args.trace:
            metrics, n, bad, notes, digest, wrong = traced(wl, inputs, speed, args.seconds)
        else:
            setup = (import_s + setup_s, import_wall_s, setup_wall_s)
            metrics, n, bad, notes, digest, wrong = end_to_end(
                wl, inputs, speed, setup, args.seconds
            )
        note, mismatch = compare_reference(name, args.seed, digest)
        notes += [f"digest sha256:{digest} over the first {wl.digest_items} items", note]
        attempted += n
        failed += bad
        for key, (value, unit) in metrics.items():
            print(f"{name:14s} {key:34s} {value:14.6g} {unit}")
        for note in notes:
            print(f"{name:14s} {note}")
        for problem in wrong + mismatch:
            print(f"{name}: {problem}", file=sys.stderr)
            problems.append(problem)
        for key, (value, unit) in metrics.items():
            results[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": results,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
