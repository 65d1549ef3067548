"""heatkern benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`, nothing is installed or built.  One run sets up the workload, repeats
whole passes over its operations until S seconds have gone by, checks every
output against perfbench/oracles.py, and prints the metrics, ending with one
JSON line {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones.  With --trace 1 one warm-up pass is
followed by untraced and traced passes in turn, and the metrics are the
per-layer self times and counts of the traced passes.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60

# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run noise than speed.  Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, HERE)

import tracer  # noqa: E402
from refclock import WINDOW, RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"probe {argv[1:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def setup_seconds(args, workdir):
    """Median time of cold processes that only import and generate inputs.

    Each probe is a cold process, so its time is scaled by the cold kernel.
    """
    clock = RefClock("cold")
    samples = []
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(dir=workdir)
        tick = clock.tick()
        t0 = time.perf_counter()
        _child([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "1", "--setup-probe", probe_dir])
        samples.append((time.perf_counter() - t0, tick))
        shutil.rmtree(probe_dir)
    for _ in range(WINDOW // 2):
        clock.tick()
    raw = statistics.median(t for t, _ in samples)
    scaled = statistics.median(t * clock.scale(i) for t, i in samples)
    print(f"  set-up wall seconds {raw:.4f}, scaled {scaled:.4f}")
    return scaled


def import_seconds():
    """Median in-process time of a cold `import heatkern.cli`."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import heatkern.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(_child([sys.executable, "-c", code, SRC]))
                             for _ in range(IMPORT_PROBES))


class Tally:
    """Operations attempted and failed, first records, and digest agreement."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.records = {}
        self.digests = {}
        self.errors = []


def run_passes(wl, seconds, tally, clock):
    """Whole passes until `seconds` of wall time; per pass {case: (wall s, scale)}.

    The clock's kernel runs before every operation, and a few times after
    the last, so that each operation's scale comes from kernel samples on
    both sides of it.
    """
    cases = wl.cases()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times = {}
        for name, run in cases:
            tick = clock.tick()
            t0 = time.perf_counter()
            try:
                value, err = run(), None
            except Exception as exc:  # a raising operation is a failed one
                value, err = None, f"{name}: {type(exc).__name__}: {exc}"
            times[name] = (time.perf_counter() - t0, tick)
            tally.attempted += 1
            if err is None:
                record, digest, err = wl.collect(name, value)
                if err is None and name not in tally.records:
                    tally.records[name] = record
                if name not in tally.digests:
                    tally.digests[name] = digest
                elif tally.digests[name] != digest:
                    tally.errors.append(f"{name}: output differs between passes")
            if err is not None:
                tally.failures.append(err)
        passes.append(times)
    for _ in range(WINDOW // 2):
        clock.tick()
    return [{name: (raw, clock.scale(tick)) for name, (raw, tick) in p.items()}
            for p in passes]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def seconds(sample, scaled):
    raw, scale = sample
    return raw * scale if scaled else raw


def pass_median(passes, scaled):
    return statistics.median(sum(seconds(v, scaled) for v in p.values()) for p in passes)


def headline_median(wl, passes, scaled):
    if wl.headline is None:
        return statistics.median(seconds(v, scaled) for p in passes for v in p.values())
    return statistics.median(seconds(p[wl.headline], scaled) for p in passes)


def end_to_end(args, wl, setup_s, tally, clock):
    passes = run_passes(wl, args.seconds, tally, clock)
    rss = peak_rss_mb(args.workload)
    pass_s = pass_median(passes, True)
    head_s = headline_median(wl, passes, True)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
               "pass_s": (pass_s, "s"), "headline_s": (head_s, "s")}
    for name, (value, unit) in wl.named(pass_s, head_s).items():
        print(f"  {name:<24} {value:.6g} {unit}   (this workload's name for pass_s or headline_s)")
    print(f"  passes {len(passes)}, operations per pass {len(passes[0])}, pass seconds "
          + " ".join(f"{sum(seconds(v, True) for v in p.values()):.3f}" for p in passes))
    print(f"  wall seconds: pass {pass_median(passes, False):.4f}, "
          f"scaled {pass_median(passes, True):.4f}; "
          f"headline {headline_median(wl, passes, False):.4f}, "
          f"scaled {headline_median(wl, passes, True):.4f}")
    return metrics


def per_layer(args, wl, tally, workdir, clock):
    """One warm-up pass, then untraced and traced passes in turn.

    The warm-up takes first-call costs (lazy imports, caches) out of both
    sides, and alternating keeps slow drifts of the machine out of the
    difference that bench.trace_overhead_s reports.
    """
    import_s = import_seconds()
    recorders = []
    untraced, traced = [], []
    start = time.perf_counter()
    run_passes(wl, 0.0, tally, clock)
    if args.workload == "cli-cold":
        trace_dir = os.path.join(workdir, "spans")
        os.makedirs(trace_dir)
    while not traced or time.perf_counter() - start < args.seconds:
        untraced += run_passes(wl, 0.0, tally, clock)
        if args.workload == "cli-cold":
            wl.trace_dir = trace_dir
            traced += run_passes(wl, 0.0, tally, clock)
            wl.trace_dir = None
            continue
        recorder = tracer.Recorder()
        undo = tracer.install(recorder)
        try:
            traced += run_passes(wl, 0.0, tally, clock)
        finally:
            tracer.uninstall(undo)
        recorders.append(recorder)
    if args.workload == "cli-cold":
        recorders = [tracer.Recorder.load(p) for p in wl.spans if os.path.exists(p)]
    times, counts = tracer.merge(recorders)
    with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump([{"spans": r.spans, "counts": dict(r.counts)} for r in recorders], fh)
    metrics = tracer.layer_metrics(times, counts, len(traced))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_calls"] = (IMPORT_PROBES, "count")
    metrics["bench.trace_overhead_s"] = (pass_median(traced, True)
                                         - pass_median(untraced, True), "s")
    print(f"  warm-up pass 1, untraced passes {len(untraced)}, traced passes {len(traced)}")
    return metrics


def measure(args, workdir):
    setup_s = setup_seconds(args, workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir, ROOT)
    clock = RefClock(wl.clock)
    wl.setup()
    tally = Tally()
    print(f"heatkern benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics = per_layer(args, wl, tally, workdir, clock)
    else:
        metrics = end_to_end(args, wl, setup_s, tally, clock)
    scales = sorted(clock.scale(i) for i in range(len(clock.samples)))
    print(f"  speed scale (reference / measured): median {statistics.median(scales):.3f}, "
          f"range {scales[0]:.3f}-{scales[-1]:.3f} over {len(scales)} kernel runs")
    try:
        tally.errors += wl.check(tally.records)
    except Exception as exc:  # a check that cannot read an output fails it
        tally.errors.append(f"check raised {type(exc).__name__}: {exc}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value!r} {unit}")
    print(f"  attempted {tally.attempted}, failed {len(tally.failures)}")
    for msg in sorted(set(tally.failures)):
        print(f"  FAILED  {msg}")
    for msg in tally.errors[:50]:
        print(f"  WRONG   {msg}")
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heatkern", "cli.py")):
        print(f"perfbench: no heatkern sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, args.setup_probe, ROOT).setup()
        return 0
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        result = measure(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
