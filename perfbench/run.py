#!/usr/bin/env python3
"""coxfield benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload meanfield --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's items run in
turn until ``--seconds`` of wall time have passed, each item's median time
is taken (also in units of a calibration kernel sampled while it ran; see
``SpeedProbe``), and the first run of every item is checked against
independent references.  ``--trace 1`` makes one untraced and one traced
pass of the workload plus the fixed layer suite of ``layers.py`` and
reports the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a readable table, the workload's named figures and the machine
facts; the same record is written under ``perfbench/out/``.

Load comes from this one process.  The only parallelism is ``replicate``'s
own process pool, capped by COXFIELD_THREADS at the number of usable CPUs;
BLAS is pinned to one thread so that the pool and Newton's linear solves
do not oversubscribe.
"""

import argparse
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh interpreters timing setup before and after the measurement window;
#: with this process's own setup they give five samples spread over the run
SETUP_PROBES = 2
PROBE_TIMEOUT = 120

clock = time.perf_counter

#: seconds between speed samples, and kernel iterations per sample (~2 ms)
PROBE_INTERVAL = 0.25
PROBE_REPS = 200


def pin_environment():
    """Pin BLAS to one thread and cap COXFIELD_THREADS at the usable CPUs."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = int(os.environ.get("COXFIELD_THREADS", nproc))
    except ValueError:
        threads = nproc
    threads = max(1, min(threads, nproc))
    os.environ["COXFIELD_THREADS"] = str(threads)
    return nproc, threads


def import_library():
    """Import coxfield from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "coxfield" / "__init__.py").is_file():
        print(f"perfbench: no coxfield source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import coxfield

    if Path(coxfield.__file__).resolve().parent != SRC / "coxfield":
        print(f"perfbench: imported coxfield from {coxfield.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return coxfield


def setup(workload, seed, size):
    """Import, generate the inputs and warm lazy caches; returns (wl, seconds)."""
    t0 = clock()
    import_library()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, size)
    wl.warm_up()
    return wl, clock() - t0


def probe_setup(args, exited):
    """Time setup in a fresh interpreter, as a user starting the tool would.

    The probe is left unreaped in ``exited``: a reaped child's peak RSS
    would enter ``RUSAGE_CHILDREN`` and so ``peak_rss_mb``, which is meant
    to cover only the program's own children.  ``reap`` waits for them
    after the peak has been read.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    exited.append(proc)
    with proc.stdout:
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT)[0]:
            proc.kill()
        lines = proc.stdout.read().strip().splitlines()
    try:
        return float(lines[-1])
    except (IndexError, ValueError):
        reap(exited)
        raise RuntimeError(f"setup probe failed: {lines}") from None


def reap(exited):
    """Wait for the setup probes; fail if one of them did."""
    codes = [proc.wait() for proc in exited]
    exited.clear()
    if any(codes):
        raise RuntimeError(f"setup probe exit codes {codes}")


def commit_id():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def machine_facts(args, nproc, threads):
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "coxfield_threads": threads,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "commit": commit_id(),
    }


class Gate:
    """Counts attempted and failed operations and keeps the failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ops, fails):
        self.attempted += ops
        self.failed += min(ops, len(fails))
        self.notes += fails


def run_item(item, tr, gate, first, checker):
    """Run and time an item; check its first run, compare later ones.

    Returns the outcome, the start and end of the timed run, and the
    seconds then spent checking.
    """
    t0 = clock()
    out = item.run(tr)
    t1 = clock()
    if item.name not in first:
        first[item.name] = out
        with checker():
            gate.record(out.ops, item.check(out))
    elif out.digest != first[item.name].digest:
        gate.record(out.ops, [f"{item.name}: output differs from its first run"])
    else:
        gate.record(out.ops, [])
    return out, (t0, t1), clock() - t1


class SpeedProbe:
    """Samples how fast the machine runs while the items run.

    Every PROBE_INTERVAL seconds a SIGALRM handler times a fixed kernel of
    small numpy calls and interpreter work.  The kernel uses no coxfield
    code, so its time follows only the speed of the machine, which on a
    shared host changes by tens of percent from one minute to the next.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x0 = np.linspace(0.0, 1.0, 50).reshape(25, 2)
        self.samples = []

    def kernel(self):
        np = self._np
        x = self._x0
        t0 = clock()
        for _ in range(PROBE_REPS):
            y = np.concatenate([x[:, 1:], x[:, :1]], axis=1)
            x = 0.5 * x + 0.25 * y + 0.125
            float(x.max())
        return t0, clock() - t0

    def _on_alarm(self, signum, frame):
        self.samples.append(self.kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def during(self, start, end, exclude=()):
        """Mean kernel time over the samples started in [start, end).

        Samples started inside an ``exclude`` interval are left out.  Those
        are the phases when ``replicate``'s workers hold the CPUs, so the
        kernel would time the program's own pool along with the machine.
        """
        taken = [d for t, d in self.samples if start <= t < end
                 and not any(lo <= t < hi for lo, hi in exclude)]
        return statistics.fmean(taken) if taken else self.kernel()[1]


def measure(wl, seconds):
    """Cycle through the items until the window closes; per-item samples.

    Each run's time is also divided by the kernel time sampled during it.
    Time spent checking outputs does not count against the window.
    """
    from workloads import NullTracer

    items = wl.items()
    times = {item.name: [] for item in items}
    scaled = {item.name: [] for item in items}
    inner = {item.name: {} for item in items}
    first = {}
    gate = Gate()
    tr = NullTracer()
    deadline = clock() + seconds
    cycles = 0
    ran = True
    with SpeedProbe() as probe:
        while ran:
            # every item runs once; after that, any item whose median
            # still fits in the window runs again
            ran = False
            for item in items:
                if cycles and clock() + statistics.median(times[item.name]) > deadline:
                    continue
                out, (t0, t1), checking = run_item(item, tr, gate, first, nullcontext)
                deadline += checking
                times[item.name].append(t1 - t0)
                scaled[item.name].append((t1 - t0) / probe.during(t0, t1, out.pool))
                for key, value in out.inner.items():
                    inner[item.name].setdefault(key, []).append(value)
                ran = True
            cycles += 1
    ops, fails = wl.final_checks(first)
    gate.record(ops, fails)
    med = {name: statistics.median(v) for name, v in times.items()}
    med_scaled = {name: statistics.median(v) for name, v in scaled.items()}
    inner_med = {name: {k: statistics.median(v) for k, v in d.items()}
                 for name, d in inner.items()}
    return med, med_scaled, inner_med, times, gate


def peak_rss_mb():
    """This process's peak RSS plus that of its largest reaped child.

    The reaped children are ``replicate``'s pool workers; the setup probes
    are still unreaped when this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def untraced_run(args, wl, setups, exited):
    med, med_scaled, inner, samples, gate = measure(wl, args.seconds)
    setups += [probe_setup(args, exited) for _ in range(SETUP_PROBES)]
    table = [(f"item {name}", value, f"s (median of {len(samples[name])})")
             for name, value in med.items()]
    named = [("round_s", sum(med.values()), "s")] + wl.parts(med, inner)
    metrics = {
        "round_calib": (sum(med_scaled.values()), "calib"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    reap(exited)
    return metrics, table, named, gate, dict(samples, setup=setups)


def traced_run(args, wl, threads):
    from workloads import NullTracer

    import layers
    from spans import Tracer

    items = wl.items()
    gate = Gate()
    first = {}
    outcomes = {}
    untraced = traced = 0.0
    tr = Tracer()
    try:
        # each item runs untraced, then traced, so that load changes on the
        # machine fall on both sides of the overhead estimate alike
        lo = len(tr.spans)
        for item in items:
            t0, t1 = run_item(item, NullTracer(), gate, first, nullcontext)[1]
            untraced += t1 - t0
            tr.install()
            outcomes[item.name], (t0, t1), _ = run_item(item, tr, gate, first, tr.paused)
            traced += t1 - t0
            tr.uninstall()
        hi = len(tr.spans)
        tr.install()
        with tr.paused():
            gate.record(*wl.final_checks(first))
        fps, sims = layers.collect_results(outcomes)
        gate.record(*layers.cover(tr, args.seed, args.size, fps, sims))
        configs = layers.micro(tr, args.seed, args.size)
        gate.record(*layers.repeat_solve(tr, args.size, fps))
    finally:
        tr.uninstall()
    metrics = layers.per_layer(tr, args.size, (lo, hi), fps, sims, configs, threads,
                               untraced, traced)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return metrics, [], [], gate, {}


def report(args, facts, metrics, table, named, gate, samples):
    width = max(len(name) for name, *_ in [*table, *named, *metrics.items()]) + 2
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  window {args.seconds} s")
    for name, value, unit in table:
        print(f"  {name:<{width}} {value:12.6g} {unit}")
    for name, value, unit in named:
        print(f"  {name:<{width}} {value:12.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}} {value:12.6g} {unit}")
    share = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_fraction':<{width}} {share:12.6g} failed/attempted "
          f"({gate.failed}/{gate.attempted})")
    for note in gate.notes[:20]:
        print(f"  FAILED: {note}")
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, facts=facts, named={n: [v, u] for n, v, u in named},
                  samples_s=samples, failures=gate.notes)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("meanfield", "finite_n", "structure"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; 'tiny' is for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    nproc, threads = pin_environment()
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed, args.size)[1]))
        return 0
    wl, setup_s = setup(args.workload, args.seed, args.size)
    facts = machine_facts(args, nproc, threads)
    exited = []
    try:
        if args.trace:
            outcome = traced_run(args, wl, threads)
        else:
            setups = [setup_s] + [probe_setup(args, exited) for _ in range(SETUP_PROBES)]
            outcome = untraced_run(args, wl, setups, exited)
    finally:
        reap(exited)
    report(args, facts, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
