"""gean benchmark: drives the library in-process on seeded inputs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload caption-train --seed 1 \
        --seconds 35 --trace 0

Workloads: gaze-train, caption-train, caption-infer, or `all`, which runs
the three one after another, each in its own process.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced run.  Human-readable lines, the machine
record and an output digest come before it.  Spans of a traced run are
written to .bench_out/.  See perfbench/README.md for the metric definitions.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("gaze-train", "caption-train", "caption-infer")
SETUP_REPEATS = 3
# The loop runs on past --seconds until this many operations lie beyond
# p90, but stops at MAX_LOOP_S so the run still ends in time.
MIN_BEYOND_P90 = 10
MAX_LOOP_S = 120.0

END_TO_END = (("setup_s", "s"), ("step_ms.p50", "ms"), ("step_ms.p90", "ms"),
              ("frames_per_s", "1/s"), ("ok_frac", "frac"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="tiny shrinks the models; for the smoke test")
    p.add_argument("--plant-nan", action="store_true",
                   help="put a NaN motion frame into the last clip")
    return p.parse_args(argv)


def blas_threads():
    """BLAS threads: at most 2, and no more than the CPUs we may use."""
    return min(2, len(os.sched_getaffinity(0)))


def import_gean():
    """Import gean from this checkout's src/, never from elsewhere."""
    if not (SRC / "gean" / "__init__.py").is_file():
        raise SystemExit("perfbench: no gean sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import gean
    if Path(gean.__file__).resolve().parent != SRC / "gean":
        raise SystemExit("perfbench: imported gean from %s, not %s"
                         % (gean.__file__, SRC))


def git_sha():
    """HEAD commit read from .git without running git; None when absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def openblas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_info():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


class Loop:
    """Closed loop: the next operation starts when the previous one ends.

    Runs whole cycles of the workload's items, so every run covers the
    same mix of items.  `call(op_id, fn, item)`, when given, runs each op.
    """

    def __init__(self, wl, call=None):
        self.wl = wl
        self.call = call
        self.times = []
        self.frames = self.tokens = self.failed = 0
        self.records = []  # outputs of the first cycle, for the digest
        self.first_error = None
        self.wall = 0.0

    def cycle(self):
        """Run every item of the workload once."""
        n = self.wl.cycle()
        start = time.perf_counter()
        for item in range(n):
            op_id = len(self.times)
            t0 = time.perf_counter()
            try:
                if self.call:
                    out = self.call(op_id, self.wl.op, item)
                else:
                    out = self.wl.op(item)
            except Exception:  # noqa: BLE001 - any failure counts, run goes on
                self.failed += 1
                if self.first_error is None:
                    self.first_error = traceback.format_exc()
            else:
                frames, tokens, record = out
                self.frames += frames
                self.tokens += tokens
                if op_id < n:
                    self.records.append(record)
            self.times.append(time.perf_counter() - t0)
        self.wall += time.perf_counter() - start

    def run(self, seconds):
        """Whole cycles until `seconds` have passed and MIN_BEYOND_P90
        operations lie beyond p90, or until MAX_LOOP_S; at least one."""
        start = time.perf_counter()
        self.cycle()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= max(seconds, MAX_LOOP_S):
                break
            if elapsed >= seconds and self.quantiles_ms()[2] >= MIN_BEYOND_P90:
                break
            self.cycle()
        return self

    @property
    def attempted(self):
        return len(self.times)

    def quantiles_ms(self):
        ms = [t * 1e3 for t in self.times]
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
        return statistics.median(ms), p90, sum(1 for t in ms if t > p90)


def setup_timed(make, repeats):
    """Set a fresh workload up `repeats` times, dropping the previous one
    first; each set-up includes a warm-up op.  Returns the last workload
    and the set-up times."""
    times = []
    for _ in range(repeats):
        wl = None
        gc.collect()
        t0 = time.perf_counter()
        wl = make()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, times


def end_to_end(make, seconds):
    wl, setup = setup_timed(make, SETUP_REPEATS)
    loop = Loop(wl).run(seconds)
    p50, p90, beyond = loop.quantiles_ms()
    metrics = {
        "setup_s": statistics.median(setup),
        "step_ms.p50": p50,
        "step_ms.p90": p90,
        "frames_per_s": loop.frames / loop.wall,
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = [
        "setup_s: median of %d set-ups: %s s" % (
            len(setup), ", ".join("%.3f" % s for s in setup)),
        "step_ms: n=%d operations, %d beyond p90%s" % (
            loop.attempted, beyond,
            " (fewer than %d: loop stopped at %.0f s, p90 is under-sampled)"
            % (MIN_BEYOND_P90, MAX_LOOP_S) if beyond < MIN_BEYOND_P90
            else ""),
        "tokens_per_s: %s" % ("%.4f 1/s" % (loop.tokens / loop.wall)
                              if wl.name != "gaze-train" else "n/a"),
        "failed_frac: %.6f (%d of %d)" % (loop.failed / loop.attempted,
                                          loop.failed, loop.attempted),
    ]
    units = dict(END_TO_END)
    return loop, {k: (v, units[k]) for k, v in metrics.items()}, notes


def traced(make, seconds, workload, seed):
    """Per-layer metrics.  Cycles alternate untraced and traced, so that
    drift in machine speed falls on both alike; the difference of their
    median step times is the tracing overhead."""
    from tracing import Tracer
    from layers import layer_metrics

    tracer = Tracer()
    wl, _ = setup_timed(make, 1)  # warm, so the traced set-up is not cold
    tracer.install()
    try:
        tracer.run("setup", "bench.setup", wl.setup)
    finally:
        tracer.uninstall()
    plain = Loop(wl)
    traced_loop = Loop(wl, call=lambda op_id, fn, item:
                       tracer.run(op_id, "bench.op", fn, item))
    start = time.perf_counter()
    while not traced_loop.times or time.perf_counter() - start < seconds:
        plain.cycle()
        tracer.install()
        try:
            traced_loop.cycle()
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, range(traced_loop.attempted),
                            traced_loop, plain)
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.tsv" % (workload, seed))
    tracer.write(spans)
    notes = ["traced: %d operations, interleaved by cycle with %d untraced; "
             "spans in %s" % (traced_loop.attempted, plain.attempted,
                              spans.relative_to(ROOT))]
    if tracer.missing:
        notes.append("untraced sites: %s" % ", ".join(tracer.missing))
    plain.failed += traced_loop.failed
    plain.times += traced_loop.times
    plain.first_error = plain.first_error or traced_loop.first_error
    return plain, metrics, notes


def run_one(args):
    # before numpy is first imported, so the BLAS pool starts at this size
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    import_gean()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, digest

    machine = machine_info()
    workdir = WORK / ("%s-%d" % (args.workload, os.getpid()))

    def make():
        return WORKLOADS[args.workload](args.size, args.seed, workdir,
                                        args.plant_nan)

    try:
        if args.trace:
            loop, metrics, notes = traced(make, args.seconds, args.workload,
                                          args.seed)
        else:
            loop, metrics, notes = end_to_end(make, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    out_digest = digest(loop.records)
    print("workload %s  seed %d  trace %d  size %s  %.1f s"
          % (args.workload, args.seed, args.trace, args.size, args.seconds))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6f %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    print("  digest %s (first cycle: losses, caption ids, saliency scores)"
          % out_digest)
    print("machine " + json.dumps(machine, sort_keys=True))
    if loop.first_error:
        print("first failure:\n" + loop.first_error, file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("result-%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace)), "w",
              encoding="utf-8") as f:
        json.dump(dict(result, machine=machine, digest=out_digest,
                       notes=notes), f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.plant_nan:
            cmd.append("--plant-nan")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("perfbench: workload %s exited with %d"
                  % (name, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, key)] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
