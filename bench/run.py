"""Benchmark of the gdm package: seeded scenes, timed pipeline calls,
output checks and quality, with an optional traced run for per-layer
numbers.

    python3 bench/run.py --workload twoview_small --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. The line
before it is a report with the environment, per-scene quality and a
SHA-256 of all returned labels; it is also written under bench/out/,
together with the spans of a traced run. See bench/README.md.
"""

import argparse
import os
import shutil
import signal
import sys
import time
from pathlib import Path

from proc import run_process

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="start another pass over the scenes only while "
                             "it is expected to end within this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every scene, for the smoke test")
    return parser.parse_args(argv)


def time_setup_probe():
    """(wall seconds, time.monotonic() at start and at end) of one probe."""
    mono, start = time.monotonic(), time.perf_counter()
    proc = run_process([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                       SETUP_TIMEOUT_S, cwd=ROOT)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip()[-400:])
    return took, mono, time.monotonic()


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind as on an error, so that every process this run
    # started is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gdm" / "__init__.py").is_file():
        print("bench: gdm sources not found under %s" % SRC, file=sys.stderr)
        return 2
    # Pin BLAS to one thread before numpy is first imported, here and in
    # every child process, so restart threads are the only parallelism.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    # These import numpy and gdm, so only after the settings above.
    import harness
    from speed import SpeedProbes
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("bench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / ("scenes-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    # Pin the run, and so every process it starts, to as many CPUs as the
    # workload has threads, and sample the speed of each (speed.py).
    cpus = sorted(os.sched_getaffinity(0))[:workload.threads]
    os.sched_setaffinity(0, cpus)
    try:
        with SpeedProbes(cpus) as speed:
            setup = [] if args.trace else [time_setup_probe() for _ in range(SETUP_REPEATS)]
            run = harness.run_workload(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report, result = harness.summarise(run, args, setup, speed)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        run.tracer.write(out_dir / ("spans-%s.jsonl" % stem))
    harness.write_json(out_dir / ("report-%s.json" % stem), report)
    for line in report["problems"]:
        print("bench: %s" % line, file=sys.stderr)
    harness.print_json(report)
    harness.print_json(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
