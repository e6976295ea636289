"""Stage profile: where a pipeline's CPU goes, wave by wave.

Builds the scenes of the benchmark's three workloads with
bench/workloads.py's own scene builders (read only; nothing under
bench/ is changed), runs each scene in this process through the
pipeline it exercises (gdm for twoview_small and twoview_large,
model_reassign at the bench's kappa for mixture_outliers) and prints,
per workload:

  cpu_s     CPU seconds of the pipeline calls (time.process_time)
  merge     CPU of the merge waves (_merge_init), with its share
  descent   CPU of the descent waves (_descend_loop), with its share
  refine    CPU of the refine waves (_refine_wave), with its share;
            screen is the part of it spent in _screen_moves
  other     the rest: validation, thresholding, scoring, subspace fits
  eigvalsh  matrices decomposed by np.linalg.eigvalsh, by matrix size,
            in the merge and in refine
  rows      points screened by refine (rows of its screen calls)
  tries     screened points that ran the per-candidate SVDs
  moves     accepted refine moves

Unlike the bench's traced replay, which runs one restart at a time
through the public stage functions, this times the waves the pipelines
actually run. The wrappers change no result: every call returns what it
returns unwrapped. The counts are deterministic; the times are not.
BLAS runs in one thread. The profile gates nothing.

Usage: python tools/stage_profile.py [--seed N] [--size full|tiny] [WORKLOAD ...]
       (default: seed 11, full size, every workload)
"""

import argparse
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from gdm import model_reassign, optimizer, robust  # noqa: E402
from workloads import KAPPA, WORKLOADS  # noqa: E402

WAVES = ("merge", "descent", "refine")


class Profile:
    """CPU seconds and work counts of the waves, summed over scenes.
    While installed, the optimizer's wave functions and eigvalsh are
    wrapped to record them."""

    def __init__(self):
        self.cpu = Counter()
        self.eigvalsh = Counter()
        self.work = Counter()
        self._wave = None

    @contextmanager
    def timing(self, name):
        start = time.process_time()
        try:
            yield
        finally:
            self.cpu[name] += time.process_time() - start

    def _wave_fn(self, name, fn):
        def wave(*args, **kwargs):
            outer, self._wave = self._wave, name
            try:
                with self.timing(name):
                    return fn(*args, **kwargs)
            finally:
                self._wave = outer
        return wave

    def _eigvalsh(self, fn):
        def eigvalsh(a, *args, **kwargs):
            self.eigvalsh[self._wave, a.shape[-1]] += int(np.prod(a.shape[:-2]))
            return fn(a, *args, **kwargs)
        return eigvalsh

    def _screen(self, fn):
        def screen(*args):
            with self.timing("screen"):
                return fn(*args)
        return screen

    def _restart(self, fn):
        """Wrap one restart's refine generator. Each resumption after a
        block's screen leads to at most one accepted move, found by
        comparing its labels before and after; the points of the block it
        tried are the unskipped ones up to that move, or all of them."""
        work = self.work

        def restart(a, labels, dims, grams, sizes, skip, *args):
            inner = fn(a, labels, dims, grams, sizes, skip, *args)
            block = next(inner, None)
            while block is not None:
                yield block
                before = labels.copy()
                after = next(inner, None)
                moved = np.flatnonzero(labels != before)
                tried = block[~skip[block]]
                work["rows"] += block.size
                work["tries"] += np.count_nonzero(tried <= moved[0]) if moved.size else tried.size
                work["moves"] += moved.size
                block = after
        return restart

    @contextmanager
    def installed(self):
        patched = [
            (optimizer, "_merge_init", self._wave_fn("merge", optimizer._merge_init)),
            (optimizer, "_descend_loop", self._wave_fn("descent", optimizer._descend_loop)),
            (robust, "_descend_loop", self._wave_fn("descent", robust._descend_loop)),
            (optimizer, "_refine_wave", self._wave_fn("refine", optimizer._refine_wave)),
            (optimizer, "_screen_moves", self._screen(optimizer._screen_moves)),
            (optimizer, "_refine_restart", self._restart(optimizer._refine_restart)),
            (np.linalg, "eigvalsh", self._eigvalsh(np.linalg.eigvalsh)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patched]
        for owner, name, fn in patched:
            setattr(owner, name, fn)
        try:
            yield self
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)


def pipeline(name):
    """The call that the workload's scenes go through here."""
    if name == "mixture_outliers":
        return lambda scene: model_reassign(scene.data, scene.config(), kappa=KAPPA)
    return lambda scene: optimizer.gdm(scene.data, scene.config())


def profile(name, seed, size="full"):
    """(Profile, results) of one workload's scenes at one seed."""
    run = pipeline(name)
    prof, results = Profile(), []
    with prof.installed():
        for scene in WORKLOADS[name].scenes(seed, size, None):
            with prof.timing("total"):
                results.append(run(scene))
    return prof, results


def report(name, prof):
    """The lines of one workload's profile."""
    total = prof.cpu["total"]
    waves = sum(prof.cpu[wave] for wave in WAVES)
    shares = ["%s %.2f s (%.0f %%)" % (wave, prof.cpu[wave], 100.0 * prof.cpu[wave] / total)
              for wave in WAVES]
    lines = ["%s: cpu_s %.2f" % (name, total),
             "  " + ", ".join(shares) + ", screen %.2f s, other %.2f s" % (
                 prof.cpu["screen"], total - waves)]
    for wave in ("merge", "refine"):
        sizes = sorted(size for w, size in prof.eigvalsh if w == wave)
        counts = ", ".join("%dx%d: %d" % (size, size, prof.eigvalsh[wave, size])
                           for size in reversed(sizes))
        lines.append("  eigvalsh %s: %s" % (wave, counts or "none"))
    lines.append("  refine rows %d, tries %d, moves %d" % (
        prof.work["rows"], prof.work["tries"], prof.work["moves"]))
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="any of %s (default: all)" % ", ".join(WORKLOADS))
    args = parser.parse_args(argv[1:])
    unknown = [name for name in args.workloads if name not in WORKLOADS]
    if unknown:
        parser.error("unknown workload %s" % ", ".join(unknown))
    for name in args.workloads or list(WORKLOADS):
        prof, _ = profile(name, args.seed, args.size)
        print("\n".join(report(name, prof)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
