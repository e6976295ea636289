"""Scaling measured times to a CPU of fixed speed.

The benchmark's host is shared: the CPU time of one and the same call
moves by a third or more within a minute, and a single-threaded call
slows by up to 1.7x while another machine loads its core. The states
last seconds to minutes, so a run of half a minute takes in a
different mix of them every time. A probe process pinned to the CPU a
call runs on times a fixed piece of work every 50 ms (speedprobe.py).
Over 60 s of a gdm call pinned beside it, the probe's time per sample
tracked the call's CPU time with a correlation of 0.92, while a probe
on the other CPU did not (0.14).

Each measured time is multiplied by REF_SAMPLE_S over the mean probe
sample taken while it ran: the result is the time on a CPU where the
probe's work takes REF_SAMPLE_S. The probes call nothing in gdm, so no
change to gdm moves them. Raw times stay in the report.
"""

import statistics
import subprocess
import sys
from pathlib import Path

from speedprobe import INTERVAL_S

PROBE = Path(__file__).resolve().parent / "speedprobe.py"
REF_SAMPLE_S = 0.0005
STOP_TIMEOUT_S = 10


class SpeedProbes:
    """One speedprobe.py process per CPU in cpus, for the duration of a
    with block; scale() may be called after the block."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples = []
        self._procs = []

    def __enter__(self):
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen([sys.executable, str(PROBE), str(cpu)],
                                        stdin=subprocess.DEVNULL,
                                        stdout=subprocess.PIPE, text=True)
                self._procs.append(proc)
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("speed probe on CPU %d did not start" % cpu)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc):
        self._stop()
        return False

    def _stop(self):
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            self.samples.append([tuple(float(v) for v in line.split())
                                 for line in out.splitlines()])
        self._procs = []

    def mean_sample(self, start, end):
        """Mean probe sample within [start, end] (time.monotonic()),
        widened by one interval each side; averaged over the CPUs."""
        means = []
        for samples in self.samples:
            inside = [s for t, s in samples if start - INTERVAL_S <= t <= end + INTERVAL_S]
            if inside:
                means.append(statistics.mean(inside))
        if not means:
            raise RuntimeError("no speed sample within [%r, %r]" % (start, end))
        return statistics.mean(means)

    def scale(self, start, end):
        """Factor from this box's seconds in [start, end] to seconds on
        a CPU where a probe sample takes REF_SAMPLE_S."""
        return REF_SAMPLE_S / self.mean_sample(start, end)
