"""Samples the speed of one CPU until it is terminated.

    python3 bench/speedprobe.py CPU

Pinned to CPU, it prints "ready", then every INTERVAL_S times a fixed
piece of interpreter work in CPU seconds. On SIGTERM it prints one line
per sample, "<time.monotonic()> <CPU seconds>", and exits; it also
stops if its parent process ends. The probe costs about 1 % of the
CPU. See speed.py for why and how it is used.
"""

import os
import signal
import sys
import time

INTERVAL_S = 0.05


def work():
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return counts


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    print("ready", flush=True)
    samples = []
    while not stop and os.getppid() == parent:
        start = time.process_time()
        work()
        samples.append((time.monotonic(), time.process_time() - start))
        time.sleep(INTERVAL_S)
    sys.stdout.write("".join("%r %r\n" % sample for sample in samples))


if __name__ == "__main__":
    main()
