"""Running a child process whose wall time is measured."""

import subprocess
import threading


def run_process(cmd, timeout_s, **popen_args):
    """subprocess.run(cmd, capture_output=True, text=True, timeout=...)
    without its timed wait, which polls in steps of up to 50 ms and so
    rounds a measured wall time: a timer kills the child instead, and
    the wait blocks until it exits."""
    expired = []

    def kill():
        expired.append(True)
        proc.kill()

    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, **popen_args) as proc:
        watchdog = threading.Timer(timeout_s, kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    if expired:
        raise subprocess.TimeoutExpired(cmd, timeout_s, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
