"""CPU speed meter: a helper process that times a short pure-Python loop
every few milliseconds for the whole of a run.

On a shared virtual machine the CPU speed drifts by tens of percent within
seconds, and each virtual CPU drifts on its own, so a wall time alone does
not repeat from run to run.  The meter runs beside the measured work and
samples the speed all through it, each time on the CPU that a busy process
of the benchmark last ran on.  A phase's wall time times ``REF_LOOP_S``
over the mean loop time sampled during that phase is its length in
reference seconds, the seconds it would have taken at the speed of the
machine the reference was taken on.  Each loop is timed in the meter's own
CPU time, so sharing a core with the work does not count as slowness.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

LOOPS = 20_000
# pause between two loops; the meter takes a few percent of one core
INTERVAL_S = 0.05
# about the mean loop time on a 2-vCPU Xeon VM with Python 3.11
REF_LOOP_S = 0.0016


def _loop() -> float:
    c0 = thread_time()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    return thread_time() - c0


def _stat(pid: int):
    """(state, CPU last run on) of a process, or None when it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[36])


def _tree(pid: int) -> list[int]:
    """``pid`` and all its descendants."""
    out, todo = [], [pid]
    while todo:
        pid = todo.pop()
        out.append(pid)
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    todo.extend(int(child) for child in fh.read().split())
        except OSError:
            pass
    return out


def _busy_cpus(root: int) -> list[int]:
    """CPUs of the running processes under ``root``, other than this one."""
    me = os.getpid()
    stats = [_stat(pid) for pid in _tree(root) if pid != me]
    return [st[1] for st in stats if st and st[0] == "R"]


def _serve(root: int):
    """Sample until standard input has a line or is closed, then write the
    samples to standard output as JSON."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = [(perf_counter(), _loop())]
    turn = 0
    print("started", flush=True)  # every interval from now on has a sample
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        choices = _busy_cpus(root) or cpus
        turn += 1
        try:
            os.sched_setaffinity(0, {choices[turn % len(choices)]})
        except OSError:  # the CPU left this process's allowed set
            os.sched_setaffinity(0, cpus)
        samples.append((perf_counter(), _loop()))
    sys.stdin.readline()
    print(json.dumps(samples), flush=True)


class SpeedMeter:
    """Samples the loop in a helper process between ``__enter__`` and
    ``__exit__``; afterwards ``ref_seconds(t0, t1)`` converts a
    ``perf_counter`` interval of this or any other process of the machine
    into reference seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._proc = None

    def __enter__(self) -> "SpeedMeter":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if self._proc.stdout.readline().strip() != "started":
                raise RuntimeError("the speed meter did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc):
        out = self._stop()
        if exc[0] is None:
            if self._proc.returncode != 0:
                raise RuntimeError(f"the speed meter exited {self._proc.returncode}")
            self.samples = [tuple(ts) for ts in json.loads(out)]

    def _stop(self) -> str:
        """Ask the meter to stop and wait until it has ended; its output."""
        try:
            out, _ = self._proc.communicate("stop\n", timeout=30)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        return out

    def loop_s(self, t0: float, t1: float) -> float:
        """Mean loop time sampled in [t0, t1], or the nearest sample's when
        the interval is too short to hold one."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if inside:
            return statistics.mean(inside)
        mid = (t0 + t1) / 2
        return min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]

    def ref_seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) * REF_LOOP_S / self.loop_s(t0, t1)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
