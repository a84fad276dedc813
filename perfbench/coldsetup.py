"""One set-up of a workload in a fresh process.

The package keeps per-process caches (cyclotomic contexts and their root
tables), so a set-up repeated in one process would reuse them.  Each
repetition therefore runs in a process of its own: it imports the package,
generates and writes the inputs and warms up.  Run as a script, this module
imports nothing of the package before it takes its start time, so the
child's import is part of what it times.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _child(name: str, seed: int, work_dir: str, spec: dict):
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS[name](work_dir=work_dir, seed=seed, **spec)
    wl.setup()
    wl.warm_up()
    # the last line of standard output, after anything the package printed
    print(json.dumps([t0, perf_counter()]), flush=True)


def cold_setup(wl) -> tuple[float, float]:
    """``perf_counter`` start and end of one set-up of ``wl`` in a fresh
    process; the inputs it writes stay in ``wl.work_dir``."""
    cmd = [sys.executable, os.path.abspath(__file__), wl.name, str(wl.seed), wl.work_dir,
           repr(wl.spec())]
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up of {wl.name} failed in its process (exit {proc.returncode})")
    t0, t1 = json.loads(lines[-1])
    return t0, t1


if __name__ == "__main__":
    _child(sys.argv[1], int(sys.argv[2]), sys.argv[3], ast.literal_eval(sys.argv[4]))
