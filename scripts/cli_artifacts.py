#!/usr/bin/env python3
"""Write the command-line artifact set of this checkout to OUT_DIR.

Runs the ``hypersphere-lab`` command from this checkout's ``src/`` on fixed
inputs, each invocation in a process of its own:

* ``generate`` for coset d=4 n=12 l=3, coset d=4 n=13 l=0, trivial d=4
  n=14 seed 7, and that trivial set with ``--backend interval --bits 192``;
* on each generated file: ``count --csv`` at ``--threads 1`` and ``2``,
  ``compare --csv`` (at ``--threads 2``), ``validate`` and ``lift``;
* ``selftest``.

Each artifact is a directory of OUT_DIR holding the command's ``stdout``,
``stderr`` and ``exit_code`` and the files it wrote.  Every command runs in
OUT_DIR with relative paths, so ``diff -r`` of the outputs of two checkouts
compares them byte for byte.

Usage:
    python scripts/cli_artifacts.py OUT_DIR
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INPUTS = {
    "coset-n12-l3": ["--d", "4", "--n", "12", "--kind", "coset", "--l", "3"],
    "coset-n13-l0": ["--d", "4", "--n", "13", "--kind", "coset", "--l", "0"],
    "trivial-n14-seed7": ["--d", "4", "--n", "14", "--kind", "trivial", "--seed", "7"],
    "trivial-n14-seed7-interval": ["--d", "4", "--n", "14", "--kind", "trivial", "--seed", "7",
                                   "--backend", "interval", "--bits", "192"],
}


def artifact(out_dir: str, name: str, args: list) -> int:
    """Run ``hypersphere-lab ARGS`` in ``out_dir`` and keep its streams and
    exit code in the directory ``name``, where ARGS may write files too."""
    os.mkdir(os.path.join(out_dir, name))
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hypersphere_lab", *args], cwd=out_dir,
                          env=env, capture_output=True, check=False)
    for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                         ("exit_code", f"{proc.returncode}\n".encode())):
        with open(os.path.join(out_dir, name, stream), "wb") as fh:
            fh.write(data)
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="new or empty directory for the artifacts")
    out_dir = os.path.abspath(parser.parse_args(argv).out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        parser.error(f"{out_dir} is not empty")
    for label, args in INPUTS.items():
        points = f"generate-{label}/points.json"
        artifact(out_dir, f"generate-{label}", ["generate", *args, "-o", points])
        for threads in (1, 2):
            name = f"count-t{threads}-{label}"
            artifact(out_dir, name, ["count", points, "--threads", str(threads),
                                     "--csv", f"{name}/spectrum.csv"])
        name = f"compare-{label}"
        artifact(out_dir, name, ["compare", points, "--threads", "2", "--csv", f"{name}/table.csv"])
        artifact(out_dir, f"validate-{label}", ["validate", points])
        artifact(out_dir, f"lift-{label}", ["lift", points])
    artifact(out_dir, "selftest", ["selftest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
