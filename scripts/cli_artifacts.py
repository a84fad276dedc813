#!/usr/bin/env python3
"""Write the command-line artifact set of this checkout to OUT_DIR.

Runs the ``hypersphere-lab`` command from this checkout's ``src/`` on fixed
inputs, each invocation in a process of its own:

* ``generate`` for coset d=4 n=12 l=3, coset d=4 n=13 l=0, trivial d=4
  n=14 seed 7, and that trivial set with ``--backend interval --bits 192``;
* on each generated file: ``count --csv`` at ``--threads 1`` and ``2``,
  ``compare --csv`` (at ``--threads 2``), ``validate`` and ``lift``;
* ``generate`` for coset d=4 n=16 l=0 and ``count --csv`` on it at
  ``--threads 2``: with C(16, 5) = 4 368 subsets, at least
  ``counting.POOL_MIN_SUBSETS``, it is the smallest input here that starts
  the process pool;
* ``generate`` for coset d=4 n=26 l=0 and ``count --csv`` on it at
  ``--threads 1`` and ``2``: its lane set's blocks are keyed by two-index
  prefixes (C(25, 4) = 12 650 of its 5-subsets begin with index 0, more
  than ``geometry._BLOCK_SUBSETS``), and the second pool worker's rank
  range starts in the middle of a block;
* ``generate`` for trivial d=4 n=16 seed 7 and ``count --csv`` on it at
  ``--threads 1`` and ``2``: its C(16, 5) = 4 368 subsets start the pool,
  and its 15-point sphere spans both workers' rank ranges, so that the
  second worker certifies the part of the sphere past its first base;
* the same ``count``, ``compare`` and ``validate`` runs on a literal
  rational d=3 n=12 file whose points 8-11 lie on one circle, which
  violates general position: (8, 9, 10, 11) is its only degenerate 4-subset
  and the last of its C(12, 4) = 495;
* ``count`` at ``--threads 1`` and ``2`` and ``validate`` on a d=3
  cyclotomic file of conductor 8 whose points 8-11 lie on one circle:
  (8, 9, 10, 11) is its only degenerate 4-subset, and points 0-3 are
  concyclic in the engine's filter lane only, so that a lane set's
  all-zero filter residues are certified both ways;
* ``count --threads 1`` on a d=2 cyclotomic file with coefficients near
  10^70, whose rows need more than ``LANE_PRIME_CAP`` lane primes, so that
  the engine expands the elements themselves; points 0-3 lie on the
  circle of radius 10^70 about the origin;
* ``count`` at ``--threads 1`` and ``2`` and ``validate`` on a rational d=3
  file with coordinates near 10^90 / 7, whose integer rows need more than
  ``LANE_PRIME_CAP`` lane primes, so that the engine expands the integers
  themselves; points 0-5 lie on the sphere of radius 5 * 10^90 / 7 about
  the origin;
* three runs that exit 2: ``count`` on a d=2 interval file whose second
  point has its first coordinate's endpoints swapped, ``lift`` on a d=2
  interval file whose first point has x = [-2, 2], so that the enclosure
  [-3, 5] of |x|^2 + 1 is not certifiably nonzero, and ``count -o`` into a
  missing directory;
* ``selftest``.

Each artifact is a directory of OUT_DIR holding the command's ``stdout``,
``stderr`` and ``exit_code`` and the files it wrote.  Every command runs in
OUT_DIR with relative paths, so ``diff -r`` of the outputs of two checkouts
compares them byte for byte.

Usage:
    python scripts/cli_artifacts.py OUT_DIR
"""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INPUTS = {
    "coset-n12-l3": ["--d", "4", "--n", "12", "--kind", "coset", "--l", "3"],
    "coset-n13-l0": ["--d", "4", "--n", "13", "--kind", "coset", "--l", "0"],
    "trivial-n14-seed7": ["--d", "4", "--n", "14", "--kind", "trivial", "--seed", "7"],
    "trivial-n14-seed7-interval": ["--d", "4", "--n", "14", "--kind", "trivial", "--seed", "7",
                                   "--backend", "interval", "--bits", "192"],
}

# inputs whose spectrum walk is split over the process pool, and the
# thread counts each is counted at
POOLED = {
    "coset-n16-l0": (["--d", "4", "--n", "16", "--kind", "coset", "--l", "0"], [2]),
    "coset-n26-l0": (["--d", "4", "--n", "26", "--kind", "coset", "--l", "0"], [1, 2]),
    "trivial-n16-seed7": (["--d", "4", "--n", "16", "--kind", "trivial", "--seed", "7"], [1, 2]),
}

# eight integer points, then four points of the unit circle in z = 0
VIOLATION_POINTS = [[2, 1, 3], [-1, 4, 2], [3, -2, 1], [1, 2, -4], [-3, -1, 5], [4, 3, -2],
                    [-2, 5, -1], [5, -3, 4], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]

# conductor-8 coefficients of each coordinate over 1, z, z^2, z^3, where z
# = zeta_8 and sqrt(2) = z - z^3: (1 + z - w, 0, 0), with w = 41 979 842 the
# root that z maps to mod the filter prime 67 108 777, and three points of
# the unit circle in the plane x_3 = 0, which (1, 0, 0) lies on too; four
# points with small coefficients; four points of the circle of radius 2
# about (1, 2, 3) in the plane x_2 = 2.  The set of
# TestCyclotomicDegeneracy.concyclic_last in tests/test_geometry.py.
_HALF_ROOT2 = ["0", "1/2", "0", "-1/2"]
CYCLOTOMIC_VIOLATION_COEFFICIENTS = [
    [["-41979841", "1"], ["0"], ["0"]], [_HALF_ROOT2, _HALF_ROOT2, ["0"]],
    [["0"], ["1"], ["0"]], [["0", "-1/2", "0", "1/2"], _HALF_ROOT2, ["0"]],
    [["-1", "2", "-2", "0"], ["-2", "1", "1", "1"], ["1", "-1", "-2", "1"]],
    [["-2", "1", "1", "2"], ["-2", "1", "0", "-1"], ["2", "-2", "0", "-2"]],
    [["-2", "-2", "2", "-2"], ["1", "-1", "1", "-2"], ["2", "-1", "1", "1"]],
    [["2", "-1", "0", "-1"], ["-1", "1", "0", "-2"], ["1", "2", "-2", "-1"]],
    [["3"], ["2"], ["3"]], [["1", "1", "0", "-1"], ["2"], ["3", "1", "0", "-1"]],
    [["1"], ["2"], ["5"]], [["-1"], ["2"], ["3"]]]

# (lo, hi) of each coordinate; the second point's first one has lo > hi
SWAPPED_ENDPOINTS = [[("0", "0"), ("0", "0")], [("1.5", "0.5"), ("0", "0")],
                     [("0", "0"), ("1", "1")], [("2", "2"), ("3", "3")]]

# (lo, hi) of each coordinate; |x|^2 + 1 of the first point encloses 0
UNBOUNDED_LIFT = [[("-2", "2"), ("0", "0")], [("5", "5"), ("1", "1")]]

# conductor-12 coefficients of each coordinate: a circle of radius 10^70
# about the origin through the first four points, and three points off it
CAPPED_COEFFICIENTS = [[["1e70"], ["0"]], [["0"], ["1e70"]], [["-1e70"], ["0"]],
                       [["0"], ["-1e70"]], [["1e70", "1"], ["2"]],
                       [["3", "1e70"], ["0", "0", "1"]], [["1", "2", "3", "7e69"], ["7e69", "5"]]]

# integer points times 10^90 / 7: six on the sphere of radius 5 about the
# origin, no four of them coplanar, and three off it
CAPPED_RATIONAL_POINTS = [[5, 0, 0], [0, 5, 0], [0, 0, 5], [-3, 0, -4], [0, -4, 3], [-4, 3, 0],
                          [1, 2, 3], [-2, 1, -1], [2, -3, 1]]


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


def examine(out_dir: str, label: str, points: str):
    """``count`` at one and two threads, ``compare`` and ``validate`` on the
    file ``points``."""
    for threads in (1, 2):
        name = f"count-t{threads}-{label}"
        artifact(out_dir, name, ["count", points, "--threads", str(threads),
                                 "--csv", f"{name}/spectrum.csv"])
    name = f"compare-{label}"
    artifact(out_dir, name, ["compare", points, "--threads", "2", "--csv", f"{name}/table.csv"])
    artifact(out_dir, f"validate-{label}", ["validate", points])


def plane_file(out_dir: str, name: str, backend: str, points: list) -> str:
    """Write the d=2 point set of ``backend`` with JSON coordinates
    ``points`` to ``name``.json in ``out_dir`` and return its relative
    path."""
    path = f"{name}.json"
    with open(os.path.join(out_dir, path), "w") as fh:
        json.dump({"dimension": 2, "backend": backend, "points": points}, fh)
    return path


def interval_file(out_dir: str, name: str, endpoints: list) -> str:
    """``plane_file`` of the interval points with coordinate ``endpoints``
    (lo, hi)."""
    return plane_file(out_dir, name, "interval", [[{"lo": lo, "hi": hi, "bits": 128}
                                                   for lo, hi in p] for p in endpoints])


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
        examine(out_dir, label, points)
        artifact(out_dir, f"lift-{label}", ["lift", points])
    for label, (args, thread_counts) in POOLED.items():
        points = f"generate-{label}/points.json"
        artifact(out_dir, f"generate-{label}", ["generate", *args, "-o", points])
        for threads in thread_counts:
            name = f"count-t{threads}-{label}"
            artifact(out_dir, name, ["count", points, "--threads", str(threads),
                                     "--csv", f"{name}/spectrum.csv"])
    points = "violation-points.json"
    with open(os.path.join(out_dir, points), "w") as fh:
        json.dump({"dimension": 3, "backend": "rational",
                   "points": [[str(c) for c in p] for p in VIOLATION_POINTS]}, fh)
    examine(out_dir, "violation", points)
    points = "cyclotomic-violation.json"
    with open(os.path.join(out_dir, points), "w") as fh:
        json.dump({"dimension": 3, "backend": "cyclotomic",
                   "points": [[{"conductor": 8, "coeffs": c} for c in p]
                              for p in CYCLOTOMIC_VIOLATION_COEFFICIENTS]}, fh)
    for threads in (1, 2):
        artifact(out_dir, f"count-t{threads}-cyclotomic-violation",
                 ["count", points, "--threads", str(threads)])
    artifact(out_dir, "validate-cyclotomic-violation", ["validate", points])
    points = plane_file(out_dir, "capped-cyclotomic", "cyclotomic",
                        [[{"conductor": 12, "coeffs": c} for c in p] for p in CAPPED_COEFFICIENTS])
    artifact(out_dir, "count-capped-cyclotomic", ["count", points, "--threads", "1"])
    points = "capped-rational.json"
    with open(os.path.join(out_dir, points), "w") as fh:
        json.dump({"dimension": 3, "backend": "rational",
                   "points": [[str(Fraction(c * 10**90, 7)) for c in p]
                              for p in CAPPED_RATIONAL_POINTS]}, fh)
    for threads in (1, 2):
        artifact(out_dir, f"count-t{threads}-capped-rational",
                 ["count", points, "--threads", str(threads)])
    artifact(out_dir, "validate-capped-rational", ["validate", points])
    points = interval_file(out_dir, "swapped-endpoints", SWAPPED_ENDPOINTS)
    artifact(out_dir, "count-swapped-endpoints", ["count", points, "--threads", "1"])
    points = interval_file(out_dir, "unbounded-lift", UNBOUNDED_LIFT)
    artifact(out_dir, "lift-unbounded", ["lift", points])
    artifact(out_dir, "count-missing-directory",
             ["count", "generate-trivial-n14-seed7/points.json", "--threads", "1",
              "-o", "missing/spectrum.json"])
    artifact(out_dir, "selftest", ["selftest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
