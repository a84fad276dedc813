#!/usr/bin/env python3
"""Time one benchmark pass of two source trees, alternating, in one process.

    python scripts/ab_pass.py BASE_TREE CHANGED_TREE [--workload trivial-rational]
        [--seed 0] [--rounds 100]

Each tree is a checkout root.  Its ``src/hypersphere_lab`` is copied to a
temporary directory under a package name of its own (``ab_base``,
``ab_changed``) and imported from there; the package uses only relative
imports, so both copies load side by side.  The inputs are generated once,
by the base tree's ``generate`` command.

A pass is the pass of the ``perfbench`` workload of that name, on the same
inputs and calls:

* ``trivial-rational``: ``compare --threads 2`` on the d=4 n=14 set of
  ``trivial_config(seed)``, and ``counting.verify_correspondence`` at two
  threads on the d=3 n=14 set;
* ``coset-cyclo``: ``compare --threads 2`` on the d=4 coset sets n=12 l=3
  and n=13 l=0 (``--seed`` is not used).

Every answer is checked as the workload checks it, and a wrong one stops
the run.  Each round runs one pass of each tree, the order alternating
from round to round, after one untimed pass of each.  The script prints
each tree's median pass time with its quartiles, and the quartiles of the
per-round ratio base time / changed time, above 1 where the changed tree
is faster.  One process and interleaved rounds let the two trees share
the machine's drift in speed, which separate benchmark processes do not.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

D = 4
COSET_PINNED = {(12, 3): (312, 80), (13, 0): (495, 132)}


def load_tree(root: str, name: str, into: str):
    """Import ``root``'s package sources as the package ``name``."""
    package = os.path.join(root, "src", "hypersphere_lab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"ab_pass: no package sources at {package}")
    shutil.copytree(package, os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("cli", "counting", "geometry")}


def run_ok(package: dict, args: list):
    rc = package["cli"].run([str(a) for a in args])
    if rc != 0:
        raise SystemExit(f"ab_pass: {' '.join(map(str, args))} exited {rc}")


def read_compare(md_path: str, csv_path: str):
    """Engine (ordinary, (d+2)-point) counts and the boolean match lines."""
    with open(csv_path, newline="") as fh:
        rows = {row[0]: row[1:] for row in csv.reader(fh)}
    flags = {}
    with open(md_path) as fh:
        for line in fh:
            key, sep, value = line.strip().removeprefix("- ").partition(": ")
            if sep and value in ("True", "False"):
                flags[key] = value == "True"
    return (int(rows["ordinary"][0]), int(rows["dplus2"][0])), flags


def trivial_spectrum(d: int, n: int) -> dict:
    """n-1 points on a sphere plus one off it: {d+1: C(n-1, d), n-1: 1}."""
    return {d + 1: math.comb(n - 1, d), n - 1: 1}


def trivial_pass(work: str, seed: int):
    """Inputs of the trivial-rational pass, and the pass on a package."""
    inputs = {dn: os.path.join(work, f"trivial-d{dn[0]}-n{dn[1]}.json")
              for dn in ((4, 14), (3, 14))}

    def generate(package):
        for (d, n), path in inputs.items():
            run_ok(package, ["generate", "--kind", "trivial", "--d", d, "--n", n,
                             "--seed", seed, "-o", path])

    def one_pass(package, out):
        md, table = os.path.join(out, "trivial.md"), os.path.join(out, "trivial.csv")
        run_ok(package, ["compare", inputs[(4, 14)], "--threads", 2, "-o", md, "--csv", table])
        with open(inputs[(3, 14)]) as fh:
            ps = package["geometry"].PointSet.from_json(json.load(fh))
        report = package["counting"].verify_correspondence(ps, threads=2)
        return read_compare(md, table), report

    def check(result):
        (engine, flags), report = result
        want = trivial_spectrum(4, 14)
        if engine != (want[5], want.get(6, 0)):
            return f"engine (ordinary, d+2) {engine} != trivial pattern"
        if flags.get("engine_equals_trivial_pattern") is not True:
            return "compare did not report engine_equals_trivial_pattern: True"
        if not report.equal:
            return f"lift correspondence failed at m={report.first_mismatch}"
        for spec in (report.sphere_spectrum, report.plane_spectrum):
            if spec.counts != trivial_spectrum(3, 14):
                return f"spectrum {spec.counts} != {trivial_spectrum(3, 14)}"
        return None

    return generate, one_pass, check


def coset_pass(work: str, seed: int):
    """Inputs of the coset-cyclo pass, and the pass on a package."""
    inputs = {nl: os.path.join(work, f"coset-n{nl[0]}-l{nl[1]}.json") for nl in COSET_PINNED}

    def generate(package):
        for (n, l), path in inputs.items():
            run_ok(package, ["generate", "--kind", "coset", "--d", D, "--n", n, "--l", l,
                             "-o", path])

    def one_pass(package, out):
        results = []
        for (n, l), path in inputs.items():
            md = os.path.join(out, f"coset-n{n}-l{l}.md")
            table = os.path.join(out, f"coset-n{n}-l{l}.csv")
            run_ok(package, ["compare", path, "--threads", 2, "-o", md, "--csv", table])
            results.append(((n, l), read_compare(md, table)))
        return results

    def check(results):
        for (n, l), (engine, flags) in results:
            if engine != COSET_PINNED[(n, l)]:
                return f"coset n={n} l={l}: engine {engine} != pinned {COSET_PINNED[(n, l)]}"
            if flags.get("engine_equals_oracle") is not True:
                return f"coset n={n} l={l}: compare did not report engine_equals_oracle: True"
        return None

    return generate, one_pass, check


PASSES = {"trivial-rational": trivial_pass, "coset-cyclo": coset_pass}


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/ab_pass.py")
    parser.add_argument("base", help="checkout root of the base tree")
    parser.add_argument("changed", help="checkout root of the changed tree")
    parser.add_argument("--workload", choices=sorted(PASSES), default="trivial-rational")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    with tempfile.TemporaryDirectory(prefix="ab_pass-") as work:
        sys.path.insert(0, work)
        trees = {"base": load_tree(args.base, "ab_base", work),
                 "changed": load_tree(args.changed, "ab_changed", work)}
        generate, one_pass, check = PASSES[args.workload](work, args.seed)
        generate(trees["base"])
        outs = {}
        for side in trees:
            outs[side] = os.path.join(work, side)
            os.mkdir(outs[side])
        times = {side: [] for side in trees}
        for round_ in range(-1, args.rounds):  # round -1 warms both trees up, untimed
            order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
            for side in order:
                t0 = perf_counter()
                result = one_pass(trees[side], outs[side])
                elapsed = perf_counter() - t0
                failure = check(result)
                if failure:
                    print(f"ab_pass: {side} tree answered wrongly: {failure}", file=sys.stderr)
                    return 1
                if round_ >= 0:
                    times[side].append(elapsed)
        sys.path.remove(work)

    print(f"{args.workload}, {args.rounds} rounds, seconds per pass (q1 / median / q3):")
    for side, samples in times.items():
        q1, median, q3 = quartiles(samples)
        print(f"  {side:<8} {q1:.4f} / {median:.4f} / {q3:.4f}")
    ratios = [b / c for b, c in zip(times["base"], times["changed"])]
    q1, median, q3 = quartiles(ratios)
    wins = sum(ratio > 1 for ratio in ratios)
    print(f"  base / changed per round: x{median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}), "
          f"changed faster in {wins} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
