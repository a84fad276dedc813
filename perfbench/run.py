"""hypersphere-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  ``--workload all`` runs every workload in its own process
and prints all of their metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files, results and span files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NAMES = ("coset-cyclo", "trivial-rational", "oracle-scan")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import hypersphere_lab from this checkout's sources."""
    package = os.path.join(SRC, "hypersphere_lab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no package sources at {package}; run from a checkout")
    sys.path.insert(0, SRC)
    import hypersphere_lab

    if not os.path.abspath(hypersphere_lab.__file__).startswith(package + os.sep):
        raise SystemExit(f"perfbench: imported hypersphere_lab from {hypersphere_lab.__file__}")


def run_all(args) -> int:
    """Each workload in a fresh process, so each pays its own import."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness
    from workloads import WORKLOADS

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = WORKLOADS[args.workload](work_dir=work_dir, seed=args.seed)
        stamp = harness.stamp(ROOT, wl)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        if args.trace:
            result = harness.run_traced(wl, os.path.join(WORK, f"spans-{tag}.json"))
            units = harness.metric_units("per_layer")
        else:
            result = harness.run_untraced(wl, args.seconds)
            units = harness.metric_units("end_to_end")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(result['metrics'])}, "
                         f"BENCHMARK.json lists {sorted(units)}")

    failed = len(result["failures"])
    attempted = result["attempted"]
    correct = failed == 0 and not result["checks"]
    report = {"stamp": stamp, "findings": wl.findings, **result,
              "failed_frac": failed / attempted}
    with open(os.path.join(WORK, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {stamp['seed_note']}")
    print(f"# stamp {json.dumps(stamp)}")
    for key, value in result["metrics"].items():
        print(f"{args.workload:18s} {key:30s} {value:>16.6g} {units[key]}")
    print(f"{args.workload:18s} {'failed_frac':30s} {failed / attempted:>16.6g} "
          f"ratio ({failed} of {attempted} operations)")
    for key, value in result["detail"].items():
        print(f"#   {key}: {value}")
    for key, value in wl.findings.items():
        print(f"# finding (not a failure): {key} = {value}")
    for line in result["failures"] + result["checks"]:
        print(f"# FAILED {line}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
