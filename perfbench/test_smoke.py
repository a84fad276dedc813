"""Smoke test of the benchmark on tiny inputs, so the harness cannot rot.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from hypersphere_lab import counting, geometry, scalars  # noqa: E402
from workloads import CosetCyclo, TrivialRational  # noqa: E402


def test_traced_coset_counts_equal_closed_expressions(tmp_path):
    d, n = 4, 7
    result = harness.run_traced(CosetCyclo(str(tmp_path), seed=0, sets=((n, 0),)))
    metrics = result["metrics"]
    assert metrics["counting.subsets"] == math.comb(n, d + 1)
    assert metrics["counting.incidence_tests"] == math.comb(n, d + 1) * (n - d - 1)
    assert metrics["scalars.mul_calls"] > 0
    assert result["failures"] == [] and result["checks"] == []


def test_traced_trivial_counts_equal_closed_expressions(tmp_path):
    d, n = 3, 7
    wl = TrivialRational(str(tmp_path), seed=5, compare_dn=(d, n), verify_dn=(d, n))
    result = harness.run_traced(wl)
    metrics = result["metrics"]
    # compare decides one spectrum, verify_correspondence two
    assert metrics["counting.subsets"] == 3 * math.comb(n, d + 1)
    assert metrics["counting.incidence_tests"] == 3 * math.comb(n, d + 1) * (n - d - 1)
    assert metrics["geometry.lift_set_s"] > 0
    assert result["failures"] == [] and result["checks"] == []


def test_patches_are_undone(tmp_path):
    harness.run_traced(CosetCyclo(str(tmp_path), seed=0, sets=((7, 0),)))
    assert counting.maximal_cofactors is geometry.maximal_cofactors
    assert not hasattr(geometry.maximal_cofactors, "__wrapped__")
    assert not hasattr(scalars.CycloElement.__mul__, "__wrapped__")
    assert not hasattr(geometry.PointSet.from_json.__func__, "__wrapped__")


def test_wrong_expected_count_fails_every_operation(tmp_path):
    wl = CosetCyclo(str(tmp_path), seed=0, sets=((7, 0),), pinned={(7, 0): (-1, -1)})
    result = harness.run_untraced(wl, seconds=0)
    assert result["attempted"] >= 1
    assert len(result["failures"]) == result["attempted"]  # failed_frac == 1


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = harness.run_untraced(
        CosetCyclo(str(tmp_path), seed=0, sets=((7, 0),)), seconds=0)
    assert set(result["metrics"]) == set(harness.metric_units("end_to_end"))
    assert all(value > 0 for value in result["metrics"].values())
    assert result["failures"] == []


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _session_members(sid: int) -> list[int]:
    """Pids of the processes in session ``sid``, read from /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            out.append(int(entry))
    return out


def test_run_leaves_no_process_behind():
    root = os.path.dirname(HERE)
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-scan", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True)
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert '"correct": true' in out.splitlines()[-1]
    assert _session_members(proc.pid) == []
