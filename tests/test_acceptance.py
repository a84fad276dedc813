"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else: count comparisons are exact
(zero tolerance), residual certification runs at 256 bits, and the stated
wall-clock budgets are asserted with time.monotonic.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import pool_started, random_general_position_set

from hypersphere_lab.constructions import (
    CosetSpec,
    CurveParams,
    closed_form_counts,
    completion_residual,
    coset_config,
    residue_oracle,
    residue_oracle_scan,
    trivial_config,
)
from hypersphere_lab.counting import POOL_MIN_SUBSETS, spectrum, verify_correspondence
from hypersphere_lab.geometry import det, invert_set, scaled_rows
from hypersphere_lab.scalars import is_zero

PARAMS = CurveParams.default(4)

_spectra_log = []  # every certified spectrum computed by criteria 1-3


def _record(spec):
    _spectra_log.append(spec)
    return spec


@pytest.fixture(scope="module")
def trivial_d3_runs():
    runs = {}
    for n in (6, 8, 10):
        start = time.monotonic()
        ps = trivial_config(3, n, seed=7)
        spec = _record(spectrum(ps))
        runs[n] = (spec, time.monotonic() - start)
    return runs


@pytest.fixture(scope="module")
def trivial_d4_run():
    start = time.monotonic()
    ps = trivial_config(4, 12, seed=11)
    spec = _record(spectrum(ps))
    return spec, time.monotonic() - start


@pytest.fixture(scope="module")
def correspondence_reports():
    reports = []
    for seed in range(20):
        ps = random_general_position_set(3, 8, seed=1000 + seed)
        report = verify_correspondence(ps)
        _record(report.sphere_spectrum)
        _record(report.plane_spectrum)
        reports.append(report)
    return reports


def test_criterion_1_trivial_d3_minimum_counts(trivial_d3_runs):
    expected = {6: 10, 8: 35, 10: 84}
    for n, (spec, elapsed) in trivial_d3_runs.items():
        assert spec.ordinary == expected[n] == math.comb(n - 1, 3)
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s (budget 1s)"
    print("ACCEPTANCE 1 trivial d=3 n=6,8,10 ordinary = 10,35,84 under 1s each: PASS")


def test_criterion_2_trivial_d4_n12(trivial_d4_run):
    spec, elapsed = trivial_d4_run
    assert spec.ordinary == 330 == math.comb(11, 4)
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"
    print("ACCEPTANCE 2 trivial d=4 n=12 ordinary = 330 under 10s: PASS")


def test_criterion_3_lift_correspondence(correspondence_reports):
    for report in correspondence_reports:
        assert report.equal, (report.sphere_spectrum.counts, report.plane_spectrum.counts)
        assert report.sphere_spectrum.counts == report.plane_spectrum.counts
    print("ACCEPTANCE 3 sphere/lifted-hyperplane spectra equal on 20 random sets: PASS")


def test_criterion_4_partition_identity(
    trivial_d3_runs, trivial_d4_run, correspondence_reports
):
    # every spectrum computed by criteria 1-3 ...
    assert len(_spectra_log) >= 4 + 40
    for spec in _spectra_log:
        assert spec.partition_holds()
    # ... plus 50 fresh fuzzed configurations
    for seed in range(50):
        n = 6 + seed % 4
        ps = random_general_position_set(3, n, seed=2000 + seed)
        spec = spectrum(ps)
        assert spec.partition_holds()
        total = sum(math.comb(m, 4) * nm for m, nm in spec.counts.items())
        assert total == math.comb(n, 4)
    print("ACCEPTANCE 4 partition identity on all runs and 50 fuzzed configs: PASS")


def test_criterion_5_group_law_validation():
    start = time.monotonic()
    rng = random.Random(424242)
    for _ in range(1000):
        ts = [rng.uniform(0, 2 * math.pi) for _ in range(5)]
        residual = completion_residual(PARAMS, ts, bits=256)
        assert residual.contains_zero(), (ts, residual)
    cases = [(n, 0) for n in range(7, 15)] + [(12, 1)]
    for n, l in cases:
        # one row set per configuration; cospherical itself is tested per
        # call in test_geometry.py and test_counting.py::TestZeroFromLanes
        rows = scaled_rows(coset_config(CosetSpec(PARAMS, n, l), validate=False).points)
        for subset in itertools.combinations(range(n), 6):
            predicted = (sum(subset) + l) % n == 0
            actual = is_zero(det(rows.take(subset)))
            assert actual is predicted, (n, l, subset)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s (budget 600s)"
    print(
        "ACCEPTANCE 5 completion residuals (1000 tuples, 256 bits) and exact "
        f"group law on all 6-subsets up to n=14 in {elapsed:.0f}s: PASS"
    )


def test_criterion_6_engine_equals_oracle():
    for n in range(7, 15):
        for l in (0, 1, 2):
            ps = coset_config(CosetSpec(PARAMS, n, l), validate=False)
            spec = spectrum(ps)
            oracle = residue_oracle(n, 4, l)
            assert spec.ordinary == oracle.ordinary, (n, l)
            assert spec.next_class == oracle.dplus2, (n, l)
            assert spec.partition_holds()
    print("ACCEPTANCE 6 engine == residue oracle for n=7..14, l=0,1,2: PASS")


def test_criterion_7_formula_cross_check():
    findings = []
    for n in range(12, 27):
        scan = residue_oracle_scan(n, 4)
        formula = closed_form_counts(4, n)
        row = (
            n,
            scan["min_ordinary"],
            formula["min_ordinary"],
            scan["min_ordinary"] == formula["min_ordinary"],
            scan["max_dplus2"],
            formula["max_dplus2"],
            scan["max_dplus2"] == formula["max_dplus2"],
        )
        findings.append(row)
        if n == 12:
            # the seed case is asserted: the optimum offset attains the
            # printed closed-form values exactly
            assert scan["max_dplus2"] == 80
            assert scan["min_ordinary"] == 312
    print("ACCEPTANCE 7 oracle optimum vs closed forms, n=12..26 (findings table):")
    print("  n | oracle_min_ord formula_min_ord match | oracle_max_d2 formula_max_d2 match")
    for row in findings:
        print("  {:2d} | {:>12} {:>12} {!s:>5} | {:>10} {:>10} {!s:>5}".format(*row))
    mismatches = [row[0] for row in findings if not (row[3] and row[6])]
    if mismatches:
        print(f"  documented findings (small-n deviations) at n = {mismatches}")
    print("ACCEPTANCE 7 n=12 seed case (dplus2 = 80, ordinary = 312): PASS")


def test_criterion_8_inversion_invariance():
    failures = 0
    for seed in range(20):
        n = 7 if seed % 2 else 8
        ps = random_general_position_set(3, n, seed=3000 + seed)
        base = spectrum(ps).counts
        rng = random.Random(9000 + seed)
        centers_done = 0
        while centers_done < 5:
            center = tuple(
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3)
            )
            if any(all(c == x for c, x in zip(center, p)) for p in ps.points):
                continue
            image = invert_set(ps, center)
            if spectrum(image).counts != base:
                failures += 1
            centers_done += 1
    assert failures == 0
    print("ACCEPTANCE 8 spectra invariant under inversion (20 sets x 5 centers): PASS")


def test_criterion_9_thread_count_determinism(pool_starts):
    corpus = [
        trivial_config(3, 8, seed=21),
        coset_config(CosetSpec(PARAMS, 8, 1), validate=False),
        random_general_position_set(3, 7, seed=4000),
    ]
    # C(20, 4) = 4 845 and C(16, 5) = 4 368 subsets: two threads start the pool
    pooled = [
        trivial_config(3, 20, seed=21),
        coset_config(CosetSpec(PARAMS, 16, 3), validate=False),
    ]
    assert all(math.comb(ps.n, ps.dimension + 1) >= POOL_MIN_SUBSETS for ps in pooled)
    for i, ps in enumerate(corpus + pooled):
        pool_starts.clear()
        results = [spectrum(ps, threads=k) for k in (1, 2, 8)]
        assert results[0] == results[1] == results[2]
        assert i < len(corpus) or pool_started(pool_starts)
    print("ACCEPTANCE 9 spectra identical for 1, 2, 8 worker processes: PASS")
