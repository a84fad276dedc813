import itertools
import math
import os
import pickle
import random
import types
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    flip_first_verdict,
    no_lifts,
    pool_started,
    random_general_position_set,
    random_rational_point,
)
from oracles import (
    gaussian_rank,
    laplace_det,
    naive_plane_spectrum,
    naive_sphere_spectrum,
    reference_cofactors,
)

from hypersphere_lab import counting, scalars, selftest
from hypersphere_lab.counting import (
    Spectrum,
    count_dplus2,
    count_ordinary,
    ordinary_hyperplane_spectrum,
    spectrum,
    spectrum_by_hashing,
    unrank_combination,
    verify_correspondence,
)
from hypersphere_lab.errors import ConsistencyError, GeneralPositionError, SpanError
from hypersphere_lab.geometry import (
    PointSet,
    as_point,
    det,
    general_position_check,
    lift,
    lift_set,
    lifted_row,
    maximal_cofactors,
    scaled_rows,
)
from hypersphere_lab.scalars import IntervalScalar


def sphere_plus_point_config(d, n_sphere, seed, off=None):
    """n_sphere rational unit-sphere points plus one off-sphere point."""
    rng = random.Random(seed)
    pts = []
    seen = set()
    while len(pts) < n_sphere:
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d - 1)]
        q = sum(c * c for c in v)
        p = tuple([2 * c / (q + 1) for c in v] + [(q - 1) / (q + 1)])
        if p not in seen:
            seen.add(p)
            pts.append(p)
    pts.append(off or tuple([Fraction(1, 3), Fraction(1, 7)] + [Fraction(2)] * (d - 2)))
    return PointSet.build(pts)


@pytest.fixture
def inline_pools(monkeypatch):
    """A list of the stand-ins for process pools that the subset walk
    starts: each records its requested size and task count, and maps in
    this process."""
    pools = []

    class InlineExecutor:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            self.tasks = len(tasks)
            return itertools.starmap(fn, tasks)

    monkeypatch.setattr(counting, "ProcessPoolExecutor", InlineExecutor)
    return pools


class TestUnranking:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
    def test_unrank_enumerates_lexicographically(self, n, k):
        if k > n:
            return
        combos = list(itertools.combinations(range(n), k))
        assert [unrank_combination(r, n, k) for r in range(len(combos))] == combos

    def test_out_of_range_rank(self):
        with pytest.raises(ValueError):
            unrank_combination(10, 5, 2)


class TestSpectrumAgainstNaiveOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_d3_configs(self, seed):
        ps = random_general_position_set(3, 8, seed=seed)
        expected = naive_sphere_spectrum(ps.points)
        assert spectrum(ps).counts == expected

    @pytest.mark.parametrize("seed", [10, 11])
    def test_random_d3_n9(self, seed):
        ps = random_general_position_set(3, 9, seed=seed)
        assert spectrum(ps).counts == naive_sphere_spectrum(ps.points)

    def test_structured_config(self):
        ps = sphere_plus_point_config(3, 5, seed=7)
        spec = spectrum(ps)
        assert spec.counts == naive_sphere_spectrum(ps.points)
        assert spec.counts == {4: 10, 5: 1}
        assert count_ordinary(ps) == 10
        assert count_dplus2(ps) == 1

    @pytest.mark.parametrize("seed", [20, 21])
    def test_random_d4_configs(self, seed):
        ps = random_general_position_set(4, 7, seed=seed)
        assert spectrum(ps).counts == naive_sphere_spectrum(ps.points)

    def test_spectrum_ignores_input_order(self):
        ps = random_general_position_set(3, 8, seed=30)
        base = spectrum(ps).counts
        shuffled = PointSet.build(list(reversed(ps.points)))
        assert spectrum(shuffled).counts == base


class TestRationalLaneSets:
    """Rational sets are lane sets of degree 1: their integer rows are
    filtered and certified in numpy over plain primes, and their values
    are read as Python ints.  Random small sets of mixed signs and
    denominators (d = 3 and 4, n <= 9), some of their points on the unit
    sphere so that many incidences are zero: both spectra equal the per-scalar oracles, or a
    violation names the first subset the reference finds degenerate, and
    every view's cofactors and determinant equal the reference as Python
    ints."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([3, 4]), st.data(), st.integers(0, 2**32))
    def test_random_sets_match_the_oracles(self, d, data, seed):
        # n <= 8 at d=4, where the Fraction oracle takes about 2 s for n = 9
        n = data.draw(st.integers(d + 2, 12 - d), label="n")
        on_sphere = data.draw(st.integers(0, n), label="on_sphere")
        rng = random.Random(seed)  # full-size coordinates, not shrunk ones
        points = set()
        while len(points) < n:
            if len(points) < on_sphere:
                points.add(lift(random_rational_point(rng, d - 1)))
            else:
                points.add(random_rational_point(rng, d))
        ps = PointSet.build(sorted(points))
        rows = scaled_rows(ps.points)
        assert rows.basis.degree == 1 and rows.grid.shape == (n, d + 2, len(rows.basis.primes), 1)
        degenerate = []
        for subset in itertools.combinations(range(n), d + 1):
            got, want = list(maximal_cofactors(rows.take(subset))), reference_cofactors(
                [rows[i] for i in subset])
            assert got == want and all(type(c) is int for c in got)
            if not any(want):
                degenerate.append(subset)
        for indices in itertools.combinations(range(n), d + 2):
            value = det(rows.take(indices))
            assert type(value) is int and value == laplace_det([rows[i] for i in indices])
        if degenerate:
            with pytest.raises(GeneralPositionError) as error:
                spectrum(ps)
            assert error.value.witness == degenerate[0]
        else:
            expected = naive_sphere_spectrum(ps.points)
            assert spectrum(ps).counts == spectrum_by_hashing(ps).counts == expected
        try:
            planes = ordinary_hyperplane_spectrum(ps).counts
        except SpanError as error:
            # the witness's affine rows (1, x) have rank below its size
            assert gaussian_rank([(1, *ps.points[i]) for i in error.witness]) < min(
                len(error.witness), d + 1)
        else:
            assert planes == naive_plane_spectrum(ps.points)


def circumcenter(points):
    """The centre of the sphere through d+1 points of R^d, by Gauss-Jordan
    elimination on 2 c.(p - a) = |p|^2 - |a|^2, or None if no one sphere
    passes through them."""
    a, d = points[0], len(points[0])
    rows = [[2 * (x - y) for x, y in zip(p, a)] + [sum(x * x for x in p) - sum(y * y for y in a)]
            for p in points[1:]]
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[d] for row in rows)


def planted_spheres(d, rng, sizes, shares, free):
    """Rational points of R^d, shuffled: one sphere of each size in
    ``sizes``, then ``free`` random points.  A sphere is the one through d+1
    anchors: ``shares[j]`` anchors of earlier spheres, at most d of any one
    of them, and new random points; its other points are second
    intersections of random rational lines through its anchors."""
    points, anchor_sets = [], []
    for size, share in zip(sizes, shares):
        earlier = sorted({a for anchors in anchor_sets for a in anchors})
        center = None
        while center is None:
            through = rng.sample(earlier, share)
            anchors = through + [random_rational_point(rng, d, 4) for _ in range(d + 1 - share)]
            if len(set(anchors)) == d + 1 and all(
                    len(earlier_anchors.intersection(through)) <= d
                    for earlier_anchors in anchor_sets):
                center = circumcenter(anchors)
        on = list(anchors)
        while len(on) < size:
            p, v = rng.choice(anchors), random_rational_point(rng, d, 4)
            if any(v):
                t = -2 * sum((x - c) * y for x, c, y in zip(p, center, v)) / sum(y * y for y in v)
                q = tuple(x + t * y for x, y in zip(p, v))
                on += [q] if q not in on else []
        anchor_sets.append(set(anchors))
        points += [q for q in on if q not in points]
    points += [random_rational_point(rng, d, 4) for _ in range(free)]
    rng.shuffle(points)
    return points


def weak_filter_basis(bound):
    """``integer_lane_basis`` with the prime 7 in front: the filter lane is
    mod 7, so about one nonzero value in seven has a zero filter residue,
    and the product of the primes still bounds every value."""
    basis = scalars.integer_lane_basis(bound)
    primes = (7, *basis.primes)
    ones = np.ones((len(primes), 1, 1), dtype=np.int64)
    return scalars.LaneBasis(primes, 7 * basis.modulus,
                             np.array(primes, dtype=np.int64)[:, None], ones, ones)


def pickling_pool():
    """A stand-in for the process pool that maps in this process on pickled
    copies of its arguments, as the pool's workers receive them, and the
    list of the row sets its workers walked, in rank order."""
    walked = []

    class PicklingExecutor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            results = []
            for task in zip(*iterables):
                rows, *args = pickle.loads(pickle.dumps(task))
                walked.append(rows)
                results.append(fn(rows, *args))
            return results

    return PicklingExecutor, walked


class TestSurfaceCertificates:
    """A lane set certifies each surface of m > k + 1 points once: a base
    S whose filter cofactors are not all 0, and det([x; S]) = 0 for the
    m - k other points x, put every point of the surface in the kernel of
    the nonzero c(S), so every (k+1)-subset of it is zero."""

    # (sphere sizes, anchors shared with earlier spheres, free point counts)
    PLANS = {3: [((7,), (0,), (1, 2)), ((8,), (0,), (1, 2)), ((9,), (0,), (1, 2)),
                 ((7, 7), (0, 2), (0,)), ((7, 7), (0, 3), (0, 1)), ((7, 7, 7), (0, 3, 4), (0,))],
             4: [((7,), (0,), (1, 2)), ((8,), (0,), (1, 2)), ((7, 7), (0, 4), (0,))]}

    @staticmethod
    def spectra(ps):
        """The sphere spectrum at one thread, the lifted hyperplane spectrum,
        and the sphere spectrum at two threads over a pool whose workers
        get pickled copies of the set and blocks of at most 16 subsets, so
        that the second worker's first block starts inside the walk."""
        from hypersphere_lab import geometry

        executor, walked = pickling_pool()
        with mock.patch.object(counting, "ProcessPoolExecutor", executor), \
                mock.patch.object(counting, "POOL_MIN_SUBSETS", 1), \
                mock.patch.object(os, "cpu_count", lambda: 2), \
                mock.patch.object(geometry, "_BLOCK_SUBSETS", 16):
            pooled = spectrum(ps, threads=2).counts
        assert len(walked) == 2
        return spectrum(ps).counts, ordinary_hyperplane_spectrum(lift_set(ps)).counts, pooled

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([3, 4]), st.data(), st.integers(0, 2**32))
    def test_planted_spheres_match_the_oracle(self, d, data, seed):
        """Rational sets with one to three planted spheres of 7-9 points,
        sharing at most d points, and free points.  Each spectrum equals the
        Fraction oracle's, the lifted hyperplane spectrum by the lift
        correspondence, also with a filter prime of 7, where false zero
        residues are common: a surface taken from filter zeros without
        certificates, or a cover test that does not ask whether x lies on
        the surface, counts some of them as incidences."""
        from hypersphere_lab import geometry

        sizes, shares, frees = data.draw(st.sampled_from(self.PLANS[d]), label="plan")
        free = data.draw(st.sampled_from(frees), label="free")
        rng = random.Random(seed)  # full-size coordinates, not shrunk ones
        ps = PointSet.build(planted_spheres(d, rng, sizes, shares, free))
        while len(set(ps.points)) < ps.n or general_position_check(ps) is not None:
            ps = PointSet.build(planted_spheres(d, rng, sizes, shares, free))
        expected = naive_sphere_spectrum(ps.points)
        assert [m for m, count in sorted(expected.items()) for _ in range(count)
                if m > d + 1] == sorted(sizes)
        assert self.spectra(ps) == (expected,) * 3
        with mock.patch.object(geometry, "integer_lane_basis", weak_filter_basis):
            assert scaled_rows(ps.points).prime == 7
            assert self.spectra(ps) == (expected,) * 3

    @pytest.mark.parametrize("d, n", [(4, 14), (4, 22)])
    def test_one_base_certifies_the_sphere(self, monkeypatch, d, n):
        """A serial walk of a trivial set, n - 1 points on one sphere and
        one off it, certifies n - 1 - (d + 1) tuples: 8 at n = 14, 16 at
        n = 22, against C(n - 1, d + 2) six-sets on the sphere."""
        from hypersphere_lab import geometry
        from hypersphere_lab.constructions import trivial_config

        ps = trivial_config(d, n, seed=7)
        certified = []
        certify = geometry._certify

        def counted(source, tuples):
            certified.extend(map(tuple, tuples.tolist()))
            return certify(source, tuples)

        monkeypatch.setattr(geometry, "_certify", counted)
        assert spectrum(ps, threads=1).counts == {d + 1: math.comb(n - 1, d), n - 1: 1}
        assert len(certified) == len(set(certified)) == n - 1 - (d + 1)
        assert all(max(t) < n - 1 for t in certified)

    def test_correspondence_certifies_each_surface_once(self, monkeypatch):
        """``verify_correspondence`` on trivial d=3 n=14: the 13-point sphere
        and the hyperplane of its lifted points take 9 certificates each."""
        from hypersphere_lab import geometry
        from hypersphere_lab.constructions import trivial_config

        ps = trivial_config(3, 14, seed=7)
        certified = []
        certify = geometry._certify

        def counted(source, tuples):
            certified.append(len(tuples))
            return certify(source, tuples)

        monkeypatch.setattr(geometry, "_certify", counted)
        report = verify_correspondence(ps)
        assert report.equal and report.sphere_spectrum.counts == {4: math.comb(13, 3), 13: 1}
        assert sum(certified) == 2 * (13 - 4)

    def test_worker_inside_a_surface_certifies_part_of_it(self):
        """Points 0-10 of a d=3 set lie on one sphere.  With blocks of at
        most 64 subsets, the second pool worker's first block is that of
        the prefix (1, 4), inside the sphere: it certifies the part of the
        sphere past its first base (1, 4, 5, 6), then the part past
        (2, 3, 4, 5), and the spectrum is the whole walk's."""
        from hypersphere_lab import geometry

        ps = sphere_plus_point_config(3, 11, seed=6)
        executor, walked = pickling_pool()
        with mock.patch.object(counting, "ProcessPoolExecutor", executor), \
                mock.patch.object(counting, "POOL_MIN_SUBSETS", 1), \
                mock.patch.object(os, "cpu_count", lambda: 2), \
                mock.patch.object(geometry, "_BLOCK_SUBSETS", 64):
            pooled = spectrum(ps, threads=2).counts
        assert pooled == spectrum(ps).counts == {4: math.comb(11, 3), 11: 1}
        first, second = ([tuple(np.flatnonzero(s).tolist()) for s in rows.surfaces]
                         for rows in walked)
        assert first == [tuple(range(11))]
        assert second[:2] == [(1, *range(4, 11)), tuple(range(2, 11))]


class TestPartitionIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_configs(self, seed):
        n = 6 + seed % 3
        ps = random_general_position_set(3, n, seed=100 + seed)
        spec = spectrum(ps)
        assert spec.partition_holds()
        total = sum(math.comb(m, 4) * nm for m, nm in spec.counts.items())
        assert total == math.comb(n, 4)


class TestTrivialPattern:
    def test_d3_n10_count(self):
        ps = sphere_plus_point_config(3, 9, seed=3)
        spec = spectrum(ps)
        # generic pattern: all mixed subsets ordinary, carrier holds the rest
        assert spec.counts.get(9) == 1
        assert spec.counts.get(4) == math.comb(9, 3) == 84


class TestRationalPins:
    """Rational sets run on integer rows; these pin their results across the
    in-process walk and the pool (two threads start one from
    ``counting.POOL_MIN_SUBSETS`` subsets)."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_trivial_d4_n16_seed5_spectrum(self, threads):
        from hypersphere_lab.constructions import trivial_config

        ps = trivial_config(4, 16, seed=5)
        assert spectrum(ps, threads=threads).counts == {5: 1365, 15: 1}

    def test_degenerate_witness_is_lexicographic_first(self):
        # five points of the circle z = 0 on the unit sphere among fourteen
        # random sphere points and one off it: every 4 of the five are
        # concyclic
        circle = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0),
                  (Fraction(3, 5), Fraction(4, 5), 0)]
        points = list(sphere_plus_point_config(3, 14, seed=11).points)
        for index, p in zip((1, 5, 9, 10, 11), circle):
            points.insert(index, as_point(p))
        ps = PointSet.build(points)
        assert math.comb(ps.n, 4) >= counting.POOL_MIN_SUBSETS
        first = next(
            subset for subset in itertools.combinations(range(ps.n), 4)
            if gaussian_rank([[1, *ps.points[i], sum(c * c for c in ps.points[i])]
                              for i in subset]) < 4
        )
        assert first == (1, 5, 9, 10)
        for threads in (1, 2):
            with pytest.raises(GeneralPositionError) as err:
                spectrum(ps, threads=threads)
            assert err.value.witness == first
        assert general_position_check(ps) == first
        with pytest.raises(GeneralPositionError) as err:
            spectrum_by_hashing(ps)
        assert err.value.witness == first


class TestHyperplaneSpectrum:
    def test_generic_five_points_all_ordinary(self):
        ps = random_general_position_set(3, 5, seed=42)
        spec = ordinary_hyperplane_spectrum(ps)
        expected = naive_plane_spectrum(ps.points)
        assert spec.counts == expected
        if spec.counts == {3: 10}:
            assert spec.ordinary == math.comb(5, 3)

    def test_apex_over_base_hyperplane(self):
        rng = random.Random(8)
        base = []
        seen = set()
        while len(base) < 6:
            x, y = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            if (x, y) not in seen:
                seen.add((x, y))
                base.append((x, y, Fraction(0)))
        apex = (Fraction(1, 3), Fraction(1, 5), Fraction(2))
        ps = PointSet.build(base + [apex])
        spec = ordinary_hyperplane_spectrum(ps)
        n = ps.n
        assert spec.counts[n - 1] == 1
        assert spec.counts[3] == math.comb(n - 1, 2)
        assert spec.counts == naive_plane_spectrum(ps.points)

    def test_all_coplanar_is_span_violation(self):
        pts = [(Fraction(i), Fraction(i * i), Fraction(0)) for i in range(5)]
        ps = PointSet.build(pts)
        with pytest.raises(SpanError) as err:
            ordinary_hyperplane_spectrum(ps)
        assert err.value.witness == tuple(range(5))

    def test_degenerate_subset_is_span_violation_with_witness(self):
        pts = [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(2), Fraction(2)),  # collinear with first two
            (Fraction(0), Fraction(1), Fraction(5)),
            (Fraction(3), Fraction(-1), Fraction(2)),
        ]
        ps = PointSet.build(pts)
        with pytest.raises(SpanError) as err:
            ordinary_hyperplane_spectrum(ps)
        assert err.value.witness == (0, 1, 2)


class TestCorrespondence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_d3_sets(self, seed):
        ps = random_general_position_set(3, 8, seed=200 + seed)
        report = verify_correspondence(ps)
        assert report.equal
        assert report.first_mismatch is None
        assert report.sphere_spectrum.counts == report.plane_spectrum.counts

    def test_structured_config(self):
        ps = sphere_plus_point_config(3, 5, seed=1)
        report = verify_correspondence(ps)
        assert report.equal
        assert report.sphere_spectrum.counts == {4: 10, 5: 1}

    def test_all_on_sphere_reports_span_violation_upstairs(self):
        rng = random.Random(5)
        pts = []
        seen = set()
        while len(pts) < 6:
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            q = sum(c * c for c in v)
            p = tuple([2 * c / (q + 1) for c in v] + [(q - 1) / (q + 1)])
            if p not in seen:
                seen.add(p)
                pts.append(p)
        ps = PointSet.build(pts)
        with pytest.raises(SpanError):
            verify_correspondence(ps)

    def test_lifted_set_lies_on_unit_sphere(self):
        ps = random_general_position_set(3, 6, seed=77)
        lifted = lift_set(ps)
        assert all(sum(c * c for c in p) == 1 for p in lifted.points)

    def test_correspondence_on_cyclotomic_coset(self):
        # exercises field division inside lift and the hyperplane engine on
        # cyclotomic rows
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        ps = coset_config(CosetSpec(CurveParams.default(4), 7, 1), validate=False)
        report = verify_correspondence(ps)
        assert report.equal
        assert report.sphere_spectrum.counts == report.plane_spectrum.counts


class TestSimilarityInvariance:
    # hyperspheres-and-hyperplanes map to themselves under translations,
    # rational orthogonal maps, nonzero scalings, and inversions, so the
    # spectrum must not move
    ROTATION = (
        (Fraction(3, 5), Fraction(-4, 5), 0),
        (Fraction(4, 5), Fraction(3, 5), 0),
        (0, 0, 1),
    )

    def _transformed(self, ps, fn):
        return PointSet.build([fn(p) for p in ps.points])

    def test_translation(self):
        ps = random_general_position_set(3, 7, seed=500)
        base = spectrum(ps).counts
        shift = (Fraction(7, 3), Fraction(-2), Fraction(1, 9))
        moved = self._transformed(ps, lambda p: tuple(c + s for c, s in zip(p, shift)))
        assert spectrum(moved).counts == base

    def test_rational_rotation(self):
        ps = random_general_position_set(3, 7, seed=501)
        base = spectrum(ps).counts

        def rotate(p):
            return tuple(sum(row[j] * p[j] for j in range(3)) for row in self.ROTATION)

        assert spectrum(self._transformed(ps, rotate)).counts == base

    def test_signed_permutation(self):
        ps = random_general_position_set(3, 7, seed=502)
        base = spectrum(ps).counts
        flipped = self._transformed(ps, lambda p: (p[2], -p[0], p[1]))
        assert spectrum(flipped).counts == base

    def test_uniform_scaling(self):
        ps = random_general_position_set(3, 7, seed=503)
        base = spectrum(ps).counts
        scaled = self._transformed(ps, lambda p: tuple(Fraction(5, 3) * c for c in p))
        assert spectrum(scaled).counts == base


class TestHashFastPath:
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_subset_counting(self, seed):
        ps = random_general_position_set(3, 8, seed=300 + seed)
        assert spectrum_by_hashing(ps).counts == spectrum(ps).counts

    def test_agrees_on_cyclotomic_config(self):
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        ps = coset_config(CosetSpec(CurveParams.default(4), 7, 0), validate=False)
        assert spectrum_by_hashing(ps).counts == spectrum(ps).counts

    def test_inverts_large_key_multiplicities(self):
        # the carrier sphere of a sphere-plus-point set is found by C(7,4)
        # subsets, exercising the multiplicity -> m inversion well past d+2
        ps = sphere_plus_point_config(3, 7, seed=13)
        spec = spectrum_by_hashing(ps)
        assert spec.counts == {4: math.comb(7, 3), 7: 1}
        assert spec.counts == spectrum(ps).counts

    def test_interval_backend_rejected(self):
        # a precondition on the input, as in general_position_check, not an
        # internal inconsistency
        from hypersphere_lab.errors import DomainError

        exact = sphere_plus_point_config(3, 5, seed=7)
        ps = PointSet.build([tuple(IntervalScalar.from_fraction(c, 128) for c in p)
                             for p in exact.points])
        with pytest.raises(DomainError):
            spectrum_by_hashing(ps)


class TestIntegrityChecks:
    """Each check that guards a count against a lying predicate or a lost
    subset fires, on a sphere-plus-point set with spectrum {4: 10, 5: 1};
    all run on one thread, so the patches reach the walk."""

    @pytest.fixture
    def ps(self):
        return sphere_plus_point_config(3, 5, seed=1)

    def test_one_wrong_incidence_verdict_breaks_exact_division(self, ps, monkeypatch):
        flip_first_verdict(monkeypatch)
        with pytest.raises(ConsistencyError, match="not a multiple of C"):
            spectrum(ps, threads=1)

    def test_lost_subsets_break_the_partition_identity(self, ps, monkeypatch):
        histogram = counting._subset_histogram

        def lose_the_largest_surface(ps, row, r, threads, key):
            hist, violation = histogram(ps, row, r, threads, key)
            hist[max(hist)] -= math.comb(max(hist), r)
            return hist, violation

        monkeypatch.setattr(counting, "_subset_histogram", lose_the_largest_surface)
        with pytest.raises(ConsistencyError, match="partition identity failed after"):
            spectrum(ps, threads=1)

    def test_one_moved_hash_key_is_not_a_binomial(self, ps, monkeypatch):
        surface, moved = counting._surface, []

        def move_one_key_on_the_five_point_sphere(rows, subset, cof):
            key = surface(rows, subset, cof)
            if not moved and counting._incidence_count(rows, subset, cof) == len(subset) + 1:
                moved.append(subset)
                return ("moved", key)
            return key

        monkeypatch.setattr(counting, "_surface", move_one_key_on_the_five_point_sphere)
        with pytest.raises(ConsistencyError, match="is not a binomial"):
            spectrum_by_hashing(ps)
        assert len(moved) == 1

    def test_a_lost_hash_key_breaks_the_partition_identity(self, ps, monkeypatch):
        histogram = counting._subset_histogram

        def lose_one_surface(*args):
            keys, violation = histogram(*args)
            del keys[next(iter(keys))]
            return keys, violation

        monkeypatch.setattr(counting, "_subset_histogram", lose_one_surface)
        with pytest.raises(ConsistencyError, match="partition identity failed in hash"):
            spectrum_by_hashing(ps)

    @pytest.mark.parametrize("plane, mismatch", [
        ({4: 10, 5: 2}, 5),
        ({4: 15}, 4),
        ({3: 1, 4: 10, 5: 1}, 3),
        ({4: 10, 5: 1, 7: 2}, 7),
        ({4: 10, 5: 1}, None),
    ])
    def test_first_mismatch_is_the_smallest_differing_count(self, ps, monkeypatch, plane,
                                                             mismatch):
        # the last case differs in its indeterminate count only
        def plane_spectrum(lifted, threads=1):
            return Spectrum(lifted.dimension, lifted.n, lifted.dimension, dict(plane),
                            int(mismatch is None))

        monkeypatch.setattr(counting, "ordinary_hyperplane_spectrum", plane_spectrum)
        report = verify_correspondence(ps, threads=1)
        assert report.sphere_spectrum.counts == {4: 10, 5: 1}
        assert report.equal is False and report.first_mismatch == mismatch


class TestParallelism:
    def test_thread_counts_agree(self, pool_starts):
        ps = random_general_position_set(3, 8, seed=400)
        s1 = spectrum(ps, threads=1)
        s2 = spectrum(ps, threads=2)
        s8 = spectrum(ps, threads=8)
        assert s1 == s2 == s8
        ps = sphere_plus_point_config(3, 19, seed=4)  # C(20, 4) = 4 845 subsets
        assert math.comb(ps.n, 4) >= counting.POOL_MIN_SUBSETS
        s1 = spectrum(ps, threads=1)
        assert not pool_starts
        s2 = spectrum(ps, threads=2)
        assert pool_started(pool_starts)
        assert s1 == s2 == spectrum(ps, threads=8)

    def test_violation_is_deterministic_across_thread_counts(self, pool_starts):
        pts = [
            as_point(t)
            for t in [
                (1, 0, 0),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (Fraction(1, 3), Fraction(1, 5), 2),
                (Fraction(1, 2), Fraction(1, 9), 3),
            ]
        ]
        ps = PointSet.build(pts)
        witnesses = []
        for threads in (1, 2, 8):
            with pytest.raises(GeneralPositionError) as err:
                spectrum(ps, threads=threads)
            witnesses.append(err.value.witness)
        assert witnesses[0] == witnesses[1] == witnesses[2] == (0, 1, 2, 3)
        # sixteen integer points, then four of the unit circle in z = 0: the
        # only degenerate 4-subset is the last of C(20, 4) = 4 845, which at
        # two threads the pool finds in its second rank range
        pts = [(2, 1, 3), (-1, 4, 2), (3, -2, 1), (1, 2, -4), (-3, -1, 5), (4, 3, -2),
               (-2, 5, -1), (5, -3, 4), (1, -4, 5), (5, 0, 6), (5, 6, -2), (2, -3, 4),
               (5, 1, -1), (0, 2, 5), (3, -3, -2), (2, -5, 5),
               (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        assert math.comb(len(pts), 4) >= counting.POOL_MIN_SUBSETS
        assert [subset for subset in itertools.combinations(range(len(pts)), 4)
                if gaussian_rank([[1, *pts[i], sum(c * c for c in pts[i])]
                                  for i in subset]) < 4] == [(16, 17, 18, 19)]
        ps = PointSet.build([as_point(t) for t in pts])
        for threads in (1, 2, 8):
            pool_starts.clear()
            with pytest.raises(GeneralPositionError) as err:
                spectrum(ps, threads=threads)
            assert err.value.witness == (16, 17, 18, 19)
            assert threads == 1 or pool_started(pool_starts)

    def test_selftest_determinism_check_starts_the_pool(self, pool_starts):
        assert selftest._check_determinism()
        assert pool_started(pool_starts)

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, None)])
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, inline_pools, cpus, workers):
        ps = sphere_plus_point_config(3, 19, seed=4)  # C(20, 4) = 4 845 subsets
        reference = spectrum(ps, threads=1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert spectrum(ps, threads=5000) == reference
        assert [(p.max_workers, p.tasks) for p in inline_pools] == (
            [(workers, workers)] if workers else []
        )

    @pytest.mark.parametrize("fewer", [1, 0])
    def test_pool_starts_at_the_threshold(self, monkeypatch, inline_pools, fewer):
        """Two threads split a walk of ``POOL_MIN_SUBSETS`` subsets over a
        pool and walk one subset fewer in this process.  The walk is
        stubbed to count its ranks, here the one-subsets of a stand-in for
        a set of that many points."""
        total = counting.POOL_MIN_SUBSETS - fewer
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(counting, "_histogram_range",
                            lambda rows, r, start, stop, key: (Counter({r: stop - start}), None))
        stand_in = types.SimpleNamespace(n=total, points=[])
        hist, violation = counting._subset_histogram(stand_in, lifted_row, 1, 2, None)
        assert hist == Counter({1: total}) and violation is None
        assert [(p.max_workers, p.tasks) for p in inline_pools] == ([] if fewer else [(2, 2)])

    def test_pool_results_do_not_depend_on_start_method(self, tmp_path):
        """``count`` in a process whose pool workers are spawned, not
        forked: each worker starts with empty per-process caches (split
        primes, residue lanes).  n = 16 gives C(16, 5) = 4 368 subsets, enough
        for the pool to start."""
        import json
        import subprocess
        import sys

        import hypersphere_lab
        from hypersphere_lab.cli import run

        coset = tmp_path / "coset.json"
        assert math.comb(16, 5) >= counting.POOL_MIN_SUBSETS
        assert run(["generate", "--kind", "coset", "--d", "4", "--n", "16",
                    "-o", str(coset)]) == 0
        script = ("import multiprocessing, sys\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  "from hypersphere_lab.cli import run\n"
                  "sys.exit(run(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(hypersphere_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        spectra = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}.json"
            subprocess.run([sys.executable, "-c", script, "count", str(coset),
                            "--threads", str(threads), "-o", str(out)],
                           env=env, check=True, timeout=600)
            spectra.append(json.loads(out.read_text())["spectrum"])
        assert spectra[0] == spectra[1]
        assert spectra[0]["certified"] and spectra[0]["counts"]["6"] > 0


class TestSplitInvariance:
    """The walk over all C(n, r) ranks equals the merge of three uneven
    ranges whose cut points fall inside runs of subsets that share their
    first r-1 rows: a range may start from the levels another left in the
    set, so the result cannot depend on how the pool splits the work.  On
    interval boxes the INDETERMINATE key merges like any count."""

    @pytest.mark.parametrize("config", ["coset", "trivial", "interval"])
    def test_uneven_ranges_merge_to_the_whole_walk(self, config):
        from hypersphere_lab.constructions import (
            CosetSpec, CurveParams, coset_config, trivial_config)
        from hypersphere_lab.geometry import scaled_rows
        from hypersphere_lab.scalars import INDETERMINATE

        if config == "coset":
            ps = coset_config(CosetSpec(CurveParams.default(4), 10, 0), validate=False)
        else:
            ps = trivial_config(3, 9, seed=4)
        if config == "interval":
            ps = PointSet.build([tuple(IntervalScalar.from_fraction(c, 128) for c in p)
                                 for p in ps.points])
        rows, r = scaled_rows(ps.points), ps.dimension + 1
        subsets = list(itertools.combinations(range(ps.n), r))

        def cut(at):
            return next(c for c in range(at, len(subsets))
                        if subsets[c - 1][:r - 1] == subsets[c][:r - 1])

        cuts = [0, cut(len(subsets) // 7), cut(3 * len(subsets) // 5), len(subsets)]
        key = counting._incidence_count
        whole = counting._histogram_range(rows, r, 0, len(subsets), key)
        hist, violations = Counter(), []
        for start, stop in zip(cuts, cuts[1:]):
            part, violation = counting._histogram_range(rows, r, start, stop, key)
            hist.update(part)
            violations += [violation] if violation else []
        assert whole == (hist, min(violations, default=None))
        assert sum(hist.values()) == len(subsets)
        indeterminate = hist.pop(INDETERMINATE, 0)
        if config == "interval":
            assert indeterminate > 0
        else:
            assert indeterminate == 0 and max(hist) > r


class TestMidWalkWorker:
    """A pool worker's rank range may start in the middle of a block.  The
    values of its first block read certificates of (d+2)-sets that an
    earlier block meets first in a whole walk: on coset d=4 n=16 with
    blocks of at most 64 subsets, the second half of the walk certifies
    them without building any block before its start block, certifies no
    tuple twice, and merges with the first half to the whole walk, whose
    histogram is the set's spectrum."""

    def test_second_half_builds_no_earlier_block(self, monkeypatch):
        from hypersphere_lab import geometry
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        ps = coset_config(CosetSpec(CurveParams.default(4), 16, 0), validate=False)
        monkeypatch.setattr(geometry, "_BLOCK_SUBSETS", 64)
        total, key = math.comb(16, 5), counting._incidence_count
        start = total // 2 + 3  # a block starts at total // 2
        built, certified = [], []
        build, certify = geometry.RowSet._block, geometry._certify

        def spied_build(rows, ordered):
            block = build(rows, ordered)
            built.append(tuple(block.subsets[0].tolist()))
            return block

        def spied_certify(source, tuples):
            certified.extend(map(tuple, tuples.tolist()))
            return certify(source, tuples)

        monkeypatch.setattr(geometry.RowSet, "_block", spied_build)
        monkeypatch.setattr(geometry, "_certify", spied_certify)
        rows = geometry.scaled_rows(ps.points)
        second = counting._histogram_range(rows, 5, start, total, key)
        subsets = itertools.combinations(range(16), 5)
        start_block = next(itertools.islice(subsets, total // 2, None))
        first_subset = next(itertools.islice(subsets, start - total // 2 - 1, None))
        # the first block built is the start block, which begins before the range
        assert built[0] == start_block < first_subset and built == sorted(built)
        assert len(set(certified)) == len(certified) == len(rows.certified)
        # some six-sets are met first by a block before the start block
        assert any(six[:5] < start_block for six in certified)
        first = counting._histogram_range(geometry.scaled_rows(ps.points), 5, 0, start, key)
        whole = counting._histogram_range(geometry.scaled_rows(ps.points), 5, 0, total, key)
        assert second[1] is first[1] is whole[1] is None
        assert first[0] + second[0] == whole[0]
        # the spectrum {5: 1 386, 6: 497}, each six-point sphere seen from its six 5-subsets
        assert whole[0] == {5: 1386, 6: 6 * 497}


class TestRowSetLifetime:
    def test_no_row_set_outlives_the_spectrum(self):
        """A row set is its own source without a reference to itself, so
        reference counting frees it, its block and its certificates when
        the spectrum returns, with the cycle collector off."""
        import gc

        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config
        from hypersphere_lab.geometry import RowSet

        ps = coset_config(CosetSpec(CurveParams.default(4), 13, 0), validate=False)
        gc.collect()
        gc.disable()
        try:
            before = sum(type(o) is RowSet for o in gc.get_objects())
            spec = spectrum(ps)
            after = sum(type(o) is RowSet for o in gc.get_objects())
        finally:
            gc.enable()
        assert after == before and spec.counts == {5: 495, 6: 132}


class TestLaneCap:
    def test_huge_coordinate_stays_within_the_prime_cap(self):
        """A 1000-digit coefficient would need hundreds of split primes,
        whose Garner lift costs more than expanding the elements: the lanes
        stop at LANE_PRIME_CAP primes and the expansion over scalars decides."""
        from hypersphere_lab import geometry
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config
        from hypersphere_lab.geometry import cospherical
        from hypersphere_lab.scalars import LANE_PRIME_CAP

        coset = coset_config(CosetSpec(CurveParams.default(4), 7, 0), validate=False)
        x = coset.points[0][0]
        big = x.ctx.element([Fraction(10**1000), *x.coefficients[1:]])
        ps = PointSet.build([(big, *coset.points[0][1:]), *coset.points[1:]])
        spec = spectrum(ps)
        assert len(x.ctx._lane_tables) <= LANE_PRIME_CAP
        assert geometry.scaled_rows(ps.points).basis is None
        # the scalar expansion counts the same as cospherical on each 6-set
        sixes = sum(bool(cospherical([ps.points[i] for i in six]))
                    for six in itertools.combinations(range(ps.n), 6))
        assert spec.counts == {m: c for m, c in {5: math.comb(ps.n, 5) - 6 * sixes,
                                                 6: sixes}.items() if c}


    def test_rational_set_past_the_cap_walks_its_scalars(self):
        """Rational coordinates near 2^100 give integer rows whose bound,
        the product of the five largest row norms near 2^200 each, needs
        more than LANE_PRIME_CAP primes: the set has no basis and expands
        its scalars, and it has the spectrum of the set it scales, as a
        similarity maps spheres to spheres."""
        small = random_general_position_set(3, 8, seed=42)
        for i in (3, 5, 7):  # three points on the unit sphere, with two others
            small = PointSet.build([*small.points[:i], lift(small.points[i][:2]),
                                    *small.points[i + 1:]])
        scale = Fraction(2**100 + 1, 3)
        ps = PointSet.build([tuple(c * scale for c in p) for p in small.points])
        assert scaled_rows(small.points).basis.degree == 1
        assert scaled_rows(ps.points).basis is None
        expected = naive_sphere_spectrum(small.points)
        assert spectrum(ps).counts == spectrum(small).counts == expected


class TestZeroFromLanes:
    """Values of a coset set's lanes are zero-tested from their lanes: the
    subset walk, general position and cospherical lift nothing, and the
    callers that read values lift each cofactor tuple once."""

    @staticmethod
    def coset(n, l):
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        return coset_config(CosetSpec(CurveParams.default(4), n, l), validate=False)

    @pytest.fixture
    def lifts(self, monkeypatch):
        from hypersphere_lab.scalars import CyclotomicContext

        tally = Counter()
        lift = CyclotomicContext.from_lanes

        def counted(ctx, lanes, basis):
            tally["lifts"] += 1
            return lift(ctx, lanes, basis)

        monkeypatch.setattr(CyclotomicContext, "from_lanes", counted)
        return tally

    @pytest.mark.parametrize("n, l", [(8, 0), (12, 3)])
    def test_predicates_lift_nothing(self, n, l):
        from hypersphere_lab.constructions import residue_oracle
        from hypersphere_lab.geometry import cospherical, general_position_check

        ps = self.coset(n, l)
        with no_lifts():
            spec = spectrum(ps, threads=1)
            assert general_position_check(ps) is None
            verdicts = [cospherical([ps.points[i] for i in subset])
                        for subset in itertools.combinations(range(n), 6)]
        oracle = residue_oracle(n, 4, l)
        assert (spec.ordinary, spec.next_class) == (oracle.ordinary, oracle.dplus2)
        assert verdicts == [(sum(subset) + l) % n == 0
                            for subset in itertools.combinations(range(n), 6)]
        assert any(verdicts)

    def test_hashing_lifts_each_cofactor_tuple_once(self, lifts):
        ps = self.coset(8, 0)
        spec = spectrum_by_hashing(ps)
        assert lifts["lifts"] <= math.comb(8, 5)
        assert spec.counts == spectrum(ps).counts

    def test_hypersphere_through_lifts_once(self, lifts):
        from hypersphere_lab.geometry import hypersphere_through, incident

        points = self.coset(8, 0).points[:5]
        sphere = hypersphere_through(points)
        assert lifts["lifts"] == 1
        assert all(incident(sphere, p) for p in points)

    def test_det_lifts_once(self, lifts):
        """A determinant of a view is zero-tested with no lift, and reading
        its value twice lifts it once."""
        view = scaled_rows(self.coset(8, 0).points).take(range(1, 7))
        want = laplace_det([list(row) for row in view])
        value = det(view)
        assert scalars.is_zero(value) is False and lifts["lifts"] == 0
        assert value == want and hash(value) == hash(want) and lifts["lifts"] == 1


class TestIntervalMode:
    def test_non_certified_run_counts_indeterminates(self):
        exact = sphere_plus_point_config(3, 5, seed=7)
        boxes = [
            tuple(IntervalScalar.from_fraction(c, 128) for c in p) for p in exact.points
        ]
        ps = PointSet.build(boxes)
        spec = spectrum(ps)
        assert not spec.certified
        # the carrier sphere's C(5,4) defining subsets cannot certify their
        # fifth incidence; everything else is certified ordinary
        assert spec.indeterminate_count == math.comb(5, 4)
        assert spec.counts == {4: 10}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_indeterminate_key_survives_the_pool(self, threads):
        """C(12, 4) = 495 subsets reach the pool at two threads: the
        INDETERMINATE key of each worker's histogram is the one singleton
        after pickling, so the counts merge as in the serial walk."""
        from hypersphere_lab.constructions import trivial_config

        exact = trivial_config(3, 12, seed=2)
        ps = PointSet.build([tuple(IntervalScalar.from_fraction(c, 128) for c in p)
                             for p in exact.points])
        spec = spectrum(ps, threads=threads)
        assert spec.counts == {4: 165} and spec.indeterminate_count == 330

    def test_preconditions(self):
        from hypersphere_lab.errors import DomainError

        ps = random_general_position_set(3, 4, seed=0)
        with pytest.raises(DomainError):
            spectrum(ps)


class TestBenchmarkContract:
    """The names the benchmark harness (``perfbench/``) patches and calls, and
    the call counts its traced run checks against closed expressions."""

    def test_names_the_benchmark_reaches(self):
        import inspect

        from hypersphere_lab import constructions, geometry, scalars

        assert counting.maximal_cofactors is geometry.maximal_cofactors
        assert counting.is_zero is scalars.is_zero
        assert counting.lift_set is geometry.lift_set
        assert callable(counting.unrank_combination)
        for name in ("spectrum", "ordinary_hyperplane_spectrum", "verify_correspondence"):
            assert callable(getattr(counting, name))
        assert constructions.spectrum is counting.spectrum
        assert constructions.general_position_check is geometry.general_position_check
        assert "validate" in inspect.signature(constructions.coset_config).parameters
        assert "seed" in inspect.signature(constructions.trivial_config).parameters
        assert isinstance(constructions.CurveParams.__dict__["default"], classmethod)
        for name in ("CosetSpec", "residue_oracle", "residue_oracle_scan",
                     "closed_form_counts", "compare_report"):
            assert callable(getattr(constructions, name))
        assert callable(geometry.lifted_row)
        assert isinstance(geometry.PointSet.__dict__["from_json"], classmethod)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            assert callable(scalars.CycloElement.__dict__[name])

    @pytest.fixture
    def calls(self, monkeypatch):
        tally = Counter()
        cofactors, zero_test = counting.maximal_cofactors, counting.is_zero

        def counted_cofactors(rows, *rest):
            tally["subsets"] += 1
            return cofactors(rows, *rest)

        def counted_zero_test(value):
            verdict = zero_test(value)
            tally["tests"] += 1
            tally["hits"] += verdict is True
            return verdict

        monkeypatch.setattr(counting, "maximal_cofactors", counted_cofactors)
        monkeypatch.setattr(counting, "is_zero", counted_zero_test)
        return tally

    @staticmethod
    def closed_expressions(spec):
        n, r = spec.n, spec.subset_size
        return Counter(
            subsets=math.comb(n, r),
            tests=math.comb(n, r) * (n - r),
            hits=sum(nm * math.comb(m, r) * (m - r) for m, nm in spec.counts.items()),
        )

    @pytest.mark.parametrize("config", ["trivial", "coset"])
    @pytest.mark.parametrize("mode", ["sphere", "lifted_plane"])
    def test_one_cofactor_call_per_subset_one_test_per_incidence(self, calls, config, mode):
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        if config == "trivial":
            ps = sphere_plus_point_config(3, 8, seed=2)
        else:
            ps = coset_config(CosetSpec(CurveParams.default(4), 8, 0), validate=False)
        if mode == "sphere":
            spec = spectrum(ps, threads=1)
        else:
            spec = ordinary_hyperplane_spectrum(lift_set(ps), threads=1)
        assert max(spec.counts) > spec.subset_size  # some test answers True
        assert calls == self.closed_expressions(spec)
