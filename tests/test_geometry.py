import functools
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_lifts
from oracles import gaussian_rank, laplace_det, reference_cofactors

from hypersphere_lab.errors import ConductorError, DegeneracyError, DomainError, PoleError
from hypersphere_lab.geometry import (
    Hypersphere,
    PointSet,
    as_point,
    complement_values,
    cospherical,
    det,
    general_position_check,
    hypersphere_through,
    incidence_values,
    incident,
    invert,
    lift,
    lift_set,
    invert_set,
    lifted_row,
    maximal_cofactors,
    project,
    scaled_rows,
)
from hypersphere_lab.scalars import (
    INDETERMINATE,
    CycloElement,
    IntervalScalar,
    get_context,
    is_zero,
    scalar_to_json,
)

small_fraction = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def assert_decides(got, want, basis):
    """Incidence values against a view of the cofactors' own lane set are
    Python ints that decide each test: zero iff the exact value is, and
    equal to its filter residue where that is nonzero."""
    assert len(got) == len(want)
    for entry, value in zip(got, want):
        assert type(entry) is int and (entry == 0) == (value == 0)
        residue = int(value.ctx.to_lanes([value], basis)[0, 0, 0])
        if residue:
            assert entry == residue


def rational_points(d, n):
    return st.lists(
        st.tuples(*([small_fraction] * d)), min_size=n, max_size=n, unique=True
    )


class TestDeterminant:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*([small_fraction] * 4)), min_size=4, max_size=4))
    def test_matches_laplace_expansion(self, rows):
        assert det(rows) == laplace_det([list(r) for r in rows])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(*([small_fraction] * 5)), min_size=4, max_size=4))
    def test_cofactor_expansion_identity(self, rows):
        cof = maximal_cofactors(rows)
        for probe in rows:
            total = sum(a * b for a, b in zip(probe, cof))
            assert total == 0  # every defining row satisfies its own surface
        extra = tuple(Fraction(i + 1, 3) for i in range(5))
        assert det([list(extra)] + [list(r) for r in rows]) == sum(
            a * b for a, b in zip(extra, cof)
        )

    def test_determinant_on_cyclotomic_entries(self):
        ctx = get_context(12)
        z = ctx.zeta_power
        rows = [[z(1), z(2)], [z(3), z(4)]]
        assert det(rows) == z(5) - z(5) + z(1) * z(4) - z(2) * z(3)


class TestLaneKernel:
    """Cyclotomic minors in split-prime lanes against per-scalar Laplace
    expansion."""

    @staticmethod
    def random_rows(ctx, rng, count, width, bits):
        def element():
            den = rng.randint(1, 12)
            return ctx.element([Fraction(rng.randint(-2**bits, 2**bits), den)
                                if rng.random() < 0.8 else 0 for _ in range(ctx.degree)])

        return [tuple(element() for _ in range(width)) for _ in range(count)]

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b
            assert hash(a) == hash(b)
            assert scalar_to_json(a) == scalar_to_json(b)
            again = pickle.loads(pickle.dumps(a))
            assert again == b and hash(again) == hash(b)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([8, 12, 20, 52, 156]),
        st.integers(2, 3),
        st.sampled_from([3, 20]),
        st.sampled_from(["generic", "repeated_row", "sum_of_rows"]),
        st.randoms(use_true_random=False),
    )
    def test_matches_per_scalar_expansion(self, conductor, k, bits, shape, rng):
        ctx = get_context(conductor)
        rows = self.random_rows(ctx, rng, k + 2, k + 1, bits)
        if shape == "repeated_row":
            rows[k - 1] = rows[0]
        elif shape == "sum_of_rows":
            rows[k - 1] = tuple(a + b for a, b in zip(rows[0], rows[k - 2]))
        # views of a scaled_rows set take its lanes: their cofactors carry them
        lane_set = scaled_rows(rows, row=tuple)
        cof = self.check(lane_set.take(range(k)), lane_set.take(range(k, k + 2)), shape)
        assert cof.view.source is lane_set and lane_set.basis is not None
        assert cof.view.lanes().shape[0] == k + 1
        # plain rows are expanded over their own elements
        cof = self.check(rows[:k], rows[k:], shape)
        assert type(cof) is tuple and not hasattr(cof, "view")

    def check(self, rows, others, shape):
        want_cof = reference_cofactors(rows)
        want_values = [laplace_det([list(x)] + [list(r) for r in rows]) for x in others]
        # every zero test is decided before any value is read, and lifts nothing
        with no_lifts():
            cof = maximal_cofactors(rows)
            values = incidence_values(cof, others)
            for got, want in zip([*cof, *values], [*want_cof, *want_values]):
                assert is_zero(got) is (want == 0)
        if shape != "generic":
            assert all(want == 0 for want in want_cof + want_values)
        self.assert_same(cof, want_cof)
        if isinstance(rows, list):
            self.assert_same(values, want_values)
        else:
            assert_decides(values, want_values, rows.basis)
        assert incidence_values(cof, []) == []
        return cof

    def test_multiple_of_the_first_prime_is_nonzero(self):
        """A value that is 0 modulo the basis's first prime but not modulo
        the others is nonzero: the zero test reads every prime's lanes."""
        ctx = get_context(20)
        p = ctx.lane_basis(1).primes[0]
        zero, one = ctx.zero(), ctx.one()
        rows = scaled_rows([(ctx.from_rational(p), zero, zero), (zero, one, zero),
                            (zero, zero, one)], row=tuple)
        assert rows.basis.primes[0] == p and len(rows.basis.primes) > 1
        with no_lifts():
            value = det(rows)
            cof = maximal_cofactors(rows.take([0, 1]))
            [incidence] = incidence_values(cof, rows.take([2]))
            assert is_zero(value) is False and is_zero(incidence) is False
            assert [is_zero(c) for c in cof] == [True, True, False]
        assert value == p and incidence == 1 and list(cof) == [0, 0, p]

    def test_denominator_divisible_by_a_lane_prime(self):
        ctx = get_context(20)
        prime = ctx.lane_basis(1).primes[0]
        rows = self.random_rows(ctx, random.Random(5), 4, 4, 8)
        rows[0] = (rows[0][0] * Fraction(1, prime),) + rows[0][1:]
        cof = maximal_cofactors(rows[:3])
        self.assert_same(cof, reference_cofactors(rows[:3]))
        self.assert_same(incidence_values(cof, rows[3:]),
                         [laplace_det([list(rows[3])] + [list(r) for r in rows[:3]])])

    def test_pickled_rows_stay_one_set(self):
        """Pool workers receive the set pickled: its rows, grid and basis,
        without its last block (key, subsets, filter table, row dict and
        decided values), the keys of its certified blocks or its zero
        certificates, so a worker's cofactors still run in the set's lanes.
        Its C(5, 3) = 10 cofactor views are one block, of the empty
        prefix."""
        ctx = get_context(20)
        rows = scaled_rows(self.random_rows(ctx, random.Random(3), 5, 4, 8), row=tuple)
        cof = maximal_cofactors(rows.take(range(3)))
        [repeated] = incidence_values(cof, rows.take([1]))
        assert is_zero(repeated) is True
        assert rows.certify_zero((0, 1, 2, 3)) is False
        assert rows.block.key == (3, ()) and len(rows.block.rows) == 10
        assert rows.batched == {(3, ())}
        assert rows.certified == {(0, 1, 1, 2): True, (0, 1, 2, 3): False}
        assert complement_values(cof, rows, (0, 1, 2)) == incidence_values(
            cof, rows.take([3, 4]))
        assert rows.block.decided is not None
        again = pickle.loads(pickle.dumps(rows))
        assert (again.block.key, again.block.table, again.block.rows) == ((), None, {})
        assert again.block.decided is None
        assert again.batched == set() and again.certified == {}
        assert again.source is again and again.indices == rows.indices
        assert again.basis is not None and again.basis.primes == rows.basis.primes
        assert again == rows and (again.grid == rows.grid).all()
        assert (again._filter == rows._filter).all() and again.prime == rows.prime
        cof_again = maximal_cofactors(again.take(range(3)))
        assert cof_again.view.source is again
        assert again.block.key == (3, ()) and (again.block.table == rows.block.table).all()
        assert again.block.rows == rows.block.rows
        assert (again.block.subsets == rows.block.subsets).all()
        assert cof_again == cof
        assert incidence_values(cof_again, again.take([3, 4])) == incidence_values(
            cof, rows.take([3, 4]))


class TestLaneSetSoundness:
    """The lane bound is proved per ``scaled_rows`` set: values of views of
    one set run in its lanes, and everything that leaves the set (rows of
    two sets, cofactors used as a row, cofactors against another set's
    view) is expanded over its elements.  One row of each set is large, so a value
    that took lanes outside its set's bound would lift wrongly."""

    @staticmethod
    def lane_set(ctx, rng, k, big_bits, big_index):
        def row(bits):
            return tuple(ctx.element([rng.randint(-2**bits, 2**bits) for _ in range(ctx.degree)])
                         for _ in range(k + 1))

        rows = [row(big_bits if i == big_index else 3) for i in range(k + 2)]
        return rows, scaled_rows(rows, row=tuple)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([8, 12, 20]),
        st.integers(2, 3),
        st.sampled_from([2, 100]),
        st.sampled_from([2, 100]),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 2**32),
    )
    def test_values_match_per_scalar_expansion(self, conductor, k, bits_a, bits_b,
                                               big_a, big_b, seed):
        ctx = get_context(conductor)
        rng = random.Random(seed)  # full-size coefficients, not shrunk ones
        plain_a, set_a = self.lane_set(ctx, rng, k, bits_a, big_a % (k + 2))
        plain_b, set_b = self.lane_set(ctx, rng, k, bits_b, big_b % (k + 2))

        def laplace(rows):
            return laplace_det([list(r) for r in rows])

        # one set: det, cofactors and incidence values
        assert det(set_a.take(range(k + 1))) == laplace(plain_a[:k + 1])
        cof = maximal_cofactors(set_a.take(range(k)))
        assert cof.view.source is set_a and set_a.basis is not None
        assert list(cof) == reference_cofactors(plain_a[:k])
        assert_decides(incidence_values(cof, set_a.take(range(k, k + 2))),
                       [laplace([x, *plain_a[:k]]) for x in plain_a[k:]], set_a.basis)
        # rows of two sets
        mixed = [set_a[i] if i % 2 else set_b[i] for i in range(k + 1)]
        plain = [plain_a[i] if i % 2 else plain_b[i] for i in range(k + 1)]
        assert det(mixed) == laplace(plain)
        # the cofactor tuple used as a row
        assert det([cof, *set_a[:k]]) == laplace([tuple(cof), *plain_a[:k]])
        assert det([*set_a[1:k + 1], cof]) == laplace([*plain_a[1:k + 1], tuple(cof)])
        # cofactors of one set against a view of another
        assert set_b.basis is not None
        assert incidence_values(cof, set_b.take(range(k + 2))) == [
            laplace([x, *plain_a[:k]]) for x in plain_b]


class TestFilterLane:
    """A lane set tests each value in its filter lane, lane 0 of its basis's
    first prime.  A nonzero residue there proves the value nonzero; a zero
    one is certified in every lane, once per (d+2)-set of the set."""

    def test_value_zero_in_the_filter_lane_only_is_nonzero(self):
        """det [[z, w], [1, 1]] = z - w with w the root that z maps to in
        the filter lane: its filter residue is 0, its value is not."""
        ctx = get_context(20)
        z, one = ctx.zeta_power(1), ctx.one()
        basis = ctx.lane_basis(1)
        w = ctx.from_rational(int(ctx.to_lanes([z], basis)[0, 0, 0]))
        rows = scaled_rows([(z, w), (one, one)], row=tuple)
        assert rows.prime == basis.primes[0] and rows._filter[0, 0] == rows._filter[0, 1]
        with no_lifts():
            value = det(rows)
            cof = maximal_cofactors(rows.take([0]))
            [incidence] = incidence_values(cof, rows.take([1]))
            assert is_zero(value) is False and is_zero(incidence) is False
        assert value == z - w and incidence == 1

    @pytest.mark.parametrize("n, l, spheres", [(12, 3, 80), (13, 0, 132)])
    def test_one_certificate_per_sphere(self, monkeypatch, n, l, spheres):
        """Coset sets have no false filter candidates, so the batches of a
        spectrum certify each (d+2)-point sphere once and nothing else, and
        no view expands its own lanes."""
        from hypersphere_lab import geometry
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config
        from hypersphere_lab.counting import spectrum

        ps = coset_config(CosetSpec(CurveParams.default(4), n, l), validate=False)
        certified, expansions = [], []
        certify, lanes = geometry._certify, geometry.RowSet.lanes

        def counted_certify(source, tuples):
            verdicts = certify(source, tuples)
            certified.extend(zip(map(tuple, tuples.tolist()), verdicts.tolist()))
            return verdicts

        def counted_lanes(view):
            expansions.append(view.indices)
            return lanes(view)

        monkeypatch.setattr(geometry, "_certify", counted_certify)
        monkeypatch.setattr(geometry.RowSet, "lanes", counted_lanes)
        with no_lifts():
            spec = spectrum(ps, threads=1)
        assert spec.next_class == spheres and max(spec.counts) == 6
        assert len(certified) == len(dict(certified)) == spheres and expansions == []
        assert all(len(six) == 6 and verdict is True for six, verdict in certified)


class TestLaneClasses:
    """A lane set keeps one lane of each class of lanes that are equal in
    all its entries, per prime, and maps every lane back to its class:
    values expanded on the classes equal the full-lane values, and lift to
    the exact values."""

    @staticmethod
    def element(ctx, rng, field):
        if field == "rational":
            return ctx.from_rational(rng.randint(-9, 9))
        if field == "real":  # the fixed field of complex conjugation
            return sum(((ctx.zeta_power(k) + ctx.zeta_power(-k)) * rng.randint(-9, 9)
                        for k in range(ctx.conductor // 2)), ctx.zero())
        return ctx.element([rng.randint(-9, 9) for _ in range(ctx.degree)])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([8, 12, 20]),
        st.integers(2, 3),
        st.lists(st.sampled_from(["generic", "real", "rational"]), min_size=5, max_size=5),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_class_expansion_equals_the_full_lanes(self, conductor, k, fields, scaled, seed):
        ctx = get_context(conductor)
        rng = random.Random(seed)  # full-size coefficients, not shrunk ones
        first = ctx.lane_basis(1).primes[0]
        # entries that are multiples of the first prime make its lanes one
        # class, so that the primes have different class counts
        rows = scaled_rows([tuple(self.element(ctx, rng, field) * (first if scaled else 1)
                                  for _ in range(k + 1)) for field in fields[:k + 2]], row=tuple)
        basis, degree = rows.basis, ctx.degree
        assert basis.primes[0] == first
        full = ctx.to_lanes([e for row in rows for e in row], basis).reshape(
            k + 2, k + 1, len(basis.primes), degree)
        counts = []
        for i, classes in enumerate(rows.classes):
            columns = full[:, :, i].reshape(-1, degree)
            for a, b in itertools.product(range(degree), repeat=2):
                assert (classes[a] == classes[b]) == (columns[:, a] == columns[:, b]).all()
            assert (rows.grid[:, :, i][..., classes] == full[:, :, i]).all()
            counts.append(len(set(classes)))
        assert rows.grid.shape == (k + 2, k + 1, len(basis.primes), max(counts))
        if scaled:
            assert counts[0] == 1
        for count in counts[scaled:]:
            assert count == degree if "generic" in fields[:k + 2] else count < degree
        for indices in (range(k), range(2, k + 2), range(k + 1), range(1, k + 2)):
            view, exact = rows.take(indices), [rows[i] for i in indices]
            want = [laplace_det(exact)] if len(exact) == k + 1 else reference_cofactors(exact)
            lanes = view.lanes()
            assert lanes.shape == (len(want), len(basis.primes), max(counts))
            assert (np.take_along_axis(lanes, rows.classes[None], axis=2)
                    == ctx.to_lanes(want, basis)).all()
            assert view.lifted() == want
        assert rows.certify_zero(tuple(range(1, k + 2))) is (laplace_det(list(rows[1:])) == 0)

    @pytest.mark.parametrize("n, l, classes, degree, spheres",
                             [(12, 3, 4, 24, 80), (13, 0, 12, 48, 132)])
    def test_coset_classes_and_pickled_certificates(self, n, l, classes, degree, spheres):
        """Coset entries lie in a small subfield.  An unpickled set keeps
        the classes and certifies every six-set as the original does: the
        zero six-sets are the six-point spheres."""
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        ps = coset_config(CosetSpec(CurveParams.default(4), n, l), validate=False)
        rows = scaled_rows(ps.points)
        primes = len(rows.basis.primes)
        assert rows.classes.shape == (primes, degree) and rows.grid.shape[2:] == (primes, classes)
        assert [len(set(c)) for c in rows.classes] == [classes] * primes
        sixes = list(itertools.combinations(range(n), 6))
        verdicts = [rows.certify_zero(six) for six in sixes]
        assert sum(verdicts) == spheres
        again = pickle.loads(pickle.dumps(rows))
        assert again.walk == ((), ()) and again.certified == {}
        assert (again.classes == rows.classes).all() and (again.grid == rows.grid).all()
        assert (again._filter == rows._filter).all()
        assert [again.certify_zero(six) for six in sixes] == verdicts


class TestCertificatePrefix:
    """A tuple is certified in the batch of its block's zero candidates or
    as a batch of one, and a cofactor view expands its own lanes once,
    without a walk.  Index tuples with shared, reordered and fresh
    prefixes, cofactor views and another set's certificates in between:
    every verdict and cofactor equals the exact one, each tuple is expanded
    once, and the set's ``walk`` stays empty."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([8, 12, 20]),
        st.integers(2, 3),
        st.integers(0, 2**32),
        st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 4), st.booleans(),
                           st.lists(st.integers(0, 99), min_size=4, max_size=4)),
                 max_size=12),
    )
    def test_verdicts_match_the_exact_determinant(self, conductor, k, seed, steps):
        from hypersphere_lab import geometry

        ctx = get_context(conductor)
        rng = random.Random(seed)  # full-size coefficients, not shrunk ones
        width, n = k + 1, k + 5
        sets = []
        for _ in range(2):
            plain = [tuple(ctx.element([rng.randint(-2**bits, 2**bits) for _ in range(ctx.degree)])
                           for _ in range(width)) for bits in [3, 60, *[3] * (n - 3)]]
            plain.append(tuple(a + b for a, b in zip(plain[0], plain[1])))
            sets.append((plain, scaled_rows(plain, row=tuple)))
        first = tuple(range(width))
        dependent = first[:-1] + (n - 1,)  # holds rows 0, 1 and their sum
        script = [
            (0, first),
            (0, dependent),  # zero, sharing every index but the last
            (0, first[:-1] + (n - 2,)),  # nonzero, sharing the zero one's prefix
            (0, (1, 0) + first[2:]),  # a reordered prefix
            (1, dependent),  # the other set
            (0, (n - 1, 0, 1, 2)[:width]),  # a fresh prefix
            (0, (n - 1, 0, 1, 3)[:k]),  # cofactors of a view
            (0, (n - 1, 0, 1, 3)[:width]),
            (0, (2,) * width),  # a repeated index
        ]
        last = [script[-1][1], dependent]
        for other, cofactors, shared, reorder, picks in steps:
            prefix = last[other][:shared]
            indices = (prefix[::-1] if reorder else prefix) + tuple(i % n for i in picks)
            script.append((int(other), indices[:k if cofactors else width]))
            last[other] = script[-1][1]
        batches, expansions = [], []
        certify, prefix_minors = geometry._certify, geometry._prefix_minors

        def recorded(source, tuples):
            batches.append(tuple(map(tuple, tuples.tolist())))
            return certify(source, tuples)

        def expanded(entries, tuples, width, modulus):
            expansions.append(tuple(map(tuple, tuples.tolist())))
            return prefix_minors(entries, tuples, width, modulus)

        with mock.patch.object(geometry, "_certify", recorded), \
                mock.patch.object(geometry, "_prefix_minors", expanded):
            for which, indices in script:
                plain, rows = sets[which]
                exact = [plain[i] for i in indices]
                if len(indices) == k:
                    view = rows.take(indices)
                    expansions.clear()
                    assert view.lifted() == reference_cofactors(exact)
                    assert view.lanes() is view.lanes()
                    assert expansions == [(indices,)] and rows.walk == ((), ())
                    continue
                fresh = indices not in rows.certified
                batches.clear()
                assert rows.certify_zero(indices) is (laplace_det(exact) == 0)
                if fresh:
                    assert [batch.count(indices) for batch in batches if indices in batch] == [1]
                else:
                    assert batches == []


class TestBatchedCertificates:
    """A block's zero candidates, the pairs (S, i) with i > max(S) whose
    incidence residue is 0, are certified in batches of at most
    ``_BATCH_TUPLES`` tuples that share their prefixes.  Sets with planted
    dependent rows and rows that are dependent in the filter lane only,
    walked subset by subset as a spectrum walks them, with small blocks
    (keyed by prefixes of two or more indices) or one block of the whole
    walk, and small batches: every batch tuple is sorted, none is
    certified twice, and every verdict equals the exact determinant's."""

    @staticmethod
    def planted(conductor, k, seed):
        """k + 5 random rows of width k + 1 with planted zeros, and their
        lane set: every (k+1)-set holding rows 0, 1 and 2 is zero, and every
        one holding rows 3, 4 and n-1 is zero in the filter lane only."""
        ctx = get_context(conductor)
        rng = random.Random(seed)  # full-size coefficients, not shrunk ones
        width, n = k + 1, k + 5
        plain = [tuple(ctx.element([rng.randint(-9, 9) for _ in range(ctx.degree)])
                       for _ in range(width)) for _ in range(n - 2)]
        plain.insert(2, tuple(a + b for a, b in zip(plain[0], plain[1])))
        # z - w with w the root that z maps to in the filter lane (see TestFilterLane)
        z = ctx.zeta_power(1)
        basis = ctx.lane_basis(1)
        w = ctx.from_rational(int(ctx.to_lanes([z], basis)[0, 0, 0]))
        plain.append((plain[3][0] + plain[4][0] + z - w,
                      *(a + b for a, b in zip(plain[3][1:], plain[4][1:]))))
        rows = scaled_rows(plain, row=tuple)
        assert rows.prime == basis.primes[0]
        return plain, rows

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([8, 12, 20]),
        st.integers(2, 4),
        st.sampled_from([1, 3, 4096]),
        st.sampled_from([1, 2, 5, 256]),
        st.integers(0, 2**32),
    )
    def test_batch_verdicts_match_the_exact_determinant(self, conductor, k, block, batch, seed):
        from hypersphere_lab import geometry

        plain, rows = self.planted(conductor, k, seed)
        n = len(plain)
        certified, prefixes = [], set()
        certify = geometry._certify

        def recorded(source, tuples):
            assert source is rows and len(tuples) <= batch
            verdicts = certify(source, tuples)
            certified.extend(zip(map(tuple, tuples.tolist()), verdicts.tolist()))
            return verdicts

        with mock.patch.object(geometry, "_BLOCK_SUBSETS", block), \
                mock.patch.object(geometry, "_BATCH_TUPLES", batch), \
                mock.patch.object(geometry, "_certify", recorded):
            for subset in itertools.combinations(range(n), k):
                cof = maximal_cofactors(rows.take(subset))
                prefixes.add(rows.block.key[1])
                others = [i for i in range(n) if i not in subset]
                for i, value in zip(others, incidence_values(cof, rows.take(others))):
                    if not value:
                        assert rows.certified[tuple(sorted((*subset, i)))] is True
        if block == 1:
            assert max(map(len, prefixes)) >= 2
        zeros = 0
        for indices, verdict in certified:
            assert list(indices) == sorted(set(indices))
            assert verdict is (laplace_det([plain[i] for i in indices]) == 0)
            zeros += verdict
        assert len(dict(certified)) == len(certified)
        assert zeros == math.comb(n - 3, k - 2) and len(certified) >= 2 * zeros


class TestDecidedComplements:
    """A lane set's block decides the incidence values of each of its
    subsets against every row outside it, the first time a walk asks for
    them: the filter residue, or where that is 0, whether the sorted
    (k+1)-set is certified nonzero.  The planted sets of
    ``TestBatchedCertificates``, walked subset by subset as a spectrum
    walks them, with blocks of one subset, of three, or of the whole walk,
    and batches of any size: each subset's values are read from its block,
    equal ``incidence_values`` against a view of the rows outside it on a
    second copy of the set, and are zero exactly where the exact
    determinant is."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([8, 12, 20]),
        st.integers(2, 4),
        st.sampled_from([1, 3, 4096]),
        st.sampled_from([1, 2, 5, 256]),
        st.integers(0, 2**32),
    )
    def test_decided_values_match_the_reference(self, conductor, k, block, batch, seed):
        from hypersphere_lab import geometry

        plain, rows = TestBatchedCertificates.planted(conductor, k, seed)
        reference = scaled_rows(plain, row=tuple)
        n, zeros, keys = len(plain), 0, set()

        @functools.lru_cache(maxsize=None)
        def exact_zero(indices):
            return laplace_det([plain[i] for i in indices]) == 0

        with mock.patch.object(geometry, "_BLOCK_SUBSETS", block), \
                mock.patch.object(geometry, "_BATCH_TUPLES", batch):
            for subset in itertools.combinations(range(n), k):
                cof = maximal_cofactors(rows.take(subset))
                got = complement_values(cof, rows, subset)
                assert subset in rows.block.rows and rows.block.decided is not None
                keys.add(rows.block.key)
                others = [i for i in range(n) if i not in subset]
                assert got == incidence_values(maximal_cofactors(reference.take(subset)),
                                               reference.take(others))
                exact = [exact_zero(tuple(sorted((*subset, i)))) for i in others]
                assert [value == 0 for value in got] == exact
                zeros += got.count(0)
        assert len(keys) == 1 if block == 4096 else len(keys) > 1
        # each zero (k+1)-set holds rows 0, 1 and 2, and is seen from its k+1 subsets
        assert zeros == (k + 1) * math.comb(n - 3, k - 2)


class TestViewCache:
    """A view of a set with no basis reuses the levels of the longest index
    prefix it shares with the last expanded view of its set; a lane set
    never walks.  Index tuples with shared, reordered and fresh prefixes,
    views of a second set in between, and det of square views: every
    result equals a fresh set's result and the per-scalar reference.
    Capped sets, cyclotomic rows whose bound needs more than LANE_PRIME_CAP
    primes, have no basis and expand their elements."""

    @staticmethod
    def rows(kind, ctx, rng, n, width):
        """(rows given to ``scaled_rows``, exact rows for the reference)."""
        if kind in ("cyclo", "capped"):
            rows = [tuple(ctx.element([rng.randint(-2**bits, 2**bits) for _ in range(ctx.degree)])
                          for _ in range(width))
                    for bits in [3, 100, *[3] * (n - 2)]]
            if kind == "capped":  # one coefficient near 2^300 per row
                rows = [(row[0] + rng.randint(2**299, 2**300), *row[1:]) for row in rows]
            return rows, rows
        if kind == "int":
            rows = [tuple(rng.randint(-2**20, 2**20) for _ in range(width)) for _ in range(n)]
            return rows, rows
        exact = [tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(width))
                 for _ in range(n)]
        return [tuple(IntervalScalar.from_fraction(e, 128) for e in row) for row in exact], exact

    @staticmethod
    def check(kind, given, exact, rowset, indices):
        """Cofactors of a k-row view, or det of a square one.  A set with no
        basis walks: it keeps the cached levels of the prefix the view
        shares with the last one.  A lane set never walks."""
        rows = [exact[i] for i in indices]
        walked, levels = rowset.walk
        shared = next(s for s in range(len(indices), -1, -1) if indices[:s] == walked[:s])
        fresh = scaled_rows(given, row=tuple).take(indices)
        if len(indices) == len(exact[0]):
            got, again = [det(rowset.take(indices))], [det(fresh)]
            want = [laplace_det([list(r) for r in rows])]
        else:
            got = list(maximal_cofactors(rowset.take(indices)))
            again, want = list(maximal_cofactors(fresh)), reference_cofactors(rows)
        if kind == "interval":
            assert [(c.lo, c.hi) for c in got] == [(c.lo, c.hi) for c in again]
            assert all(c.lo <= w <= c.hi for c, w in zip(got, want))
        else:
            assert got == again == want
            assert [is_zero(c) for c in got] == [w == 0 for w in want]
        if kind == "cyclo":
            assert rowset.walk == ((), ())
        else:
            assert rowset.walk[0] == indices
            assert all(a is b for a, b in zip(rowset.walk[1][:shared], levels[:shared]))

    @settings(max_examples=54, deadline=None)  # 40 examples over three kinds, scaled to four
    @given(
        st.sampled_from(["cyclo", "int", "interval", "capped"]),
        st.sampled_from([8, 12, 20]),
        st.integers(2, 3),
        st.integers(0, 2**32),
        st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 4), st.booleans(),
                           st.lists(st.integers(0, 99), min_size=4, max_size=4)),
                 max_size=12),
    )
    def test_views_match_a_fresh_set_and_the_reference(self, kind, conductor, k, seed, steps):
        ctx = get_context(conductor)
        rng = random.Random(seed)  # full-size coefficients, not shrunk ones
        n = k + 3
        sets = []
        for _ in range(2):
            given, exact = self.rows(kind, ctx, rng, n, k + 1)
            sets.append((given, exact, scaled_rows(given, row=tuple)))
        assert all((rowset.basis is not None) is (kind == "cyclo") for *_, rowset in sets)
        first = tuple(range(k))
        script = [
            (0, first),
            (0, first),  # every index shared
            # a shared prefix of every length k-1 .. 0, the last differing at the first index
            *[(0, first[:p] + tuple(range(p + 1, k + 1))) for p in range(k - 1, -1, -1)],
            (0, first),
            (1, first),  # the same indices in the second set
            (0, (1, 0) + first[2:]),  # the same prefix in another order
            (0, first + (k + 1,)),  # det of a square view after cofactors
            (0, first[:-1] + (k + 2,)),
            (0, (k + 2,) * k),  # a repeated index
        ]
        last = [(k + 2,) * k, first]
        for other, square, shared, reorder, picks in steps:
            prefix = last[other][:shared]
            indices = (prefix[::-1] if reorder else prefix) + tuple(i % n for i in picks)
            script.append((int(other), indices[:k + square]))
            last[other] = script[-1][1]
        for which, indices in script:
            self.check(kind, *sets[which], indices)


class TestBlockTables:
    """A lane set reads the filter residues of a view from the table of its
    block: the k-subsets that share a leading index prefix.  Lexicographic
    walks across block boundaries, permuted views, views with a repeated
    index, determinants of square views with the same prefix as cofactor
    views, and a second set's views in between: every residue and verdict
    equals the per-scalar reference, for any block size."""

    @staticmethod
    def check(plain, rows, indices):
        """Cofactors of a k-row view and their incidence values, or det of a
        square view, against the reference."""
        basis, n = rows.basis, len(plain)
        exact = [plain[i] for i in indices]

        def residue(value):
            return int(value.ctx.to_lanes([value], basis)[0, 0, 0])

        if len(indices) == len(plain[0]):
            value, want = det(rows.take(indices)), laplace_det(exact)
            assert value._residue == residue(want) and is_zero(value) is (want == 0)
            return
        cof, want = maximal_cofactors(rows.take(indices)), reference_cofactors(exact)
        assert [c._residue for c in cof] == [residue(w) for w in want]
        assert [is_zero(c) for c in cof] == [w == 0 for w in want]
        others = (indices[0], (indices[-1] + 1) % n, n - 1)
        assert_decides(incidence_values(cof, rows.take(others)),
                       [laplace_det([plain[x], *exact]) for x in others], basis)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([8, 12, 20]),
        st.integers(2, 4),
        st.sampled_from([1, 3, 4096]),
        st.integers(0, 2**32),
        st.lists(st.tuples(st.booleans(), st.sampled_from(["walk", "det", "permuted", "repeated"]),
                           st.integers(0, 10**6), st.integers(1, 3)),
                 max_size=6),
    )
    def test_residues_match_the_reference(self, conductor, k, block, seed, steps):
        from hypersphere_lab import geometry

        ctx = get_context(conductor)
        rng = random.Random(seed)  # full-size coefficients, not shrunk ones
        width, n = k + 1, k + 4
        sets = []
        for _ in range(2):
            plain = [tuple(ctx.element([rng.randint(-9, 9) for _ in range(ctx.degree)])
                           for _ in range(width)) for _ in range(n - 1)]
            plain.insert(2, tuple(a + b for a, b in zip(plain[0], plain[1])))  # a zero
            sets.append((plain, scaled_rows(plain, row=tuple)))
        cofactor_views = list(itertools.combinations(range(n), k))
        square_views = list(itertools.combinations(range(n), width))
        # across the end of the first leading index's subsets, in both sets,
        # then a square view and a cofactor view that share a prefix
        first = math.comb(n - 1, k - 1)
        script = [(0, "walk", first - 2, 3), (1, "walk", first - 2, 3), (0, "walk", first + 1, 1),
                  (0, "det", 0, 1), (0, "walk", 0, 1), (0, "permuted", 0, 1),
                  (0, "repeated", 0, 1), *steps]
        with mock.patch.object(geometry, "_BLOCK_SUBSETS", block):
            for which, kind, start, count in script:
                plain, rows = sets[which]
                views = square_views if kind == "det" else cofactor_views
                start %= len(views)
                picked = views[start:start + count]
                if kind == "permuted":  # the first two swapped, then rotated
                    picked = [(view[1], view[0], *view[2:]) for view in picked]
                    picked = [view[start % k:] + view[:start % k] for view in picked]
                elif kind == "repeated":
                    picked = [view[:-1] + (view[start % (k - 1)],) for view in picked]
                for indices in picked:
                    self.check(plain, rows, indices)


class TestBlockPlan:
    """A lane set's k-subsets fall into blocks: the subsets that share the
    shortest index prefix, the empty one included, that at most
    ``_BLOCK_SUBSETS`` of them share.  Pure index arithmetic: no table is
    built."""

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_prefix_is_the_shortest_that_fits(self, block):
        from hypersphere_lab import geometry

        for n in range(2, 11):
            for k in range(1, min(n, 5) + 1):
                subsets = list(itertools.combinations(range(n), k))
                sharing = Counter(s[:length] for s in subsets for length in range(k + 1))
                with mock.patch.object(geometry, "_BLOCK_SUBSETS", block):
                    for s in subsets:
                        want = next(length for length in range(k + 1)
                                    if sharing[s[:length]] <= block)
                        assert geometry._block_prefix(n, s) == want

    @pytest.mark.parametrize("k", [5, 6])
    def test_no_block_exceeds_the_constant(self, k):
        """Blocks partition the k-subsets for n <= 60.  How many subsets
        share a prefix depends on its length and last index alone (-1 for
        the empty prefix), so one prefix of each stands for all."""
        from hypersphere_lab.geometry import _BLOCK_SUBSETS, _block_prefix

        for n in range(k, 61):
            @functools.lru_cache(maxsize=None)
            def covered(last, length):
                prefix = (*range(length - 1), last)[:length]
                size = math.comb(n - 1 - last, k - length)
                if _block_prefix(n, prefix + tuple(range(last + 1, last + 1 + k - length))) == length:
                    assert size <= _BLOCK_SUBSETS
                    return size
                assert size > _BLOCK_SUBSETS
                return sum(covered(j, length + 1) for j in range(last + 1, n - k + length + 1))

            assert covered(-1, 0) == math.comb(n, k)


class TestIntegerRows:
    """Exact rows scaled to integral rows run through the same expansion:
    every minor scales by the product of its rows' scales."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda k: st.lists(st.tuples(*([small_fraction] * (k + 1))), min_size=k, max_size=k)
        ),
        st.sampled_from(["generic", "repeated_row", "sum_of_rows"]),
        st.sampled_from(["rational", "cyclotomic"]),
    )
    def test_cofactors_scale_by_the_row_scales(self, rows, shape, backend):
        if backend == "cyclotomic":
            # entries a + b*z of Q(zeta_12), b taken from the previous row
            ctx = get_context(12)
            rows = [tuple(ctx.element([a, b]) for a, b in zip(row, rows[i - 1]))
                    for i, row in enumerate(rows)]
        if shape == "repeated_row":
            rows[-1] = rows[0]
        elif shape == "sum_of_rows":
            rows[-1] = tuple(sum(column) for column in zip(*rows[:-1]))
        cleared = scaled_rows(rows, row=tuple)
        if backend == "rational":
            assert all(type(e) is int for row in cleared for e in row)
            scale = math.prod(math.lcm(*(e.denominator for e in row)) for row in rows)
        else:
            assert all(e.den == 1 for row in cleared for e in row)
            scale = math.prod(math.lcm(*(e.den for e in row)) for row in rows)
        want = reference_cofactors(rows)
        got = maximal_cofactors(cleared)
        assert list(got) == [c * scale for c in want]
        assert [c == 0 for c in got] == [c == 0 for c in want]
        if shape != "generic":
            assert all(c == 0 for c in got)

    def test_other_backends_pass_through(self):
        boxes = lifted_row(tuple(IntervalScalar.from_fraction(Fraction(c, 3), 64) for c in (1, 2)))
        [got] = scaled_rows([boxes], row=tuple)
        assert got is boxes


class TestIntervalEnclosure:
    """Interval rows run through the same expansion as exact ones: every
    cofactor and incidence value encloses the exact value of the rational
    matrix the boxes were made from."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda k: st.lists(st.tuples(*([small_fraction] * (k + 1))),
                               min_size=k + 2, max_size=k + 2)
        ),
        st.sampled_from(["generic", "repeated_row", "sum_of_rows"]),
    )
    def test_cofactors_and_incidences_enclose_exact_values(self, rows, shape):
        k = len(rows) - 2
        if shape == "repeated_row":
            rows[k - 1] = rows[0]
        elif shape == "sum_of_rows":
            rows[k - 1] = tuple(sum(column) for column in zip(*rows[:k - 1]))
        # two free rows and one defining row, whose incidence value is 0
        defining, probes = rows[:k], rows[k:] + rows[:1]
        boxes = [tuple(IntervalScalar.from_fraction(e, 128) for e in row) for row in rows]
        cof = maximal_cofactors(boxes[:k])
        values = incidence_values(cof, boxes[k:] + boxes[:1])
        want = reference_cofactors(defining) + [
            laplace_det([list(x)] + [list(r) for r in defining]) for x in probes
        ]
        got = list(cof) + values
        assert len(got) == len(want)
        for box, exact in zip(got, want):
            assert box.lo <= exact <= box.hi


class TestLiftProject:
    def test_origin_goes_to_south_pole(self):
        assert lift(as_point([0, 0])) == (0, 0, -1)

    def test_unit_point_on_equator(self):
        assert lift(as_point([1, 0])) == (1, 0, 0)

    def test_lift_lands_on_unit_sphere_exactly(self):
        p = as_point([Fraction(1, 2), Fraction(1, 3)])
        assert sum(c * c for c in lift(p)) == 1

    def test_projection_by_line_construction(self):
        # project((3/5, 4/5, 0)) must equal the intersection of the line
        # through the north pole with the floor hyperplane, solved directly
        y = as_point([Fraction(3, 5), Fraction(4, 5), Fraction(0)])
        north = (Fraction(0), Fraction(0), Fraction(1))
        s = 1 / (1 - y[-1])  # north + s*(y - north) has last coordinate 0
        line_point = tuple(n + s * (a - n) for n, a in zip(north, y))
        assert line_point[-1] == 0
        assert project(y) == line_point[:-1] == (Fraction(3, 5), Fraction(4, 5))

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(small_fraction, small_fraction, small_fraction))
    def test_round_trip(self, p):
        assert project(lift(p)) == p

    def test_rejects_north_pole(self):
        with pytest.raises(PoleError):
            project(as_point([0, 0, 1]))

    def test_rejects_off_sphere(self):
        with pytest.raises(DomainError):
            project(as_point([Fraction(1, 2), 0, 0]))

    def test_interval_point_cannot_certify_sphere_membership(self):
        boxes = tuple(IntervalScalar.from_fraction(c, 64) for c in (1, 0, 0))
        with pytest.raises(DomainError):
            project(boxes)

    def test_point_with_square_norm_minus_one_has_no_image(self):
        # (i, 0) has |x|^2 + 1 = i^2 + 1 = 0; real coordinates never do
        ctx = get_context(4)
        point = (ctx.zeta_power(1), ctx.zero())
        with pytest.raises(DomainError, match="vanishes"):
            lift(point)
        with pytest.raises(DomainError, match="vanishes"):
            lift_set(PointSet.build([point, (ctx.one(), ctx.zero())]))

    def test_undecided_square_norm_plus_one_has_no_image(self):
        # |x|^2 + 1 of x = ([-2, 2], 0) encloses [-3, 5], which holds 0
        point = (IntervalScalar.from_endpoints("-2", "2", 128),
                 IntervalScalar.from_fraction(0, 128))
        with pytest.raises(DomainError, match="cannot certify"):
            lift(point)

    def test_lift_project_on_cyclotomic_backend(self):
        ctx = get_context(12)
        c, s = ctx.cos_sin(1, 12)
        p = (c, s, ctx.from_rational(Fraction(1, 3)))
        lifted = lift(p)
        total = None
        for coord in lifted:
            sq = coord * coord
            total = sq if total is None else total + sq
        assert total == 1
        assert project(lifted) == p


class TestInvert:
    def test_radius_two_to_radius_half(self):
        assert invert(as_point([2, 0, 0]), as_point([0, 0, 0])) == (Fraction(1, 2), 0, 0)

    def test_unit_sphere_fixed(self):
        assert invert(as_point([0, 1, 0]), as_point([0, 0, 0])) == (0, 1, 0)

    def test_fixed_point_at_distance_one(self):
        assert invert(as_point([1, 1]), as_point([1, 0])) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(small_fraction, small_fraction, small_fraction),
        st.tuples(small_fraction, small_fraction, small_fraction),
    )
    def test_involution(self, x, r):
        if x != r:
            assert invert(invert(x, r), r) == x

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            invert(as_point([1, 2]), as_point([1, 2]))

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(small_fraction, small_fraction, small_fraction))
    def test_composition_equals_closed_form(self, x):
        # the closed form x/|x|^2 must agree with the composed definition
        # project . reflect . lift, exactly, on rational points
        if x == (0, 0, 0):
            return
        lifted = lift(x)
        reflected = lifted[:-1] + (-lifted[-1],)
        q = sum(c * c for c in x)
        assert project(reflected) == tuple(c / q for c in x)


class TestCospherical:
    def test_five_points_on_unit_sphere(self):
        pts = [as_point(t) for t in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)]]
        assert cospherical(pts) is True

    def test_point_off_the_unique_sphere(self):
        pts = [as_point(t) for t in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -2)]]
        assert cospherical(pts) is False

    def test_collinear_points_are_degenerate_cospherical(self):
        pts = [as_point(t) for t in [(0, 0), (1, 0), (2, 0), (3, 0)]]
        assert cospherical(pts) is True

    def test_wrong_arity_rejected(self):
        with pytest.raises(DomainError):
            cospherical([as_point((0, 0)), as_point((1, 0)), as_point((2, 1))])
        with pytest.raises(DomainError):
            cospherical([])

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_permutation_invariance(self, order):
        pts = [
            as_point(t)
            for t in [
                (1, 0, 0),
                (Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)),
                (0, 1, 0),
                (0, 0, 1),
                (Fraction(1, 2), Fraction(1, 5), Fraction(3, 7)),
            ]
        ]
        base = cospherical(pts)
        assert cospherical([pts[i] for i in order]) is base

    def test_interval_straddle_reports_indeterminate(self):
        pts = [as_point(t) for t in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)]]
        boxes = [tuple(IntervalScalar.from_fraction(c, 64) for c in p) for p in pts]
        assert cospherical(boxes) is INDETERMINATE

    def test_interval_certifies_nonincidence(self):
        pts = [as_point(t) for t in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -2)]]
        boxes = [tuple(IntervalScalar.from_fraction(c, 64) for c in p) for p in pts]
        assert cospherical(boxes) is False


class TestGeneralPosition:
    def test_concyclic_violation_with_witness(self):
        ps = PointSet.build(
            [
                as_point(t)
                for t in [
                    (1, 0, 0),
                    (-1, 0, 0),
                    (0, 1, 0),
                    (0, -1, 0),
                    (Fraction(1, 3), Fraction(1, 5), 2),
                ]
            ]
        )
        assert general_position_check(ps) == (0, 1, 2, 3)

    def test_generic_sphere_points_plus_origin_ok(self):
        # brute-force oracle: full rank of every lifted 4-subset
        rng = random.Random(4)
        pts = []
        while len(pts) < 5:
            v = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(2)]
            q = sum(c * c for c in v)
            p = tuple([2 * c / (q + 1) for c in v] + [(q - 1) / (q + 1)])
            if p not in pts:
                pts.append(p)
        pts.append((Fraction(0), Fraction(0), Fraction(0)))
        ps = PointSet.build(pts)
        verdict = general_position_check(ps)
        rows = [[Fraction(1)] + list(p) + [sum(c * c for c in p)] for p in pts]
        expected_ok = all(
            gaussian_rank([rows[i] for i in subset]) == 4
            for subset in itertools.combinations(range(6), 4)
        )
        assert (verdict is None) == expected_ok

    def test_d2_condition_is_vacuous_for_distinct_points(self):
        # in the plane the condition degenerates: 3 distinct points never
        # share a 0-sphere or 0-flat, so even collinear triples pass (the
        # plane is a diagnostics-only dimension; generators require d >= 3)
        ps = PointSet.build(
            [as_point(t) for t in [(0, 0), (1, 0), (2, 0), (1, 1), (3, 5)]]
        )
        assert general_position_check(ps) is None

    def test_d3_collinear_triple_plus_one_is_violation(self):
        # in d=3 four points on a line lie on a (d-2)-flat
        ps = PointSet.build(
            [
                as_point(t)
                for t in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 7)]
            ]
        )
        assert general_position_check(ps) == (0, 1, 2, 3)

    def test_interval_backend_rejected(self):
        boxes = [
            tuple(IntervalScalar.from_fraction(c, 64) for c in p)
            for p in [(0, 0), (1, 0), (0, 1)]
        ]
        ps = PointSet.build(boxes)
        with pytest.raises(DomainError):
            general_position_check(ps)

    def test_coset_check_certifies_nothing(self):
        """On a coset set in general position every subset has a nonzero
        cofactor residue, so the check reads block tables only: it decides
        no incidence values and certifies nothing, and ``generate`` does no
        more work than before the walk's blocks decided them."""
        from hypersphere_lab import geometry
        from hypersphere_lab.constructions import CosetSpec, CurveParams, coset_config

        ps = coset_config(CosetSpec(CurveParams.default(4), 13, 0), validate=False)
        refuse = AssertionError("general position ran a certificate")
        with mock.patch.object(geometry, "_certify", side_effect=refuse), \
                mock.patch.object(geometry.RowSet, "_decide", side_effect=refuse):
            assert general_position_check(ps) is None


class TestHypersphereThrough:
    def test_wrong_arity_rejected(self):
        for points in ([], [as_point((0, 0)), as_point((1, 0))]):
            with pytest.raises(DomainError):
                hypersphere_through(points)

    def test_circle_through_three_points_canonical(self):
        sphere = hypersphere_through([as_point(t) for t in [(0, 0), (2, 0), (0, 2)]])
        assert sphere.coefficients() == (1, -2, -2, 0)

    def test_unit_sphere_from_four_points(self):
        sphere = hypersphere_through(
            [as_point(t) for t in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        )
        assert sphere.coefficients() == (1, 0, 0, 0, -1)

    def test_through_origin_has_zero_constant(self):
        sphere = hypersphere_through(
            [as_point(t) for t in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]]
        )
        assert sphere.u == 0 and sphere.w != 0

    def test_hyperplane_when_points_affinely_dependent_on_line(self):
        # three collinear points in d=2 span the degenerate (w=0) surface
        sphere = hypersphere_through([as_point(t) for t in [(0, 0), (1, 1), (2, 2)]])
        assert sphere.is_hyperplane()
        assert incident(sphere, as_point((5, 5))) is True

    def test_defining_points_are_incident(self):
        pts = [
            as_point(t)
            for t in [(Fraction(1, 2), 1, 0), (3, Fraction(-1, 3), 1), (0, 2, 2), (1, 1, 1)]
        ]
        sphere = hypersphere_through(pts)
        assert all(incident(sphere, p) for p in pts)

    def test_order_independence_after_canonicalization(self):
        pts = [as_point(t) for t in [(0, 0), (2, 0), (0, 2)]]
        keys = {
            hypersphere_through(list(perm)).coefficients()
            for perm in itertools.permutations(pts)
        }
        assert len(keys) == 1

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegeneracyError):
            hypersphere_through([as_point(t) for t in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]])

    def test_cyclotomic_canonical_keys_collapse(self):
        # same circle solved from different point triples must hash equal
        ctx = get_context(12)
        pts = []
        for j in range(5):
            c, s = ctx.cos_sin(j, 12)
            pts.append((c, s))
        a = hypersphere_through(pts[:3])
        b = hypersphere_through(pts[2:])
        assert a == b and hash(a) == hash(b)
        assert a.coefficients() == b.coefficients()


def all_conjugates_inverse(a):
    """a^-1 as the product of sigma_k(a) over every unit k != 1 mod N, over
    the rational norm: the field inverse with no conjugate left out."""
    rest = a.ctx.one()
    for k in a.ctx.units[1:]:
        rest = rest * a._galois(k)
    return rest / (a * rest).as_rational()


def reference_canonical(coeffs):
    """``coeffs`` over their lead, scaled to coprime integer fractions (the
    lead becomes 1, so it is positive)."""
    lead = next(c for c in coeffs if not c.is_zero())
    inverse = all_conjugates_inverse(lead)
    coeffs = [c * inverse for c in coeffs]
    fractions = [f for c in coeffs for f in c.coefficients]
    lcm = math.lcm(*(f.denominator for f in fractions))
    gcd = math.gcd(*(f.numerator * (lcm // f.denominator) for f in fractions))
    return tuple(c * Fraction(lcm, gcd) for c in coeffs)


@st.composite
def field_element(draw, ctx, kind):
    """A nonzero rational element, a real one (fixed by complex conjugation,
    so that its conjugates repeat and its norm may be negative) or a
    generic one of the field of ``ctx``."""
    if kind == "rational":
        return ctx.from_rational(draw(small_fraction.filter(bool)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=ctx.degree, max_size=ctx.degree)
                  .filter(any))
    x = ctx.element(coeffs)
    x = x + x.conjugate() if kind == "real" else x
    return x if not x.is_zero() else ctx.one()


KINDS = st.sampled_from(["rational", "real", "generic"])


@st.composite
def surface_coefficients(draw, ctx):
    """A coefficient vector over the field of ``ctx`` whose first nonzero
    entry, after some zeros, is of a random kind, and a nonzero multiplier
    in the same field."""
    size = draw(st.integers(3, 5))
    lead = draw(st.integers(0, size - 1))
    coeffs = [ctx.zero()] * lead + [draw(field_element(ctx, draw(KINDS)))]
    for _ in range(size - lead - 1):
        coeffs.append(draw(st.one_of(st.just(ctx.zero()), field_element(ctx, draw(KINDS)))))
    return coeffs, draw(field_element(ctx, draw(KINDS)))


class TestCanonicalForm:
    """Exact surfaces are normalized by one rule: a cyclotomic vector times
    its lead's conjugate product, then coprime integer fractions with the
    first nonzero one positive."""

    @staticmethod
    def surface(coeffs):
        return Hypersphere.from_coefficients(coeffs[0], coeffs[1:-1], coeffs[-1])

    @pytest.mark.parametrize("conductor", [8, 12, 20, 156])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_multiples_share_the_reference_form(self, conductor, data):
        coeffs, scale = data.draw(surface_coefficients(get_context(conductor)))
        sphere = self.surface(coeffs)
        multiple = self.surface([c * scale for c in coeffs])
        assert sphere == multiple and hash(sphere) == hash(multiple)
        assert sphere.coefficients() == multiple.coefficients() == reference_canonical(coeffs)

    def test_negative_norm_lead(self):
        # sqrt(3) = z - z^5 at N = 12: its conjugate product is -sqrt(3), so
        # the lead becomes -3 before the sign step
        ctx = get_context(12)
        sqrt3 = ctx.zeta_power(1) - ctx.zeta_power(5)
        assert sqrt3.conjugate_product() == -sqrt3
        sphere = self.surface([sqrt3, ctx.one(), ctx.zero()])
        assert sphere.coefficients() == (3, sqrt3, 0)

    def test_rational_form(self):
        sphere = Hypersphere.from_coefficients(Fraction(-2, 3), (4, 0), Fraction(2, 5))
        assert sphere.coefficients() == (5, -30, 0, -3)


class TestIncident:
    def test_examples(self):
        unit = Hypersphere.from_coefficients(
            Fraction(1), (Fraction(0), Fraction(0), Fraction(0)), Fraction(-1)
        )
        assert incident(unit, as_point((0, 0, 1))) is True
        assert incident(unit, as_point((0, 0, 2))) is False

    def test_interval_indeterminate(self):
        unit = Hypersphere.from_coefficients(
            IntervalScalar.from_fraction(1, 64),
            tuple(IntervalScalar.from_fraction(0, 64) for _ in range(3)),
            IntervalScalar.from_fraction(-1, 64),
        )
        probe = tuple(IntervalScalar.from_fraction(c, 64) for c in (0, 0, 1))
        assert incident(unit, probe) is INDETERMINATE


class TestInversionPreservesSpheres:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_twenty_sampled_points_stay_cospherical(self, seed):
        # sample 20 rational points on a rational sphere (scaled/translated
        # unit sphere), invert them, and certify the images cospherical
        rng = random.Random(seed)
        center = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3))
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        pts = []
        seen = set()
        while len(pts) < 20:
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            q = sum(c * c for c in v)
            unit = [2 * c / (q + 1) for c in v] + [(q - 1) / (q + 1)]
            p = tuple(ci + scale * ui for ci, ui in zip(center, unit))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        r = tuple(c + scale + 1 for c in center)  # safely off the sphere
        images = [invert(p, r) for p in pts]
        for window in range(0, 15, 5):
            assert cospherical(images[window : window + 5]) is True

    def test_sphere_through_center_maps_to_hyperplane(self):
        # inverting a circle in one of its own points flattens it: the
        # images of the remaining points land on a line (w = 0 surface)
        circle = hypersphere_through([as_point(t) for t in [(0, 0), (2, 0), (0, 2)]])
        on_circle = [
            as_point((2, 0)),
            as_point((0, 2)),
            as_point((2, 2)),
            as_point((Fraction(6, 5), Fraction(12, 5))),
        ]
        assert all(incident(circle, p) for p in on_circle)
        center = as_point((0, 0))
        images = [invert(p, center) for p in on_circle]
        assert cospherical(images) is True
        surface = hypersphere_through(images[:3])
        assert surface.is_hyperplane()


class TestPointSetValidation:
    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            PointSet.build([as_point((1, 2)), as_point((1, 2))])

    def test_first_coinciding_pair_is_named(self):
        """Points 1 and 2 coincide, and so do points 0 and 4: the error
        names the lexicographically first pair, not the first one found
        scanning j."""
        a, b, c = as_point((1, 2)), as_point((Fraction(3, 2), 0)), as_point((0, 5))
        with pytest.raises(DomainError, match=r"^points 0 and 4 coincide$"):
            PointSet.build([a, b, b, c, a])
        with pytest.raises(DomainError, match=r"^points 1 and 2 coincide$"):
            PointSet.build([a, b, (Fraction(3, 2), Fraction(0))])

    def test_equal_cyclotomic_values_of_other_denominators_coincide(self):
        ctx = get_context(12)
        z, one = ctx.zeta_power(1), ctx.one()
        third = CycloElement(ctx, z.num, 3)
        also_third = CycloElement(ctx, tuple(2 * c for c in z.num), 6)
        assert third.den != also_third.den
        with pytest.raises(DomainError, match=r"^points 0 and 2 coincide$"):
            PointSet.build([(third, one), (z, one), (also_third, one)])
        assert PointSet.build([(third, one), (z, one), (also_third, z)]).n == 3

    def test_mixed_conductors_rejected(self):
        twelve, twenty = get_context(12), get_context(20)
        with pytest.raises(ConductorError):
            PointSet.build([(twelve.one(), twelve.zero()), (twenty.one(), twenty.zero())])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DomainError):
            PointSet.build([as_point((1, 2)), as_point((1, 2, 3))])

    def test_mixed_backend_rejected(self):
        ctx = get_context(12)
        with pytest.raises(DomainError):
            PointSet.build([as_point((1, 2)), (ctx.one(), ctx.zero())])

    @pytest.mark.parametrize("alone", [True, False])
    def test_point_mixing_backends_rejected(self, alone):
        ctx = get_context(12)
        mixed = (Fraction(1), ctx.one())
        points = [mixed] if alone else [as_point((1, 2)), mixed]
        with pytest.raises(DomainError, match="mixes backends"):
            PointSet.build(points)

    def test_overlapping_intervals_rejected(self):
        a = tuple(IntervalScalar.from_endpoints("0", "1", 64) for _ in range(2))
        b = tuple(IntervalScalar.from_endpoints("0.5", "1.5", 64) for _ in range(2))
        with pytest.raises(DomainError):
            PointSet.build([a, b])

    def test_separated_intervals_accepted(self):
        a = tuple(IntervalScalar.from_fraction(0, 64) for _ in range(2))
        b = tuple(IntervalScalar.from_fraction(Fraction(1, 10**8), 64) for _ in range(2))
        ps = PointSet.build([a, b])
        assert ps.backend == "interval"

    def test_dimension_one_rejected(self):
        with pytest.raises(DomainError):
            PointSet.build([(Fraction(1),), (Fraction(2),)])

    def test_json_round_trip(self):
        ps = PointSet.build(
            [as_point((Fraction(1, 2), 2)), as_point((3, Fraction(-4, 7)))],
            metadata={"generator": "manual"},
        )
        again = PointSet.from_json(ps.to_json())
        assert again.points == ps.points
        assert again.metadata == ps.metadata

    def test_lift_set_and_invert_set_metadata(self):
        ps = PointSet.build([as_point((1, 2)), as_point((3, 4))])
        lifted = lift_set(ps)
        assert lifted.dimension == 3
        assert lifted.metadata["lifted_from_dimension"] == 2
        inverted = invert_set(ps, as_point((0, 0)))
        assert inverted.metadata["inverted_in"] == ["0", "0"]
