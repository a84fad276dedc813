import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import enumerated_residue_scan, laplace_det, subset_sum_count

from hypersphere_lab.constructions import (
    CosetSpec,
    CurveParams,
    closed_form_counts,
    compare_report,
    completing_parameter,
    completion_residual,
    coset_config,
    curve_context,
    curve_point,
    residue_oracle,
    residue_oracle_scan,
    trivial_config,
)
from hypersphere_lab.counting import spectrum
from hypersphere_lab.errors import DomainError, GenerationError
from hypersphere_lab.geometry import cospherical, general_position_check, invert_set
from hypersphere_lab.scalars import is_zero

PARAMS = CurveParams.default(4)


class TestCurveParams:
    def test_defaults(self):
        assert (PARAMS.a, PARAMS.b, PARAMS.amps, PARAMS.e) == (2, 1, (1,), 1)

    def test_rejects_odd_dimension(self):
        with pytest.raises(DomainError):
            CurveParams(dimension=5, a=Fraction(2), b=Fraction(1), amps=(Fraction(1),), e=Fraction(1))

    def test_rejects_zero_coefficient(self):
        with pytest.raises(DomainError):
            CurveParams(dimension=4, a=Fraction(0), b=Fraction(1), amps=(Fraction(1),), e=Fraction(1))

    def test_json_round_trip(self):
        # coset files record the curve in their metadata as exact strings
        data = PARAMS.to_json()
        decoded = CurveParams(data["dimension"], Fraction(data["a"]), Fraction(data["b"]),
                              tuple(map(Fraction, data["amps"])), Fraction(data["e"]))
        assert decoded == PARAMS

    def test_squared_norm_top_frequency(self):
        # |gamma(t)|^2 must have zero Fourier mass above frequency k+1 and
        # coefficient e*ak at k+1; verified via exact values on a fine grid
        # by solving for the cosine coefficients (frequencies 0..4 probed)
        n = 24
        ctx = curve_context(n, 4)
        values = []
        for j in range(n):
            p = curve_point(PARAMS, j, n, 0, ctx)
            values.append(sum(c * c for c in p))
        # discrete cosine analysis: c_f = (2/n) * sum_j |gamma|^2 cos(2pi f j / n)
        for freq, expected in [(3, PARAMS.e * PARAMS.amps[-1]), (4, Fraction(0)), (5, Fraction(0))]:
            acc = ctx.zero()
            for j, val in enumerate(values):
                cos_f, _ = ctx.cos_sin((freq * j) % n, n)
                acc = acc + val * cos_f
            coeff = acc * Fraction(2, n)
            assert coeff == expected, (freq, coeff.coefficients)


class TestCurvePoint:
    def test_parameter_zero(self):
        p = curve_point(PARAMS, 0, 12, 0)
        assert tuple(c.as_rational() for c in p) == (2, 0, 2, 0)

    def test_half_turn(self):
        p = curve_point(PARAMS, 6, 12, 0)
        assert tuple(c.as_rational() for c in p) == (-2, 0, 0, 0)

    def test_matches_float_evaluation(self):
        # exact cyclotomic coordinates agree with certified interval
        # evaluation of the trigonometric closed form at 256 bits
        for j, n, l in [(1, 12, 0), (5, 12, 1), (3, 7, 2)]:
            p = curve_point(PARAMS, j, n, l)
            t = 2 * math.pi * (j + l / 6) / n
            expected = (
                2 * math.cos(t),
                math.sin(t),
                math.cos(t) + math.cos(2 * t),
                math.sin(2 * t),
            )
            for coord, approx in zip(p, expected):
                enc = coord.real_enclosure(256)
                assert float(enc.a) - 1e-12 <= approx <= float(enc.b) + 1e-12

    def test_offset_arithmetic(self):
        # l enters as a 1/(d+2) fraction of the base step
        ctx = curve_context(12, 4)
        p = curve_point(PARAMS, 0, 12, 1, ctx)
        c, s = ctx.cos_sin(1, 72)
        assert p[0] == c * 2 and p[1] == s

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            curve_point(PARAMS, 12, 12, 0)


class TestCompletingParameter:
    def test_negated_sum(self):
        t = completing_parameter((0.1, 0.2, 0.3, 0.4, 0.5))
        assert abs(t - (2 * math.pi - 1.5)) < 1e-12

    def test_degenerate_zeros(self):
        assert completing_parameter((0.0,) * 5) == 0.0

    def test_wraps_mod_two_pi(self):
        t = completing_parameter((6.0, 6.0, 6.0, 6.0, 6.0))
        assert 0 <= t < 2 * math.pi

    @pytest.mark.parametrize("seed", [0, 1])
    def test_completion_closes_incidence(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            ts = [rng.uniform(0, 2 * math.pi) for _ in range(5)]
            residual = completion_residual(PARAMS, ts, bits=256)
            assert residual.contains_zero()
            assert residual.hi - residual.lo < Fraction(1, 2**120)

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            completion_residual(PARAMS, [0.1, 0.2], bits=128)


class TestCosetConfig:
    def test_generates_n_points_with_metadata(self):
        ps = coset_config(CosetSpec(PARAMS, 7, 0))
        assert ps.n == 7 and ps.dimension == 4 and ps.backend == "cyclotomic"
        assert ps.metadata["generator"] == "coset"
        assert ps.metadata["coset_indices"] == list(range(7))
        assert ps.metadata["l"] == 0

    def test_general_position_certified(self):
        ps = coset_config(CosetSpec(PARAMS, 8, 1))
        assert general_position_check(ps) is None

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            CosetSpec(PARAMS, 6, 0)

    @pytest.mark.parametrize("n,l", [(7, 0), (7, 1), (8, 0)])
    def test_group_law_exhaustive(self, n, l):
        ps = coset_config(CosetSpec(PARAMS, n, l), validate=False)
        for subset in itertools.combinations(range(n), 6):
            predicted = (sum(subset) + l) % n == 0
            assert cospherical([ps.points[i] for i in subset]) is predicted

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_no_five_points_on_a_hyperplane(self, n):
        # the degree-4 curve meets any hyperplane in at most 4 points, so
        # every 5 generated points must be affinely independent
        ps = coset_config(CosetSpec(PARAMS, n, 0), validate=False)
        ctx = curve_context(n, 4)
        one = ctx.one()
        rows = [[one, *p] for p in ps.points]
        for subset in itertools.combinations(range(n), 5):
            sub = [rows[i] for i in subset]
            assert not is_zero(laplace_det(sub))

    def test_dimension_six_curve(self):
        # the family is defined for every even d; spot-check the sum rule
        # and the engine/oracle agreement one dimension up, where every
        # cospherical test is an 8 x 8 determinant
        params6 = CurveParams.default(6)
        for n, l, counts in [(9, 0, {7: 28, 8: 1}), (10, 1, {7: 88, 8: 4}),
                             (11, 0, {7: 210, 8: 15})]:
            ps = coset_config(CosetSpec(params6, n, l), validate=False)
            for subset in itertools.combinations(range(n), 8):
                predicted = (sum(subset) + l) % n == 0
                assert cospherical([ps.points[i] for i in subset]) is predicted
            spec = spectrum(ps)
            oracle = residue_oracle(n, 6, l)
            assert (spec.ordinary, spec.next_class) == (oracle.ordinary, oracle.dplus2)
            assert spec.counts == counts

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_hyperplane_exclusion_up_to_fourteen(self, n):
        # same invariant at full range, via the engine determinant (the
        # small cases above already cross-check it against Laplace
        # expansion)
        from hypersphere_lab.geometry import affine_row, det, scaled_rows

        ps = coset_config(CosetSpec(PARAMS, n, 0), validate=False)
        # the engine's own rows: scaling a row keeps the zero pattern
        rows = scaled_rows(ps.points, row=affine_row)
        assert rows.basis is not None
        for subset in itertools.combinations(range(n), 5):
            assert not is_zero(det(rows.take(subset)))


class TestResidueOracle:
    def test_n7_single_subset(self):
        for l in range(7):
            assert residue_oracle(7, 4, l).dplus2 == 1

    def test_n12_at_zero_offset(self):
        counts = residue_oracle(12, 4, 0)
        assert counts.dplus2 == 76
        assert counts.ordinary == math.comb(12, 5) - 6 * 76

    def test_scan_finds_extremal_offsets(self):
        scan = residue_oracle_scan(12, 4)
        assert scan["max_dplus2"] == 80
        assert scan["argmax_dplus2"] == [3, 9]
        assert scan["min_ordinary"] == 312
        assert scan["argmin_ordinary"] == [3, 9]

    @pytest.mark.parametrize("n", range(7, 13))
    def test_tangency_identity(self, n):
        # every (d+1)-subset either completes inside itself or extends to a
        # unique summing (d+2)-subset: ordinary + 6 * dplus2 = C(n, 5)
        scan = residue_oracle_scan(n, 4)
        for l in range(n):
            assert scan["ordinary_by_l"][l] + 6 * scan["dplus2_by_l"][l] == math.comb(n, 5)
            single = residue_oracle(n, 4, l)
            assert single.ordinary == scan["ordinary_by_l"][l]
            assert single.dplus2 == scan["dplus2_by_l"][l]

    def test_odd_dimension_rejected(self):
        with pytest.raises(DomainError):
            residue_oracle(10, 3, 0)

    @pytest.mark.parametrize("n,d", [(10, 3), (12, 2), (12, 0), (12, -2), (6, 4), (0, 4), (-5, 4), (8, 6)])
    def test_domain_shared_by_both_entry_points(self, n, d):
        with pytest.raises(DomainError):
            residue_oracle(n, d, 0)
        with pytest.raises(DomainError):
            residue_oracle_scan(n, d)

    @pytest.mark.parametrize("n,d", [(n, d) for d in (4, 6) for n in range(d + 3, 25)])
    def test_dp_equals_enumeration(self, n, d):
        scan = residue_oracle_scan(n, d)
        ordinary_by_l, dplus2_by_l = enumerated_residue_scan(n, d)
        assert scan["ordinary_by_l"] == ordinary_by_l
        assert scan["dplus2_by_l"] == dplus2_by_l

    @pytest.mark.parametrize("n", [97, 600])
    def test_large_n_against_ramanujan_closed_form(self, n):
        scan = residue_oracle_scan(n, 4)
        assert scan["dplus2_by_l"] == [subset_sum_count(n, 6, -l % n) for l in range(n)]
        for l in range(n):
            assert scan["ordinary_by_l"][l] + 6 * scan["dplus2_by_l"][l] == math.comb(n, 5)
        formula = closed_form_counts(4, n)
        assert scan["min_ordinary"] == formula["min_ordinary"]
        assert scan["max_dplus2"] == formula["max_dplus2"]


class TestClosedForms:
    def test_d3_values(self):
        assert closed_form_counts(3, 10)["min_ordinary"] == 84
        assert closed_form_counts(3, 10)["max_dplus2"] is None
        assert closed_form_counts(3, 6)["min_ordinary"] == 10
        assert closed_form_counts(3, 8)["min_ordinary"] == 35

    def test_d4_residue_branches(self):
        twelve = closed_form_counts(4, 12)
        assert (twelve["min_ordinary"], twelve["max_dplus2"]) == (312, 80)
        thirteen = closed_form_counts(4, 13)
        assert (thirteen["min_ordinary"], thirteen["max_dplus2"]) == (495, 132)

    @pytest.mark.parametrize("n", range(7, 41))
    def test_integrality_across_residues(self, n):
        counts = closed_form_counts(4, n)
        assert isinstance(counts["min_ordinary"], int)
        assert isinstance(counts["max_dplus2"], int)

    def test_unsupported_dimension(self):
        with pytest.raises(DomainError):
            closed_form_counts(5, 20)

    def test_pascal_identity_links_the_two_tables(self):
        # min ordinary = C(n,5) - 6 * max dplus2 on every residue class
        for n in range(7, 31):
            counts = closed_form_counts(4, n)
            assert counts["min_ordinary"] == math.comb(n, 5) - 6 * counts["max_dplus2"]


class TestTrivialConfig:
    @pytest.mark.parametrize("n,expected", [(6, 10), (8, 35)])
    def test_d3_ordinary_counts(self, n, expected):
        ps = trivial_config(3, n, seed=1)
        spec = spectrum(ps)
        assert spec.ordinary == expected == math.comb(n - 1, 3)
        assert spec.counts[n - 1] == 1

    def test_d4_small(self):
        ps = trivial_config(4, 8, seed=2)
        spec = spectrum(ps)
        assert spec.ordinary == math.comb(7, 4) == 35

    def test_seed_reproducibility(self):
        a = trivial_config(3, 6, seed=9)
        b = trivial_config(3, 6, seed=9)
        assert a.points == b.points
        c = trivial_config(3, 6, seed=10)
        assert c.points != a.points

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            trivial_config(2, 8, seed=0)
        with pytest.raises(DomainError):
            trivial_config(3, 5, seed=0)

    def test_budget_exhaustion(self, monkeypatch):
        from hypersphere_lab import constructions

        monkeypatch.setattr(constructions, "TRIVIAL_ATTEMPTS", 0)
        with pytest.raises(GenerationError):
            trivial_config(3, 6, seed=0)


class TestInversionStability:
    def test_coset_counts_survive_inversion(self):
        ps = coset_config(CosetSpec(PARAMS, 8, 0), validate=False)
        spec = spectrum(ps)
        # a rational center off the configuration; image stays cyclotomic
        ctx = curve_context(8, 4)
        center = tuple(ctx.from_rational(c) for c in (5, 5, 5, 5))
        image = invert_set(ps, center)
        assert spectrum(image).counts == spec.counts

    def test_trivial_counts_survive_inversion(self):
        ps = trivial_config(3, 6, seed=4)
        spec = spectrum(ps)
        image = invert_set(ps, (Fraction(7), Fraction(5), Fraction(3)))
        assert spectrum(image).counts == spec.counts


class TestCompareReport:
    def test_coset_report_hard_match(self):
        ps = coset_config(CosetSpec(PARAMS, 7, 0), validate=False)
        report = compare_report(ps)
        assert report.matches["engine_equals_oracle"] is True
        assert report.oracle.dplus2 == 1
        assert report.formula is not None
        md = report.to_markdown()
        assert "ordinary" in md and "oracle" not in report.caveat

    def test_trivial_report(self):
        ps = trivial_config(3, 6, seed=5)
        report = compare_report(ps)
        assert report.matches["engine_equals_trivial_pattern"] is True
        assert report.matches["engine_equals_formula_min_ordinary"] is True

    def test_unknown_generator_is_empirical(self):
        from conftest import random_general_position_set

        ps = random_general_position_set(3, 7, seed=600)
        report = compare_report(ps)
        assert report.oracle is None
        assert any("empirical" in note for note in report.notes)
        rows = report.csv_rows()
        assert rows[0][0] == "quantity"
