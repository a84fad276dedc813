import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersphere_lab.errors import ConductorError, DomainError, ResourceError
from hypersphere_lab.scalars import (
    _SAFE_INT64,
    INDETERMINATE,
    LANE_PRIME_CAP,
    LANE_PRIME_CEILING,
    IntervalScalar,
    context_for_order,
    cyclotomic_polynomial,
    euler_phi,
    get_context,
    integer_lane_basis,
    integer_lanes,
    is_zero,
    read_fraction,
    scalar_from_json,
    scalar_to_json,
    sign_of,
    trig_pair,
    _coefficient,
    _mul_vectors,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def cyclo_elements(ctx):
    return st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=ctx.degree,
        max_size=ctx.degree,
    ).map(ctx.element)


class TestCyclotomicPolynomial:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", [4, 8, 12, 20, 36, 84, 156])
    def test_degree_is_totient(self, n):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1

    def test_root_of_unity_vanishes(self):
        ctx = get_context(20)
        z = ctx.zeta_power(1)
        acc = ctx.zero()
        power = ctx.one()
        for c in ctx.poly:
            acc = acc + power * c
            power = power * z
        assert acc.is_zero()


class TestTrigPair:
    def test_zero_angle(self):
        c, s = trig_pair(0, 12)
        assert c == 1 and s == 0

    def test_quarter_turn(self):
        c, s = trig_pair(3, 12)
        assert c == 0 and s == 1

    def test_thirty_degrees_sine_is_half(self):
        c, s = trig_pair(1, 12)
        assert s == Fraction(1, 2)
        # cos(30deg) squares to 3/4
        assert c * c == Fraction(3, 4)

    def test_sqrt3_identity(self):
        # independent sqrt(3): z - z^5 in conductor 12; certified by squaring
        ctx = context_for_order(12)
        sqrt3 = ctx.zeta_power(1) - ctx.zeta_power(5)
        assert sqrt3 * sqrt3 == 3
        assert sign_of(sqrt3) == 1
        c, _ = trig_pair(1, 12, ctx)
        assert sign_of(2 * c - sqrt3) == 0

    def test_angle_sum_identity(self):
        ctx = context_for_order(20)
        for j, k in [(1, 2), (3, 7), (5, 11)]:
            cj, sj = trig_pair(j, 20, ctx)
            ck, sk = trig_pair(k, 20, ctx)
            cjk, sjk = trig_pair(j + k, 20, ctx)
            assert cj * ck - sj * sk == cjk
            assert sj * ck + cj * sk == sjk

    def test_rejects_non_divisor(self):
        ctx = get_context(12)
        with pytest.raises(ConductorError):
            ctx.cos_sin(1, 7)

    def test_conductor_must_be_multiple_of_four(self):
        with pytest.raises(ConductorError):
            get_context(6)

    @pytest.mark.parametrize("conductor", [0, -4, -8])
    def test_conductor_must_be_positive(self, conductor):
        with pytest.raises(ConductorError):
            get_context(conductor)

    def test_huge_conductor_is_refused_before_factoring(self):
        # trial division of this conductor would take about 10^10 steps
        with pytest.raises(ResourceError):
            get_context(4 * (10**20 + 39))


class TestSignOf:
    def test_rational_signs(self):
        assert sign_of(Fraction(3, 7)) == 1
        assert sign_of(Fraction(-3, 7)) == -1
        assert sign_of(Fraction(0)) == 0

    def test_exact_zero_in_field(self):
        # cos(2*pi*3/12) = cos(pi/2) = 0 exactly
        c, _ = trig_pair(3, 12)
        assert sign_of(c) == 0

    def test_non_real_rejected(self):
        ctx = get_context(12)
        with pytest.raises(DomainError):
            sign_of(ctx.zeta_power(1))

    def test_escalation_decides_tiny_nonzero(self):
        # rational approximation within 1e-40 of sqrt(3) forces the ladder
        # past its 128-bit starting precision
        ctx = context_for_order(12)
        sqrt3 = ctx.zeta_power(1) - ctx.zeta_power(5)
        approx = Fraction(math.isqrt(3 * 10**80), 10**40)  # floor, so below sqrt3
        assert sign_of(sqrt3 - approx) == 1
        assert sign_of(sqrt3 - approx - Fraction(1, 10**39)) == -1

    def test_explicit_cap_bounds_the_ladder(self):
        ctx = context_for_order(12)
        sqrt3 = ctx.zeta_power(1) - ctx.zeta_power(5)
        tiny = sqrt3 - Fraction(math.isqrt(3 * 4**200), 2**200)  # in (0, 2^-199)
        with pytest.raises(ResourceError):
            sign_of(tiny, cap=128)
        assert sign_of(tiny) == 1

    def test_interval_straddle_is_indeterminate(self):
        x = IntervalScalar.from_fraction(Fraction(1, 3), 64)
        assert sign_of(x * 3 - 1) is INDETERMINATE
        assert sign_of(x) == 1
        assert sign_of(-x) == -1

    def test_indeterminate_refuses_bool(self):
        with pytest.raises(TypeError):
            bool(INDETERMINATE)

    @settings(max_examples=100, deadline=None)
    @given(fractions_st)
    def test_sign_consistency_rational_vs_interval(self, q):
        embedded = IntervalScalar.from_fraction(q, 64)
        interval_sign = sign_of(embedded)
        if interval_sign is not INDETERMINATE:
            assert interval_sign == sign_of(q)
        else:
            assert q == 0


class TestCycloRingLaws:
    ctx = get_context(20)

    @settings(max_examples=60, deadline=None)
    @given(cyclo_elements(ctx), cyclo_elements(ctx), cyclo_elements(ctx))
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @settings(max_examples=60, deadline=None)
    @given(cyclo_elements(ctx), cyclo_elements(ctx))
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @settings(max_examples=40, deadline=None)
    @given(cyclo_elements(ctx))
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == 1

    @settings(max_examples=40, deadline=None)
    @given(cyclo_elements(ctx), cyclo_elements(ctx),
           st.sampled_from([k for k in range(1, 20) if math.gcd(k, 20) == 1]))
    def test_galois_action_is_a_ring_homomorphism(self, a, b, k):
        assert (a + b)._galois(k) == a._galois(k) + b._galois(k)
        assert (a * b)._galois(k) == a._galois(k) * b._galois(k)

    @settings(max_examples=40, deadline=None)
    @given(cyclo_elements(ctx), st.sampled_from(["real", "rational", "generic"]))
    def test_conjugate_product_makes_the_norm(self, a, kind):
        # a real element's conjugates repeat in pairs; a rational one has
        # no conjugate other than itself, so its product is 1
        a = {"real": a + a.conjugate(), "generic": a,
             "rational": self.ctx.from_rational(a.coefficients[0] or 1)}[kind]
        if not a.is_zero():
            assert (a * a.conjugate_product()).is_rational()
            assert a * a.inverse() == 1
        if kind == "rational":
            assert a.conjugate_product() == 1

    def test_inverse_of_dense_elements_at_degree_48(self):
        ctx = get_context(156)
        assert ctx.degree == 48
        rng = random.Random(48)
        for _ in range(3):
            a = ctx.element([Fraction(rng.randint(-2**11, 2**11), rng.randint(1, 12))
                             for _ in range(ctx.degree)])
            assert a * a.inverse() == 1

    @settings(max_examples=40, deadline=None)
    @given(cyclo_elements(ctx))
    def test_conjugation_is_involutive(self, a):
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).is_real()


def schoolbook_product(ctx, x, y):
    """x * y as Python ints, reduced by long division by the monic
    cyclotomic polynomial ``ctx.poly``."""
    product = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            product[i + j] += a * b
    deg = ctx.degree
    for top in range(len(product) - 1, deg - 1, -1):
        lead = product[top]
        for i, c in enumerate(ctx.poly):
            product[top - deg + i] -= lead * c
    return tuple(product[:deg])


class TestProductAtTheInt64Bound:
    """Coefficient products take numpy's int64 convolution below a bound
    and exact Python ints above it; both must give the exact product."""

    @staticmethod
    def operand(rng, deg, largest, signed):
        values = [largest if not signed else rng.choice([-largest, largest])
                  for _ in range(deg)]
        values[rng.randrange(deg)] = rng.randint(-largest, largest) if signed else 0
        return tuple(values)

    @pytest.mark.parametrize("conductor", [4, 8, 12, 72, 156])
    @pytest.mark.parametrize("signed", [False, True])
    def test_just_under_and_just_over_the_bound(self, conductor, signed):
        ctx = get_context(conductor)
        deg, rng = ctx.degree, random.Random(conductor)
        # a product takes int64 iff max|x| * max|y| * scale < _SAFE_INT64
        scale = deg * ctx._table_max * deg
        for xmax in (1, 2**7, 2**20 + 3):
            under = (_SAFE_INT64 - 1) // (scale * xmax)
            # in int64 the last two would overflow: the reduction at degree
            # 48, the convolution at every degree
            for ymax in (under, under + 1, under * ctx._table_max * deg, under * 2**20):
                x = self.operand(rng, deg, xmax, signed)
                y = self.operand(rng, deg, ymax, signed)
                assert _mul_vectors(ctx, x, y) == schoolbook_product(ctx, x, y)
                assert _mul_vectors(ctx, y, x) == schoolbook_product(ctx, x, y)

    @pytest.mark.parametrize("conductor", [4, 8, 12, 72, 156])
    def test_zero_times_a_coefficient_past_two_to_the_63(self, conductor):
        ctx = get_context(conductor)
        zero = (0,) * ctx.degree
        big = (2**64 + 3,) + (-(2**70),) * (ctx.degree - 1)
        assert _mul_vectors(ctx, zero, big) == zero == _mul_vectors(ctx, big, zero)
        assert (ctx.zero() * ctx.element(big)).is_zero()


class TestSplitPrimes:
    @pytest.mark.parametrize("conductor", [8, 12, 20, 52, 156])
    def test_lanes_are_a_ring_isomorphism(self, conductor):
        ctx = get_context(conductor)
        basis = ctx.lane_basis(2**120)
        assert basis.modulus == math.prod(basis.primes) > 2**121
        assert math.prod(basis.primes[:-1]) <= 2**121  # the fewest primes
        for p, evaluate, interpolate in zip(basis.primes, basis.evaluate, basis.interpolate):
            assert p % conductor == 1 and p < LANE_PRIME_CEILING
            assert all(p % f for f in range(2, math.isqrt(p) + 1))
            assert (evaluate @ interpolate % p == np.eye(ctx.degree, dtype=np.int64)).all()
        rng = random.Random(conductor)
        a, b = (
            ctx.element([rng.randint(-2**20, 2**20) for _ in range(ctx.degree)])
            for _ in range(2)
        )
        c = a * b - a
        lanes_a, lanes_b, lanes_c, lanes_neg, lanes_big = ctx.to_lanes(
            [a, b, c, -c, c * 2**200], basis)
        expected = (lanes_a * lanes_b - lanes_a) % basis.moduli
        assert (lanes_c == expected).all()
        assert (lanes_neg == -expected % basis.moduli).all()
        # coefficients past int64 reduce exactly
        scale = np.array([pow(2, 200, p) for p in basis.primes])[:, None]
        assert (lanes_big == expected * scale % basis.moduli).all()
        [back] = ctx.from_lanes(expected[None], basis)
        assert back == c and back.num == c.num and back.den == 1
        with pytest.raises(ValueError):
            ctx.to_lanes([a, c * Fraction(1, 2)], basis)


    def test_integer_basis_is_the_fewest_largest_primes(self):
        """Integers have one lane per prime, so their basis takes the
        largest primes below the ceiling, with no split condition."""
        basis = integer_lane_basis(2**120)
        assert basis.degree == 1 and basis.modulus == math.prod(basis.primes) > 2**121
        assert math.prod(basis.primes[:-1]) <= 2**121
        candidates = range(basis.primes[-1], LANE_PRIME_CEILING)
        assert [m for m in reversed(candidates)
                if all(m % f for f in range(2, math.isqrt(m) + 1))] == list(basis.primes)
        values = [5, -5, 0, 3**300, -(2**200)]
        assert integer_lanes(values, basis).shape == (len(values), len(basis.primes), 1)
        assert integer_lanes(values, basis)[:, :, 0].tolist() == [
            [x % p for p in basis.primes] for x in values]
        assert len(integer_lane_basis(2 ** (26 * (LANE_PRIME_CAP - 1))).primes) == LANE_PRIME_CAP
        assert integer_lane_basis(2 ** (26 * LANE_PRIME_CAP)) is None


class TestIntervalContainment:
    def test_embedding_contains_rational(self):
        rng = random.Random(99)
        for _ in range(1000):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for bits in (64, 128, 256):
                x = IntervalScalar.from_fraction(q, bits)
                assert x.lo <= q <= x.hi

    def test_arithmetic_containment(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            b = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            ia = IntervalScalar.from_fraction(a, 64)
            ib = IntervalScalar.from_fraction(b, 64)
            for exact, interval in [
                (a + b, ia + ib),
                (a - b, ia - ib),
                (a * b, ia * ib),
            ]:
                assert interval.lo <= exact <= interval.hi

    def test_cyclotomic_embedding_contains_value(self):
        # verified through a rational element whose exact value is known
        ctx = get_context(12)
        q = Fraction(22, 7)
        enc = ctx.from_rational(q).real_enclosure(128)
        from hypersphere_lab.scalars import _raw_to_fraction

        assert _raw_to_fraction(enc._mpi_[0]) <= q <= _raw_to_fraction(enc._mpi_[1])

    def test_unbounded_quotient_has_no_endpoints(self):
        # 1 / [-1, 1] encloses [-inf, +inf]: neither endpoint is a number
        quotient = IntervalScalar.from_fraction(1, 128) / IntervalScalar.from_endpoints(
            "-1", "1", 128)
        for read in (lambda q: q.lo, lambda q: q.hi, scalar_to_json):
            with pytest.raises(DomainError, match="unbounded"):
                read(quotient)

    def test_division_containment(self):
        x = IntervalScalar.from_fraction(Fraction(1, 3), 128)
        y = IntervalScalar.from_fraction(Fraction(7, 5), 128)
        z = x / y
        assert z.lo <= Fraction(5, 21) <= z.hi


class TestZeroTest:
    def test_exact_backends_decide(self):
        ctx = get_context(12)
        assert is_zero(Fraction(0)) is True
        assert is_zero(Fraction(1, 10**20)) is False
        assert is_zero(ctx.zero()) is True
        assert is_zero(ctx.zeta_power(1) - ctx.zeta_power(1)) is True

    def test_interval_never_claims_zero(self):
        exact_zero = IntervalScalar.from_fraction(0, 64)
        assert is_zero(exact_zero) is INDETERMINATE


class TestSerialization:
    def test_rational_strings(self):
        assert scalar_to_json(Fraction(-3, 7)) == "-3/7"
        assert scalar_from_json("-3/7") == Fraction(-3, 7)
        assert scalar_from_json("5") == 5

    def test_cyclotomic_round_trip(self):
        ctx = get_context(12)
        e = ctx.element([Fraction(1, 2), Fraction(-3), 0, Fraction(2, 7)])
        data = scalar_to_json(e)
        assert data["conductor"] == 12
        assert scalar_from_json(data) == e

    @pytest.mark.parametrize("text", [
        "0", "-0", "7", "-12", "007", "9" * 19, "9" * 20, "-" + "9" * 30, "1/2", "-3/4", "4/2",
        " 7", "7 ", "+5", "1_0", "\u0663", "1e3", "0.5", "9" * 5000, "\u00b2", "", "-", "--1",
        "1-", "1/0", "abc", 3, -2, 0.25, True, None, [1], " 1/2", "1/2e5", "-0/5", "1/00", "12/",
        "/3", "1/-2", "-/3", "9" * 12 + "/" + "9" * 12,
    ])
    def test_cyclotomic_coefficients_read_as_through_fraction(self, text):
        """Short ASCII integers are read as ints; every coefficient encoding
        gives the element, or raises the error, that ``Fraction`` gives."""
        ctx = get_context(12)
        coeffs = ["3", text, "-1/6"]
        try:
            want = ctx.element([Fraction(c) for c in coeffs])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as raised:
                scalar_from_json({"conductor": 12, "coeffs": coeffs})
            assert str(raised.value) == str(exc)
        else:
            got = scalar_from_json({"conductor": 12, "coeffs": coeffs})
            assert (got.num, got.den) == (want.num, want.den)
            assert all(type(c) is int for c in got.num)

    @pytest.mark.parametrize("text", [
        "1/2", "-3/4", "1/0", " 1/2", "1/2e5", "-0/5", "007/014", "1/00", "1/-2", "12/", "/3",
    ])
    def test_fraction_coefficients_read_as_read_fraction_reads_them(self, text, monkeypatch):
        """An ASCII p/q with an optional minus on p and a nonzero q is read
        as Fraction(int(p), int(q)), with no regex; any other string goes
        through ``read_fraction``.  Each reads, or fails, exactly as
        ``read_fraction`` reads it."""
        from hypersphere_lab import scalars

        try:
            want = read_fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as raised:
                _coefficient(text)
            assert str(raised.value) == str(exc)
        else:
            got = _coefficient(text)
            assert type(got) is Fraction and got == want
        if text in ("1/2", "-3/4", "-0/5", "007/014"):
            monkeypatch.setattr(scalars, "read_fraction", None)
            assert _coefficient(text) == want

    def test_interval_round_trip_exact(self):
        x = IntervalScalar.from_fraction(Fraction(1, 3), 96)
        data = scalar_to_json(x)
        y = scalar_from_json(data)
        assert (y.lo, y.hi, y.bits) == (x.lo, x.hi, x.bits)

    def test_cyclotomic_pickles_into_the_shared_context(self):
        import pickle

        ctx = get_context(20)
        fraction = ctx.element([Fraction(i - 3, 7) for i in range(ctx.degree)])
        integral = ctx.element([i - 3 for i in range(ctx.degree)])
        for x in (fraction, integral):
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x)
            assert scalar_to_json(y) == scalar_to_json(x)
            assert y.ctx is ctx

    def test_interval_pickles(self):
        import pickle

        x = IntervalScalar.from_fraction(Fraction(-22, 7), 160)
        y = pickle.loads(pickle.dumps(x))
        assert (y.lo, y.hi, y.bits) == (x.lo, x.hi, x.bits)


class TestPrivateIntervalPrecision:
    def test_no_interval_operation_writes_global_precision(self, monkeypatch):
        import pickle

        import mpmath
        from mpmath.ctx_iv import MPIntervalContext

        from hypersphere_lab.constructions import CurveParams, completion_residual

        global_writes = []
        prec = MPIntervalContext.prec

        def recording_setter(ctx, bits):
            global_writes.append(ctx is mpmath.iv)
            prec.fset(ctx, bits)

        monkeypatch.setattr(MPIntervalContext, "prec", property(prec.fget, recording_setter))
        x = IntervalScalar.from_fraction(Fraction(1, 3), 160)
        y = IntervalScalar.from_fraction(Fraction(-7, 5), 136)
        for z in (x + y, x - y, x * y, x / y, -x, 1 - x, x * Fraction(2, 9)):
            assert z.lo <= z.hi
        sqrt3 = 2 * trig_pair(1, 12)[0]
        assert sign_of(sqrt3 - Fraction(17, 10)) == 1
        assert completion_residual(CurveParams.default(4), [0.1, 0.2, 0.3, 0.4, 0.5],
                                   bits=144).contains_zero()
        again = pickle.loads(pickle.dumps(x))
        assert (again.lo, again.hi) == (x.lo, x.hi)
        assert not any(global_writes)
