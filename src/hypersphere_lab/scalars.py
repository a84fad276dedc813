"""Scalar backends and the sign/zero decision contract.

Three interchangeable scalar kinds flow through the geometry layer:

* exact rationals -- plain ``fractions.Fraction`` (always reduced, positive
  denominator);
* cyclotomic field elements -- coefficient vectors modulo the N-th
  cyclotomic polynomial, N a multiple of 4 so that i, cos(2*pi*j/n) and
  sin(2*pi*j/n) all live in one field for every n dividing N;
* certified intervals -- outward-rounded mpmath intervals carrying their
  working precision in bits.  Each precision has its own private mpmath
  interval context (``interval_context``); the process-global
  ``mpmath.iv`` is never read or written.

Cyclotomic determinants are also computed in residue lanes: a prime
p = 1 mod N splits Z[zeta_N] into phi(N) copies of F_p (the images of zeta
under the primitive N-th roots of unity mod p), where products act lane by
lane.  ``CyclotomicContext.lane_basis`` picks enough such primes for a
proven coefficient bound, ``to_lanes`` maps integral elements into the
lanes and ``from_lanes`` recovers the exact coefficients by the Chinese
remainder theorem.  Integers have lanes of degree 1, one residue per
prime, over plain primes (``integer_lane_basis``, ``integer_lanes``).
Elements keep no lanes: ``geometry.scaled_rows`` does.

Zero-testing is exact on the first two backends.  Interval scalars never
certify equality: their zero test answers False (certified nonzero) or
``INDETERMINATE``, never True.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import finf, fnan, fninf, mpf_lt

from .errors import ConductorError, DomainError, ResourceError

DEFAULT_START_BITS = 128
DEFAULT_BITS_CAP = 4096
# largest cyclotomic field degree phi(N) a context is built for
DEGREE_CAP = 1024

# int64 headroom for the numpy convolution fast path
_SAFE_INT64 = 1 << 62
# lane primes lie below this ceiling, so that phi(N) * p^2 < 2^63 for every
# degree up to DEGREE_CAP and each lane matmul is exact in int64
LANE_PRIME_CEILING = 1 << 26
# most primes a lane basis takes: the Garner lift and the per-prime tables
# cost time quadratic in the prime count, so past about this many primes (a
# coefficient bound near 2^(26 * LANE_PRIME_CAP)) expanding the elements
# themselves is faster
LANE_PRIME_CAP = 32
# largest decimal exponent, in absolute value, of a number read from text:
# Python's int-to-str digit limit, so no command could print a value past
# it, and ``Fraction`` would build every digit of 10**exponent first
EXPONENT_CAP = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


class _IndeterminateType:
    """Tri-state 'unknown' outcome. Refuses truth-testing so it can never be
    silently coerced to False inside a counting loop."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        raise TypeError("indeterminate predicate outcome has no truth value")

    def __repr__(self):
        return "INDETERMINATE"


INDETERMINATE = _IndeterminateType()


@functools.lru_cache(maxsize=None)
def interval_context(bits: int) -> MPIntervalContext:
    """Private mpmath interval context working at ``bits`` of precision."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


# ---------------------------------------------------------------------------
# cyclotomic polynomial machinery
# ---------------------------------------------------------------------------


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m >= 1, by trial division."""
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def _is_prime(m: int) -> bool:
    """Whether m < 3 215 031 751 is prime: the Miller-Rabin test to the
    bases 2, 3, 5 and 7, which no composite below that bound passes
    (Pomerance, Selfridge and Wagstaff, Math. Comp. 35, 1980)."""
    if m < 11:
        return m in (2, 3, 5, 7)
    odd, halvings = m - 1, 0
    while odd % 2 == 0:
        odd, halvings = odd // 2, halvings + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(halvings - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def euler_phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic up to its leading +/-1 coefficient; division is exact here
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


class LaneBasis(NamedTuple):
    """The first ``len(primes)`` lane primes of a context, stacked for numpy.

    The lanes of an element modulo p are its images under the phi(N)
    embeddings zeta -> omega^k into F_p, with omega a primitive N-th root of
    unity mod p and k running over the units mod N.  An integer has one
    lane per prime, its residue, so a basis of degree 1 needs no split
    condition on its primes (``integer_lane_basis``).
    """

    primes: tuple[int, ...]
    modulus: int  # product of the primes
    moduli: np.ndarray  # (P, 1)
    evaluate: np.ndarray  # (P, deg, deg): lanes = coefficients @ evaluate[i] mod p_i
    interpolate: np.ndarray  # (P, deg, deg): coefficients = lanes @ interpolate[i] mod p_i

    @property
    def degree(self) -> int:
        return self.evaluate.shape[-1]


# the primes below LANE_PRIME_CEILING in decreasing order, as far as any
# ``integer_lane_basis`` has searched, and the products of their prefixes
_INTEGER_PRIMES: list[int] = []
_INTEGER_PRODUCTS: list[int] = []


def integer_lane_basis(bound: int) -> LaneBasis | None:
    """The degree-1 lane basis of the fewest primes below the ceiling,
    largest first, whose product exceeds 2 * ``bound``, so that the Chinese
    remainder theorem recovers every integer of absolute value at most
    ``bound``; None if that takes more than LANE_PRIME_CAP primes."""
    while not _INTEGER_PRODUCTS or _INTEGER_PRODUCTS[-1] <= 2 * bound:
        if len(_INTEGER_PRIMES) >= LANE_PRIME_CAP:
            return None
        p = (_INTEGER_PRIMES[-1] if _INTEGER_PRIMES else LANE_PRIME_CEILING) - 1
        while not _is_prime(p):
            p -= 1
        _INTEGER_PRIMES.append(p)
        _INTEGER_PRODUCTS.append(p * (_INTEGER_PRODUCTS[-1] if _INTEGER_PRODUCTS else 1))
    count = bisect.bisect_right(_INTEGER_PRODUCTS, 2 * bound) + 1
    primes = tuple(_INTEGER_PRIMES[:count])
    ones = np.ones((count, 1, 1), dtype=np.int64)
    return LaneBasis(primes, _INTEGER_PRODUCTS[count - 1],
                     np.array(primes, dtype=np.int64)[:, None], ones, ones)


def integer_lanes(values, basis: LaneBasis) -> np.ndarray:
    """The residues of the Python ints ``values`` modulo each prime of the
    degree-1 ``basis``, shape (len(values), len(basis.primes), 1)."""
    # reduced as Python ints, so values of any size are exact
    residues = [[value % p for p in basis.primes] for value in values]
    return np.array(residues, dtype=np.int64).reshape(len(values), len(basis.primes), 1)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicContext:
    """Arithmetic context for Q(zeta_N) with N a multiple of 4.

    Elements are represented on the power basis 1, z, ..., z^(phi(N)-1)
    modulo the N-th cyclotomic polynomial.  The complex embedding used for
    interval evaluation sends z to exp(2*pi*i/N).
    """

    def __init__(self, conductor: int):
        if conductor <= 0 or conductor % 4 != 0:
            raise ConductorError(f"conductor must be a positive multiple of 4, got {conductor}")
        if conductor > 2 * DEGREE_CAP**2:
            # phi(N) >= sqrt(N/2); checked before euler_phi, whose trial
            # division takes O(sqrt(N)) steps
            raise ResourceError(
                f"conductor {conductor} gives a field degree above cap {DEGREE_CAP}"
            )
        self.conductor = conductor
        self.degree = euler_phi(conductor)
        if self.degree > DEGREE_CAP:
            raise ResourceError(
                f"field degree {self.degree} for conductor {conductor} exceeds cap {DEGREE_CAP}"
            )
        self.poly = cyclotomic_polynomial(conductor)
        assert len(self.poly) == self.degree + 1 and self.poly[-1] == 1

        # power_table[k] = coefficient vector of z^k reduced mod the
        # cyclotomic polynomial, for 0 <= k < N.
        deg = self.degree
        table = []
        vec = [0] * deg
        vec[0] = 1
        for _ in range(conductor):
            table.append(tuple(vec))
            carry = vec[deg - 1]
            vec = [0] + vec[: deg - 1]
            if carry:
                for i in range(deg):
                    vec[i] -= carry * self.poly[i]
        self.power_table = tuple(table)
        self._reduction_np = np.array(table[deg:2 * deg - 1], dtype=np.int64)
        self._table_max = max(1, max(abs(c) for row in table for c in row))
        self._root_cache: dict[int, list[tuple]] = {}
        self.units = tuple(k for k in range(1, conductor) if math.gcd(k, conductor) == 1)
        # split primes p = 1 + kN, found on demand searching k downward
        self._lane_candidate = (LANE_PRIME_CEILING - 2) // conductor
        self._lane_tables: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._lane_products: list[int] = []

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "CycloElement":
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        coeffs += [0] * (self.degree - len(coeffs))
        # ints are tested first: ``isinstance(c, Fraction)`` runs
        # ``ABCMeta.__instancecheck__``
        fractions = [type(c) is not int and isinstance(c, Fraction) for c in coeffs]
        den = math.lcm(*(c.denominator for c, f in zip(coeffs, fractions) if f))
        num = tuple(c.numerator * (den // c.denominator) if f else c * den
                    for c, f in zip(coeffs, fractions))
        return CycloElement(self, num, den)

    def from_rational(self, value) -> "CycloElement":
        q = Fraction(value)
        num = (q.numerator,) + (0,) * (self.degree - 1)
        return CycloElement(self, num, q.denominator)

    def zero(self) -> "CycloElement":
        return CycloElement(self, (0,) * self.degree, 1)

    def one(self) -> "CycloElement":
        return self.from_rational(1)

    def zeta_power(self, k: int) -> "CycloElement":
        return CycloElement(self, self.power_table[k % self.conductor], 1)

    def cos_sin(self, j: int, n: int) -> tuple["CycloElement", "CycloElement"]:
        """Exact (cos(2*pi*j/n), sin(2*pi*j/n)); n must divide the conductor."""
        if n <= 0 or self.conductor % n != 0:
            raise ConductorError(f"{n} does not divide conductor {self.conductor}")
        step = self.conductor // n
        m = (j * step) % self.conductor
        quarter = 3 * self.conductor // 4
        cos = (self.zeta_power(m) + self.zeta_power(-m)) * Fraction(1, 2)
        # sin t = -i (z^m - z^-m)/2 with -i = z^(3N/4)
        sin = (self.zeta_power(quarter + m) - self.zeta_power(quarter - m)) * Fraction(1, 2)
        return cos, sin

    # -- embedding support ----------------------------------------------------

    def _roots(self, bits: int) -> list[tuple]:
        """Interval enclosures of (Re, Im) of z^k for k < degree."""
        cached = self._root_cache.get(bits)
        if cached is not None:
            return cached
        iv = interval_context(bits + 16)
        two_pi = 2 * iv.pi
        roots = []
        for k in range(self.degree):
            theta = (two_pi * k) / self.conductor
            roots.append((iv.cos(theta), iv.sin(theta)))
        self._root_cache[bits] = roots
        return roots

    # -- residue lanes ----------------------------------------------------

    def _add_split_prime(self) -> bool:
        """Append the next prime p = 1 mod N below the ceiling with its
        evaluation matrix at the primitive N-th roots of unity mod p and the
        inverse of that matrix; False once the candidates run out."""
        conductor, deg = self.conductor, self.degree
        while self._lane_candidate > 0:
            p = 1 + self._lane_candidate * conductor
            self._lane_candidate -= 1
            if not _is_prime(p):
                continue
            factors = _prime_factors(p - 1)
            root = next(
                g for g in itertools.count(2)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
            )
            omega = pow(root, (p - 1) // conductor, p)
            powers = [1]
            for _ in range(conductor - 1):
                powers.append(powers[-1] * omega % p)
            powers = np.array(powers, dtype=np.int64)
            units = np.array(self.units, dtype=np.int64)
            nodes = powers[units]  # the roots of the cyclotomic polynomial mod p
            evaluate = powers[np.outer(np.arange(deg), units) % conductor]
            # column a of the inverse holds the coefficients of the Lagrange
            # polynomial Phi(x) / ((x - x_a) Phi'(x_a)): synthetic division,
            # then Horner for Phi'(x_a) = (Phi(x) / (x - x_a)) at x_a
            poly = [c % p for c in self.poly]
            quotient = np.empty((deg, deg), dtype=np.int64)
            acc = np.ones(deg, dtype=np.int64)
            quotient[deg - 1] = acc
            for i in range(deg - 1, 0, -1):
                acc = (poly[i] + nodes * acc) % p
                quotient[i - 1] = acc
            slope = quotient[deg - 1]
            for i in range(deg - 2, -1, -1):
                slope = (slope * nodes + quotient[i]) % p
            scale = np.array([pow(int(v), -1, p) for v in slope], dtype=np.int64)
            interpolate = (quotient * scale % p).T
            self._lane_tables.append((p, evaluate, interpolate))
            self._lane_products.append(p * (self._lane_products[-1] if self._lane_products else 1))
            return True
        return False

    def lane_basis(self, bound: int) -> LaneBasis | None:
        """The fewest split primes whose product exceeds 2 * ``bound``, so
        that the Chinese remainder theorem recovers every integer of absolute
        value at most ``bound``; None if that takes more than LANE_PRIME_CAP
        primes or more than lie below the ceiling."""
        while not self._lane_products or self._lane_products[-1] <= 2 * bound:
            if len(self._lane_tables) >= LANE_PRIME_CAP or not self._add_split_prime():
                return None
        count = bisect.bisect_right(self._lane_products, 2 * bound) + 1
        primes, evaluate, interpolate = zip(*self._lane_tables[:count])
        return LaneBasis(primes, self._lane_products[count - 1],
                         np.array(primes, dtype=np.int64)[:, None],
                         np.stack(evaluate), np.stack(interpolate))

    def to_lanes(self, elements, basis: LaneBasis) -> np.ndarray:
        """Residue lanes of integral elements modulo each prime of ``basis``,
        shape (len(elements), len(basis.primes), degree)."""
        if any(e.den != 1 for e in elements):
            raise ValueError("residue lanes are defined for integral elements only")
        # reduced as Python ints, so coefficients of any size are exact
        num = np.array([e.num for e in elements], dtype=object).reshape(-1, 1, self.degree)
        num = (num % basis.moduli.astype(object)).astype(np.int64)
        lanes = np.matmul(num.transpose(1, 0, 2), basis.evaluate) % basis.moduli[:, None]
        return lanes.transpose(1, 0, 2)

    def from_lanes(self, lanes: np.ndarray, basis: LaneBasis) -> list["CycloElement"]:
        """The integral elements x_i whose residues over ``basis`` are
        ``lanes[i]``.

        The caller proves that every coefficient of x_i is at most
        basis.modulus / 2 in absolute value; Garner's mixed-radix form of the
        Chinese remainder theorem then recovers it exactly.
        """
        primes, moduli = basis.primes, basis.moduli
        # coefficient residues of x_i, shape (P, len(lanes), degree)
        residues = np.matmul(lanes.transpose(1, 0, 2), basis.interpolate)
        residues %= moduli[:, None]
        digits = []
        for i, p in enumerate(primes):
            digit = residues[i]
            for q, lower in zip(primes, digits):
                digit = (digit - lower) * pow(q, -1, p) % p
            digits.append(digit)
        value = digits[-1] if basis.modulus < _SAFE_INT64 else digits[-1].astype(object)
        for digit, p in zip(digits[-2::-1], primes[-2::-1]):
            value = value * p + digit
        value = np.where(value > basis.modulus // 2, value - basis.modulus, value)
        return [CycloElement(self, tuple(num), 1) for num in value.tolist()]

    def __repr__(self):
        return f"CyclotomicContext(conductor={self.conductor}, degree={self.degree})"


@functools.lru_cache(maxsize=None)
def get_context(conductor: int) -> CyclotomicContext:
    return CyclotomicContext(conductor)


def context_for_order(n: int) -> CyclotomicContext:
    """Smallest valid context containing cos/sin of all multiples of 2*pi/n."""
    return get_context(4 * n // math.gcd(4, n))


def trig_pair(j: int, n: int, ctx: CyclotomicContext | None = None):
    """Exact cyclotomic (cos(2*pi*j/n), sin(2*pi*j/n))."""
    if ctx is None:
        ctx = context_for_order(n)
    return ctx.cos_sin(j, n)


def _mul_vectors(ctx: CyclotomicContext, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    deg = ctx.degree
    # maxes of at least 1 send a huge operand times a zero one to the exact path
    bound = max(1, *map(abs, x)) * max(1, *map(abs, y)) * deg
    if bound * ctx._table_max * deg < _SAFE_INT64:
        conv = np.convolve(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))
        return tuple((conv[:deg] + conv[deg:] @ ctx._reduction_np).tolist())
    # big-coefficient fallback: exact python integers
    conv = [0] * (2 * deg - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                conv[i + j] += xi * yj
    out = conv[:deg]
    for i in range(deg, 2 * deg - 1):
        c = conv[i]
        if c:
            row = ctx.power_table[i]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


class CycloElement:
    """Immutable element of Q(zeta_N): integer coefficient vector over a
    positive common denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CyclotomicContext, num: tuple[int, ...], den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = tuple(-c for c in num)
            den = -den
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- representation -------------------------------------------------------

    def _normalized(self) -> tuple[tuple[int, ...], int]:
        g = math.gcd(self.den, *self.num)
        if g == 1:
            return self.num, self.den
        return tuple(c // g for c in self.num), self.den // g

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return Fraction(self.num[0], self.den)

    def _galois(self, k: int) -> "CycloElement":
        """Image under the automorphism z -> z^k of Q(zeta_N), k a unit mod N."""
        ctx = self.ctx
        out = [0] * ctx.degree
        for i, c in enumerate(self.num):
            if c:
                row = ctx.power_table[(k * i) % ctx.conductor]
                for j in range(ctx.degree):
                    if row[j]:
                        out[j] += c * row[j]
        return CycloElement(ctx, tuple(out), self.den)

    def conjugate(self) -> "CycloElement":
        return self._galois(-1)

    def is_real(self) -> bool:
        return (self - self.conjugate()).is_zero()

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.ctx is not self.ctx and other.ctx.conductor != self.ctx.conductor:
                raise ConductorError("mixed cyclotomic conductors")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        g = math.gcd(self.den, other.den)
        la, lb = other.den // g, self.den // g
        num = tuple(a * la + b * lb for a, b in zip(self.num, other.num))
        return CycloElement(self.ctx, num, self.den * la)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.ctx, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElement(
                self.ctx, tuple(c * q.numerator for c in self.num), self.den * q.denominator
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElement(
            self.ctx, _mul_vectors(self.ctx, self.num, other.num), self.den * other.den
        )

    __rmul__ = __mul__

    def conjugate_product(self) -> "CycloElement":
        """The product of the distinct conjugates sigma_k(self), k a unit
        mod N, other than self: self times it is the rational norm from
        Q(self) (Washington, *Introduction to Cyclotomic Fields*, ch. 2).
        Conjugates are told apart by their normalized coefficients, which
        are unique to each element."""
        ctx = self.ctx
        conjugates = {self._galois(k)._normalized() for k in ctx.units[1:]} - {self._normalized()}
        return math.prod((CycloElement(ctx, num, den) for num, den in conjugates),
                         start=ctx.one())

    def inverse(self) -> "CycloElement":
        """Field inverse: the ``conjugate_product`` over the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        rest = self.conjugate_product()
        return CycloElement(self.ctx, *(rest / (self * rest).as_rational())._normalized())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError
            return self * Fraction(q.denominator, q.numerator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            return self / other.as_rational()
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        num, den = self._normalized()
        return hash((self.ctx.conductor, num, den))

    def __repr__(self):
        num, den = self._normalized()
        return f"CycloElement(N={self.ctx.conductor}, coeffs={num}, den={den})"

    def __reduce__(self):
        # the context is shared, not copied: an unpickled element joins the
        # process's own get_context(N)
        return _cyclo_element, (self.ctx.conductor, self.num, self.den)

    # -- certified evaluation ---------------------------------------------

    def embed(self, bits: int):
        """Complex interval enclosure (Re, Im) at the context's embedding."""
        roots = self.ctx._roots(bits)
        iv = interval_context(bits + 16)
        re = iv.mpf(0)
        im = iv.mpf(0)
        for c, (cr, ci) in zip(self.num, roots):
            if c:
                re += cr * c
                im += ci * c
        den = iv.mpf(self.den)
        return re / den, im / den

    def real_enclosure(self, bits: int):
        if not self.is_real():
            raise DomainError("element is not fixed by complex conjugation")
        re, _ = self.embed(bits)
        return re


def _cyclo_element(conductor: int, num: tuple[int, ...], den: int) -> CycloElement:
    return CycloElement(get_context(conductor), num, den)


# ---------------------------------------------------------------------------
# certified interval scalars
# ---------------------------------------------------------------------------


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of a raw mpf tuple (sign, mantissa, exponent, bitcount);
    an unbounded enclosure's infinite or NaN endpoint is a DomainError."""
    if raw in (finf, fninf, fnan):
        raise DomainError("an unbounded interval enclosure has no finite endpoint")
    sign, man, exp, _ = raw
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _text(value) -> str:
    """str() of an int or Fraction; a number past Python's limit on the
    digits of an int-to-str conversion is a DomainError, not a ValueError."""
    try:
        return str(value)
    except ValueError:
        raise DomainError(
            "cannot write a number with more digits than Python converts to text"
        ) from None


def _fraction_to_decimal_string(value: Fraction) -> str:
    """Exact decimal rendering of a dyadic rational."""
    if value == 0:
        return "0"
    num, den = value.numerator, value.denominator
    # den is a power of two; scale to a power of ten
    k = den.bit_length() - 1
    scaled = num * 5**k
    text = _text(abs(scaled)).rjust(k + 1, "0")
    if k:
        text = text[:-k].rjust(1, "0") + "." + text[-k:]
    return ("-" if scaled < 0 else "") + text


class IntervalScalar:
    """Closed interval [lo, hi] with outward-rounded arithmetic at a fixed
    working precision."""

    __slots__ = ("val", "bits")

    def __init__(self, val, bits: int):
        self.val = val
        self.bits = bits

    @classmethod
    def from_fraction(cls, value, bits: int) -> "IntervalScalar":
        q = Fraction(value)
        iv = interval_context(bits)
        return cls(iv.mpf(q.numerator) / iv.mpf(q.denominator), bits)

    @classmethod
    def from_endpoints(cls, lo, hi, bits: int) -> "IntervalScalar":
        for endpoint in (lo, hi):
            if not isinstance(endpoint, (int, float, str)):
                raise ValueError(f"interval endpoint must be a number or a string, "
                                 f"got {endpoint!r}")
        # extra headroom so exact decimal endpoints round-trip unchanged;
        # the endpoints are rounded outward (a NaN to -inf and +inf)
        iv = interval_context(bits + 32)
        lower, upper = iv.mpf([lo, lo])._mpi_[0], iv.mpf([hi, hi])._mpi_[1]
        if lower in (finf, fninf) or upper in (finf, fninf):
            raise ValueError("interval endpoints must be finite")
        if mpf_lt(upper, lower):
            raise ValueError("interval lower bound exceeds upper bound")
        return cls(iv.make_mpf((lower, upper)), bits)

    @property
    def lo(self) -> Fraction:
        return _raw_to_fraction(self.val._mpi_[0])

    @property
    def hi(self) -> Fraction:
        return _raw_to_fraction(self.val._mpi_[1])

    def _binary(self, other, op):
        if isinstance(other, IntervalScalar):
            bits = min(self.bits, other.bits)
            rhs = other.val
        elif isinstance(other, (int, Fraction)):
            bits = self.bits
            rhs = IntervalScalar.from_fraction(other, bits).val
        else:
            return NotImplemented
        # convert copies endpoints exactly; the op rounds at ``bits``
        iv = interval_context(bits)
        return IntervalScalar(op(iv.convert(self.val), iv.convert(rhs)), bits)

    def __add__(self, other):
        return self._binary(other, lambda lhs, rhs: lhs + rhs)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda lhs, rhs: lhs - rhs)

    def __rsub__(self, other):
        return self._binary(other, lambda lhs, rhs: rhs - lhs)

    def __mul__(self, other):
        return self._binary(other, lambda lhs, rhs: lhs * rhs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda lhs, rhs: lhs / rhs)

    def __neg__(self):
        # negation is exact given mantissa headroom
        return IntervalScalar(-interval_context(self.bits + 32).convert(self.val), self.bits)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __repr__(self):
        return f"IntervalScalar([{self.val.a}, {self.val.b}], bits={self.bits})"

    def __reduce__(self):
        return (
            IntervalScalar.from_endpoints,
            (
                _fraction_to_decimal_string(self.lo),
                _fraction_to_decimal_string(self.hi),
                self.bits,
            ),
        )


# ---------------------------------------------------------------------------
# sign decisions
# ---------------------------------------------------------------------------


def sign_of(value, cap: int = DEFAULT_BITS_CAP):
    """Sign in {-1, 0, +1}, or INDETERMINATE for straddling intervals.

    Rational and cyclotomic inputs always decide: cyclotomic signs use the
    exact zero test first, then interval evaluation with doubling precision
    (termination is guaranteed for nonzero algebraic numbers; the cap is a
    resource guard, not a correctness device).
    """
    if isinstance(value, (int, Fraction)):
        return (value > 0) - (value < 0)
    if isinstance(value, CycloElement):
        if not value.is_real():
            raise DomainError("sign of a non-real cyclotomic element")
        if value.is_zero():
            return 0
        bits = DEFAULT_START_BITS
        while True:
            lo, hi = map(_raw_to_fraction, value.real_enclosure(bits)._mpi_)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if bits >= cap:
                raise ResourceError(
                    f"sign undecided for nonzero element at precision cap {cap} bits"
                )
            bits = min(2 * bits, cap)
    if isinstance(value, IntervalScalar):
        if value.lo > 0:
            return 1
        if value.hi < 0:
            return -1
        return INDETERMINATE
    raise TypeError(f"unsupported scalar type {type(value)!r}")


def is_zero(value):
    """Tri-state zero test: True/False for exact backends, False or
    INDETERMINATE for intervals (an interval never certifies equality).
    Cyclotomic values are tested before ``Fraction``, whose ``isinstance``
    runs ``ABCMeta.__instancecheck__``."""
    if isinstance(value, int):
        return value == 0
    if isinstance(value, CycloElement):
        return value.is_zero()
    if isinstance(value, Fraction):
        return value == 0
    if isinstance(value, IntervalScalar):
        if value.contains_zero():
            return INDETERMINATE
        return False
    raise TypeError(f"unsupported scalar type {type(value)!r}")


def backend_of(value) -> str:
    if isinstance(value, (int, Fraction)):
        return "rational"
    if isinstance(value, CycloElement):
        return "cyclotomic"
    if isinstance(value, IntervalScalar):
        return "interval"
    raise TypeError(f"unsupported scalar type {type(value)!r}")


def one_like(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(1)
    if isinstance(value, CycloElement):
        return value.ctx.one()
    if isinstance(value, IntervalScalar):
        return IntervalScalar.from_fraction(1, value.bits)
    raise TypeError(f"unsupported scalar type {type(value)!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def scalar_to_json(value):
    if isinstance(value, (int, Fraction)):
        return _text(Fraction(value))
    if isinstance(value, CycloElement):
        num, den = value._normalized()
        return {
            "conductor": value.ctx.conductor,
            "coeffs": [_text(Fraction(c, den)) for c in num],
        }
    if isinstance(value, IntervalScalar):
        return {
            "lo": _fraction_to_decimal_string(value.lo),
            "hi": _fraction_to_decimal_string(value.hi),
            "bits": value.bits,
        }
    raise TypeError(f"unsupported scalar type {type(value)!r}")


def _json_int(data: dict, key: str) -> int:
    if type(data[key]) is not int:
        raise DomainError(f"scalar field {key!r} must be an integer, got {data[key]!r}")
    return data[key]


def read_fraction(text) -> Fraction:
    """``Fraction(text)``, with its values and errors, for a number read
    from a file or the command line; a string whose decimal exponent
    exceeds EXPONENT_CAP in absolute value is a DomainError."""
    match = _EXPONENT.search(text) if isinstance(text, str) else None
    if match:
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(EXPONENT_CAP)) or int(digits or 0) > EXPONENT_CAP:
            raise DomainError(f"decimal exponent of {text[:40]!r} exceeds "
                              f"{EXPONENT_CAP} in absolute value")
    return Fraction(text)


def _coefficient(text):
    """A cyclotomic coefficient read from JSON.  A short ASCII string of
    digits, with or without a leading minus, is read as a Python int (most
    coefficients are "0"), and two such strings p/q, with no minus in q
    and q nonzero, as ``Fraction(int(p), int(q))`` (most others are
    halves); anything else goes through ``read_fraction``, with its values
    and its errors."""
    if type(text) is str and len(text) < 20 and text.isascii():
        numerator, slash, denominator = text.partition("/")
        if numerator.removeprefix("-").isdigit():
            if not slash:
                return int(numerator)
            if denominator.isdigit() and denominator.strip("0"):
                return Fraction(int(numerator), int(denominator))
    return read_fraction(text)


def _coefficients(texts: list, parsed: dict) -> list:
    """``_coefficient`` of each of ``texts``, where ``parsed`` maps each
    string read before to its value and gets each string read here, so that
    each distinct string is parsed once; anything that is no string is read
    each time."""
    values = []
    for text in texts:
        if type(text) is not str:
            values.append(_coefficient(text))
        elif text in parsed:
            values.append(parsed[text])
        else:
            values.append(parsed.setdefault(text, _coefficient(text)))
    return values


def scalar_from_json(data, parsed=None):
    """The scalar of a JSON value.  ``parsed``, a dict that the calls for
    one file share, maps the cyclotomic coefficient strings read so far to
    their values, so that each distinct string is parsed once; the values
    and errors are those of reading each string on its own."""
    if isinstance(data, str):
        return read_fraction(data)
    if isinstance(data, dict) and "conductor" in data:
        ctx = get_context(_json_int(data, "conductor"))
        if type(data["coeffs"]) is not list:
            raise DomainError(f"scalar field 'coeffs' must be a list, got {data['coeffs']!r}")
        return ctx.element(_coefficients(data["coeffs"], {} if parsed is None else parsed))
    if isinstance(data, dict) and "lo" in data:
        return IntervalScalar.from_endpoints(data["lo"], data["hi"], _json_int(data, "bits"))
    raise ValueError(f"unrecognized scalar encoding: {data!r}")
