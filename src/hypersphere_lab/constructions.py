"""Generators for extremal configurations, the residue-class oracle that
predicts their counts, and closed-form reference values.

Two configuration families are provided:

* ``trivial_config`` -- n-1 rational points in general position on the unit
  sphere plus one rational point off it.  Its generic spectrum is
  {d+1: C(n-1, d), n-1: 1}.

* ``coset_config`` -- n points gamma(2*pi*(j + l/(d+2))/n) on the bounded
  perturbed trigonometric curve

      gamma(t) = (a cos t, b sin t, a2 cos 2t, a2 sin 2t, ...,
                  e cos t + ak cos kt, ak sin kt),         d = 2k,

  with exact cyclotomic coordinates.  |gamma(t)|^2 has top Fourier
  frequency k+1 with coefficient e*ak, so a hypersphere section pulled back
  to z = exp(it) is a self-inversive polynomial of degree d+2 whose root
  product is 1: d+2 curve points are cospherical exactly when their
  parameters sum to 0 mod 2*pi.  That sum rule is treated as a hypothesis
  and validated numerically (``completion_residual``) and exhaustively in
  exact arithmetic by the test suite, never assumed.

The sum rule reduces counting on coset configurations to residue
arithmetic in Z_n, which ``residue_oracle`` evaluates exactly by a
subset-sum dynamic program over Z_n (counts of k-subsets by the residue of
their sum) in O(n^2 * d) integer operations, fully independent of the
geometric engine.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .errors import ConsistencyError, DomainError, GeneralPositionError, GenerationError
from .geometry import PointSet, det, general_position_check, lift, lifted_row
from .scalars import CyclotomicContext, IntervalScalar, context_for_order, interval_context
from .counting import spectrum, Spectrum

TWO_PI = 2 * math.pi
TRIVIAL_ATTEMPTS = 200  # samples trivial_config draws before it gives up


# ---------------------------------------------------------------------------
# trivial configuration
# ---------------------------------------------------------------------------


def _random_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def trivial_config(d: int, n: int, seed: int) -> PointSet:
    """n-1 random rational points on the unit sphere plus one point off it,
    resampled until its spectrum is the generic {d+1: C(n-1, d), n-1: 1}."""
    if d < 3:
        raise DomainError("generators require dimension at least 3")
    if n < d + 3:
        raise DomainError(f"need n >= {d + 3} for dimension {d}")
    rng = random.Random(seed)
    for _ in range(TRIVIAL_ATTEMPTS):
        sphere_points = []
        seen = set()
        while len(sphere_points) < n - 1:
            p = lift(tuple(_random_fraction(rng) for _ in range(d - 1)))
            if p not in seen:
                seen.add(p)
                sphere_points.append(p)
        off = tuple(_random_fraction(rng) for _ in range(d))
        if sum(c * c for c in off) == 1:
            continue
        ps = PointSet.build(
            sphere_points + [off],
            metadata={"generator": "trivial", "d": d, "n": n, "seed": seed},
        )
        # general position, and no d+1 sphere points cospherical with the off
        # point, is exactly the generic spectrum
        try:
            counts = spectrum(ps).counts
        except GeneralPositionError:
            continue
        if counts == {d + 1: math.comb(n - 1, d), n - 1: 1}:
            return ps
    raise GenerationError(
        f"no valid trivial configuration for d={d}, n={n} within {TRIVIAL_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# coset configurations on the perturbed trigonometric curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveParams:
    """Coefficients of the bounded degree-d curve; all must be nonzero and
    the dimension even so the sum rule applies."""

    dimension: int
    a: Fraction
    b: Fraction
    amps: tuple[Fraction, ...]  # amplitudes for frequencies 2..k
    e: Fraction

    def __post_init__(self):
        d = self.dimension
        if d < 4 or d % 2:
            raise DomainError("curve family exists for even dimension >= 4")
        k = d // 2
        if len(self.amps) != k - 1:
            raise DomainError(f"need {k - 1} amplitudes for frequencies 2..{k}")
        if any(c == 0 for c in (self.a, self.b, self.e, *self.amps)):
            raise DomainError("all curve coefficients must be nonzero")

    @classmethod
    def default(cls, dimension: int = 4) -> "CurveParams":
        k = dimension // 2
        return cls(
            dimension=dimension,
            a=Fraction(2),
            b=Fraction(1),
            amps=(Fraction(1),) * (k - 1),
            e=Fraction(1),
        )

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "a": str(self.a),
            "b": str(self.b),
            "amps": [str(c) for c in self.amps],
            "e": str(self.e),
        }


@dataclass(frozen=True)
class CosetSpec:
    """Coset data: points sit at parameters 2*pi*(j + l/(d+2))/n.

    (d+2) times the offset 2*pi*l/(n*(d+2)) is a multiple of 2*pi/n, so the
    completion of any d+1 coset points lands back in the coset."""

    params: CurveParams
    n: int
    l: int

    def __post_init__(self):
        d = self.params.dimension
        if self.n < d + 3:
            raise DomainError(f"need n >= {d + 3} for dimension {d}")


def curve_context(n: int, d: int) -> CyclotomicContext:
    """Field containing all coordinates of an order-n coset in dimension d."""
    return context_for_order(n * (d + 2))


def _curve_coords(params: CurveParams, trig) -> tuple:
    """gamma(t) in whichever scalar backend ``trig(f)``, the pair
    (cos f*t, sin f*t), computes in."""
    k = params.dimension // 2
    cos1, sin1 = trig(1)
    coords = [cos1 * params.a, sin1 * params.b]
    for freq in range(2, k):
        cos_f, sin_f = trig(freq)
        amp = params.amps[freq - 2]
        coords.append(cos_f * amp)
        coords.append(sin_f * amp)
    cos_k, sin_k = trig(k)
    coords.append(cos1 * params.e + cos_k * params.amps[-1])
    coords.append(sin_k * params.amps[-1])
    return tuple(coords)


def curve_point(params: CurveParams, j: int, n: int, l: int = 0,
                ctx: CyclotomicContext | None = None) -> tuple:
    """Exact cyclotomic coordinates of gamma(2*pi*(j + l/(d+2))/n)."""
    d = params.dimension
    if not 0 <= j < n:
        raise DomainError(f"index {j} outside 0..{n - 1}")
    if ctx is None:
        ctx = curve_context(n, d)
    m_total = n * (d + 2)
    base = j * (d + 2) + l  # angle is 2*pi*base/m_total
    return _curve_coords(params, lambda freq: ctx.cos_sin(freq * base, m_total))


def coset_config(spec: CosetSpec, validate: bool = True) -> PointSet:
    """All n coset points as one exact point set; optionally certifies
    general position at generation time (the counting engine re-certifies
    inline either way)."""
    params, n, l = spec.params, spec.n, spec.l
    d = params.dimension
    ctx = curve_context(n, d)
    points = [curve_point(params, j, n, l, ctx) for j in range(n)]
    ps = PointSet.build(
        points,
        metadata={
            "generator": "coset",
            "d": d,
            "n": n,
            "l": l,
            "params": params.to_json(),
            "conductor": ctx.conductor,
            "coset_indices": list(range(n)),
        },
    )
    if validate:
        witness = general_position_check(ps)
        if witness is not None:
            raise GenerationError(
                f"coset points {witness} violate general position; "
                f"choose different curve coefficients"
            )
    return ps


# ---------------------------------------------------------------------------
# completion: the operation that validates the sum rule
# ---------------------------------------------------------------------------


def completing_parameter(ts) -> float:
    """Parameter of the final intersection point of the surface through
    gamma(t_1)..gamma(t_(d+1)): the negated sum, mod 2*pi."""
    return (-sum(ts)) % TWO_PI


def _interval_curve_point(params, t, bits: int) -> tuple:
    """gamma(t) in intervals of ``bits``, for ``params`` whose coefficients
    are intervals of ``bits`` already (see ``completion_residual``)."""
    iv = interval_context(bits)
    tv = iv.convert(t)

    def trig(freq):
        ft = freq * tv
        return IntervalScalar(iv.cos(ft), bits), IntervalScalar(iv.sin(ft), bits)

    return _curve_coords(params, trig)


def completion_residual(params: CurveParams, ts, bits: int = 256) -> IntervalScalar:
    """Certified enclosure of the incidence determinant of the d+2 points
    gamma(t_1)..gamma(t_(d+1)), gamma(-sum t_i).

    The sum rule predicts this contains zero for every parameter tuple;
    an enclosure excluding zero would refute the curve family.
    """
    d = params.dimension
    ts = list(ts)
    if len(ts) != d + 1:
        raise DomainError(f"need {d + 1} parameters for dimension {d}")
    iv = interval_context(bits)
    t_prime = -sum((iv.convert(t) for t in ts), iv.mpf(0))
    # each coefficient becomes an interval once per call, not once per
    # product; it is the interval a product with the Fraction would build
    interval = functools.partial(IntervalScalar.from_fraction, bits=bits)
    coefficients = SimpleNamespace(dimension=d, a=interval(params.a), b=interval(params.b),
                                   amps=tuple(map(interval, params.amps)),
                                   e=interval(params.e))
    points = [_interval_curve_point(coefficients, t, bits) for t in (*ts, t_prime)]
    return det([lifted_row(p) for p in points])


# ---------------------------------------------------------------------------
# residue-class oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleCounts:
    ordinary: int
    dplus2: int

    def to_json(self) -> dict:
        return {"ordinary": self.ordinary, "dplus2": self.dplus2}


def _subset_sum_counts(n: int, kmax: int) -> list:
    """``dp[k][s]``: number of k-subsets of Z_n whose sum is s mod n, for
    k = 0..kmax, built one element at a time in O(n^2 * kmax)."""
    dp = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(kmax)]
    for x in range(n):
        for k in range(min(x + 1, kmax), 0, -1):
            prev = dp[k - 1]
            # adding x to a (k-1)-subset with sum s - x gives sum s
            shifted = prev[n - x:] + prev[:n - x]
            dp[k] = [a + b for a, b in zip(dp[k], shifted)]
    return dp


def _oracle_tables(n: int, d: int) -> tuple[list, list]:
    """Ordinary and (d+2)-point counts for every offset l in 0..n-1.

    A (d+2)-subset is cospherical iff its index sum plus l vanishes mod n,
    so ``dplus2[l] = dp[d+2][-l]``.  A (d+1)-subset spans an ordinary
    surface iff its completing residue -(sum)-l falls back inside the
    subset (tangential contact), since the surface then meets the curve in
    no further point of the set.  That completing element j is unique;
    translating the other d elements by -j leaves a d-subset of the
    nonzero residues with sum -(d+2)*j - l.  Counts of k-subsets of the
    nonzero residues by sum, ``avoid``, follow from
    ``dp[k] = avoid_k + avoid_(k-1)``: a k-subset of Z_n either misses 0 or
    is 0 plus a (k-1)-subset of the nonzero residues.
    """
    if d < 4 or d % 2:
        raise DomainError("the residue oracle applies to even dimensions d >= 4")
    if n < d + 3:
        raise DomainError(f"need n >= {d + 3} for dimension {d}")
    dp = _subset_sum_counts(n, d + 2)
    dplus2 = [dp[d + 2][-l % n] for l in range(n)]
    avoid = [1] + [0] * (n - 1)
    for k in range(1, d + 1):
        avoid = [a - b for a, b in zip(dp[k], avoid)]
    ordinary = [
        sum(avoid[(-(d + 2) * j - l) % n] for j in range(n)) for l in range(n)
    ]
    return ordinary, dplus2


def residue_oracle(n: int, d: int, l: int) -> OracleCounts:
    """Predicted counts for the order-n coset at offset l (entry l mod n of
    the offset scan)."""
    ordinary, dplus2 = _oracle_tables(n, d)
    return OracleCounts(ordinary[l % n], dplus2[l % n])


def residue_oracle_scan(n: int, d: int) -> dict:
    """Counts for every offset l in 0..n-1 (counts depend on l only mod n),
    plus the extremal offsets."""
    ordinary_by_l, dplus2_by_l = _oracle_tables(n, d)
    best_dplus2 = max(dplus2_by_l)
    best_ordinary = min(ordinary_by_l)
    return {
        "n": n,
        "d": d,
        "ordinary_by_l": ordinary_by_l,
        "dplus2_by_l": dplus2_by_l,
        "min_ordinary": best_ordinary,
        "argmin_ordinary": [l for l, v in enumerate(ordinary_by_l) if v == best_ordinary],
        "max_dplus2": best_dplus2,
        "argmax_dplus2": [l for l, v in enumerate(dplus2_by_l) if v == best_dplus2],
    }


# ---------------------------------------------------------------------------
# closed-form reference counts
# ---------------------------------------------------------------------------

FORMULA_CAVEAT = (
    "Closed-form reference values are guaranteed only for n above a large "
    "dimension-dependent threshold; at small n a mismatch with enumeration "
    "is a recorded finding, not an engine failure."
)


def _exact_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ConsistencyError(f"closed form evaluated to non-integer {value}")
    return int(value)


def closed_form_counts(d: int, n: int) -> dict:
    """Reference minimum ordinary count and maximum (d+2)-point count.

    Supported for d=3 (minimum only; the maximum problem is open in odd
    dimensions) and d=4 (quasipolynomials by residue of n mod 6).
    """
    if n < d + 3:
        raise DomainError(f"need n >= {d + 3} for dimension {d}")
    if d == 3:
        return {"d": d, "n": n, "min_ordinary": math.comb(n - 1, 3), "max_dplus2": None}
    if d == 4:
        nf = Fraction(n)
        base_min = Fraction(math.comb(n - 1, 4))
        base_max = Fraction(math.comb(n - 1, 5), 6)
        residue = n % 6
        if residue == 0:
            min_ord = base_min - nf**2 / 8 + nf / 12 - 1
            max_d2 = base_max + nf**2 / 48 - nf / 72 + Fraction(1, 6)
        elif residue in (1, 5):
            min_ord = base_min
            max_d2 = base_max
        elif residue in (2, 4):
            min_ord = base_min - nf**2 / 8 + 3 * nf / 4 - 1
            max_d2 = base_max + nf**2 / 48 - nf / 8 + Fraction(1, 6)
        else:  # residue == 3
            min_ord = base_min - 2 * nf / 3 + 2
            max_d2 = base_max + nf / 9 - Fraction(1, 3)
        return {
            "d": d,
            "n": n,
            "min_ordinary": _exact_int(min_ord),
            "max_dplus2": _exact_int(max_d2),
        }
    raise DomainError(f"no closed forms for dimension {d} (supported: 3, 4)")


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------


@dataclass
class CompareReport:
    engine: Spectrum
    oracle: OracleCounts | None
    formula: dict | None
    matches: dict
    notes: list
    caveat: str = FORMULA_CAVEAT

    def _table(self, labels, missing) -> list:
        """The ordinary and (d+2)-point rows (label, engine, oracle, closed
        form); ``missing`` stands in for a prediction that does not apply."""
        oracle, formula = self.oracle, self.formula or {}
        rows = [
            (self.engine.ordinary, oracle.ordinary if oracle else None, formula.get("min_ordinary")),
            (self.engine.next_class, oracle.dplus2 if oracle else None, formula.get("max_dplus2")),
        ]
        return [
            (label, *(missing if v is None else v for v in row))
            for label, row in zip(labels, rows)
        ]

    def to_markdown(self) -> str:
        lines = ["| quantity | engine | oracle | closed form |", "|---|---|---|---|"]
        for row in self._table(("ordinary", "(d+2)-point"), "-"):
            lines.append("| {} | {} | {} | {} |".format(*row))
        lines.append("")
        for key, value in sorted(self.matches.items()):
            lines.append(f"- {key}: {value}")
        for note in self.notes:
            lines.append(f"- note: {note}")
        lines.append(f"- caveat: {self.caveat}")
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list:
        header = ("quantity", "engine", "oracle", "closed_form")
        return [header] + self._table(("ordinary", "dplus2"), "")


def compare_report(ps: PointSet, threads: int = 1) -> CompareReport:
    """Engine counts next to every applicable independent prediction.

    Oracle columns appear for coset-generated sets (hard requirement: a
    certified engine run must equal the oracle).  Closed-form columns appear for d in {3,4};
    mismatches against them are reported, not raised.  Coset metadata and
    the oracle's domain are checked before the engine runs.
    """
    meta = ps.metadata
    generator = meta.get("generator")
    d, n = ps.dimension, ps.n
    oracle = scan = None
    if generator == "coset":
        l = meta.get("l")
        if type(l) is not int:
            raise DomainError(f"coset metadata needs an integer offset l, got {l!r}")
        scan = residue_oracle_scan(n, d)
        oracle = OracleCounts(scan["ordinary_by_l"][l % n], scan["dplus2_by_l"][l % n])
    engine = spectrum(ps, threads=threads)
    ordinary, dplus2 = engine.ordinary, engine.next_class
    matches: dict = {}
    notes: list = []
    if not engine.certified:
        notes.append(
            f"engine run is not certified ({engine.indeterminate_count} "
            "indeterminate subsets excluded); comparisons are lower bounds"
        )

    if oracle is not None:
        # an uncertified run's counts are floors: no equality is claimed either way
        if engine.certified:
            matches["engine_equals_oracle"] = (
                ordinary == oracle.ordinary and dplus2 == oracle.dplus2
            )
            if not matches["engine_equals_oracle"]:
                notes.append(
                    f"engine ({ordinary}, {dplus2}) != oracle "
                    f"({oracle.ordinary}, {oracle.dplus2})"
                )
    elif generator == "trivial":
        expected = math.comb(n - 1, d)
        matches["engine_equals_trivial_pattern"] = ordinary == expected
        notes.append(f"trivial pattern expects ordinary = C({n - 1},{d}) = {expected}")
    else:
        notes.append("no expected value for this configuration; empirical counts only")

    formula = None
    if d in (3, 4):
        formula = closed_form_counts(d, n)
        if scan is not None:
            matches["oracle_optimum_equals_formula_min_ordinary"] = (
                scan["min_ordinary"] == formula["min_ordinary"]
            )
            if formula["max_dplus2"] is not None:
                matches["oracle_optimum_equals_formula_max_dplus2"] = (
                    scan["max_dplus2"] == formula["max_dplus2"]
                )
        if generator == "trivial":
            matches["engine_equals_formula_min_ordinary"] = (
                ordinary == formula["min_ordinary"]
            )

    return CompareReport(engine, oracle, formula, matches, notes)
