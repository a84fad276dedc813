"""Points, exact hypersphere predicates, and inversive transforms.

A hypersphere-or-hyperplane is the zero set of w*|x|^2 + a.x + u.  All
predicates reduce to determinants of rows (1, x, |x|^2): d+2 points lie on
a common hypersphere-or-hyperplane exactly when that determinant vanishes,
and a (d+1)-subset spans a unique such surface unless its maximal cofactors
are all zero (``degenerate``).  These rows keep entries polynomial in the
input coordinates (no denominators) and every predicate division-free.

Exact rows are made integral once (``scaled_rows``) before the predicates
expand them: each row is multiplied by the lcm of its denominators.
Scaling a row by a nonzero constant scales every minor that contains it by
that constant, so every zero test is unchanged.  Rational rows become
Python ints; cyclotomic rows become elements of denominator 1.

Every minor and incidence value is expanded row by row over column
subsets by one plan (``_expansion_plan``).  ``scaled_rows`` returns one
``RowSet``; ``RowSet.take`` makes a view of some of its rows, and
``maximal_cofactors(rows, indices)`` reads the rows at an index tuple of a
set or view as the view of those indices would, with no view.  Interval
and capped sets, and plain lists of rows (a set with no basis), expand in
plain Python over their own scalars, by functions compiled from the plan
once per shape, so that a level of minors costs one call and its
products; so does a degree-1 lane set (below) when a value of it is read.
Each minor is its plus terms summed left to right less its minus terms
summed left to right; interval enclosures depend on that order.

A set of integer rows, as every rational set becomes, and a cyclotomic
set of one conductor are lane sets: each keeps the residue lanes of its
entries over one ``basis`` of primes (see ``scalars``) as one ``grid``,
and filters in its *filter lane*, each entry's residue in lane 0 of the
basis's first prime.  An integer has one lane per prime, its residue, so
integer rows make a lane set of *degree 1* over plain primes; a
cyclotomic entry has phi(N) lanes per split prime.  The cofactors or the
determinant of the rows of a lane set at an index tuple are known by
their filter residues.  A nonzero residue proves a value nonzero.  Where
every residue is 0, the rows are decided in every lane under the set's
bound (below) by ``_certify`` on their one index tuple, the one zero test
in every lane, which also certifies the (d+2)-sets a block reads.
Neither a view nor a set keeps such values.  The one object that reads
them, the cofactors (``_Lanes``) or a cyclotomic determinant
(``_LaneValue``), holds the set and the index tuple, builds the values on
the first read (equality, hashing, JSON, pickling or arithmetic) by
``_exact_values`` and keeps them, so a nonzero residue answers
``degenerate`` with no value built.  Cyclotomic values are lifted from
every lane class by one ``_prefix_minors`` call and one ``from_lanes``
call.  The values of a degree-1 set are exact Python ints, expanded over
its own rows by ``_minors`` (``det`` expands its determinant so
directly), so that a walk that reads every subset's values shares prefix
levels as a set with no basis does.
The incidence values det([x; S]) of a subset S of a lane set against the
rows outside it are only decided, by the block of S (below).
``incidence_values`` expands lane values over their elements, as it
does rows of two sets or a cofactor tuple used as a row.

"Every lane" means one lane of each *lane class*.  Lane arithmetic is
element-wise, so two lanes of a prime that are equal in every entry of a
set are equal in every value expanded from it: a value is zero in every
lane exactly when it is zero in one lane of each class.  Coset entries
generate a small subfield of Q(zeta_N) (the fixed field of the
automorphisms that fix them; Washington, *Introduction to Cyclotomic
Fields*, ch. 2), so most lanes repeat: 4 classes of 24 lanes per prime at
n=12 l=3, 12 of 48 at n=13 l=0.  ``scaled_rows`` finds each prime's
classes once and the ``grid`` keeps one lane of each; ``classes`` maps
every lane back to its class, and only the lift reads all lanes.

Level j of the expansion holds the minors of rows 0..j and depends on
those rows alone.  A lane set finds the filter residues of a whole *block*
of k-subsets at once, in numpy: the subsets that share the shortest
leading index prefix that at most ``_BLOCK_SUBSETS`` of them share.  So a
walk of at most that many subsets is one block, of the empty prefix, and
a larger one splits on its leading indices.  One expansion,
``_prefix_minors``, is every numpy expansion of a lane set: of a block, of
a batch of certificates (below), and of one index tuple in every lane
class for its zero test or its lift.  Level r holds the
minors of rows 0..r of each distinct (r+1)-index prefix of the index
tuples, one column per prefix, built from the level of the prefix without
its last index by one step of the plan's tables (``_level``), which adds
the terms of every minor one term at a time.  A block's levels are int64
arrays mod the filter prime.  A subset's row of the block's table holds
its signed maximal cofactors followed by their incidence residues against
every row of the set, or the determinant of a square subset.  The set
keeps its last block (``_Block``), with a dict from each subset of the
block to its row and the first k + 1 residues of every row as Python
lists, its ``heads``, made by one ``tolist`` when the block is built: the
cofactor residues of sorted indices in that block cost one lookup and
touch no numpy; other sorted, distinct indices build their block.
Indices that are not sorted and distinct are a table of their one tuple,
in their own order.  A lexicographic walk reads each block to its end
before it moves to the next.

A block also *decides* its subsets' incidence values against the rows
outside them, the first time a walk asks for one (``complement_values``,
``RowSet._decide``): a Python list per subset of its values in index
order, made by one ``tolist`` for the block, each 1 or 0 as the value is
nonzero or zero: 1 where the filter residue is nonzero, and where it is
0, as the sorted (d+2)-set is certified nonzero or zero.  0 and 1 are
Python's cached small ints, so the lists hold no int objects of their
own.  A walk step reads a subset's cofactor residues and decided values
as two list rows, with no view and no numpy.

A zero residue is proved zero once per *surface* where it can be
(``RowSet._on_surfaces``).  Let S be a subset whose filter cofactors are
not all 0, so that its cofactors c(S) are nonzero.  If det([x; S]) = 0 is
certified for each x of a set X, every row of U = S + X lies in the
kernel of c(S), of dimension width - 1, so every (d+2)-subset of U has
determinant 0: one base and |U| - d - 1 certificates decide all
C(|U|, d+2) zero sets of U.  A *base* is a subset of the block with such
cofactors and at least two zero residues past its last index.  Bases are
taken in order; each certifies those residues that no known surface
covers, and one with at least two certified zeros adds its U to the set's
``surfaces``.  A zero residue (S, x) with S and x in one surface is zero
with no certificate of its own.  A lexicographic walk meets each surface
first at its d+1 least points, whose base sees every other point of it,
so the 13-point sphere of a trivial d=4 n=14 set takes 8 certificates
instead of the C(13, 6) = 1 716 of its six-sets; a pool worker whose walk
starts inside a surface certifies the part of it past its first base.  A
surface of d+2 points, as every coset sphere is, has no base, and a
filter zero alone never proves anything: a false candidate is certified
nonzero and left out of U.

A zero residue that no surface covers asks for the certificate of the
sorted indices T of S and x.  A block tells these residues apart by the
combination rank of their T among the (k+1)-subsets of the set in
lexicographic order, computed in numpy (``_joined_ranks``), so that its
Python work is per distinct T and not per zero residue.  It certifies
the distinct T that the set has not certified yet, in lexicographic
order, at most ``_BATCH_LANES`` tuple-lanes (tuples times primes times
lane classes) at a time (``_certify``), by the prefix expansion of the
tuples with the lane classes on the trailing axes, and the set keeps
every verdict in ``certified``, a dict keyed by rank.  T without its
last index is the least subset of T of its size, so the first block of a
lexicographic walk that meets T is that subset's block, and T is
certified there once.
A pool worker whose rank range starts in the middle of the walk
certifies the tuples of earlier blocks that its first block reads, and
builds no table of an earlier block.

A set that expands over its own scalars walks, a set with no basis or a
degree-1 lane set whose values are read: it keeps the indices and scalar
levels of its last expansion of one index tuple in ``walk``, and the next
expansion reuses the levels of the longest index prefix it shares with
them: at d=4 a subset that keeps its first four rows of the previous one
costs the 30 products of the last level instead of all 180.  Cached
levels are never written to.  A cyclotomic lane set never walks: it
expands each index tuple by ``_prefix_minors``, where the tuples of a
block or a batch share their prefixes.

The lift needs a bound on the coefficients.  Read as polynomials in
Z[x]/(x^N - 1), where l1(ab) <= l1(a) l1(b), a determinant has l1 norm at
most the product of its rows' l1 norms, and reducing mod the cyclotomic
polynomial multiplies it by at most the largest coefficient of a reduced
power z^k.  A minor or an incidence value det([x; S]) of one set has at
most ``width`` distinct rows of it (one that repeats a row is 0), so the
product of the ``width`` largest row norms bounds every value of the set.
Under that bound a value is zero exactly when it is zero in every lane:
each prime's evaluation matrix is invertible mod the prime, so every
coefficient is 0 mod the product of the primes, and no nonzero coefficient
of absolute value below half that product is.  This is the zero test of
residue number systems (Broennimann, Emiris, Pan and Pion, "Sign
determination in residue number systems", TCS 1999), and the same argument
the lift rests on.  A value nonzero in any one lane is nonzero with no
bound at all, which is why one filter lane decides almost every test.

Integer rows need no lift, only the zero test.  Their bound is
Hadamard's: |det| <= prod ||r||_2 <= prod ||r||_1 over the rows of a
square matrix, and a minor's rows are parts of the set's rows, so the
product of the ``width`` largest row l1 norms bounds every value of the
set, and a basis of plain primes whose product exceeds twice that bound
decides every zero.  A set whose bound needs more than ``LANE_PRIME_CAP``
primes, on either kind of row, has no basis and expands its scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .errors import ConductorError, DegeneracyError, DomainError, PoleError
from .scalars import (
    INDETERMINATE,
    CycloElement,
    backend_of,
    integer_lane_basis,
    integer_lanes,
    is_zero,
    one_like,
    scalar_from_json,
    scalar_to_json,
)

Point = tuple  # d scalars of one backend


def as_point(coords) -> Point:
    return tuple(Fraction(c) if isinstance(c, (int, str)) else c for c in coords)


@dataclass(frozen=True)
class PointSet:
    """Validated collection of n distinct points of uniform dimension and
    backend, with generator provenance in ``metadata``."""

    dimension: int
    points: tuple[Point, ...]
    backend: str
    metadata: dict = field(default_factory=dict, compare=False)

    @classmethod
    def build(cls, points, metadata=None) -> "PointSet":
        pts = tuple(tuple(p) for p in points)
        if not pts:
            raise DomainError("empty point set")
        d = len(pts[0])
        if d < 2:
            raise DomainError("dimension must be at least 2")
        if any(len(p) != d for p in pts):
            raise DomainError("points of mixed dimension")
        backends = {backend_of(c) for p in pts for c in p}
        if len(backends) != 1:
            raise DomainError(f"point set mixes backends: {sorted(backends)}")
        backend = backends.pop()
        if backend == "interval":
            # two boxes are certified distinct by one coordinate's disjoint intervals
            for i, j in combinations(range(len(pts)), 2):
                if not any(a.hi < b.lo or b.hi < a.lo for a, b in zip(pts[i], pts[j])):
                    raise DomainError(
                        f"points {i} and {j} are not certifiably distinct at this precision"
                    )
        else:
            if backend == "cyclotomic" and len({c.ctx.conductor for p in pts for c in p}) > 1:
                raise ConductorError("mixed cyclotomic conductors")
            # equal exact scalars hash equal (a cyclotomic element hashes its
            # conductor and normalized coefficients), so one dict finds each
            # point's first equal point, and the lexicographically first
            # coinciding pair is the least (first, later) pair
            first = {}
            pairs = [(first.setdefault(p, j), j) for j, p in enumerate(pts)]
            coinciding = min(((i, j) for i, j in pairs if i != j), default=None)
            if coinciding is not None:
                raise DomainError("points {} and {} coincide".format(*coinciding))
        return cls(d, pts, backend, dict(metadata or {}))

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "backend": self.backend,
            "points": [[scalar_to_json(c) for c in p] for p in self.points],
            "metadata": self.metadata,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointSet":
        points, parsed = data["points"], {}
        if type(points) is not list or not all(type(p) is list for p in points):
            raise DomainError("points must be a list of coordinate lists")
        # each distinct coefficient string of the file is parsed once
        points = [tuple(scalar_from_json(c, parsed) for c in p) for p in points]
        ps = cls.build(points, metadata=data.get("metadata"))
        if ps.dimension != data.get("dimension", ps.dimension):
            raise DomainError("dimension field disagrees with point data")
        if ps.backend != data.get("backend", ps.backend):
            raise DomainError("backend field disagrees with point data")
        return ps


# ---------------------------------------------------------------------------
# determinants via expansion over column subsets
# ---------------------------------------------------------------------------


def degenerate(values) -> bool:
    """Whether every value is certified zero, as a subset's cofactors or a
    surface's coefficients may be; an interval never is.  The cofactors of
    rows of a lane set are decided without building their values."""
    if isinstance(values, _Lanes):
        return values.degenerate()
    return all(is_zero(value) is True for value in values)


@functools.lru_cache(maxsize=None)
def _expansion_plan(k: int, columns: int):
    """Index tables of the row-by-row expansion of the minors of full row
    count of a k x ``columns`` matrix.

    Level r holds the minors of the first r+1 rows, one per (r+1)-column
    subset in ``combinations`` order.  For each row r >= 1 the plan holds
    (col, prev): term t of minor i of level r is row[col[i, t]] *
    previous[prev[i, t]] with sign (-1)^(r+t), for a row followed by its
    negated entries: a minus term's column is moved into the negated half
    (``columns`` and above), so the minor is the sum of its terms.
    """
    plan = []
    previous = {(c,): c for c in range(columns)}
    for r in range(1, k):
        combos = list(combinations(range(columns), r + 1))
        col = np.array(combos, dtype=np.intp)
        col[:, 1 - r % 2::2] += columns
        prev = np.array(
            [[previous[cols[:t] + cols[t + 1:]] for t in range(r + 1)] for cols in combos],
            dtype=np.intp,
        )
        plan.append((col, prev))
        previous = {cols: i for i, cols in enumerate(combos)}
    return plan


@functools.lru_cache(maxsize=None)
def _level_functions(k: int, columns: int):
    """``_expansion_plan`` compiled to plain Python, so that a level costs
    one call and its products and sums.  For each row r >= 1, a function
    ``level(row, last)`` of the row and level r-1 that returns level r as a
    list: each minor is its plus terms summed left to right less its minus
    terms summed left to right."""
    functions = []
    for col, prev in _expansion_plan(k, columns):
        minors = []
        for c, q in zip(col.tolist(), prev.tolist()):
            plus_terms = " + ".join(f"row[{a}] * last[{b}]" for a, b in zip(c, q) if a < columns)
            minus_terms = " + ".join(f"row[{a - columns}] * last[{b}]"
                                     for a, b in zip(c, q) if a >= columns)
            minors.append(f"({plus_terms}) - ({minus_terms})")
        functions.append(_compiled("row, last", f"[{', '.join(minors)}]"))
    return functions


@functools.lru_cache(maxsize=None)
def _dot_function(width: int):
    """A function ``dots(rows, cof)`` that returns the list of sum_j x[j] *
    cof[j], summed left to right, for each row x of ``rows``."""
    dot = " + ".join(f"x[{j}] * cof[{j}]" for j in range(width))
    return _compiled("rows, cof", f"[{dot} for x in rows]")


def _compiled(arguments: str, expression: str):
    """A function of ``arguments`` that returns ``expression``."""
    namespace = {}
    exec(f"def function({arguments}):\n    return {expression}\n", namespace)
    return namespace["function"]


def _level(row: np.ndarray, last: np.ndarray, col, prev, modulus) -> np.ndarray:
    """Level r of the numpy expansion, reduced mod ``modulus``, from level
    r-1 ``last`` and ``row``, row r's entries followed by their negations,
    by ``_expansion_plan``'s (col, prev) tables of row r: each minor is the
    sum of its terms, accumulated term by term, so that no temporary holds
    more than one term of every minor.  Both carry the same trailing axes,
    a block's subsets or a batch's tuples and lane classes (tuples, primes,
    classes), so level r has shape (C(width, r+1), *trailing)."""
    level = row[col[:, 0]] * last[prev[:, 0]]
    for t in range(1, col.shape[1]):
        level += row[col[:, t]] * last[prev[:, t]]
    level %= modulus
    return level


def _signed_cofactors(minors: np.ndarray, modulus) -> np.ndarray:
    """The signed maximal cofactors c_j = (-1)^j * (the minor without
    column j) of the reduced ``minors`` of full row count, along their
    first axis, as a new array mod ``modulus``: in combinations order the
    minors leave out the last column first.  One minor, a determinant, is
    kept as it is."""
    signed = minors[::-1].copy()
    signed[1::2] = -signed[1::2] % modulus
    return signed


# The most k-subsets one block of a lane set holds (see ``_block_prefix``).
_BLOCK_SUBSETS = 4096


def _block_prefix(n: int, indices: tuple) -> int:
    """The length of the index prefix that keys the block of the sorted,
    distinct ``indices`` among the k-subsets of range(n), k = len(indices):
    the shortest prefix that at most ``_BLOCK_SUBSETS`` k-subsets share.
    So a walk of at most that many k-subsets is one block, keyed by the
    empty prefix, and a block that is too large splits on the next leading
    index."""
    k, length, lasts = len(indices), 0, (-1, *indices)
    while math.comb(n - 1 - lasts[length], k - length) > _BLOCK_SUBSETS:
        length += 1
    return length


def _prefix_minors(entries: np.ndarray, tuples: np.ndarray, width: int, modulus) -> np.ndarray:
    """The minors of full row count of the rows at each index tuple, a row
    of ``tuples`` (m, k), from ``entries`` (2 * width, n, *trailing), each
    row's entries followed by their negations, reduced mod ``modulus``:
    shape (C(width, k), m, *trailing).

    Level r holds the minors of rows 0..r of each distinct (r+1)-index
    prefix of the tuples, one column per prefix, built by ``_level`` from
    the level of the prefix without its last index.  A tuple whose prefix
    equals the previous tuple's shares its column, so tuples in
    lexicographic order expand each shared prefix once."""
    plan = _expansion_plan(tuples.shape[1], width)
    fresh = np.arange(len(tuples)) == 0  # where a tuple's (r+1)-prefix starts a column
    for r, index in enumerate(tuples.T):
        fresh[1:] |= index[1:] != index[:-1]
        if r == 0:
            level = entries[:width, index[fresh]]
        else:
            level = _level(entries[:, index[fresh]], level[:, column[fresh]], *plan[r - 1],
                           modulus)
        column = np.cumsum(fresh) - 1  # each tuple's column of level r
    return level[:, column]


def _block_table(rows: np.ndarray, prime: int, subsets: np.ndarray) -> np.ndarray:
    """The filter residues of a block of k-subsets of a lane set, the rows
    of the sorted ``subsets`` (m, k), or of one index tuple in any order,
    one table row per tuple, from the set's filter ``rows`` (n, 2 *
    width): each row's residues followed by their negations mod ``prime``.

    The minors are int64 mod ``prime`` (``_prefix_minors``): a product of
    two residues stays below 2^52, and a sum of ``width`` of them fits in
    int64.  A table row of square subsets is their determinant; one of k =
    width - 1 rows is their signed maximal cofactors followed by their
    incidence residues against every row of the set, entries @ cof, as
    int32: every residue is below the filter prime < 2^26."""
    width = rows.shape[1] // 2
    minors = _prefix_minors(rows.T, subsets, width, prime)
    if subsets.shape[1] == width:
        return minors.T
    cof = _signed_cofactors(minors, prime)
    return np.concatenate([cof, rows[:, :width] @ cof % prime]).T.astype(np.int32, order="C")


# The most tuple-lanes, index tuples times primes times lane classes, one
# ``_certify`` call expands.  A batch's widest level holds C(width, 3)
# minors of each of them, and ``_level`` adds one term of them at a time.
# On perfbench's coset-cyclo workload (2-core VM, three rounds), caps of 64,
# 32, 16 and 8 tuples raised peak RSS over certifying each tuple on its own
# by about 2.3%, 0.9%, 0.3% and 0.1%, at 2.15, 2.13, 2.06 and 1.90 times its
# work_per_s.  This cap is 32 tuples of coset n=13 l=0's 24 lane columns:
# 96 tuples at n=12 l=3 (8 columns), 192 of a trivial d=4 n=14 set's 4
# primes.
_BATCH_LANES = 768


@functools.lru_cache(maxsize=None)
def _binomials(n: int, k: int) -> np.ndarray:
    """C(a, b) for a < n and b <= k, an (n, k + 1) array: int64 if C(n, k)
    fits, else Python ints."""
    dtype = np.int64 if math.comb(n, k) < 1 << 63 else object
    return np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(n)], dtype=dtype)


def _joined_ranks(n: int, subsets: np.ndarray, at: np.ndarray, index: np.ndarray,
                  below: np.ndarray) -> np.ndarray:
    """For each pair of a row ``at`` of the sorted ``subsets`` (m, k) of
    range(n) and an ``index`` outside that subset, of which ``below`` of the
    subset's indices lie below ``index``: the lexicographic rank of their
    sorted union T among the (k+1)-subsets of range(n).

    The rank of T is C(n, k+1) - 1 - sum_j C(n-1-T_j, k+1-j) (the
    combinatorial number system on the complements n-1-T_j), where the
    subset's index in column c is T_c below ``index`` and T_(c+1) above
    it.  Each step holds one array over the pairs, not their tuples."""
    k = subsets.shape[1]
    binomial = _binomials(n, k + 1)
    complement = binomial[n - 1 - index, k + 1 - below]
    for c, column in enumerate(subsets.T):
        complement += binomial[n - 1 - column[at], k - c + (c < below)]
    return math.comb(n, k + 1) - 1 - complement


class _Block:
    """The k-subsets of a lane set that share the index prefix of ``key``
    = (k, prefix): the sorted ``subsets`` (m, k) in lexicographic order,
    their filter ``table`` (``_block_table``), the dict ``rows`` from each
    subset to its table row, ``heads``, each table row's first k + 1
    residues (its cofactors, or its determinant) as a list, and
    ``decided``, set by ``complement_values`` (``RowSet._decide``): for
    each subset, a list of its decided incidence values against every row
    outside it, in index order, 1 or 0 as the value is nonzero or zero.
    Python lists, so that a walk step reads a subset's cofactor residues
    and decided values without numpy.  A subset whose filter cofactors are
    not all 0 and whose row has at least two zero residues past its last
    index is a *base*: its cofactors are nonzero, and the rows whose
    incidence with it is certified zero span, with it, one surface
    (``RowSet._on_surfaces``)."""

    __slots__ = ("key", "subsets", "table", "rows", "heads", "decided")

    def __init__(self, key, subsets, table, rows):
        self.key, self.subsets, self.table, self.rows = key, subsets, table, rows
        self.heads = None if table is None else table[:, :subsets.shape[1] + 1].tolist()
        self.decided = None


def _certify(source: "RowSet", tuples: np.ndarray) -> np.ndarray:
    """Whether every minor of full row count of the rows of the lane set
    ``source`` at each index tuple, a row of ``tuples`` (m, k) with k at
    most the row width, vanishes in every lane class, decided under the
    set's bound: the determinant of square rows, or all the maximal
    cofactors of k = width - 1 rows.  It is the one zero test in every
    lane: ``_prefix_minors`` with the lane classes on the trailing axes
    (primes, classes)."""
    minors = _prefix_minors(source._signed, tuples, source.grid.shape[1], source.basis.moduli)
    return ~minors.any(axis=(0, 2, 3))


def _lane_classes(grid):
    """The lane classes of the lane tensor ``grid``, shape (n, width,
    primes, degree): per prime, the lanes equal in every entry.

    Returns the grid on the first lane of each class, shape (n, width,
    primes, classes), and ``classes``, shape (primes, degree), the column
    of each lane's class.  Classes are numbered in order of their first
    lane, so lane 0 is in column 0.  A prime with fewer classes than
    another repeats some of its columns; a repeat changes no zero test."""
    kept, classes = [], []
    for lanes in grid.reshape(-1, *grid.shape[2:]).transpose(1, 2, 0):
        first = {}  # a lane's values in every entry -> its class
        column = [first.setdefault(values.tobytes(), len(first)) for values in lanes]
        kept.append([column.index(c) for c in range(len(first))])
        classes.append(column)
    count = max(map(len, kept))
    kept = np.array([np.resize(first_lanes, count) for first_lanes in kept])[None, None]
    return np.ascontiguousarray(np.take_along_axis(grid, kept, axis=3)), np.array(classes)


class _Itself:
    """The ``source`` of a set that is no view: the set itself, returned by
    its class rather than held by the set, so that a set is no reference
    cycle and is freed as soon as it is unused.  A view holds its own
    ``source``, which takes precedence over this one."""

    def __get__(self, rowset, owner=None):
        return rowset


class RowSet(tuple):
    """The rows of one ``scaled_rows`` call.

    A lane set (``basis`` not None) keeps its entries' residue lanes as one
    ``grid``, an (n, width, primes, classes) tensor over ``basis`` with one
    lane of each lane class, and ``classes`` mapping each prime's lanes to
    their class columns; its filter lane is lane 0 of the basis's first
    prime, ``prime`` (column 0 of ``grid``).  ``take`` makes a view
    (``source``, ``indices``); the source is the set's identity, and its
    bound covers the values of its views; a set is its own source
    (``_Itself``).  Neither keeps the values of a lane set's rows: the
    object that reads them builds them (``_exact_values``), and
    ``_certify`` decides them in every lane class.  A set with no basis,
    or of degree 1, keeps the indices and levels of its last expansion of
    an index tuple in ``walk``; a cyclotomic lane set never walks.  A lane
    set keeps its last ``_Block`` in ``block`` and, across blocks, its zero
    certificates in ``certified``, a dict from the combination rank of
    each sorted index tuple its blocks have certified (``_joined_ranks``)
    to whether its determinant vanishes, and its certified surfaces in
    ``surfaces``, one boolean mask over its rows each: a base S with
    nonzero cofactors c(S) and the rows x with det([x; S]) = 0 certified,
    all in the kernel of c(S), of dimension width - 1, so that every
    ``width`` rows of a surface have determinant 0.  A pickle drops all of
    them.
    """

    walk = ((), ())
    block = _Block((), None, None, {})
    source = _Itself()

    def __new__(cls, rows, grid=None, basis=None, classes=None):
        self = super().__new__(cls, rows)
        self.basis, self.indices = basis, tuple(range(len(self)))
        self.grid, self.classes, self.certified = grid, classes, {}
        self.surfaces = []
        if basis is not None:
            self.prime = basis.primes[0]
            signed = np.concatenate([grid, -grid % basis.moduli], axis=1)
            self._signed = signed.transpose(1, 0, 2, 3)  # (2 * width, n, primes, classes)
            self._filter = np.ascontiguousarray(signed[:, :, 0, 0])
        return self

    def __reduce__(self):
        return RowSet, (tuple(self), self.grid, self.basis, self.classes)

    def take(self, indices) -> "RowSet":
        """The view of the rows at ``indices`` of this set or view, in that
        order."""
        source = self.source
        indices = tuple(indices) if self is source else tuple(self.indices[i] for i in indices)
        view = tuple.__new__(RowSet, map(source.__getitem__, indices))
        view.basis, view.source, view.indices = self.basis, source, indices
        return view

    def filter_row(self, indices: tuple) -> np.ndarray:
        """The filter residues of the values of this lane set's rows at
        ``indices``: their determinant if they are square, else their
        signed maximal cofactors followed by the cofactors' incidence
        residues against every row of the set.  Sorted, distinct indices
        read the table of their block, built unless it is the set's last
        block, so that those of the last block are one dict lookup; any
        other indices are a table of one tuple in their own order."""
        row = self.block.rows.get(indices)
        if row is None and list(indices) == sorted(set(indices)):
            self.block = RowSet.block  # frees the last block before the next one is built
            self.block = self._block(indices)
            row = self.block.rows[indices]
        if row is None:
            return _block_table(self._filter, self.prime, np.array([indices]))[0]
        return self.block.table[row]

    def _block(self, ordered: tuple) -> _Block:
        """The block of the sorted, distinct indices ``ordered``, with its
        filter table."""
        n, k = len(self), len(ordered)
        prefix = ordered[:_block_prefix(n, ordered)]
        rests = combinations(range(prefix[-1] + 1 if prefix else 0, n), k - len(prefix))
        subsets = [prefix + rest for rest in rests]
        array = np.fromiter(chain.from_iterable(subsets), np.intp).reshape(-1, k)
        return _Block((k, prefix), array, _block_table(self._filter, self.prime, array),
                      dict(zip(subsets, range(len(subsets)))))

    def _decide(self, block: _Block) -> list:
        """The decided incidence values of each subset of a ``block`` of
        cofactors against every row outside it, a list of n - k values per
        subset, each 1 or 0 as the value is nonzero or zero: 1 where the
        filter residue is nonzero, and where it is 0, whether the
        determinant of the sorted indices T of the subset and the row is
        nonzero: 0 where T lies on a certified surface (``_on_surfaces``),
        else the certificate of T, read from ``certified``
        (``_certified_zeros``)."""
        subsets, n = block.subsets, len(self)
        m, k = subsets.shape
        residues = block.table[:, k + 1:]
        outside = np.ones(residues.shape, bool)
        outside[np.arange(m)[:, None], subsets] = False
        at, index = np.nonzero(outside & (residues == 0))
        below = np.zeros(len(at), np.intp)
        for column in subsets.T:
            below += column[at] < index
        zero = self._on_surfaces(block, at, index, below)
        rest = np.flatnonzero(~zero)
        zero[rest] = self._certified_zeros(subsets, at[rest], index[rest], below[rest])
        nonzero = residues[outside].reshape(m, n - k) != 0
        # the column of row i among the rows outside S is i less the rows of S below it
        nonzero[at, index - below] = ~zero
        return nonzero.astype(np.int8).tolist()

    def _on_surfaces(self, block: _Block, at: np.ndarray, index: np.ndarray,
                     below: np.ndarray) -> np.ndarray:
        """Whether each zero residue, of the subset S at row ``at`` of the
        ``block`` and the row ``index`` past ``below`` of its indices, is
        zero because S and the row lie in one of the set's ``surfaces``,
        after the block's bases have added theirs (see the module
        docstring).  Each base certifies its residues past its last index
        that no surface covers (``_verdicts``, kept in ``certified``), in
        order, and adds its surface if at least two of them are zero.  With
        no surface known and no base, a block costs one ``bincount``."""
        subsets = block.subsets
        m, k = subsets.shape
        zero = np.zeros(len(at), bool)
        first = below == k
        counts = np.bincount(at[first], minlength=m)
        if not self.surfaces and counts.max() < 2:
            return zero

        def covered(surface):
            return surface[subsets].all(axis=1)[at] & surface[index]

        prefix = list(block.key[1])
        for surface in self.surfaces:
            if surface[prefix].all():  # a surface off the prefix holds no subset of the block
                zero |= covered(surface)
        bases = (counts >= 2) & block.table[:, :k + 1].any(axis=1)
        pending = np.flatnonzero(first & bases[at] & ~zero)
        while len(pending):
            mine = pending[at[pending] == at[pending[0]]]
            ranks = _joined_ranks(len(self), subsets, at[mine], index[mine], below[mine])
            tuples = np.column_stack([subsets[at[mine]], index[mine]])
            vanish = np.array(self._verdicts(ranks.tolist(), tuples.__getitem__), bool)
            if vanish.sum() >= 2:
                surface = np.zeros(len(self), bool)
                surface[tuples[vanish]] = True
                self.surfaces.append(surface)
                zero |= covered(surface)
            pending = pending[len(mine):]
            pending = pending[~zero[pending]]
        return zero

    def _certified_zeros(self, subsets: np.ndarray, at: np.ndarray, index: np.ndarray,
                         below: np.ndarray) -> np.ndarray:
        """Whether the determinant of each zero residue's T, the subset at
        row ``at`` of ``subsets`` and the row ``index`` past ``below`` of
        its indices, is certified zero, read from ``certified``.

        A zero residue is known by the combination rank of its T
        (``_joined_ranks``).  T = S + (x,), with x past every index of S,
        is met first from S, its least subset, so the block's T that meet
        it first are distinct and in ascending order; they are certified
        where ``certified`` does not hold them yet, in that order, and every
        other zero residue finds its T among them by binary search, or, if
        T met an earlier block first, in ``certified``.  So the Python work
        is per distinct T, and nothing is sorted but the tuples of T that a
        pool worker's first block meets after an earlier block."""
        ranks = _joined_ranks(len(self), subsets, at, index, below)
        first = np.flatnonzero(below == subsets.shape[1])
        firsts = ranks[first]
        vanish = np.array(self._verdicts(firsts.tolist(), lambda i: np.column_stack(
            [subsets[at[first[i]]], index[first[i]]])), bool)
        spot = np.searchsorted(firsts, ranks)
        known = spot < len(firsts)
        known[known] = firsts[spot[known]] == ranks[known]
        zero = np.zeros(len(ranks), bool)
        zero[known] = vanish[spot[known]]
        missed = np.flatnonzero(~known)
        zero[missed] = self._verdicts(ranks[missed].tolist(), lambda i: np.sort(
            np.column_stack([subsets[at[missed[i]]], index[missed[i]]]), axis=1))
        return zero

    def _verdicts(self, ranks: list, tuples) -> list:
        """Whether the determinant of the sorted index tuple of each rank
        vanishes, read from ``certified``.  The ranks it does not hold yet
        are certified first, in the given order, ``_BATCH_LANES``
        tuple-lanes at a time; ``tuples(positions)`` is the array of the
        tuples at those positions of ``ranks``."""
        fresh = [i for i, rank in enumerate(ranks) if rank not in self.certified]
        size = max(1, _BATCH_LANES // self.grid[0, 0].size)
        for start in range(0, len(fresh), size):
            batch = fresh[start:start + size]
            self.certified.update(zip([ranks[i] for i in batch],
                                      _certify(self, tuples(batch)).tolist()))
        return [self.certified[rank] for rank in ranks]


def _exact_values(source: RowSet, indices: tuple) -> list:
    """The exact values of the rows of the lane set ``source`` at
    ``indices``: the determinant if they are square, else their signed
    maximal cofactors.  A degree-1 set's are Python ints expanded over its
    own rows by ``_minors``, which a walk shares prefix levels in; a
    cyclotomic set's are lifted from every lane class by one
    ``_prefix_minors`` call on the one index tuple and one ``from_lanes``
    call."""
    basis, width = source.basis, source.grid.shape[1]
    if basis.degree == 1:
        return _signed(_minors(source, indices, width))
    minors = _prefix_minors(source._signed, np.array([indices]), width, basis.moduli)[:, 0]
    lanes = np.take_along_axis(_signed_cofactors(minors, basis.moduli), source.classes[None], 2)
    return source[0][0].ctx.from_lanes(lanes, basis)


def _vanishes(source: RowSet, indices: tuple) -> bool:
    """Whether every value of the rows of the lane set ``source`` at
    ``indices`` is zero (``_certify`` on their one index tuple)."""
    return bool(_certify(source, np.array([indices]))[0])


class _LaneValue(CycloElement):
    """The determinant of the square rows of a cyclotomic lane set
    ``source`` at ``indices``, known by its filter ``residue``.  A nonzero
    residue proves it nonzero; a zero one is decided by ``_certify``.  Its
    coefficients are lifted once, when first read, and kept.  Lane values
    are integral, so ``den`` is 1."""

    __slots__ = ("_rows", "_residue", "_value")
    den = 1

    def __init__(self, ctx, source, indices, residue):
        self.ctx, self._rows, self._residue, self._value = ctx, (source, indices), residue, None

    @property
    def num(self):
        if self._value is None:
            [self._value] = _exact_values(*self._rows)
        return self._value.num

    def is_zero(self) -> bool:
        return not self._residue and _vanishes(*self._rows)


class _Lanes:
    """The maximal cofactors of the rows of a lane set ``source`` at
    ``indices``, a sequence of exact values known by their filter
    ``residues``, a list that the block of ``indices`` may hold (do not
    modify it).  A nonzero residue proves its cofactor nonzero, so
    ``degenerate`` certifies the rows only where every residue is 0.  The
    values, cyclotomic elements or the Python ints of a degree-1 set, are
    built on the first read (``_exact_values``) and kept in ``_values``."""

    __slots__ = ("source", "indices", "residues", "_values")

    def __init__(self, source, indices, residues):
        self.source, self.indices, self.residues, self._values = source, indices, residues, None

    def degenerate(self) -> bool:
        return not any(self.residues) and _vanishes(self.source, self.indices)

    def __len__(self):
        return len(self.residues)

    def __getitem__(self, index):
        if self._values is None:
            self._values = tuple(_exact_values(self.source, self.indices))
        return self._values[index]


def _minors(source: RowSet, indices: tuple, columns: int):
    """The minors of full row count of the len(indices) x ``columns``
    matrix of the rows of ``source``, a set with no basis or of degree 1,
    at ``indices``, one per column subset in ``combinations`` order, as a
    list.

    Takes the levels of the longest index prefix that ``indices`` shares
    with the set's ``walk`` and expands only the rows after it, in plain
    Python over its scalars.
    """
    walked, levels = source.walk
    shared = len(indices)
    while indices[:shared] != walked[:shared]:
        shared -= 1
    levels = levels[:shared] or [list(source[indices[0]])]
    functions = _level_functions(len(indices), columns)
    for r in range(len(levels), len(indices)):
        levels.append(functions[r - 1](source[indices[r]], levels[-1]))
    source.walk = (indices, levels)
    return levels[-1]


def _signed(minors: list) -> list:
    """The signed maximal cofactors of ``_minors`` of full row count, as
    ``_signed_cofactors`` makes them of reduced ones; one minor, a
    determinant, is kept as it is."""
    signed = minors[::-1]
    signed[1::2] = [-c for c in signed[1::2]]
    return signed


def det(rows) -> object:
    """Determinant of a square matrix of scalars (division-free expansion):
    a lane value for a cyclotomic lane set or a view of one, else the exact
    scalar, a Python int for integer rows."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("det requires a square matrix")
    rows = rows if isinstance(rows, RowSet) else RowSet(rows)
    if rows.basis is not None and rows.basis.degree > 1:
        [residue] = rows.source.filter_row(rows.indices).tolist()
        return _LaneValue(rows[0][0].ctx, rows.source, rows.indices, residue)
    [value] = _minors(rows.source, rows.indices, k)
    return value


def maximal_cofactors(rows, indices=None) -> tuple:
    """Signed maximal cofactors of a k x (k+1) matrix: ``rows``, or, given
    ``indices``, its rows at ``indices``, which are those of
    ``rows.take(indices)``, read with no view built.  Indices of a view are
    mapped through its own, as ``take`` maps them.  A subset walk calls it
    once per subset with the set and the subset's indices.

    Returns (c_0, ..., c_k) with c_j = (-1)^j * det(matrix without column j),
    so that for any extra row x: det([x; rows]) = sum_j x[j] * c_j.
    Cofactors of rows of a lane set hold the set and the index tuple
    (``_Lanes``).  They are known by their filter residues, read from the
    ``heads`` of their block as a list, and their values are lane values,
    or Python ints for a degree-1 set; a walk over the subsets of any other
    set reuses the levels each shares with the previous one (see the module
    docstring).
    """
    rows = rows if isinstance(rows, RowSet) else RowSet(rows)
    source = rows.source
    if indices is None:
        indices = rows.indices
    else:  # the indices in ``source``, as ``take`` maps them
        indices = tuple(indices) if rows is source else tuple(rows.indices[i] for i in indices)
    columns = len(indices) + 1
    if source.basis is not None and source.grid.shape[1] == columns:
        # every row of a lane set has its grid's width
        row = source.block.rows.get(indices)
        if row is None:
            return _Lanes(source, indices, source.filter_row(indices)[:columns].tolist())
        return _Lanes(source, indices, source.block.heads[row])
    if any(len(source[i]) != columns for i in indices):
        raise ValueError("expected a k x (k+1) matrix")
    return tuple(_signed(_minors(source, indices, columns)))


def incidence_values(cof, rows) -> list:
    """det([x; S]) = sum_j x[j] * cof[j], summed left to right, for each row
    x of ``rows``, where ``cof`` are the maximal cofactors of S.  Lane
    values are expanded over their elements, as rows of any set are."""
    return _dot_function(len(cof))(rows, cof)


def complement_values(cof, rows: RowSet, subset: tuple) -> list:
    """``incidence_values`` of ``cof``, the maximal cofactors of the rows
    of the set ``rows`` at the sorted ``subset``, against every row of
    ``rows`` outside ``subset``, in index order.  Lane values are only
    decided, as 1 or 0 as the values are nonzero or zero, in a list that
    the set's last block holds (do not modify it): the block holds
    ``subset`` once ``maximal_cofactors`` of it has run, and decides the
    values of all its subsets the first time one of them is asked for
    (``RowSet._decide``); any other cofactors are expanded against the
    other rows."""
    if not isinstance(cof, _Lanes):
        return incidence_values(cof, [x for i, x in enumerate(rows) if i not in subset])
    block = rows.block
    if block.decided is None:
        block.decided = rows._decide(block)
    return block.decided[block.rows[subset]]


# ---------------------------------------------------------------------------
# lifted rows
# ---------------------------------------------------------------------------


def squared_norm(point: Point):
    acc = None
    for c in point:
        term = c * c
        acc = term if acc is None else acc + term
    return acc


def lifted_row(point: Point) -> tuple:
    """Row (1, x_1..x_d, |x|^2) whose rank/vanishing behaviour encodes
    cosphericality."""
    return (one_like(point[0]), *point, squared_norm(point))


def affine_row(point: Point) -> tuple:
    return (one_like(point[0]), *point)


def _integer_row(row) -> tuple:
    """An exact row times the least common multiple of its denominators:
    Python ints for a rational row, cyclotomic elements of denominator 1
    for a cyclotomic one; any other row is returned as it is."""
    if all(isinstance(e, (int, Fraction)) for e in row):
        scale = math.lcm(*(e.denominator for e in row))
        return tuple(e.numerator * (scale // e.denominator) for e in row)
    if all(isinstance(e, CycloElement) for e in row):
        scale = math.lcm(*(e.den for e in row))
        return tuple(CycloElement(e.ctx, tuple(c * (scale // e.den) for c in e.num), 1)
                     for e in row)
    return row


def _l1_norm(element: CycloElement) -> int:
    return sum(map(abs, element.num))


def scaled_rows(points, row=lifted_row) -> RowSet:
    """The ``row`` images of the points, as the predicates expand them:
    each exact row scaled to integral entries, any other row as it is.

    Integer rows, and cyclotomic rows of one conductor, carry their residue
    lanes over the fewest primes that decide every minor and incidence
    value of the set (see the module docstring), up to the lane prime cap,
    on one lane of each lane class: integers over plain primes, one lane
    each, cyclotomic elements over split primes."""
    rows = [_integer_row(row(p)) for p in points]
    entries = [e for r in rows for e in r]
    if entries and all(type(e) is int for e in entries):
        lane_basis, to_lanes, norm, factor = integer_lane_basis, integer_lanes, abs, 1
    elif entries and all(isinstance(e, CycloElement)
                         and e.ctx.conductor == entries[0].ctx.conductor for e in entries):
        ctx = entries[0].ctx
        lane_basis, to_lanes, norm, factor = ctx.lane_basis, ctx.to_lanes, _l1_norm, ctx._table_max
    else:
        return RowSet(rows)
    width = len(rows[0])
    norms = sorted(max(1, sum(map(norm, r))) for r in rows)
    basis = lane_basis(factor * math.prod(norms[-width:]))
    if basis is None:
        return RowSet(rows)
    lanes = to_lanes(entries, basis).reshape(len(rows), width, len(basis.primes), -1)
    grid, classes = _lane_classes(lanes)
    return RowSet(rows, grid, basis, classes)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def lift(point: Point) -> Point:
    """Inverse stereographic image (2x, |x|^2 - 1) / (|x|^2 + 1) on the unit
    sphere of R^(d+1); exact on exact backends, and none if |x|^2 = -1."""
    q = squared_norm(point)
    denom = q + 1
    z = is_zero(denom)
    if z is INDETERMINATE:
        raise DomainError("cannot certify that |x|^2 + 1 is nonzero")
    if z:
        raise DomainError("|x|^2 + 1 vanishes: the point has no inverse stereographic image")
    return tuple([(c + c) / denom for c in point] + [(q - 1) / denom])


def project(point: Point) -> Point:
    """Stereographic projection from the north pole back to R^d.

    Rejects off-sphere input on exact backends rather than repairing it.
    """
    q = squared_norm(point)
    offset = q - 1
    z = is_zero(offset)
    if z is INDETERMINATE:
        raise DomainError("cannot certify that the point lies on the unit sphere")
    if not z:
        raise DomainError("point does not lie on the unit sphere")
    last = point[-1]
    denom = one_like(last) - last
    dz = is_zero(denom)
    if dz is INDETERMINATE:
        raise PoleError("point is not certifiably distinct from the north pole")
    if dz:
        raise PoleError("north pole has no stereographic image")
    return tuple(c / denom for c in point[:-1])


def invert(point: Point, center: Point) -> Point:
    """Inversion in the unit sphere centered at ``center``:
    x -> r + (x - r)/|x - r|^2.  An involution away from its pole."""
    if len(point) != len(center):
        raise DomainError("point and center dimensions differ")
    diff = tuple(a - b for a, b in zip(point, center))
    q = squared_norm(diff)
    z = is_zero(q)
    if z is INDETERMINATE:
        raise PoleError("point is not certifiably distinct from the inversion center")
    if z:
        raise PoleError("inversion center has no image")
    return tuple(r + c / q for r, c in zip(center, diff))


def lift_set(ps: PointSet) -> PointSet:
    meta = dict(ps.metadata)
    meta["lifted_from_dimension"] = ps.dimension
    return PointSet.build([lift(p) for p in ps.points], metadata=meta)


def invert_set(ps: PointSet, center: Point) -> PointSet:
    meta = dict(ps.metadata)
    meta["inverted_in"] = [scalar_to_json(c) for c in center]
    return PointSet.build([invert(p, center) for p in ps.points], metadata=meta)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def cospherical(points) -> object:
    """Do d+2 points lie on one hypersphere-or-hyperplane?

    Exact backends answer definitively; interval inputs may return
    INDETERMINATE, which callers must handle explicitly.
    """
    points = list(points)
    if not points:
        raise DomainError("cosphericality needs points")
    d = len(points[0])
    if len(points) != d + 2:
        raise DomainError(f"cosphericality in dimension {d} needs {d + 2} points")
    return is_zero(det(scaled_rows(points)))


def general_position_check(ps: PointSet):
    """First (lexicographic) d+1 subset lying on a common (d-2)-sphere or
    (d-2)-flat, or None if the set is in general position.

    Realized as a rank check: the subset violates general position exactly
    when all maximal minors of its lifted rows vanish.
    """
    if ps.backend == "interval":
        raise DomainError("general position certification requires an exact backend")
    rows = scaled_rows(ps.points)
    for subset in combinations(range(ps.n), ps.dimension + 1):
        if degenerate(maximal_cofactors(rows, subset)):
            return subset
    return None


@dataclass(frozen=True)
class Hypersphere:
    """Coefficients (w, a, u) of w*|x|^2 + a.x + u = 0; w = 0 encodes a
    hyperplane.  Exact backends store a canonical form so equal surfaces
    compare and hash equal."""

    w: object
    a: tuple
    u: object

    @classmethod
    def from_coefficients(cls, w, a, u) -> "Hypersphere":
        coeffs = [w, *a, u]
        kinds = {backend_of(c) for c in coeffs}
        if len(kinds) != 1:
            raise DomainError("hypersphere coefficients mix backends")
        backend = kinds.pop()
        if backend != "interval":
            if degenerate(coeffs):
                raise DegeneracyError("all hypersphere coefficients vanish")
            coeffs = _canonicalize(coeffs, backend)
        return cls(coeffs[0], tuple(coeffs[1:-1]), coeffs[-1])

    @classmethod
    def from_cofactors(cls, cof) -> "Hypersphere":
        """The surface of a subset from the maximal cofactors of its rows
        (1, x, |x|^2), u first and w last; the canonical form drops scales."""
        return cls.from_coefficients(cof[-1], cof[1:-1], cof[0])

    @property
    def dimension(self) -> int:
        return len(self.a)

    def is_hyperplane(self):
        return is_zero(self.w)

    def evaluate(self, point: Point):
        acc = self.w * squared_norm(point)
        for coeff, coord in zip(self.a, point):
            acc = acc + coeff * coord
        return acc + self.u

    def coefficients(self) -> tuple:
        return (self.w, *self.a, self.u)


def _canonicalize(coeffs: list, backend: str) -> list:
    """One representative of the nonzero multiples of exact ``coeffs``: a
    cyclotomic vector times its lead's ``conjugate_product`` (N(lead) /
    lead, so the lead becomes rational), then its fractions scaled to
    coprime integers with the first nonzero one positive, which is unique
    up to a positive rational factor.  Rational coefficients become those
    integers, as Fractions."""
    if backend == "cyclotomic":
        rest = next(c for c in coeffs if not c.is_zero()).conjugate_product()
        coeffs = [c * rest for c in coeffs]
        fractions = [f for c in coeffs for f in c.coefficients]
    else:
        fractions = coeffs  # ints and Fractions both have a numerator and a denominator
    denom_lcm = math.lcm(*(f.denominator for f in fractions))
    numerators = [f.numerator * (denom_lcm // f.denominator) for f in fractions]
    numer_gcd = math.gcd(*numerators)
    if next(m for m in numerators if m) < 0:
        numer_gcd = -numer_gcd
    if backend == "cyclotomic":
        return [c * Fraction(denom_lcm, numer_gcd) for c in coeffs]
    return [Fraction(m // numer_gcd) for m in numerators]


def hypersphere_through(points) -> Hypersphere:
    """The unique hypersphere-or-hyperplane through d+1 points of full
    lifted rank, solved by cofactor expansion of their scaled rows (the
    canonical form divides the row scales out)."""
    points = list(points)
    if not points:
        raise DomainError("a hypersphere needs points")
    d = len(points[0])
    if len(points) != d + 1:
        raise DomainError(f"need exactly {d + 1} points in dimension {d}")
    cof = maximal_cofactors(scaled_rows(points))
    if degenerate(cof):
        raise DegeneracyError("points lie on a common (d-2)-sphere or (d-2)-flat")
    return Hypersphere.from_cofactors(cof)


def incident(sphere: Hypersphere, point: Point):
    """True/False incidence; INDETERMINATE possible on the interval backend."""
    if len(point) != sphere.dimension:
        raise DomainError(
            f"point dimension {len(point)} != surface dimension {sphere.dimension}"
        )
    return is_zero(sphere.evaluate(point))
