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
``RowSet``; ``RowSet.take`` makes a view of some of its rows.  Rational,
interval and capped sets, and plain lists of rows (a set with no basis),
expand in plain Python over their own scalars, by functions compiled from
the plan once per shape, so that a level of minors costs one call and its
products.  Each minor is its plus terms summed left to right less its
minus terms summed left to right; interval enclosures depend on that
order.

A cyclotomic set of one conductor is a lane set: it keeps the residue
lanes of its entries over one ``basis`` of split primes (see ``scalars``)
as one ``grid``, and filters in its *filter lane*, each entry's residue in
lane 0 of the basis's first prime.  The cofactors or the determinant of a
view of a lane set are lane values known by their filter residues.  A
nonzero residue proves a value nonzero.  A zero one is decided in every
lane under the set's bound (below): the view expands all its values in
every lane once, and lifts them by one ``from_lanes`` call only when one
is read (equality, hashing, JSON, pickling or arithmetic).  A view's
cofactors keep their filter residues and build their values only when one
is read, so a nonzero residue answers ``degenerate`` with no value built.
Incidence values det([x; S]) against a view of the same set (one of the
same ``source``) are only decided: by a nonzero filter residue, or else by
the all-lane determinant of the sorted indices of S and x, which the set
certifies once per (d+2)-set (below).  Rows of two sets, or a cofactor
tuple used as a row, expand over their elements.

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
a batch of certificates (below) and of a view's values in every lane class
(``RowSet.lanes``, on the view's one index tuple).  Level r holds the
minors of rows 0..r of each distinct (r+1)-index prefix of the index
tuples, one column per prefix, built from the level of the prefix without
its last index by one step of the plan's tables (``_level``), which adds
the terms of every minor one term at a time.  A block's levels are int64
arrays mod the filter prime.  A subset's row of the block's table holds
its signed maximal cofactors followed by their incidence residues against
every row of the set, or the determinant of a square subset.  The set
keeps its last block (``_Block``), with a dict from each subset of the
block to its row, so that a view of sorted indices in that block costs
one lookup; a view of other sorted, distinct indices builds their block.
A view whose indices are not sorted and distinct is a table of its one
tuple, in its own order.  A lexicographic walk reads each block to its end
before it moves to the next.

A block also *decides* its subsets' incidence values against the rows
outside them, the first time a walk asks for one (``complement_values``,
``RowSet._decide``): one int64 array, a row per subset of
its values in index order, each the filter residue or, where that is 0,
1 or 0 by the certificate of the sorted (d+2)-set.  The walk reads a
subset's row as one list, with no view of the other rows.  A block built
only to certify (below) decides nothing.

The zero candidates of a block are the pairs (S, i) with i > max(S) whose
incidence residue is 0, so that S + (i,) is sorted and each (d+2)-set is
a candidate of one subset only: a zero residue of det([x; S]) asks for
the certificate of the sorted indices T of S and x, the candidate of the
block of T without its last index.  A block's candidates are certified
together, at most ``_BATCH_TUPLES`` at a time, the first time one of them
is asked for (``_certify``), by the prefix expansion of a block with the
lane classes on the trailing axes.  In a lexicographic walk that block is
the one being decided or one decided before it; a pool worker whose rank
range starts in the middle of the walk builds the table of an earlier
block for its batch, and decides no value of that block.  A tuple that is
no candidate (a permuted or repeated one, or one with a nonzero residue)
is certified as a batch of one.

Only a set with no basis walks: it keeps the indices and scalar levels
of its last expansion of one view in ``walk``, and the next expansion
reuses the levels of the longest index prefix it shares with them: at d=4
a subset that keeps its first four rows of the previous one costs the 30
products of the last level instead of all 180.  Cached levels are never
written to.  A lane set never walks: it expands each index tuple by
``_prefix_minors``, where the tuples of a block or a batch share their
prefixes.

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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ConductorError, DegeneracyError, DomainError, PoleError
from .scalars import (
    INDETERMINATE,
    CycloElement,
    backend_of,
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
        points = data["points"]
        if type(points) is not list or not all(type(p) is list for p in points):
            raise DomainError("points must be a list of coordinate lists")
        points = [tuple(scalar_from_json(c) for c in p) for p in points]
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
    a view of a lane set are decided without building their values."""
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
    incidence residues against every row of the set, entries @ cof."""
    width = rows.shape[1] // 2
    minors = _prefix_minors(rows.T, subsets, width, prime)
    if subsets.shape[1] == width:
        return minors.T
    cof = _signed_cofactors(minors, prime)
    return np.ascontiguousarray(np.concatenate([cof, rows[:, :width] @ cof % prime]).T)


# The most zero candidates one ``_certify`` call expands.  A batch's widest
# level holds C(width, 3) minors of up to this many tuples in every lane
# class, and ``_level`` adds one term of them at a time.  On perfbench's
# coset-cyclo workload (2-core VM, three rounds), caps of 64, 32, 16 and 8
# raised peak RSS over certifying each tuple on its own by about 2.3%,
# 0.9%, 0.3% and 0.1%, at 2.15, 2.13, 2.06 and 1.90 times its work_per_s.
_BATCH_TUPLES = 32


class _Block:
    """The k-subsets of a lane set that share the index prefix of ``key``
    = (k, prefix): the sorted ``subsets`` (m, k) in lexicographic order,
    their filter ``table`` (``_block_table``), the dict ``rows`` from each
    subset to its table row, and ``decided``, set by ``complement_values``:
    each subset's decided incidence values against every row outside it,
    (m, n - k), in index order."""

    __slots__ = ("key", "subsets", "table", "rows", "decided")

    def __init__(self, key, subsets, table, rows):
        self.key, self.subsets, self.table, self.rows = key, subsets, table, rows
        self.decided = None


def _candidates(block: _Block, n: int) -> np.ndarray:
    """The zero candidates of a ``block`` of cofactors of a lane set of n
    rows: each subset S of the block followed by each index i > max(S)
    whose incidence residue against S is 0, in lexicographic order, as an
    array (candidates, k + 1)."""
    subsets = block.subsets
    zero = (block.table[:, block.key[0] + 1:] == 0) & (np.arange(n) > subsets[:, -1:])
    at, index = np.nonzero(zero)
    return np.column_stack([subsets[at], index])


def _certify(source: "RowSet", tuples: np.ndarray) -> np.ndarray:
    """Whether the determinant of the rows of the lane set ``source`` at
    each index tuple, a row of ``tuples`` (m, width), vanishes in
    every lane class, decided under the set's bound: ``_prefix_minors``
    with the lane classes on the trailing axes (primes, classes)."""
    [minors] = _prefix_minors(source._signed, tuples, tuples.shape[1], source.basis.moduli)
    return ~minors.any(axis=(1, 2))


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
    (``_Itself``).  A view of a lane set owns its values in every lane
    class: ``lanes`` expands them once and ``lifted`` lifts them once.  A
    set with no basis keeps the indices and levels of its last expansion
    of a view in ``walk``; a lane set never walks.  A lane set keeps its
    last ``_Block`` in ``block``, the keys of the blocks whose zero
    candidates it certified in ``batched``, and its zero certificates in
    ``certified``.  A pickle drops all of them.
    """

    walk = ((), ())
    block = _Block((), None, None, {})
    source = _Itself()
    _lanes = _lifted = None

    def __new__(cls, rows, grid=None, basis=None, classes=None):
        self = super().__new__(cls, rows)
        self.basis, self.indices = basis, tuple(range(len(self)))
        self.grid, self.classes, self.certified, self.batched = grid, classes, {}, set()
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
        array = np.array(subsets, np.intp)
        return _Block((k, prefix), array, _block_table(self._filter, self.prime, array),
                      dict(zip(subsets, range(len(subsets)))))

    def _decide(self, block: _Block) -> np.ndarray:
        """The decided incidence values of each subset of a ``block`` of
        cofactors against every row outside it, (subsets, n - k): the
        filter residue, or where that is 0, whether the determinant of the
        sorted indices of the subset and the row is certified nonzero
        (``certify_zero``, which certifies the block's own candidates in
        batches)."""
        subsets = block.subsets
        m, k = subsets.shape
        residues = block.table[:, k + 1:]
        outside = np.ones(residues.shape, bool)
        outside[np.arange(m)[:, None], subsets] = False
        at, index = np.nonzero(outside & (residues == 0))
        tuples = np.sort(np.column_stack([subsets[at], index]), axis=1)
        verdicts = [not self.certify_zero(t) for t in map(tuple, tuples.tolist())]
        values = residues[outside].reshape(m, len(self) - k)
        # the column of row i among the rows outside S is i less the rows of S below it
        values[at, index - (subsets[at] < index[:, None]).sum(axis=1)] = verdicts
        return values

    def lanes(self) -> np.ndarray:
        """The values of these lane rows in every lane class, reduced, shape
        (count, primes, classes): the determinant if the rows are square,
        else their signed maximal cofactors.  Expanded on the first call,
        by ``_prefix_minors`` on the one tuple of the view's indices."""
        if self._lanes is None:
            moduli = self.basis.moduli
            minors = _prefix_minors(self.source._signed, np.array([self.indices]), len(self[0]),
                                    moduli)[:, 0]
            self._lanes = _signed_cofactors(minors, moduli)
        return self._lanes

    def lifted(self) -> list:
        """The ``lanes`` values as elements, lifted from every lane by one
        ``from_lanes`` call on the first one."""
        if self._lifted is None:
            lanes = np.take_along_axis(self.lanes(), self.source.classes[None], axis=2)
            self._lifted = self[0][0].ctx.from_lanes(lanes, self.basis)
        return self._lifted

    def certify_zero(self, indices: tuple) -> bool:
        """Whether the determinant of the rows of this lane set at
        ``indices`` vanishes, decided in every lane class under the set's
        bound once per index tuple.  Sorted, distinct ``indices`` whose
        filter residue is 0 are a zero candidate of the block of all their
        indices but the last, certified with all of that block's candidates
        the first time one of them is asked for; any other tuple is
        certified as a batch of one."""
        verdict = self.certified.get(indices)
        if verdict is None and list(indices) == sorted(set(indices)):
            subset = indices[:-1]
            key = (len(subset), subset[:_block_prefix(len(self), subset)])
            if key not in self.batched:
                self.batched.add(key)
                block = self.block if self.block.key == key else self._block(subset)
                candidates = _candidates(block, len(self))
                for start in range(0, len(candidates), _BATCH_TUPLES):
                    batch = candidates[start:start + _BATCH_TUPLES]
                    self.certified.update(zip(map(tuple, batch.tolist()),
                                              _certify(self, batch).tolist()))
                verdict = self.certified.get(indices)
        if verdict is None:
            [verdict] = _certify(self, np.array([indices])).tolist()
            self.certified[indices] = verdict
        return verdict


class _LaneValue(CycloElement):
    """Value ``index`` of a view of a lane set, known by its filter
    ``residue``.  A nonzero residue proves it nonzero; a zero one is decided
    in the view's ``lanes``.  Its coefficients are lifted, with the view's
    other values, only when read.  Lane values are integral, so ``den`` is
    1."""

    __slots__ = ("_view", "_index", "_residue")
    den = 1

    def __init__(self, ctx, view, index, residue):
        self.ctx, self._view, self._index, self._residue = ctx, view, index, residue

    @property
    def num(self):
        return self._view.lifted()[self._index].num

    def is_zero(self) -> bool:
        return not self._residue and not self._view.lanes()[self._index].any()


class _Lanes:
    """The maximal cofactors of a view of a lane set, a sequence of lane
    values: the ``view`` that owns their lanes and their filter
    ``residues``.  The values are built on the first read."""

    __slots__ = ("view", "residues", "_values")

    def __init__(self, view, residues):
        self.view, self.residues, self._values = view, residues, None

    def values(self) -> tuple:
        if self._values is None:
            ctx = self.view[0][0].ctx
            self._values = tuple(_LaneValue(ctx, self.view, i, residue)
                                 for i, residue in enumerate(self.residues))
        return self._values

    def degenerate(self) -> bool:
        return not any(self.residues) and not self.view.lanes().any()

    def __len__(self):
        return len(self.residues)

    def __getitem__(self, index):
        return self.values()[index]

    def __iter__(self):
        return iter(self.values())

    def __eq__(self, other):
        return self.values() == (other.values() if isinstance(other, _Lanes) else other)


def _minors(source: RowSet, indices: tuple, columns: int):
    """The minors of full row count of the len(indices) x ``columns``
    matrix of the rows of ``source``, a set with no basis, at ``indices``,
    one per column subset in ``combinations`` order, as a list.

    Takes the levels of the longest index prefix that ``indices`` shares
    with the set's ``walk`` and expands only the rows after it, in plain
    Python over its scalars.
    """
    walked, levels = source.walk
    shared = len(indices)
    while indices[:shared] != walked[:shared]:
        shared -= 1
    levels = levels[:shared] or [source[indices[0]]]
    functions = _level_functions(len(indices), columns)
    for r in range(len(levels), len(indices)):
        levels.append(functions[r - 1](source[indices[r]], levels[-1]))
    source.walk = (indices, levels)
    return levels[-1]


def det(rows) -> object:
    """Determinant of a square matrix of scalars (division-free expansion)."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("det requires a square matrix")
    rows = rows if isinstance(rows, RowSet) else RowSet(rows)
    if rows.basis is not None:
        [residue] = rows.source.filter_row(rows.indices).tolist()
        return _LaneValue(rows[0][0].ctx, rows, 0, residue)
    [value] = _minors(rows.source, rows.indices, k)
    return value


def maximal_cofactors(rows) -> tuple:
    """Signed maximal cofactors of a k x (k+1) matrix.

    Returns (c_0, ..., c_k) with c_j = (-1)^j * det(matrix without column j),
    so that for any extra row x: det([x; rows]) = sum_j x[j] * c_j.
    Cofactors of a view of a lane set are its lane values, known by their
    filter residues in the table of its block; a walk over the views of
    any other set reuses the levels each shares with the previous one (see
    the module docstring).
    """
    rows = rows if isinstance(rows, RowSet) else RowSet(rows)
    columns = len(rows) + 1
    if rows.basis is not None and rows.source.grid.shape[1] == columns:
        # every row of a lane set has its grid's width
        return _Lanes(rows, rows.source.filter_row(rows.indices)[:columns].tolist())
    if set(map(len, rows)) - {columns}:
        raise ValueError("expected a k x (k+1) matrix")
    # in combinations order the k-column subsets leave out column k first
    signed = _minors(rows.source, rows.indices, columns)[::-1]
    signed[1::2] = [-c for c in signed[1::2]]
    return tuple(signed)


def incidence_values(cof, rows) -> list:
    """det([x; S]) = sum_j x[j] * cof[j] for each row x of ``rows``, where
    ``cof`` are the maximal cofactors of S.  If ``cof`` are lane values of
    the set ``rows`` is a view of, each value is only decided, as a Python
    int that is zero iff the value is: its filter residue, or where that is
    0, whether the set's determinant of the sorted indices of S and x is
    certified nonzero."""
    if not (isinstance(cof, _Lanes) and cof.view.source is getattr(rows, "source", None)):
        return _dot_function(len(cof))(rows, cof)
    source, defining = rows.source, cof.view.indices
    residues = source.filter_row(defining)[len(cof):].tolist()
    return [residues[i] or int(not source.certify_zero(tuple(sorted((*defining, i)))))
            for i in rows.indices]


def complement_values(cof, rows: RowSet, subset: tuple) -> list:
    """``incidence_values`` of ``cof``, the maximal cofactors of the rows
    of the set ``rows`` at the sorted ``subset``, against every row of
    ``rows`` outside ``subset``, in index order.  Lane values are read
    from the set's last block, which holds ``subset`` once
    ``maximal_cofactors`` of its view has run and decides the values of
    all its subsets the first time one of them is asked for
    (``RowSet._decide``); any other cofactors are expanded against the
    other rows."""
    if not isinstance(cof, _Lanes):
        return _dot_function(len(cof))([x for i, x in enumerate(rows) if i not in subset], cof)
    block = rows.block
    if block.decided is None:
        block.decided = rows._decide(block)
    return block.decided[block.rows[subset]].tolist()


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


def scaled_rows(points, row=lifted_row) -> RowSet:
    """The ``row`` images of the points, as the predicates expand them:
    each exact row scaled to integral entries, any other row as it is.

    Cyclotomic rows of one conductor carry their residue lanes, over the
    fewest split primes that lift every minor and incidence value of the
    set (see the module docstring), up to the lane prime cap, on one lane
    of each lane class."""
    rows = [_integer_row(row(p)) for p in points]
    entries = [e for r in rows for e in r]
    if entries and all(isinstance(e, CycloElement)
                       and e.ctx.conductor == entries[0].ctx.conductor for e in entries):
        ctx = entries[0].ctx
        width = len(rows[0])
        norms = sorted(max(1, sum(abs(c) for e in r for c in e.num)) for r in rows)
        basis = ctx.lane_basis(ctx._table_max * math.prod(norms[-width:]))
        if basis is not None:
            lanes = ctx.to_lanes(entries, basis).reshape(len(rows), width, len(basis.primes), -1)
            grid, classes = _lane_classes(lanes)
            return RowSet(rows, grid, basis, classes)
    return RowSet(rows)


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
        if degenerate(maximal_cofactors(rows.take(subset))):
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
    up to a positive rational factor."""
    if backend == "cyclotomic":
        rest = next(c for c in coeffs if not c.is_zero()).conjugate_product()
        coeffs = [c * rest for c in coeffs]
        fractions = [f for c in coeffs for f in c.coefficients]
    else:
        coeffs = fractions = [Fraction(c) for c in coeffs]
    denom_lcm = math.lcm(*(f.denominator for f in fractions))
    numer_gcd = math.gcd(*(f.numerator * (denom_lcm // f.denominator) for f in fractions))
    scale = Fraction(denom_lcm, numer_gcd)
    if next(f for f in fractions if f) < 0:
        scale = -scale
    return [c * scale for c in coeffs]


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
