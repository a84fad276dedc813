"""Incidence spectra: how many hyperspheres-or-hyperplanes pass through
exactly m points of a configuration.

Every (d+1)-subset of a set in general position determines one
hypersphere-or-hyperplane; a surface through exactly m points is found by
exactly C(m, d+1) subsets.  One walk (``_histogram_range``) visits every
subset in lexicographic order, stops at the first degenerate one, and
histograms a key of each other subset.  ``spectrum`` keys a subset by its
incidence count m and divides by binomials, which yields a free integrity
check: inexact division means a predicate lied somewhere.
``spectrum_by_hashing`` keys it by its canonical surface and inverts the
key multiplicities C(m, d+1) back to m.

The same scheme with affine rows (1, y) counts hyperplanes of a set in
R^D, which is how lifted configurations are cross-checked.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import ConsistencyError, DomainError, GeneralPositionError, SpanError
from .geometry import (
    Hypersphere,
    PointSet,
    affine_row,
    complement_values,
    degenerate,
    lift_set,
    lifted_row,
    maximal_cofactors,
    scaled_rows,
)
from .scalars import INDETERMINATE, is_zero


@dataclass
class Spectrum:
    """Map m -> number of distinct surfaces through exactly m points.

    ``subset_size`` is d+1 for hypersphere spectra and D for hyperplane
    spectra in R^D; ``ordinary`` and the (d+2)-point count read off the two
    smallest incidence classes.
    """

    dimension: int
    n: int
    subset_size: int
    counts: dict[int, int] = field(default_factory=dict)
    indeterminate_count: int = 0

    @property
    def certified(self) -> bool:
        return self.indeterminate_count == 0

    @property
    def ordinary(self) -> int:
        return self.counts.get(self.subset_size, 0)

    @property
    def next_class(self) -> int:
        return self.counts.get(self.subset_size + 1, 0)

    def partition_holds(self) -> bool:
        """Sum over m of C(m, r) * N_m must exhaust all C(n, r) subsets."""
        total = sum(math.comb(m, self.subset_size) * nm for m, nm in self.counts.items())
        return total == math.comb(self.n, self.subset_size)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "n": self.n,
            "subset_size": self.subset_size,
            "counts": {str(m): nm for m, nm in sorted(self.counts.items())},
            "indeterminate_count": self.indeterminate_count,
            "certified": self.certified,
        }


# ---------------------------------------------------------------------------
# lexicographic subset ranking
# ---------------------------------------------------------------------------


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset of range(n) in lexicographic order."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError("rank out of range")
    out = []
    x = 0
    for remaining in range(k, 0, -1):
        while True:
            block = math.comb(n - x - 1, remaining - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# the subset walk
# ---------------------------------------------------------------------------


def _incidence_count(rows, subset, cof):
    """The number of rows of ``rows`` on the surface of ``subset``, or
    INDETERMINATE once one incidence test is."""
    m = len(subset)
    for value in complement_values(cof, rows, subset):
        verdict = is_zero(value)
        if verdict is INDETERMINATE:
            return INDETERMINATE
        if verdict:
            m += 1
    return m


def _surface(rows, subset, cof):
    return Hypersphere.from_cofactors(cof)


def _histogram_range(rows, r: int, start: int, stop: int, key):
    """Histogram of ``key(rows, subset, cof)`` over the r-subsets with ranks
    in [start, stop) of the ``RowSet`` ``rows``, with ``cof`` the maximal
    cofactors of the subset's rows.

    Returns (Counter key -> #subsets, first degenerate subset in this range
    or None).  Each subset's cofactors are those of the set's rows at its
    indices, with no view.  A lane set reads each subset's cofactor
    residues and decided incidence values as lists from the block of
    subsets it belongs to; any other set keeps the expansion levels of the
    index prefix consecutive subsets share (see ``geometry``).
    """
    hist: Counter = Counter()
    for subset in itertools.islice(itertools.combinations(range(len(rows)), r), start, stop):
        cof = maximal_cofactors(rows, subset)
        if degenerate(cof):
            return hist, subset
        hist[key(rows, subset, cof)] += 1
    return hist, None


# The fewest subsets a walk splits over a process pool.  One-thread over
# two-thread ``spectrum`` time on a 2-core VM is 0.7-1.0 for d=4 cosets up
# to 3 003 subsets and 1.2-1.4 from 4 368, and 0.8-1.3 for trivial sets of
# 1 001-2 002 subsets: below about this many, the pool's start-up and the
# set's pickling cost about what the second core saves.
POOL_MIN_SUBSETS = 4096


def _subset_histogram(ps: PointSet, row, r: int, threads: int, key):
    rows = scaled_rows(ps.points, row)
    total = math.comb(ps.n, r)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or total < POOL_MIN_SUBSETS:
        return _histogram_range(rows, r, 0, total, key)
    # contiguous rank ranges; merged results are independent of the split
    chunk = -(-total // workers)
    starts = range(0, total, chunk)
    stops = [min(start + chunk, total) for start in starts]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_histogram_range, itertools.repeat(rows), itertools.repeat(r),
                              starts, stops, itertools.repeat(key)))
    violations = [violation for _, violation in parts if violation is not None]
    return sum((part for part, _ in parts), Counter()), min(violations, default=None)


def _spectrum(ps: PointSet, row, r: int, violation_error, threads: int) -> Spectrum:
    """Histogram every r-subset's incidence count over ``row`` images of
    the points, then divide by the multiplicities C(m, r)."""
    hist, violation = _subset_histogram(ps, row, r, threads, _incidence_count)
    if violation is not None:
        raise violation_error(violation)
    indeterminate = hist.pop(INDETERMINATE, 0)
    counts = {}
    for m, subsets in sorted(hist.items()):
        quotient, remainder = divmod(subsets, math.comb(m, r))
        if remainder and indeterminate == 0:
            raise ConsistencyError(
                f"{subsets} subsets saw incidence count {m}, not a multiple of C({m},{r})"
            )
        # with indeterminate exclusions the multiplicity bookkeeping is
        # legitimately broken; the floor is reported and the run flagged
        counts[m] = quotient
    spec = Spectrum(ps.dimension, ps.n, r, counts, indeterminate)
    if spec.certified and not spec.partition_holds():
        raise ConsistencyError("partition identity failed after exact division")
    return spec


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def spectrum(ps: PointSet, threads: int = 1) -> Spectrum:
    """Full hypersphere incidence spectrum of a point set.

    Raises GeneralPositionError on the first (lexicographic) d+1 points
    lying on a common (d-2)-sphere or (d-2)-flat, and ConsistencyError if
    the subset counts contradict the multiplicity bookkeeping.
    """
    d = ps.dimension
    if ps.n < d + 2:
        raise DomainError(f"need at least {d + 2} points in dimension {d}, got {ps.n}")
    return _spectrum(ps, lifted_row, d + 1, GeneralPositionError, threads)


def ordinary_hyperplane_spectrum(ps: PointSet, threads: int = 1) -> Spectrum:
    """Hyperplane incidence spectrum of a set in R^D (subsets of size D).

    Raises SpanError if some D points fail to span a hyperplane, or if the
    whole set is contained in one hyperplane (so that no surface through
    only part of it exists at all).
    """
    r = ps.dimension
    if ps.n < r + 1:
        raise SpanError(())
    spec = _spectrum(ps, affine_row, r, SpanError, threads)
    if spec.certified and spec.counts == {ps.n: 1}:
        raise SpanError(tuple(range(ps.n)))
    return spec


def count_ordinary(ps: PointSet, threads: int = 1) -> int:
    """Number of hyperspheres-or-hyperplanes through exactly d+1 points."""
    return spectrum(ps, threads=threads).ordinary


def count_dplus2(ps: PointSet, threads: int = 1) -> int:
    """Number of hyperspheres-or-hyperplanes through exactly d+2 points."""
    return spectrum(ps, threads=threads).next_class


@dataclass
class CorrespondenceReport:
    sphere_spectrum: Spectrum
    plane_spectrum: Spectrum
    equal: bool
    first_mismatch: int | None


def verify_correspondence(ps: PointSet, threads: int = 1) -> CorrespondenceReport:
    """Check that the hypersphere spectrum downstairs equals the hyperplane
    spectrum of the lifted set on the unit sphere of R^(d+1)."""
    sphere = spectrum(ps, threads=threads)
    plane = ordinary_hyperplane_spectrum(lift_set(ps), threads=threads)
    equal = sphere.counts == plane.counts and sphere.indeterminate_count == plane.indeterminate_count
    mismatch = min((m for m in set(sphere.counts) | set(plane.counts)
                    if sphere.counts.get(m, 0) != plane.counts.get(m, 0)), default=None)
    return CorrespondenceReport(sphere, plane, equal, mismatch)


# ---------------------------------------------------------------------------
# the hash-key cross-check
# ---------------------------------------------------------------------------


def spectrum_by_hashing(ps: PointSet) -> Spectrum:
    """Alternative exact-mode spectrum: the same walk keys every
    (d+1)-subset by its canonical surface, and key multiplicities
    t = C(m, d+1) are inverted back to m.

    Shares the walk and the cofactor expansion but none of the incidence
    counting with ``spectrum``; the two are cross-checked in tests and
    available as a runtime self-check.
    """
    if ps.backend == "interval":
        raise DomainError("hash deduplication requires an exact backend")
    r = ps.dimension + 1
    keys, violation = _subset_histogram(ps, lifted_row, r, 1, _surface)
    if violation is not None:
        raise GeneralPositionError(violation)
    incidence = {math.comb(m, r): m for m in range(r, ps.n + 1)}
    counts: Counter = Counter()
    for multiplicity in keys.values():
        if multiplicity not in incidence:
            raise ConsistencyError(
                f"key multiplicity {multiplicity} is not a binomial C(m,{r})"
            )
        counts[incidence[multiplicity]] += 1
    spec = Spectrum(ps.dimension, ps.n, r, dict(counts), 0)
    if not spec.partition_holds():
        raise ConsistencyError("partition identity failed in hash fast path")
    return spec
