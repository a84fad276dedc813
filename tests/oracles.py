"""Independent reference implementations used only by the test suite.

Deliberately share no code with the package: determinants use recursive
Laplace expansion, ranks use Gaussian elimination, the spectrum oracle
deduplicates surfaces by their full incidence-index sets instead of
canonical coefficient keys, the residue scan enumerates every index subset
instead of running the package's subset-sum dynamic program, and subset-sum
counts have a Ramanujan-sum closed form.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction


def laplace_det(matrix):
    """Recursive first-row Laplace expansion; entries need +, -, *."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    if k == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = None
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * laplace_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def reference_cofactors(rows):
    """Signed maximal cofactors of a k x (k+1) matrix by per-scalar Laplace
    expansion: c_j = (-1)^j * det(matrix without column j)."""
    out = []
    for j in range(len(rows) + 1):
        minor = laplace_det([list(row[:j]) + list(row[j + 1 :]) for row in rows])
        out.append(-minor if j % 2 else minor)
    return out


def gaussian_rank(matrix):
    """Rank over the rationals by fraction-free elimination."""
    work = [list(row) for row in matrix]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pivot_value = work[rank][col]
        for i in range(rank + 1, len(work)):
            c = work[i][col]
            if c != 0:
                work[i] = [pivot_value * a - c * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def _sphere_row(point):
    one = point[0] - point[0] + 1 if not isinstance(point[0], Fraction) else Fraction(1)
    sq = None
    for c in point:
        sq = c * c if sq is None else sq + c * c
    return [one] + list(point) + [sq]


def _plane_row(point):
    one = point[0] - point[0] + 1 if not isinstance(point[0], Fraction) else Fraction(1)
    return [one] + list(point)


def _is_zero(value):
    if isinstance(value, Fraction) or isinstance(value, int):
        return value == 0
    return value.is_zero()


def naive_spectrum(points, row_fn, subset_size):
    """O(n^(d+2)) reference spectrum: the surface of every subset is
    identified with the full set of point indices incident to it.  Whether
    a determinant vanishes does not depend on the order of its rows, so
    each sorted index set is expanded once."""
    rows = [row_fn(p) for p in points]
    n = len(points)
    surfaces = set()
    vanishes = {}
    for subset in itertools.combinations(range(n), subset_size):
        incident = set(subset)
        for extra in range(n):
            if extra in incident:
                continue
            indices = tuple(sorted((*subset, extra)))
            if indices not in vanishes:
                vanishes[indices] = _is_zero(laplace_det([rows[i] for i in indices]))
            if vanishes[indices]:
                incident.add(extra)
        surfaces.add(frozenset(incident))
    counts = Counter(len(surface) for surface in surfaces)
    return dict(counts)


def naive_sphere_spectrum(points):
    d = len(points[0])
    return naive_spectrum(points, _sphere_row, d + 1)


def naive_plane_spectrum(points):
    return naive_spectrum(points, _plane_row, len(points[0]))


def enumerated_residue_scan(n, d):
    """Coset counts for every offset l in 0..n-1 by enumerating all index
    subsets of Z_n: (d+2)-subsets whose sum plus l vanishes, and
    (d+1)-subsets whose completing residue -(sum)-l lies inside them."""
    sum_hist = [0] * n
    for subset in itertools.combinations(range(n), d + 2):
        sum_hist[sum(subset) % n] += 1
    ordinary_by_l = [0] * n
    for subset in itertools.combinations(range(n), d + 1):
        s = sum(subset)
        for j in subset:
            ordinary_by_l[(-s - j) % n] += 1
    dplus2_by_l = [sum_hist[(-l) % n] for l in range(n)]
    return ordinary_by_l, dplus2_by_l


def _divisors(m):
    return [e for e in range(1, m + 1) if m % e == 0]


def _mobius(m):
    result, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def ramanujan_sum(e, s):
    """c_e(s), the sum of the s-th powers of the primitive e-th roots of
    unity: sum over delta | gcd(e, s) of mu(e / delta) * delta."""
    return sum(_mobius(e // delta) * delta for delta in _divisors(math.gcd(e, s)))


def subset_sum_count(n, k, s):
    """Number of k-subsets of Z_n whose sum is s mod n:
    (1/n) * sum over e | gcd(n, k) of
    (-1)^(k + k/e) * C(n/e, k/e) * c_e(s)."""
    total = sum(
        (-1) ** (k + k // e) * math.comb(n // e, k // e) * ramanujan_sum(e, s)
        for e in _divisors(math.gcd(n, k))
    )
    if total % n:
        raise ArithmeticError(f"closed form is not an integer at n={n}, k={k}, s={s}")
    return total // n
