"""Scalar micro-benchmarks on operands taken from the workloads' own inputs.

``CycloElement`` multiplication switches between an int64 numpy path and a
big-integer path on coefficient size, so synthetic operands could time the
wrong path.  The operands here are the products the incidence test forms:
a maximal cofactor of a candidate subset times an entry of a lifted row
(1, x, |x|^2) of a point outside it, from the coset-cyclo sets (field
degree 24 and 48) and the trivial-rational d=4 set.
"""

from __future__ import annotations

import math
import operator
import statistics
from time import perf_counter

from hypersphere_lab import constructions, counting, geometry
from workloads import D, TrivialRational

SUBSETS = 4
REPEATS = 7


def incidence_operands(ps: geometry.PointSet) -> list[tuple]:
    """(cofactor, row entry) pairs from SUBSETS evenly spaced candidate subsets."""
    rows = [geometry.lifted_row(p) for p in ps.points]
    r = ps.dimension + 1
    total = math.comb(ps.n, r)
    pairs = []
    for k in range(SUBSETS):
        subset = counting.unrank_combination(k * total // SUBSETS, ps.n, r)
        cof = geometry.maximal_cofactors([rows[i] for i in subset])
        for i in range(ps.n):
            if i not in subset:
                pairs.extend(zip(cof, rows[i]))
    return pairs


def us_per_op(op, pairs) -> float:
    """Median over REPEATS sweeps of the time per operation, in microseconds."""
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append((perf_counter() - t0) / len(pairs))
    return statistics.median(samples) * 1e6


def scalar_metrics(seed: int) -> dict:
    """Per-operation times of the scalar layer, in microseconds."""
    out = {}
    for n, l, degree in ((12, 3, 24), (13, 0, 48)):
        spec = constructions.CosetSpec(constructions.CurveParams.default(D), n, l)
        ps = constructions.coset_config(spec, validate=False)
        if ps.points[0][0].ctx.degree != degree:
            raise RuntimeError(f"coset n={n} has field degree {ps.points[0][0].ctx.degree}")
        pairs = incidence_operands(ps)
        products = [a * b for a, b in pairs]
        out[f"scalars.mul_us.deg{degree}"] = us_per_op(operator.mul, pairs)
        out[f"scalars.add_us.deg{degree}"] = us_per_op(
            operator.add, list(zip(products[::2], products[1::2])))
    ps = constructions.trivial_config(*TrivialRational.compare_dn, seed=seed)
    out["scalars.frac_mul_us"] = us_per_op(operator.mul, incidence_operands(ps))
    return out
