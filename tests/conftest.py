import contextlib
import itertools
import os
import random
from fractions import Fraction
from unittest import mock

import pytest

from hypersphere_lab import counting
from hypersphere_lab.geometry import PointSet, general_position_check
from hypersphere_lab.scalars import CyclotomicContext, is_zero


@contextlib.contextmanager
def no_lifts():
    """Inside the block, lifting a lane value back to its coefficients fails."""
    def refuse(*args):
        raise AssertionError("a lane value was lifted")

    with mock.patch.object(CyclotomicContext, "from_lanes", refuse):
        yield


def certified_tuples(rows) -> dict:
    """The zero certificates of the lane set ``rows`` by sorted index tuple.
    ``rows.certified`` keys each (k+1)-set T by its rank among the
    (k+1)-subsets of range(n) in lexicographic order, k + 1 the rows' width."""
    tuples = itertools.combinations(range(len(rows)), rows.grid.shape[1])
    return {t: rows.certified[rank] for rank, t in enumerate(tuples) if rank in rows.certified}


def flip_first_verdict(monkeypatch):
    """Make the first incidence test of the subset walk answer wrongly."""
    answers = []

    def flipped(value):
        answers.append(is_zero(value))
        return not answers[-1] if len(answers) == 1 else answers[-1]

    monkeypatch.setattr(counting, "is_zero", flipped)


@pytest.fixture
def pool_starts(monkeypatch):
    """A list that gets one entry, the requested worker count, per process
    pool the subset walk starts; the pools themselves are real."""
    starts = []

    class SpyExecutor(counting.ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(counting, "ProcessPoolExecutor", SpyExecutor)
    return starts


def pool_started(starts) -> bool:
    """Whether ``pool_starts`` saw a pool start, or the machine has fewer
    than two cores, so that no thread count starts one."""
    return bool(starts) or (os.cpu_count() or 1) < 2


def random_fraction(rng, bound=10):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_rational_point(rng, d, bound=10):
    return tuple(random_fraction(rng, bound) for _ in range(d))


def random_general_position_set(d, n, seed, bound=10, max_attempts=100):
    """Random rational points, resampled until general position holds."""
    rng = random.Random(seed)
    for _ in range(max_attempts):
        points = []
        seen = set()
        while len(points) < n:
            p = random_rational_point(rng, d, bound)
            if p not in seen:
                seen.add(p)
                points.append(p)
        ps = PointSet.build(points, metadata={"generator": "random", "seed": seed})
        if general_position_check(ps) is None:
            return ps
    raise RuntimeError(f"could not find a general-position set for d={d}, n={n}")


@pytest.fixture
def rng():
    return random.Random(12345)
