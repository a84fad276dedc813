"""Built-in verification battery behind the `selftest` CLI subcommand.

Runs a condensed version of the property suite: transform round trips,
spectrum identities, group-law agreement, and oracle/formula cross-checks.
The full development suite lives in tests/ and runs under pytest.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .constructions import (
    CosetSpec,
    CurveParams,
    closed_form_counts,
    completion_residual,
    coset_config,
    residue_oracle,
    residue_oracle_scan,
    trivial_config,
)
from .counting import spectrum, spectrum_by_hashing, verify_correspondence
from .geometry import cospherical, invert, lift, project
from .scalars import context_for_order, sign_of, trig_pair


def _check_scalars() -> bool:
    ctx = context_for_order(12)
    cos30, sin30 = trig_pair(1, 12, ctx)
    sqrt3 = ctx.zeta_power(1) - ctx.zeta_power(5)
    return (
        sin30 == Fraction(1, 2)
        and sqrt3 * sqrt3 == 3
        and sign_of(2 * cos30 - sqrt3) == 0
        and sign_of(sqrt3) == 1
    )


def _check_transforms() -> bool:
    rng = random.Random(11)
    for _ in range(25):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if project(lift(x)) != x:
            return False
        r = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if x != r and invert(invert(x, r), r) != x:
            return False
    return True


def _check_trivial_spectrum() -> bool:
    ps = trivial_config(3, 6, seed=5)
    spec = spectrum(ps)
    return (
        spec.counts == {4: 10, 5: 1}
        and spec.partition_holds()
        and spectrum_by_hashing(ps).counts == spec.counts
        and verify_correspondence(ps).equal
    )


def _check_group_law() -> bool:
    params = CurveParams.default(4)
    ps = coset_config(CosetSpec(params, 7, 0), validate=False)
    for subset in itertools.combinations(range(7), 6):
        if cospherical([ps.points[i] for i in subset]) is not (sum(subset) % 7 == 0):
            return False
    rng = random.Random(2)
    for _ in range(20):
        ts = [rng.uniform(0, 2 * math.pi) for _ in range(5)]
        if not completion_residual(params, ts, bits=256).contains_zero():
            return False
    spec = spectrum(ps)
    oracle = residue_oracle(7, 4, 0)
    return (spec.ordinary, spec.next_class) == (oracle.ordinary, oracle.dplus2)


def _check_formulas() -> bool:
    if closed_form_counts(3, 10)["min_ordinary"] != 84:
        return False
    cf = closed_form_counts(4, 12)
    scan = residue_oracle_scan(12, 4)
    return (
        cf["min_ordinary"] == 312
        and cf["max_dplus2"] == 80
        and scan["max_dplus2"] == 80
        and scan["min_ordinary"] == 312
    )


def _check_determinism() -> bool:
    # C(7, 4) = 35 subsets run in one process; C(20, 4) = 4 845, at least
    # POOL_MIN_SUBSETS, start the pool
    return all(spectrum(ps, threads=1) == spectrum(ps, threads=2)
               for ps in (trivial_config(3, 7, seed=9), trivial_config(3, 20, seed=9)))


CHECKS = [
    ("scalar arithmetic and exact signs", _check_scalars),
    ("lift/project/invert round trips", _check_transforms),
    ("trivial configuration spectrum", _check_trivial_spectrum),
    ("curve group law and completion", _check_group_law),
    ("closed forms vs residue oracle", _check_formulas),
    ("thread-count determinism", _check_determinism),
]


def run_selftest() -> bool:
    all_ok = True
    for name, check in CHECKS:
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            print(f"FAIL  {name}  ({type(exc).__name__}: {exc})")
            all_ok = False
            continue
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        all_ok = all_ok and ok
    return all_ok
