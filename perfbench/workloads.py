"""The benchmark's workloads: inputs, operations, answer checks, work units.

Every operation goes through a public entry point of ``hypersphere_lab``
(``cli.run`` in-process, or a named library call), and every answer is
checked against a route that shares no counting code with the engine:
the residue oracle, the closed-form tables, or the known spectrum of the
sphere-plus-point construction.

Work is counted as candidate subsets decided, which is set by problem
size and not by algorithm: C(n, r) per spectrum with subsets of size r,
and C(n, d+1) + C(n, d+2) per oracle scan.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable

from hypersphere_lab import cli, constructions, counting, geometry

THREADS = 2
# the coset sets, their pinned counts and the micro-benchmark operands are
# all for this dimension
D = 4


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` is not.

    ``check`` gets what ``call`` returned and answers None when the answer
    is right, else the reason it is wrong.
    """

    label: str
    work: int
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class SpectrumCase:
    """A spectrum one pass decides, with its expected counts m -> N_m."""

    n: int
    r: int
    counts: dict


@dataclass
class Workload:
    work_dir: str
    seed: int
    findings: dict = field(default_factory=dict)

    name = ""
    seeded = False

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def spec(self) -> dict:
        """Constructor arguments, other than work_dir and seed, that make
        this workload again (in another process)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.init and f.name not in ("work_dir", "seed", "findings")}

    def setup(self):
        """Generate and write the input files through ``generate``."""

    def warm_up(self):
        """Run the pass's code path once on a tiny input."""

    def prepare(self):
        """Compute the reference answers (not part of set-up time)."""

    def ops(self, threads: int) -> list[Op]:
        raise NotImplementedError

    def spectra(self) -> list[SpectrumCase]:
        """Spectra one pass decides, for the traced run's closed expressions."""
        return []

    def largest(self):
        """(input path, expected counts) of the largest engine input, or None."""
        return None


class SetupError(RuntimeError):
    pass


def run_cli(args: list) -> int:
    # looked up on every call so that the traced run sees its patch
    return cli.run([str(a) for a in args])


def run_ok(args: list):
    """A set-up step: it must exit 0."""
    rc = run_cli(args)
    if rc != 0:
        raise SetupError(f"{' '.join(map(str, args))} exited {rc}")


def generate(args: list, out: str):
    run_ok(["generate", *args, "-o", out])


def load(path: str) -> geometry.PointSet:
    with open(path) as fh:
        return geometry.PointSet.from_json(json.load(fh))


def read_compare(md_path: str, csv_path: str):
    """Engine (ordinary, (d+2)-point) counts and the boolean match lines."""
    with open(csv_path, newline="") as fh:
        rows = {row[0]: row[1:] for row in csv.reader(fh)}
    engine = (int(rows["ordinary"][0]), int(rows["dplus2"][0]))
    flags = {}
    with open(md_path) as fh:
        for line in fh:
            key, sep, value = line.strip().removeprefix("- ").partition(": ")
            if sep and value in ("True", "False"):
                flags[key] = value == "True"
    return engine, flags


def compare_op(label, work, inp, md, out_csv, threads, check) -> Op:
    def call():
        return run_cli(["compare", inp, "--threads", threads, "-o", md, "--csv", out_csv])

    def judged(rc):
        if rc != 0:
            return f"exit {rc}"
        return check(*read_compare(md, out_csv))

    return Op(label, work, call, judged)


# ---------------------------------------------------------------------------
# coset-cyclo
# ---------------------------------------------------------------------------

# (n, l) -> (ordinary, (d+2)-point) at d = D, as the residue oracle gives them
COSET_PINNED = {(12, 3): (312, 80), (13, 0): (495, 132)}


@dataclass
class CosetCyclo(Workload):
    """``compare --threads 2`` on d=4 coset sets with exact cyclotomic
    coordinates: n=12, l=3 (field degree 24) and n=13, l=0 (degree 48)."""

    sets: tuple = ((12, 3), (13, 0))
    pinned: dict = field(default_factory=lambda: dict(COSET_PINNED))

    name = "coset-cyclo"

    def _input(self, n, l):
        return self.path(f"coset-d{D}-n{n}-l{l}.json")

    def setup(self):
        for n, l in self.sets:
            generate(["--kind", "coset", "--d", D, "--n", n, "--l", l], self._input(n, l))

    def warm_up(self):
        tiny = self.path("warm-coset.json")
        generate(["--kind", "coset", "--d", D, "--n", D + 3], tiny)
        run_ok(["compare", tiny, "--threads", THREADS, "-o", self.path("warm-coset.md")])

    def prepare(self):
        self.oracle = {}
        for n, l in self.sets:
            counts = constructions.residue_oracle(n, D, l)
            self.oracle[(n, l)] = (counts.ordinary, counts.dplus2)

    def ops(self, threads):
        out = []
        for n, l in self.sets:
            stem = self.path(f"coset-n{n}-l{l}")

            def check(engine, flags, n=n, l=l):
                expected = self.oracle[(n, l)]
                pinned = self.pinned.get((n, l), expected)
                if expected != pinned:
                    return f"residue_oracle gives {expected}, pinned {pinned}"
                if engine != expected:
                    return f"engine {engine} != residue_oracle {expected}"
                if flags.get("engine_equals_oracle") is not True:
                    return "compare did not report engine_equals_oracle: True"
                return None

            out.append(compare_op(f"compare coset n={n} l={l}", math.comb(n, D + 1),
                                  self._input(n, l), stem + ".md", stem + ".csv", threads, check))
        return out

    def spectra(self):
        # a hypersphere meets the curve in at most d+2 points, so the
        # spectrum has only the two classes the oracle predicts
        return [SpectrumCase(n, D + 1, {D + 1: o, D + 2: p})
                for (n, l), (o, p) in self.oracle.items()]

    def largest(self):
        n, l = max(self.sets)
        ordinary, dplus2 = self.oracle[(n, l)]
        return self._input(n, l), {D + 1: ordinary, D + 2: dplus2}


# ---------------------------------------------------------------------------
# trivial-rational
# ---------------------------------------------------------------------------


def trivial_spectrum(d: int, n: int) -> dict:
    """n-1 points on a sphere plus one off it: {d+1: C(n-1, d), n-1: 1}."""
    return {d + 1: math.comb(n - 1, d), n - 1: 1}


@dataclass
class TrivialRational(Workload):
    """``compare --threads 2`` on a d=4 sphere-plus-point set and
    ``counting.verify_correspondence(threads=2)`` on a d=3 one; both sets
    come from ``trivial_config(seed)`` and have rational coordinates."""

    compare_dn: tuple = (4, 14)
    verify_dn: tuple = (3, 14)

    name = "trivial-rational"
    seeded = True

    def _input(self, d, n):
        return self.path(f"trivial-d{d}-n{n}-s{self.seed}.json")

    def setup(self):
        for d, n in (self.compare_dn, self.verify_dn):
            generate(["--kind", "trivial", "--d", d, "--n", n, "--seed", self.seed],
                     self._input(d, n))

    def warm_up(self):
        tiny = self.path("warm-trivial.json")
        generate(["--kind", "trivial", "--d", 3, "--n", 7, "--seed", self.seed], tiny)
        run_ok(["compare", tiny, "--threads", THREADS, "-o", self.path("warm-trivial.md")])

    def ops(self, threads):
        d, n = self.compare_dn
        expected = trivial_spectrum(d, n)
        want = (expected[d + 1], expected.get(d + 2, 0))

        def check_compare(engine, flags):
            self.findings["engine_equals_formula_min_ordinary"] = flags.get(
                "engine_equals_formula_min_ordinary")
            if engine != want:
                return f"engine (ordinary, d+2) {engine} != trivial pattern {want}"
            if flags.get("engine_equals_trivial_pattern") is not True:
                return "compare did not report engine_equals_trivial_pattern: True"
            return None

        stem = self.path(f"trivial-d{d}-n{n}")
        compare = compare_op(f"compare trivial d={d} n={n}", math.comb(n, d + 1),
                             self._input(d, n), stem + ".md", stem + ".csv", threads,
                             check_compare)

        vd, vn = self.verify_dn
        v_expected = trivial_spectrum(vd, vn)
        v_input = self._input(vd, vn)

        def verify():
            return counting.verify_correspondence(load(v_input), threads=threads)

        def check_verify(report):
            if not report.equal:
                return f"lift correspondence failed at m={report.first_mismatch}"
            for label, spec in (("sphere", report.sphere_spectrum),
                                ("lifted plane", report.plane_spectrum)):
                if spec.counts != v_expected:
                    return f"{label} spectrum {spec.counts} != {v_expected}"
            return None

        # the sphere spectrum uses (d+1)-subsets; the lifted set lives in
        # R^(d+1), whose hyperplanes are spanned by (d+1)-subsets as well
        v_work = 2 * math.comb(vn, vd + 1)
        return [compare, Op(f"verify_correspondence trivial d={vd} n={vn}", v_work,
                            verify, check_verify)]

    def spectra(self):
        (d, n), (vd, vn) = self.compare_dn, self.verify_dn
        v = SpectrumCase(vn, vd + 1, trivial_spectrum(vd, vn))
        return [SpectrumCase(n, d + 1, trivial_spectrum(d, n)), v, v]

    def largest(self):
        d, n = self.compare_dn
        return self._input(d, n), trivial_spectrum(d, n)


# ---------------------------------------------------------------------------
# oracle-scan
# ---------------------------------------------------------------------------


# one n of each residue of n mod 6
ORACLE_NS = tuple(range(35, 41))


@dataclass
class OracleScan(Workload):
    """``oracle --d 4 --n N --scan`` for N = 35..40, one of each residue of
    n mod 6; touches only the constructions layer."""

    name = "oracle-scan"

    def warm_up(self):
        run_ok(["oracle", "--d", D, "--n", D + 8, "--scan",
                 "-o", self.path("warm-oracle.json")])

    def prepare(self):
        self.formula = {n: constructions.closed_form_counts(D, n) for n in ORACLE_NS}

    def ops(self, threads):
        out = []
        for n in ORACLE_NS:
            path = self.path(f"oracle-n{n}.json")

            def call(n=n, path=path):
                return run_cli(["oracle", "--d", D, "--n", n, "--scan", "-o", path])

            def check(rc, n=n, path=path):
                if rc != 0:
                    return f"exit {rc}"
                with open(path) as fh:
                    scan = json.load(fh)
                formula = self.formula[n]
                got = (scan["min_ordinary"], scan["max_dplus2"])
                want = (formula["min_ordinary"], formula["max_dplus2"])
                return None if got == want else f"scan optima {got} != closed form {want}"

            work = math.comb(n, D + 1) + math.comb(n, D + 2)
            out.append(Op(f"oracle scan d={D} n={n}", work, call, check))
        return out


WORKLOADS = {cls.name: cls for cls in (CosetCyclo, TrivialRational, OracleScan)}
