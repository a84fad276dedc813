"""Command-line surface: generate, validate, count, transform, and compare.

Every JSON artifact embeds the full run configuration (flags and seed), so
identical invocations reproduce byte-identical outputs.  Exit codes:
0 success/certified, 2 usage or input error, 3 non-certified run
(indeterminate interval predicates), 4 general-position violation,
5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import constructions, counting, geometry, scalars
from .errors import ConsistencyError, DomainError, GeneralPositionError, HypersphereLabError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CERTIFIED = 3
EXIT_GENERAL_POSITION = 4
EXIT_INCONSISTENT = 5


def _emit_json(payload: dict, args: argparse.Namespace):
    """Write ``payload`` with the run's flags echoed under ``"run"``."""
    payload = dict(payload)
    payload["run"] = {k: v for k, v in vars(args).items() if v is not None and v is not False}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _open_output(path: str, newline=None):
    """``path`` opened for writing; a path that cannot be is a usage error."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None


def _write_csv(path: str, rows):
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def _check_bits(bits):
    """Interval precision accepted from a flag or a point file."""
    lo, hi = scalars.DEFAULT_START_BITS, scalars.DEFAULT_BITS_CAP
    if type(bits) is not int or not lo <= bits <= hi:
        raise DomainError(f"bits must be an integer in {lo}..{hi}, got {bits!r}")


def _load_pointset(path: str) -> geometry.PointSet:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise DomainError(f"{path} is not valid JSON: {exc}") from None
    try:
        # bounded before any interval is built at the file's precision
        for point in data["points"]:
            for c in point:
                if isinstance(c, dict) and "lo" in c:
                    _check_bits(c.get("bits"))
        return geometry.PointSet.from_json(data)
    except (DomainError, KeyError, ValueError, TypeError, ZeroDivisionError,
            OverflowError) as exc:
        raise DomainError(f"{path}: malformed point set ({exc})") from None


def _to_interval_pointset(ps: geometry.PointSet, bits: int) -> geometry.PointSet:
    points = []
    for p in ps.points:
        coords = []
        for c in p:
            if isinstance(c, scalars.CycloElement):
                coords.append(scalars.IntervalScalar(c.real_enclosure(bits), bits))
            else:
                coords.append(scalars.IntervalScalar.from_fraction(c, bits))
        points.append(tuple(coords))
    meta = dict(ps.metadata)
    meta["embedded_bits"] = bits
    return geometry.PointSet.build(points, metadata=meta)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.bits is not None:
        _check_bits(args.bits)
    exact = {"trivial": "rational", "coset": "cyclotomic"}[args.kind]
    if args.backend not in (None, exact, "interval"):
        raise DomainError(f"{args.kind} configurations use the {exact} backend")
    if args.kind == "trivial":
        ps = constructions.trivial_config(args.d, args.n, seed=args.seed)
    else:
        params = constructions.CurveParams.default(args.d)
        ps = constructions.coset_config(constructions.CosetSpec(params, args.n, args.l))
    if args.backend == "interval":
        ps = _to_interval_pointset(ps, args.bits or 256)
    _emit_json(ps.to_json(), args)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    ps = _load_pointset(args.input)
    witness = geometry.general_position_check(ps)
    _emit_json(
        {"ok": witness is None, "witness": list(witness) if witness else None},
        args,
    )
    return EXIT_OK if witness is None else EXIT_GENERAL_POSITION


def _cmd_count(args: argparse.Namespace) -> int:
    ps = _load_pointset(args.input)
    spec = counting.spectrum(ps, threads=args.threads or 1)
    _emit_json({"spectrum": spec.to_json()}, args)
    if args.csv_out:
        rows = [("m", "N_m")] + [(m, nm) for m, nm in sorted(spec.counts.items())]
        _write_csv(args.csv_out, rows)
    return EXIT_OK if spec.certified else EXIT_NOT_CERTIFIED


def _cmd_lift(args: argparse.Namespace) -> int:
    ps = _load_pointset(args.input)
    _emit_json(geometry.lift_set(ps).to_json(), args)
    return EXIT_OK


def _cmd_invert(args: argparse.Namespace) -> int:
    ps = _load_pointset(args.input)
    try:
        center = tuple(scalars.read_fraction(part) for part in args.center.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad --center value {args.center!r}: {exc}") from None
    if len(center) != ps.dimension:
        raise DomainError(
            f"--center has {len(center)} coordinates, point set has dimension {ps.dimension}"
        )
    _emit_json(geometry.invert_set(ps, center).to_json(), args)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.scan:
        payload = constructions.residue_oracle_scan(args.n, args.d)
    else:
        payload = constructions.residue_oracle(args.n, args.d, args.l).to_json()
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_formula(args: argparse.Namespace) -> int:
    payload = constructions.closed_form_counts(args.d, args.n)
    payload["ordinary"] = payload["min_ordinary"]
    payload["dplus2"] = payload["max_dplus2"]
    payload["caveat"] = constructions.FORMULA_CAVEAT
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    ps = _load_pointset(args.input)
    report = constructions.compare_report(ps, threads=args.threads or 1)
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(report.to_markdown())
    else:
        sys.stdout.write(report.to_markdown())
    if args.csv_out:
        _write_csv(args.csv_out, report.csv_rows())
    if not report.engine.certified:
        return EXIT_NOT_CERTIFIED
    return EXIT_INCONSISTENT if report.matches.get("engine_equals_oracle") is False else EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_INCONSISTENT


HANDLERS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "count": _cmd_count,
    "lift": _cmd_lift,
    "invert": _cmd_invert,
    "oracle": _cmd_oracle,
    "formula": _cmd_formula,
    "compare": _cmd_compare,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersphere-lab",
        description="Exact ordinary/(d+2)-point hypersphere counting workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, inp=False, out=True):
        if inp:
            p.add_argument("input", help="point set JSON file")
        if out:
            p.add_argument("-o", "--output", help="output path (default: stdout)")

    g = sub.add_parser("generate", help="generate a configuration")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--l", type=int, default=0)
    g.add_argument("--kind", choices=["trivial", "coset"], required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--backend", choices=["rational", "cyclotomic", "interval"])
    g.add_argument("--bits", type=int)
    add_common(g)

    v = sub.add_parser("validate", help="certify general position")
    add_common(v, inp=True)

    c = sub.add_parser("count", help="compute the incidence spectrum")
    c.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    c.add_argument("--csv", dest="csv_out", help="also write spectrum as CSV")
    add_common(c, inp=True)

    lf = sub.add_parser("lift", help="map points onto the unit sphere one dimension up")
    add_common(lf, inp=True)

    inv = sub.add_parser("invert", help="apply inversion in a rational center")
    inv.add_argument("--center", required=True, help="comma-separated rational coordinates")
    add_common(inv, inp=True)

    o = sub.add_parser("oracle", help="residue-class predictions for coset configurations")
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--l", type=int, default=0)
    o.add_argument("--scan", action="store_true", help="report all offsets and the optimum")
    add_common(o)

    f = sub.add_parser("formula", help="closed-form reference counts")
    f.add_argument("--d", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    add_common(f)

    cp = sub.add_parser("compare", help="engine vs oracle vs closed forms")
    cp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    cp.add_argument("--csv", dest="csv_out", help="also write the table as CSV")
    add_common(cp, inp=True)

    sub.add_parser("selftest", help="run the built-in verification battery")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return HANDLERS[args.subcommand](args)
    except GeneralPositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERAL_POSITION
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except HypersphereLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
