import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import flip_first_verdict

from hypersphere_lab.cli import (
    EXIT_GENERAL_POSITION,
    EXIT_INCONSISTENT,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    EXIT_USAGE,
    run,
)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.json"
    assert run(["generate", "--d", "3", "--n", "10", "--kind", "trivial",
                "--seed", "7", "-o", str(path)]) == EXIT_OK
    return path


class TestGenerateCount:
    def test_trivial_pipeline_reaches_reference_count(self, trivial_file, tmp_path):
        out = tmp_path / "spec.json"
        code = run(["count", str(trivial_file), "--threads", "1", "-o", str(out)])
        assert code == EXIT_OK
        data = read_json(out)
        assert data["spectrum"]["counts"]["4"] == 84
        assert data["spectrum"]["certified"] is True
        assert data["run"]["subcommand"] == "count"

    def test_count_csv_emission(self, trivial_file, tmp_path):
        out = tmp_path / "spec.json"
        csv_path = tmp_path / "spec.csv"
        run(["count", str(trivial_file), "--threads", "1", "-o", str(out),
             "--csv", str(csv_path)])
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "m,N_m"
        assert "4,84" in lines

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        args = ["generate", "--d", "3", "--n", "6", "--kind", "trivial",
                "--seed", "3", "-o", str(a)]
        assert run(args) == EXIT_OK
        first = a.read_bytes()
        assert run(args) == EXIT_OK
        assert a.read_bytes() == first

    def test_coset_generate(self, tmp_path):
        path = tmp_path / "coset.json"
        assert run(["generate", "--d", "4", "--n", "7", "--kind", "coset",
                    "--l", "1", "-o", str(path)]) == EXIT_OK
        data = read_json(path)
        assert data["backend"] == "cyclotomic"
        assert data["metadata"]["l"] == 1

    def test_interval_embedding_runs_non_certified(self, tmp_path):
        src = tmp_path / "c.json"
        run(["generate", "--d", "4", "--n", "7", "--kind", "coset",
             "--backend", "interval", "--bits", "192", "-o", str(src)])
        out = tmp_path / "spec.json"
        code = run(["count", str(src), "--threads", "1", "-o", str(out)])
        assert code == EXIT_NOT_CERTIFIED
        data = read_json(out)
        assert data["spectrum"]["certified"] is False
        assert data["spectrum"]["indeterminate_count"] > 0


class TestValidate:
    def test_good_set(self, trivial_file, tmp_path):
        out = tmp_path / "v.json"
        assert run(["validate", str(trivial_file), "-o", str(out)]) == EXIT_OK
        assert read_json(out)["ok"] is True

    def test_violation_exit_code(self, tmp_path):
        bad = {
            "dimension": 3,
            "backend": "rational",
            "points": [
                ["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"], ["0", "-1", "0"],
                ["1/3", "1/5", "2"],
            ],
            "metadata": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "v.json"
        assert run(["validate", str(path), "-o", str(out)]) == EXIT_GENERAL_POSITION
        assert read_json(out)["witness"] == [0, 1, 2, 3]

    def test_count_exits_four_on_violation(self, tmp_path):
        bad = {
            "dimension": 3,
            "backend": "rational",
            "points": [
                ["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"], ["0", "-1", "0"],
                ["1/3", "1/5", "2"], ["1/2", "1/9", "3"],
            ],
            "metadata": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["count", str(path), "--threads", "1"]) == EXIT_GENERAL_POSITION


class TestTransformCommands:
    def test_lift_then_count_matches(self, trivial_file, tmp_path, capsys):
        lifted = tmp_path / "lifted.json"
        assert run(["lift", str(trivial_file), "-o", str(lifted)]) == EXIT_OK
        data = read_json(lifted)
        assert data["dimension"] == 4

    def test_invert_preserves_spectrum(self, trivial_file, tmp_path):
        inverted = tmp_path / "inv.json"
        assert run(["invert", "--center", "6,6,6", str(trivial_file),
                    "-o", str(inverted)]) == EXIT_OK
        a, b = tmp_path / "sa.json", tmp_path / "sb.json"
        assert run(["count", str(trivial_file), "--threads", "1", "-o", str(a)]) == EXIT_OK
        assert run(["count", str(inverted), "--threads", "1", "-o", str(b)]) == EXIT_OK
        assert read_json(a)["spectrum"]["counts"] == read_json(b)["spectrum"]["counts"]

    def test_invert_center_on_point_is_usage_error(self, tmp_path):
        src = tmp_path / "s.json"
        run(["generate", "--d", "3", "--n", "6", "--kind", "trivial",
             "--seed", "1", "-o", str(src)])
        point = read_json(src)["points"][0]
        center = ",".join(point)
        assert run(["invert", "--center", center, str(src)]) == EXIT_USAGE

    def test_lift_without_an_image_is_usage_error(self, tmp_path):
        # the point (i, 0) has |x|^2 + 1 = 0
        path, out_path = tmp_path / "i.json", tmp_path / "out.json"
        path.write_text(json.dumps({"points": [[{"conductor": 4, "coeffs": ["0", "1"]},
                                                {"conductor": 4, "coeffs": ["0"]}]]}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["lift", str(path), "-o", str(out_path)])
        assert code == EXIT_USAGE
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not out_path.exists() and not out.getvalue()

    def test_lift_with_an_undecided_denominator_is_usage_error(self, tmp_path):
        # |x|^2 + 1 of the first point encloses [-3, 5]: its quotient would be
        # unbounded, so nothing is written
        points = [[("-2", "2"), ("0", "0")], [("5", "5"), ("1", "1")]]
        path, out_path = tmp_path / "iv.json", tmp_path / "out.json"
        path.write_text(json.dumps({"points": [[{"lo": lo, "hi": hi, "bits": 128}
                                                 for lo, hi in p] for p in points]}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["lift", str(path), "-o", str(out_path)])
        assert code == EXIT_USAGE
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not out_path.exists() and not out.getvalue()

    def test_unreadable_center_is_usage_error(self, trivial_file, capsys):
        assert run(["invert", "--center", "1,x,0", str(trivial_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: bad --center value '1,x,0'") and err.count("\n") == 1

    def test_invert_dimension_mismatch(self, trivial_file):
        assert run(["invert", "--center", "1,2", str(trivial_file)]) == EXIT_USAGE

    @pytest.mark.parametrize("backend", ["rational", "interval"])
    @pytest.mark.parametrize("argv", [["lift"], ["invert", "--center", "0,0,0"]])
    def test_output_past_the_int_digit_limit_is_usage_error(self, tmp_path, argv, backend):
        # |x|^2 of the first point has 6001 digits, past Python's 4300-digit
        # limit on writing an int as text (for intervals, as an endpoint)
        points = [["1e3000", "1", "0"], ["1", "2", "3"], ["0", "1", "0"]]
        if backend == "interval":
            points = [[{"lo": c, "hi": c, "bits": 128} for c in p] for p in points]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dimension": 3, "points": points}))
        out_path = tmp_path / "out.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, str(path), "-o", str(out_path)])
        assert code == EXIT_USAGE
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert not out_path.exists() and not out.getvalue()

    def test_int_literal_past_the_digit_limit_is_usage_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"dimension": 3, "points": [["1", "0", "0"], ["0", "1", "0"], '
                        '["0", "0", ' + "9" * 5000 + ']]}')
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["count", str(path), "--threads", "1"]) == EXIT_USAGE
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


class TestOracleFormula:
    def test_oracle_json(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["oracle", "--d", "4", "--n", "12", "--l", "0", "-o", str(out)]) == EXIT_OK
        data = read_json(out)
        assert data["dplus2"] == 76 and data["ordinary"] == 336

    def test_oracle_scan(self, tmp_path):
        out = tmp_path / "scan.json"
        assert run(["oracle", "--d", "4", "--n", "12", "--scan", "-o", str(out)]) == EXIT_OK
        data = read_json(out)
        assert data["max_dplus2"] == 80 and data["argmax_dplus2"] == [3, 9]

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(-3, 12), n=st.integers(-5, 40), l=st.integers(-100, 100),
           scan=st.booleans())
    def test_oracle_exit_contract(self, d, n, l, scan):
        argv = ["oracle", "--d", str(d), "--n", str(n), "--l", str(l)]
        if scan:
            argv.append("--scan")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert "Traceback" not in err.getvalue()
        if d >= 4 and d % 2 == 0 and n >= d + 3:
            assert code == EXIT_OK
            assert json.loads(out.getvalue())["run"]["subcommand"] == "oracle"
        else:
            assert code == EXIT_USAGE
            assert err.getvalue().startswith("error:")

    def test_formula_json(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["formula", "--d", "4", "--n", "13", "-o", str(out)]) == EXIT_OK
        data = read_json(out)
        assert data["ordinary"] == 495 and data["dplus2"] == 132
        assert "caveat" in data

    def test_formula_unsupported_dimension(self):
        assert run(["formula", "--d", "5", "--n", "20"]) == EXIT_USAGE


class TestCompare:
    def test_coset_compare_markdown(self, tmp_path):
        src = tmp_path / "c.json"
        run(["generate", "--d", "4", "--n", "7", "--kind", "coset", "-o", str(src)])
        report = tmp_path / "report.md"
        csv_path = tmp_path / "report.csv"
        assert run(["compare", str(src), "--threads", "1", "-o", str(report),
                    "--csv", str(csv_path)]) == EXIT_OK
        text = report.read_text()
        assert "engine_equals_oracle: True" in text
        assert csv_path.read_text().startswith("quantity,")

    @pytest.mark.parametrize("kind, d", [("coset", "4"), ("trivial", "3")])
    def test_uncertified_run_exits_not_certified(self, tmp_path, kind, d):
        src = tmp_path / "i.json"
        assert run(["generate", "--d", d, "--n", "7", "--kind", kind,
                    "--backend", "interval", "--bits", "192", "-o", str(src)]) == EXIT_OK
        report = tmp_path / "report.md"
        assert run(["compare", str(src), "--threads", "1",
                    "-o", str(report)]) == EXIT_NOT_CERTIFIED
        text = report.read_text()
        assert "engine run is not certified" in text
        assert "engine_equals_oracle: False" not in text

    @pytest.mark.parametrize("l", ["missing", "abc", None, 1.5, True])
    def test_coset_offset_must_be_an_integer(self, coset_points, tmp_path, capsys, l):
        payload = json.loads(json.dumps(coset_points))
        if l == "missing":
            del payload["metadata"]["l"]
        else:
            payload["metadata"]["l"] = l
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run(["compare", str(path), "--threads", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_oracle_domain_is_checked_before_the_engine(self, trivial_file, tmp_path,
                                                         monkeypatch, capsys):
        from hypersphere_lab import constructions

        def engine_must_not_run(*args, **kwargs):
            raise AssertionError("spectrum ran before the oracle's domain check")

        payload = read_json(trivial_file)
        payload["metadata"].update(generator="coset", l=0)  # d=3 is outside the oracle
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setattr(constructions, "spectrum", engine_must_not_run)
        assert run(["compare", str(path), "--threads", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["generate", "--d", "3", "--kind", "trivial"]) == EXIT_USAGE

    def test_missing_input_file(self, tmp_path):
        assert run(["count", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run(["count", str(path)]) == EXIT_USAGE

    def test_generate_bits_below_cap(self, capsys):
        assert run(["generate", "--kind", "coset", "--d", "4", "--n", "9",
                    "--backend", "interval", "--bits", "64"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("bits", [4097, 10**8])
    def test_generate_bits_above_cap(self, capsys, bits):
        assert run(["generate", "--kind", "coset", "--d", "4", "--n", "9",
                    "--backend", "interval", "--bits", str(bits)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind, backend, generator", [
        ("coset", "rational", "coset_config"),
        ("trivial", "cyclotomic", "trivial_config"),
    ])
    def test_generate_checks_backend_before_generating(self, monkeypatch, capsys,
                                                        kind, backend, generator):
        from hypersphere_lab import constructions

        def generator_must_not_run(*args, **kwargs):
            raise AssertionError(f"{generator} ran before the backend check")

        monkeypatch.setattr(constructions, generator, generator_must_not_run)
        assert run(["generate", "--kind", kind, "--d", "4", "--n", "13",
                    "--backend", backend]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_count_has_no_bits_flag(self, trivial_file):
        assert run(["count", str(trivial_file), "--bits", "192"]) == EXIT_USAGE

    def test_malformed_pointset_names_problem(self, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"dimension": 3, "backend": "rational"}))
        assert run(["count", str(path)]) == EXIT_USAGE
        assert "malformed" in capsys.readouterr().err


class TestListsRequired:
    """A point, the points and a coefficient vector are JSON lists: a string
    is not read as its characters, nor a dict as its keys."""

    @pytest.mark.parametrize("command", ["count", "lift"])
    @pytest.mark.parametrize("shape", ["string point", "points string", "points dict",
                                       "coeffs string"])
    def test_exit_usage(self, trivial_file, coset_points, tmp_path, capsys, command, shape):
        payload = read_json(trivial_file)
        if shape == "string point":
            payload["points"][0] = "135"
        elif shape == "points string":
            payload["points"] = json.dumps(payload["points"])
        elif shape == "points dict":
            payload["points"] = dict.fromkeys(["123", "405", "061", "719", "282", "934", "355"])
        else:
            payload = json.loads(json.dumps(coset_points))
            coeffs = payload["points"][0][0]["coeffs"]
            payload["points"][0][0]["coeffs"] = "2" + "0" * (len(coeffs) - 1)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        assert run([command, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed point set (")
        assert "must be a list" in err

    @pytest.mark.parametrize("command", ["count", "lift"])
    @pytest.mark.parametrize("field, value, problem", [
        ("dimension", 4, "dimension field disagrees"),
        ("backend", "cyclotomic", "backend field disagrees"),
    ])
    def test_field_disagrees_with_data(self, trivial_file, tmp_path, capsys, command,
                                       field, value, problem):
        payload = read_json(trivial_file)
        payload[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        assert run([command, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed point set (")
        assert problem in err


class TestInconsistentCount:
    def test_wrong_incidence_verdict_exits_inconsistent(self, trivial_file, monkeypatch,
                                                        capsys):
        flip_first_verdict(monkeypatch)
        assert run(["count", str(trivial_file), "--threads", "1"]) == EXIT_INCONSISTENT
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not a multiple of C" in captured.err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_selftest_failure_exits_inconsistent(self, monkeypatch, capsys):
        from hypersphere_lab import selftest

        monkeypatch.setattr(selftest, "CHECKS", [("always fails", lambda: False)])
        assert run(["selftest"]) == EXIT_INCONSISTENT
        assert "FAIL  always fails" in capsys.readouterr().out


@pytest.fixture(scope="module")
def coset_points(tmp_path_factory):
    path = tmp_path_factory.mktemp("coset") / "c.json"
    assert run(["generate", "--d", "4", "--n", "7", "--kind", "coset", "-o", str(path)]) == EXIT_OK
    return read_json(path)


fraction_strings = st.builds(
    lambda num, den: f"{num}/{den}", st.integers(-5, 5), st.integers(-2, 2)
)
wrong_types = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.fixed_dictionaries({"conductor": st.one_of(st.none(), st.text(max_size=3), st.floats())}),
)


class TestMalformedScalars:
    """Mutated cyclotomic and interval encodings end in a documented exit
    code, never a traceback; integer conductors stay in -8..64 so that
    fields stay small."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), everywhere=st.booleans(), kind=st.sampled_from(
        ["conductor", "coefficient", "wrong type", "endpoint", "swapped endpoints"]))
    def test_count_exit_contract(self, coset_points, interval_points, tmp_path_factory, data,
                                 everywhere, kind):
        interval = kind in ("endpoint", "swapped endpoints")
        payload = json.loads(json.dumps(interval_points if interval else coset_points))
        n, d = len(payload["points"]), payload["dimension"]
        if kind == "conductor":
            mutate = {"conductor": data.draw(st.integers(-8, 64))}
        elif kind == "coefficient":
            mutate = {"coeffs": data.draw(st.lists(fraction_strings, min_size=1, max_size=12))}
        elif kind == "endpoint":
            mutate = {data.draw(st.sampled_from(["lo", "hi"])): data.draw(wrong_types)}
        elif kind == "swapped endpoints":
            low, gap = data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9))
            mutate = {"lo": str(low + gap), "hi": str(low)}
        else:
            mutate = None
        targets = ([(i, j) for i in range(n) for j in range(d)] if everywhere
                   else [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1)))])
        for i, j in targets:
            if mutate is None:
                payload["points"][i][j] = data.draw(wrong_types)
            else:
                payload["points"][i][j] = {**payload["points"][i][j], **mutate}
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["count", str(path), "--threads", "1"])
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("text", ["1/0", "abc", "", "-", "--1", "\u00b2", "9" * 5000,
                                      None, [1]])
    def test_bad_coefficient_reports_the_fraction_error(self, coset_points, tmp_path, capsys,
                                                        text):
        try:
            Fraction(text)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            problem = str(exc)
        payload = json.loads(json.dumps(coset_points))
        payload["points"][0][0]["coeffs"][1] = text
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run(["count", str(path), "--threads", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: malformed point set ({problem})\n"

    @pytest.mark.parametrize("zero", ["-0", "000", "+0", " 0", "0_0", "\u0660", "0/7", "0.0",
                                      0, 0.0, False])
    def test_zero_coefficient_encodings_count_the_same(self, coset_points, tmp_path, zero):
        payload = json.loads(json.dumps(coset_points))
        for point in payload["points"]:
            for c in point:
                c["coeffs"] = [zero if text == "0" else text for text in c["coeffs"]]
        outputs = []
        for name, data in (("plain", coset_points), ("spelled", payload)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            assert run(["count", str(path), "--threads", "1", "-o", str(tmp_path / "out.json")
                        ]) == EXIT_OK
            outputs.append(read_json(tmp_path / "out.json")["spectrum"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("conductor", [float("inf"), 4 * (10**20 + 39)])
    def test_unbuildable_conductor_is_usage_error(self, coset_points, tmp_path, conductor):
        payload = json.loads(json.dumps(coset_points))
        payload["points"][0][0]["conductor"] = conductor
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))  # float("inf") is written as Infinity
        assert run(["count", str(path), "--threads", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("encode", [lambda c: c + 0.5, float, str],
                             ids=["fractional", "float", "string"])
    def test_conductor_must_be_an_integer(self, coset_points, tmp_path, capsys, encode):
        payload = json.loads(json.dumps(coset_points))
        payload["points"][0][0]["conductor"] = encode(payload["points"][0][0]["conductor"])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run(["count", str(path), "--threads", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def interval_points(tmp_path_factory):
    path = tmp_path_factory.mktemp("interval") / "c.json"
    assert run(["generate", "--d", "4", "--n", "7", "--kind", "coset", "--backend", "interval",
                "--bits", "192", "-o", str(path)]) == EXIT_OK
    return read_json(path)


class TestIntervalFileBits:
    """A point file's interval precision is an integer in 128..4096, checked
    before any interval is built at it (10**9 bits would not finish)."""

    @pytest.mark.parametrize("bits", [192.9, "192", True, 0, -5, 127, 4097, 10**9])
    def test_count_refuses_bits(self, interval_points, tmp_path, capsys, bits):
        payload = json.loads(json.dumps(interval_points))
        payload["points"][0][0]["bits"] = bits
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run(["count", str(path), "--threads", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


class TestIntervalEndpoints:
    """Interval endpoints that are not numbers or strings, not finite, or
    out of order make a malformed point set on every command that reads
    one (an infinite endpoint would be written back as 0)."""

    @pytest.mark.parametrize("command", [["count"], ["validate"], ["lift"], ["compare"],
                                         ["invert", "--center", "0,0,0,0"]])
    @pytest.mark.parametrize("lo, hi", [("2", "1"), ("1", "-1/2"), (None, "1"), ([1], "1"),
                                        ("0", {"lo": "1"}), ("-inf", "1"), ("0", float("inf")),
                                        (float("nan"), "1")])
    def test_exit_usage(self, interval_points, tmp_path, capsys, command, lo, hi):
        payload = json.loads(json.dumps(interval_points))
        payload["points"][0][0].update(lo=lo, hi=hi)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run([command[0], str(path), *command[1:]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed point set (") and err.count("\n") == 1


class TestUnwritableOutput:
    """An output path in a missing directory, or naming a directory, exits 2
    with one error line and no traceback."""

    @pytest.mark.parametrize("command, flag", [
        (["count", "{input}", "--threads", "1"], "-o"),
        (["count", "{input}", "--threads", "1"], "--csv"),
        (["compare", "{input}", "--threads", "1"], "-o"),
        (["compare", "{input}", "--threads", "1"], "--csv"),
        (["generate", "--d", "3", "--n", "6", "--kind", "trivial"], "-o"),
        (["oracle", "--d", "4", "--n", "12"], "-o"),
    ])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_exit_usage(self, trivial_file, tmp_path, capsys, command, flag, target):
        path = tmp_path / "missing" / "out" if target == "missing directory" else tmp_path
        argv = [str(trivial_file) if arg == "{input}" else arg for arg in command]
        assert run([*argv, flag, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


class TestExponentCap:
    """A number read from text with a decimal exponent past 4300 in absolute
    value (Python's int-to-str digit limit) exits 2 with one error line,
    before ``Fraction`` builds its digits; "1e3000" still reads."""

    @staticmethod
    def six_points(tmp_path, coordinate, backend):
        """A d=3 n=6 trivial file with its first coordinate replaced."""
        path = tmp_path / "six.json"
        assert run(["generate", "--d", "3", "--n", "6", "--kind", "trivial",
                    "--seed", "1", "-o", str(path)]) == EXIT_OK
        data = read_json(path)
        data["points"][0][0] = coordinate
        if backend == "cyclotomic":
            data["points"] = [[{"conductor": 4, "coeffs": [c, "0"]} for c in p]
                              for p in data["points"]]
            data["backend"] = "cyclotomic"
        path.write_text(json.dumps(data))
        return path

    @staticmethod
    def run_cli(argv):
        """The command in a child process under a time limit, so that a
        reader that builds the whole number fails instead of hanging."""
        import hypersphere_lab

        src = os.path.dirname(os.path.dirname(hypersphere_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "hypersphere_lab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("backend", ["rational", "cyclotomic"])
    @pytest.mark.parametrize("coordinate", ["1e999999999", "-1e-999999999"])
    def test_count_refuses_a_huge_exponent(self, tmp_path, coordinate, backend):
        done = self.run_cli(["count", str(self.six_points(tmp_path, coordinate, backend)),
                             "--threads", "1"])
        assert done.returncode == EXIT_USAGE and not done.stdout
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "exceeds 4300" in done.stderr

    @pytest.mark.parametrize("part", ["1e999999999", "-2E-4_301"])
    def test_invert_refuses_a_huge_center_exponent(self, trivial_file, part):
        done = self.run_cli(["invert", "--center", f"0,{part},0", str(trivial_file)])
        assert done.returncode == EXIT_USAGE and not done.stdout
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "exceeds 4300" in done.stderr

    @pytest.mark.parametrize("coordinate", ["1e3000", "-1e-4300", "1e0004300"])
    def test_exponents_up_to_the_cap_still_read(self, tmp_path, coordinate):
        from hypersphere_lab.scalars import read_fraction

        assert read_fraction(coordinate) == Fraction(coordinate)
        out = tmp_path / "out.json"
        assert run(["count", str(self.six_points(tmp_path, coordinate, "rational")),
                    "--threads", "1", "-o", str(out)]) == EXIT_OK
        assert read_json(out)["spectrum"]["certified"] is True
