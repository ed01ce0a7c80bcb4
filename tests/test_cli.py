"""End-to-end command-line tests: exit codes, JSON/CSV payloads, piping."""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from math import ceil

import pytest
from series_oracle import euler_product, monomial, mul
from test_vvforms import reference_json

import weilq
import weilq.divisors as divisors_module
import weilq.verify as verify
from weilq.borcherds import ProductResult, exponent_table
from weilq.cli import _csv, _dump, main
from weilq.discform import divisors, exact_divisors
from weilq.divisors import MatchingError, eta_divisor
from weilq.fracq import eta_series
from weilq.heckeops import hecke_tp
from weilq.vvforms import (VVExpansion, apply_aut, random_supported,
                           theta_series)


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_theta_payload(self, capsys):
        code, out, err = run(capsys, ["theta", "--N", "1", "--prec", "10"])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["N"] == 1 and data["k"] == "1/2" and data["trunc"] == 10
        assert [0, 0, "1"] in data["holo"] and [1, 1, "2"] in data["holo"]
        assert data["nonholo"] == []

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, ["basis", "--N", "12", "--prec", "40"])
        _, second, _ = run(capsys, ["basis", "--N", "12", "--prec", "40"])
        assert first == second
        assert len(json.loads(first)["elements"]) == 3

    def test_cusps(self, capsys):
        code, out, _ = run(capsys, ["cusps", "--N", "9"])
        data = json.loads(out)
        assert code == 0 and data["count"] == 4
        assert {cl["c"]: cl["width"] for cl in data["classes"]} == \
            {1: 9, 3: 1, 9: 1}

    def test_eta_orders_csv(self, capsys):
        code, out, _ = run(capsys, ["eta-orders", "--N", "6", "--format",
                                    "csv"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "d,c,order"
        assert "1,1,7/24" in lines and "2,6,5/24" in lines
        assert len(lines) == 1 + 16

    def test_dimension_bare(self, capsys):
        code, out, _ = run(capsys, ["dimension", "--N", "12"])
        assert code == 0 and out.strip() == "3"


class TestPipelines:
    def test_theta_apply_round_trip(self, capsys, monkeypatch):
        _, theta_json, _ = run(capsys, ["theta", "--N", "1", "--prec", "200"])
        code, out, _ = run(capsys, ["apply", "--op", "tp", "--p", "3"],
                           stdin_text=theta_json, monkeypatch=monkeypatch)
        assert code == 0
        got = VVExpansion.from_json(json.loads(out))
        want = hecke_tp(theta_series(1, 200), 3)
        assert got.agrees_with(want)[0]
        assert got.get(0, 0) == F(4, 3)

    def test_product_csv(self, capsys, monkeypatch):
        _, theta_json, _ = run(capsys, ["theta", "--N", "1", "--prec", "30"])
        code, out, _ = run(capsys,
                           ["product", "--format", "csv", "--prec", "5"],
                           stdin_text=theta_json, monkeypatch=monkeypatch)
        assert code == 0
        # the factor at n = prec starts at q^prec, past the window
        assert out.splitlines() == ["n,exponent", "1,2", "2,2", "3,2", "4,2"]

    def test_xi_of_harmonic_input(self, capsys, monkeypatch):
        f = VVExpansion(1, F(3, 2), -1, {}, {(-4, 0): F(5)}, 10)
        code, out, _ = run(capsys, ["xi"], stdin_text=json.dumps(f.to_json()),
                           monkeypatch=monkeypatch)
        data = json.loads(out)
        assert code == 0
        assert [4, 0, "5"] in data["r"]

    def test_solve_round_trip(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(eta_divisor(12, 2).to_json()))
        code, out, _ = run(capsys, ["solve", "--N", "12", "--in", str(target)])
        data = json.loads(out)
        assert code == 0
        assert data["classes"] == [1, 2, 3]
        assert data["x"] == ["0", "1", "0"]

    def test_heegner_direct(self, capsys):
        code, out, _ = run(capsys, ["heegner", "--N", "1", "--n", "-3",
                                    "--gamma", "1"])
        assert code == 0 and json.loads(out)["degree"] == "1/3"

    def test_out_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "eta.json"
        code, out, _ = run(capsys, ["eta", "--N", "6", "--d", "1", "--out",
                                    str(dest)])
        assert code == 0 and out == ""
        data = json.loads(dest.read_text())
        assert data["denom"] == 24
        assert [7, "1"] in data["terms"]


class TestOutputFormat:
    def test_every_output_is_compact_json(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(eta_divisor(12, 2).to_json()))
        _, theta, _ = run(capsys, ["theta", "--N", "2", "--prec", "100"])
        f = VVExpansion(1, F(3, 2), -1, {}, {(-4, 0): F(5)}, 10)
        piped = [(["apply", "--op", "tp", "--p", "3"], theta),
                 (["product", "--prec", "8"], theta),
                 (["xi"], json.dumps(f.to_json()))]
        plain = [["theta", "--N", "6", "--prec", "50"],
                 ["basis", "--N", "12", "--prec", "40"],
                 ["eta", "--N", "6", "--d", "2", "--prec", "5"],
                 ["cusps", "--N", "36"], ["eta-orders", "--N", "6"],
                 ["dimension", "--N", "12"],
                 ["solve", "--N", "12", "--in", str(target)],
                 ["heegner", "--N", "1", "--n", "-3", "--gamma", "1"],
                 ["verify", "fricke", "--N-max", "3"],
                 ["eta", "--N", "6", "--d", "4"]]
        texts = []
        for argv, stdin in piped + [(argv, None) for argv in plain]:
            _, out, err = run(capsys, argv, stdin_text=stdin,
                              monkeypatch=monkeypatch)
            texts.append(out or err)
        for text in texts:
            assert text == json.dumps(json.loads(text)) + "\n"
            assert text.count("\n") == 1

    @pytest.mark.parametrize("argv", [["verify", "fricke", "--N-max", "4"],
                                      ["apply", "--op", "ud", "--d", "2"]])
    def test_repeated_calls_agree(self, capsys, monkeypatch, argv):
        theta = json.dumps(theta_series(3, 60).to_json())
        first = run(capsys, argv, stdin_text=theta, monkeypatch=monkeypatch)
        second = run(capsys, argv, stdin_text=theta, monkeypatch=monkeypatch)
        assert first[0] == 0 and json.loads(first[1])
        assert first == second


class TestFractionRoute:
    """eta and product print what the all-Fraction expansion prints."""

    @staticmethod
    def product_route(f, weyl, prec):
        # monomial times the factors, multiplied out one by one in Fractions
        table = exponent_table(f, ceil(prec) - 1)
        expansion = mul(monomial(weyl, 1, weyl + prec), euler_product(table, prec))
        result = ProductResult(f.holo.get((0, 0), F(0)), weyl, expansion, table)
        csv = _csv(sorted(table.items()), header=("n", "exponent"))
        return _dump(result.to_json()), csv

    @pytest.mark.parametrize("N", [1, 2, 6, 12, 25, 576, 625, 2500])
    def test_eta(self, capsys, N):
        for d in [d for d in divisors(N) if d <= 50]:
            for prec in (1, 2, 5, 40):
                code, out, err = run(capsys, ["eta", "--N", str(N), "--d", str(d),
                                              "--prec", str(prec)])
                want = mul(eta_series(d, F(prec)), eta_series(N // d, F(prec)))
                assert (code, err) == (0, "")
                assert out == _dump(want.to_json()), (N, d, prec)

    @pytest.mark.parametrize("N", [1, 2, 6, 12, 25])
    def test_product(self, capsys, monkeypatch, N):
        for prec in (1, 2, 7, 30):
            theta = theta_series(N, (prec - 1) ** 2)
            for c in exact_divisors(N):
                weyl = F(c + N // c, 24)
                for f in (apply_aut(theta, c), apply_aut(theta, c).scaled(F(1, 2))):
                    text = json.dumps(f.to_json())
                    want_json, want_csv = self.product_route(f, weyl, prec)
                    for fmt, want in (("json", want_json), ("csv", want_csv)):
                        code, out, _ = run(
                            capsys, ["product", "--prec", str(prec), "--weyl",
                                     str(weyl), "--format", fmt],
                            stdin_text=text, monkeypatch=monkeypatch)
                        assert code == 0 and out == want, (N, prec, c, fmt)


class TestGoldenOutput:
    """The stdout of a fixed list of small commands, pinned byte for byte."""

    # sha256 of the concatenated stdout; CLI JSON stays byte-identical
    # unless CHANGES.md records the change
    SHA256 = "033888b5935b092171571051ffcf29cdf7da809ccdbc4ede62a51cc8c55d468f"

    def test_stdout_is_unchanged(self, capsys, tmp_path):
        inputs = {"f": random_supported(6, F(1, 2), 1, seed=1, trunc=60),
                  "g": random_supported(5, F(3, 2), -1, seed=2, trunc=60),
                  "theta": apply_aut(theta_series(6, 144), 2)}
        for name, f in inputs.items():
            (tmp_path / name).write_text(json.dumps(reference_json(f)))
        (tmp_path / "target").write_text(json.dumps(eta_divisor(12, 2).to_json()))

        def path(name):
            return ["--in", str(tmp_path / name)]

        commands = [["theta", "--N", "6", "--prec", "60"],
                    ["basis", "--N", "12", "--prec", "40"]]
        for name, c in (("f", "3"), ("g", "5")):
            commands += [["apply", "--op", "sigma", "--c", c, *path(name)],
                         ["apply", "--op", "tp", "--p", "7", *path(name)],
                         ["apply", "--op", "ud", "--d", "2", *path(name)],
                         ["apply", "--op", "vl", "--l", "3", *path(name)],
                         ["xi", *path(name)]]
        commands += [["product", "--prec", "12", *path("theta")],
                     ["product", "--prec", "12", "--format", "csv", *path("theta")],
                     ["eta", "--N", "6", "--d", "2", "--prec", "30"],
                     ["solve", "--N", "12", *path("target")],
                     ["heegner", "--N", "5", "--n", "-4", "--gamma", "4"],
                     ["heegner", "--N", "5", "--n", "-4", "--gamma", "6"]]
        outs = []
        for argv in commands:
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), argv
            outs.append(out)
        digest = hashlib.sha256("".join(outs).encode()).hexdigest()
        assert digest == self.SHA256


def test_cli_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(weilq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, weilq.cli; "
            "assert 'multiprocessing' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "fricke", "--N-max", "20"])
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert data["results"][0]["suite"] == "fricke"
        assert data["results"][0]["failures"] == []

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def broken(N, prec):
            yield None
            yield {"N": N, "planted": "witness"}

        monkeypatch.setitem(verify.SUITES, "hecke",
                            (broken, {"n_max": 2, "prec": 1}))
        code, out, _ = run(capsys, ["verify", "hecke"])
        data = json.loads(out)
        assert code == 1 and data["ok"] is False
        assert data["results"][0]["cases"] == 4
        assert data["results"][0]["failures"] == [{"N": 1, "planted": "witness"},
                                                  {"N": 2, "planted": "witness"}]

    def test_singular_matching_exits_one(self, capsys, monkeypatch):
        # a solve that raises is a failed case with a witness, not bad input
        def singular(N):
            raise MatchingError(f"matching matrix at level {N} is singular")

        monkeypatch.setattr(divisors_module, "_matching_inverse", singular)
        code, out, err = run(capsys, ["verify", "cusp", "--N-max", "3"])
        data = json.loads(out)
        assert code == 1 and data["ok"] is False and err == ""
        result = data["results"][0]
        assert result["cases"] == 12
        assert [f["check"] for f in result["failures"]] == \
            ["unit", "zero", "round-trip"] * 3
        assert [f["N"] for f in result["failures"]] == [1] * 3 + [2] * 3 + [3] * 3

    def test_hecke_runs_every_level(self, capsys):
        # levels 1, 2 and 3 check the primes prime to 2N: 5 + 5 + 4 cases
        code, out, _ = run(capsys, ["verify", "hecke", "--N-max", "3",
                                    "--prec", "20"])
        assert code == 0 and json.loads(out)["results"][0]["cases"] == 14

    @pytest.mark.parametrize("argv", [["eta", "--N-max", "0"],
                                      ["eta", "--N-max", "-3"],
                                      ["heegner", "--N-max", "0"],
                                      ["hecke", "--prec", "0"],
                                      ["all", "--prec", "0"]])
    def test_parameter_below_one(self, capsys, argv):
        code, out, err = run(capsys, ["verify", *argv])
        assert code == 2 and out == ""
        assert "must be at least 1" in json.loads(err)["error"]


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["pipeline", "--N", "6"],
        ["heegner", "--N", "1", "--in", "FILE"],
        ["heegner", "--N", "1", "--n", "-3"],
        ["verify", "fricke", "--jobs", "2"],
    ], ids=["pipeline", "heegner-in", "heegner-without-gamma", "verify-jobs"])
    def test_removed_forms_are_usage_errors(self, capsys, tmp_path, argv):
        src = tmp_path / "principal.json"
        src.write_text(json.dumps({"principal": [[-3, 1, 1]]}))
        code, out, _ = run(capsys, [str(src) if a == "FILE" else a for a in argv])
        assert code == 2 and out == ""

    def test_eta_nondivisor(self, capsys):
        code, out, err = run(capsys, ["eta", "--N", "6", "--d", "4"])
        assert code == 2 and out == ""
        assert "divide" in json.loads(err)["error"]

    def test_eta_zero_divisor(self, capsys):
        code, out, err = run(capsys, ["eta", "--N", "6", "--d", "0"])
        assert code == 2 and out == ""
        assert "divide" in json.loads(err)["error"]

    @pytest.mark.parametrize("level,d", [("0", "1"), ("-6", "2")])
    def test_eta_nonpositive_level(self, capsys, level, d):
        # N = 0 would walk pentagonal exponents that are all 0; N = -6 a negative step
        code, out, err = run(capsys, ["eta", "--N", level, "--d", d])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "N must be a positive integer"}

    @pytest.mark.parametrize("prec", ["-5", "0"])
    def test_eta_nonpositive_prec(self, capsys, prec):
        code, out, err = run(capsys, ["eta", "--N", "6", "--d", "2",
                                      "--prec", prec])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "prec must be positive"}

    def test_eta_precision_past_any_list(self, capsys):
        # the window is too long to index, so the list is never allocated
        code, out, err = run(capsys, ["eta", "--N", "1", "--d", "1", "--prec",
                                      "100000000000000000000000"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "index-sized" in json.loads(err)["error"]

    def test_eta_precision_past_memory(self, capsys, monkeypatch):
        # a window that fits an index but not memory; the allocation is
        # stood in for, so the test allocates nothing large
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr("weilq.cli.eta_product", exhausted)
        code, out, err = run(capsys, ["eta", "--N", "1", "--d", "1", "--prec",
                                      "10000000000"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "out of memory"}

    @pytest.mark.parametrize("level", ["-3", "0"])
    def test_theta_nonpositive_level(self, capsys, level):
        code, out, err = run(capsys, ["theta", "--N", level])
        assert code == 2 and out == ""
        assert "N >= 1" in json.loads(err)["error"]

    @pytest.mark.parametrize("level", ["0", "-2"])
    def test_heegner_nonpositive_level(self, capsys, level):
        code, out, err = run(capsys, ["heegner", "--N", level, "--n", "-3",
                                      "--gamma", "0"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "N must be a positive integer"

    @pytest.mark.parametrize("field, value", [("N", 0), ("trunc", -1)])
    @pytest.mark.parametrize("op", [["sigma", "--c", "1"], ["ud", "--d", "2"]])
    def test_apply_bad_level_or_window(self, capsys, monkeypatch, field, value,
                                       op):
        data = theta_series(1, 10).to_json()
        data[field] = value
        code, out, err = run(capsys, ["apply", "--op", *op],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "N >= 1" in json.loads(err)["error"]

    @pytest.mark.parametrize("part", ["holo", "nonholo", "N"])
    def test_null_field(self, capsys, monkeypatch, part):
        data = theta_series(1, 10).to_json()
        data[part] = None
        code, out, err = run(capsys, ["apply", "--op", "sigma", "--c", "1"],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "malformed" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [["product"], ["apply", "--op", "ud", "--d", "2"],
                                      ["xi"]])
    def test_shadow_table_is_not_an_input(self, capsys, monkeypatch, argv):
        f = VVExpansion(1, F(1, 2), 1, {(0, 0): F(1)},
                        {(-3, 1): F(2)}, 20)
        _, shadow, _ = run(capsys, ["xi"], stdin_text=json.dumps(f.to_json()),
                           monkeypatch=monkeypatch)
        assert json.loads(shadow)["r"]
        code, out, err = run(capsys, argv, stdin_text=shadow,
                             monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            'malformed expansion JSON: a shadow ("r") table is output only; '
            'expansions are read from the holo/nonholo layout')

    @pytest.mark.parametrize("field", ["N", "k", "rep", "holo", "nonholo",
                                       "trunc"])
    def test_expansion_missing_field(self, capsys, monkeypatch, field):
        data = theta_series(1, 10).to_json()
        del data[field]
        code, out, err = run(capsys, ["apply", "--op", "sigma", "--c", "1"],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == \
            f"malformed expansion JSON: missing field '{field}'"

    @pytest.mark.parametrize("rep", ["foo", ["rho"], None])
    def test_expansion_bad_rep(self, capsys, monkeypatch, rep):
        data = theta_series(1, 10).to_json()
        data["rep"] = rep
        code, out, err = run(capsys, ["xi"], stdin_text=json.dumps(data),
                             monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == \
            f"malformed expansion JSON: rep must be 'rho' or 'dual', got {rep!r}"

    @pytest.mark.parametrize("field", ["N", "orders"])
    def test_divisor_missing_field(self, capsys, tmp_path, field):
        data = eta_divisor(6, 1).to_json()
        del data[field]
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, ["solve", "--N", "6", "--in", str(src)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == \
            f"malformed divisor JSON: missing field '{field}'"

    def test_apply_missing_parameter(self, capsys, monkeypatch):
        theta_json = json.dumps(theta_series(1, 10).to_json())
        code, _, err = run(capsys, ["apply", "--op", "tp"],
                           stdin_text=theta_json, monkeypatch=monkeypatch)
        assert code == 2
        assert "--p" in json.loads(err)["error"]

    def test_bad_json_input(self, capsys, monkeypatch):
        code, _, _ = run(capsys, ["apply", "--op", "tp", "--p", "3"],
                         stdin_text="not json", monkeypatch=monkeypatch)
        assert code == 2

    def test_deeply_nested_stdin(self, capsys, monkeypatch):
        text = "[" * 100000 + "]" * 100000
        code, out, err = run(capsys, ["apply", "--op", "tp", "--p", "3"],
                             stdin_text=text, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "input JSON is nested too deeply"}

    def test_deeply_nested_file(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        src.write_text('{"N": ' + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run(capsys, ["solve", "--N", "6", "--in", str(src)])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "input JSON is nested too deeply"}

    def test_solve_level_mismatch(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps(eta_divisor(6, 1).to_json()))
        code, _, err = run(capsys, ["solve", "--N", "12", "--in", str(target)])
        assert code == 2 and "match" in json.loads(err)["error"]

    def test_missing_input_file(self, capsys):
        code, _, _ = run(capsys, ["xi", "--in", "/nonexistent/path.json"])
        assert code == 2

    @pytest.mark.parametrize("argv", [["theta", "--N", "1", "--prec", "10"],
                                      ["verify", "fricke", "--N-max", "3"]],
                             ids=["table", "verify"])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        # an --out file that cannot be written is an input error, not a
        # failed verification
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, [*argv, "--out", str(path)])
        assert code == 2 and out == "" and not path.exists()
        assert str(path) in json.loads(err)["error"]

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_suite(self, capsys):
        assert run(capsys, ["verify", "nonsense"])[0] == 2

    def test_product_precision_shortfall(self, capsys, monkeypatch):
        theta_json = json.dumps(theta_series(1, 30).to_json())
        code, _, err = run(capsys, ["product", "--prec", "50"],
                           stdin_text=theta_json, monkeypatch=monkeypatch)
        assert code == 2
        assert "insufficient" in json.loads(err)["error"]

    @pytest.mark.parametrize("edit", [
        lambda d: d["holo"].append([4, 0, "1/0"]),
        lambda d: d.update(k="1/0"),
        lambda d: d.update(k="1/3"),
        lambda d: d.update(holo=[[1, 1, "1"], [1, 3, "5"]]),
        # JSON true and false are not numbers, also after an equal 1 or 0
        lambda d: d.update(holo=[[1, 1, True], [1, 3, True]]),
        lambda d: d.update(holo=[[1, 1, 1], [1, 3, True]]),
        lambda d: d.update(holo=[[0, 0, 0], [4, 2, False]]),
    ], ids=["coefficient", "weight", "weight-not-half-integral", "symmetry",
            "true", "true-after-one", "false-after-zero"])
    def test_apply_bad_expansion(self, capsys, monkeypatch, edit):
        data = theta_series(2, 10).to_json()
        edit(data)
        code, out, err = run(capsys, ["apply", "--op", "sigma", "--c", "1"],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]

    @pytest.mark.parametrize("holo, nonholo", [
        ([[0, 0, "1"], [16, 0, "3"]], []),
        ([[0, 0, "1"], [-16, 0, "3"]], []),
        ([[0, 0, "1"]], [[4, 2, "1"]]),
        ([[0, 0, "1"]], [[0, 0, "1"]]),
        ([[0, 0, "1"]], [[-16, 0, "1"]]),
    ], ids=["holo-above", "holo-below", "nonholo-positive", "nonholo-zero",
            "nonholo-below"])
    def test_apply_entry_outside_window(self, capsys, monkeypatch, holo, nonholo):
        data = {"N": 2, "k": "1/2", "rep": "rho", "holo": holo,
                "nonholo": nonholo, "trunc": 10}
        code, out, err = run(capsys, ["apply", "--op", "ud", "--d", "2"],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "is outside [" in json.loads(err)["error"]

    def test_apply_infinite_number(self, capsys, monkeypatch):
        text = json.dumps(theta_series(1, 10).to_json()).replace('"2"', "1e999", 1)
        assert "1e999" in text
        code, out, err = run(capsys, ["apply", "--op", "sigma", "--c", "1"],
                             stdin_text=text, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "rational" in json.loads(err)["error"]

    @pytest.mark.parametrize("command, payload", [
        ("solve", {"N": 6, "orders": [[1, "1/0"]]}),
    ])
    def test_file_input_zero_denominator(self, capsys, tmp_path, command,
                                         payload):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(payload))
        code, out, err = run(capsys, [command, "--N", "6", "--in", str(src)])
        assert code == 2 and out == ""
        assert "rational" in json.loads(err)["error"]

    @pytest.mark.parametrize("orders", [
        [[1, True], [4, True]],
        [[1, False], [2, "1"]],
    ], ids=["true", "false"])
    def test_solve_bool_order(self, capsys, tmp_path, orders):
        # JSON true and false are not the numbers 1 and 0
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"N": 4, "orders": orders}))
        code, out, err = run(capsys, ["solve", "--N", "4", "--in", str(src)])
        assert code == 2 and out == ""
        assert "not a rational number" in json.loads(err)["error"]

    def test_product_zero_denominator_weyl(self, capsys, monkeypatch):
        theta_json = json.dumps(theta_series(1, 30).to_json())
        code, out, err = run(capsys, ["product", "--weyl", "1/0", "--prec", "3"],
                             stdin_text=theta_json, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "rational" in json.loads(err)["error"]

    @pytest.mark.parametrize("orders, match", [
        ([[5, "1"]], "not a positive divisor"),
        ([[0, "1"]], "not a positive divisor"),
        ([[-2, "1"]], "not a positive divisor"),
        ([[2, "1"], [2, "3"]], "given twice"),
        ([[2, "1"], [2, "0"]], "given twice"),
        ([[2.0, "1"]], "not a positive divisor"),
        ([["2", "1"]], "not a positive divisor"),
        ([[True, "1"]], "not a positive divisor"),
    ], ids=["off-level", "zero", "negative", "repeated", "repeated-zero",
            "float", "string", "bool"])
    def test_solve_bad_class(self, capsys, tmp_path, orders, match):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"N": 6, "orders": orders}))
        code, out, err = run(capsys, ["solve", "--N", "6", "--in", str(src)])
        assert code == 2 and out == ""
        assert match in json.loads(err)["error"]

    @pytest.mark.parametrize("level", [6.0, "6", 0, -6, True])
    def test_solve_bad_divisor_level(self, capsys, tmp_path, level):
        # N is checked before any class is divided into it
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"N": level, "orders": [[1, "1"], [0, "1"]]}))
        code, out, err = run(capsys, ["solve", "--N", "6", "--in", str(src)])
        assert code == 2 and out == ""
        assert "N must be a positive integer" in json.loads(err)["error"]

    @pytest.mark.parametrize("edit", [
        lambda d: d["holo"].append([1.9, 1, "2"]),
        lambda d: d["holo"].append(["1", 1, "2"]),
        lambda d: d["holo"].append([True, True, "2"]),
        lambda d: d["nonholo"].append([-3.0, 1, "2"]),
        lambda d: d.update(trunc=10.7),
        lambda d: d.update(N=1.0),
        lambda d: d.update(N=True),
    ], ids=["float-index", "string-index", "bool-index", "float-nonholo-index",
            "float-trunc", "float-level", "bool-level"])
    def test_apply_non_integer_index(self, capsys, monkeypatch, edit):
        data = theta_series(1, 10).to_json()
        edit(data)
        code, out, err = run(capsys, ["apply", "--op", "sigma", "--c", "1"],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "integer" in json.loads(err)["error"]

    @pytest.mark.parametrize("command", ["apply", "solve"])
    @pytest.mark.parametrize("text", ["[1]", '"x"', "null"])
    def test_input_not_an_object(self, capsys, tmp_path, command, text):
        src = tmp_path / "in.json"
        src.write_text(text)
        argv = {"apply": ["apply", "--op", "sigma", "--c", "1"]}.get(
            command, [command, "--N", "6"])
        code, out, err = run(capsys, [*argv, "--in", str(src)])
        assert code == 2 and out == ""
        assert "object" in json.loads(err)["error"]

    @pytest.mark.parametrize("field", ["N", "trunc"])
    def test_infinite_integer_field(self, capsys, monkeypatch, field):
        data = theta_series(1, 10).to_json()
        data[field] = "INF"
        text = json.dumps(data).replace('"INF"', "1e999")
        code, out, err = run(capsys, ["apply", "--op", "sigma", "--c", "1"],
                             stdin_text=text, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "malformed" in json.loads(err)["error"]
