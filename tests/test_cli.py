"""End-to-end command-line tests: exit codes, JSON/CSV payloads, piping."""

import io
import json
import sys
from fractions import Fraction as F

import pytest

import weilq.verify as verify
from weilq.cli import main
from weilq.divisors import eta_divisor
from weilq.heckeops import hecke_tp
from weilq.verify import SuiteResult
from weilq.vvforms import VVExpansion, theta_series


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
        assert out.splitlines() == ["n,exponent", "1,2", "2,2", "3,2", "4,2",
                                    "5,2"]

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

    def test_heegner_from_principal_file(self, capsys, tmp_path):
        src = tmp_path / "principal.json"
        src.write_text(json.dumps(
            {"principal": [[-3, 1, 1], [-4, 0, "3/2"]]}))
        code, out, _ = run(capsys, ["heegner", "--N", "1", "--in", str(src)])
        data = json.loads(out)
        assert code == 0
        assert data["degree"] == str(F(1, 3) + F(3, 2) * F(1, 2))

    def test_pipeline_bundle(self, capsys, monkeypatch):
        bundle = {"principal": [],
                  "cusp_target": eta_divisor(6, 1).to_json()}
        code, out, _ = run(capsys, ["pipeline", "--N", "6"],
                           stdin_text=json.dumps(bundle),
                           monkeypatch=monkeypatch)
        data = json.loads(out)
        assert code == 0
        assert data["weight"] == "1"
        assert data["weyl"] == "7/24"
        assert data["theta_coefficients"] == [[1, "1"], [2, "0"]]

    def test_out_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "eta.json"
        code, out, _ = run(capsys, ["eta", "--N", "6", "--d", "1", "--out",
                                    str(dest)])
        assert code == 0 and out == ""
        data = json.loads(dest.read_text())
        assert data["denom"] == 24
        assert [7, "1"] in data["terms"]


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "fricke", "--N-max", "20"])
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert data["results"][0]["suite"] == "fricke"
        assert data["results"][0]["failures"] == []

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def broken():
            return SuiteResult("hecke", 5, [("planted", "witness")])

        monkeypatch.setitem(verify.SUITES, "hecke", broken)
        code, out, _ = run(capsys, ["verify", "hecke"])
        data = json.loads(out)
        assert code == 1 and data["ok"] is False
        assert data["results"][0]["failures"] == [["planted", "witness"]]


class TestErrors:
    def test_eta_nondivisor(self, capsys):
        code, out, err = run(capsys, ["eta", "--N", "6", "--d", "4"])
        assert code == 2 and out == ""
        assert "divide" in json.loads(err)["error"]

    def test_eta_zero_divisor(self, capsys):
        code, out, err = run(capsys, ["eta", "--N", "6", "--d", "0"])
        assert code == 2 and out == ""
        assert "divide" in json.loads(err)["error"]

    @pytest.mark.parametrize("level", ["-3", "0"])
    def test_theta_nonpositive_level(self, capsys, level):
        code, out, err = run(capsys, ["theta", "--N", level])
        assert code == 2 and out == ""
        assert "positive" in json.loads(err)["error"]

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

    @pytest.mark.parametrize("argv", [["product"], ["apply", "--op", "ud", "--d", "2"]])
    def test_shadow_table_is_not_an_input(self, capsys, monkeypatch, argv):
        f = VVExpansion(1, F(1, 2), 1, {(0, 0): F(1)},
                        {(-3, 1): F(2)}, 20)
        _, shadow, _ = run(capsys, ["xi"], stdin_text=json.dumps(f.to_json()),
                           monkeypatch=monkeypatch)
        assert json.loads(shadow)["r"]
        code, out, err = run(capsys, argv, stdin_text=shadow,
                             monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "holo" in json.loads(err)["error"]

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

    def test_solve_level_mismatch(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps(eta_divisor(6, 1).to_json()))
        code, _, err = run(capsys, ["solve", "--N", "12", "--in", str(target)])
        assert code == 2 and "match" in json.loads(err)["error"]

    def test_missing_input_file(self, capsys):
        code, _, _ = run(capsys, ["xi", "--in", "/nonexistent/path.json"])
        assert code == 2

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
