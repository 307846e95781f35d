import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellvol import cli, polytopes
from bellvol.cli import main
from bellvol.regions import membership_profile


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMembership:
    def test_inline_point_table(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--point", "0,0,0,0")
        assert code == 0
        assert "region" in out and "margin" in out
        assert "false" not in out  # origin is inside everything

    def test_json_point_and_format(self, capsys):
        point = '{"c00": 1, "c01": 1, "c10": 1, "c11": -1}'
        code, out, _ = run_cli(capsys, "membership", "--point", point,
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["profile"]["C"]["inside"] is False
        assert obj["profile"]["L"]["inside"] is True
        assert set(obj["profile"]["Q"]) == {"arcsin", "landau", "sextic"}

    def test_csv_headers_match_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--point", "0,0,0,0",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "region,characterization,inside,margin"

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_rows_follow_the_profile(self, capsys, fmt):
        point = "0.7,0.7,0.7,-0.7"
        code, out, _ = run_cli(capsys, "membership", "--point", point,
                               "--format", fmt)
        assert code == 0
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
        else:
            header, *body = out.splitlines()
            cuts = [header.index(h) for h in
                    ("region", "characterization", "inside", "margin")]
            rows = [[line[a:b].strip() for a, b in zip(cuts, [*cuts[1:], None])]
                    for line in body]
        profile = membership_profile((0.7, 0.7, 0.7, -0.7))
        expected = [profile.local, profile.quantum_arcsin, profile.uffink,
                    profile.tsirelson, profile.no_signaling,
                    profile.quantum_landau, profile.quantum_sextic]
        assert [r[:2] for r in rows] == [
            ["C", ""], ["Q", "arcsin"], ["U", ""], ["T", ""], ["L", ""],
            ["Q", "landau"], ["Q", "sextic"]]
        assert [r[2] for r in rows] == [
            "true" if res.inside else "false" for res in expected]
        assert [r[3] for r in rows] == [
            format(res.margin, ".12g") for res in expected]

    def test_malformed_json_names_the_field(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", '{"c00": 1, "c01": 2, "c10": 3}'])
        assert err.value.code == 2
        assert "c11" in capsys.readouterr().err

    def test_non_numeric_component(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", "0,zero,0,0"])
        assert err.value.code == 2
        assert "c01" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", "0,0,0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("point,field", [
        ("2,0,0,0", "c00"), ("nan,0,0,0", "c00"), ("0,0,0,nan", "c11"),
        ("0,inf,0,0", "c01"), ("0,0,-inf,0", "c10"),
        ('{"c00": 0, "c01": 0, "c10": NaN, "c11": 0}', "c10")])
    @pytest.mark.parametrize("command", ["membership", "distance"])
    def test_point_outside_contract_is_usage_error(self, capsys, command,
                                                   point, field):
        argv = (["membership", "--point", point] if command == "membership"
                else ["distance", "--from", point, "--to", "0,0,0,0"])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "abc"])
    def test_tolerance_outside_contract_is_usage_error(self, capsys,
                                                       tolerance):
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", "0,0,0,0",
                  "--tolerance", tolerance])
        assert err.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--point", "0,0,0,0",
                               "--tolerance", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["profile"]["C"]["inside"] is True


@pytest.mark.parametrize("argv,flag", [
    (["membership", "--point", "2,0,0,0"], "--point"),
    (["distance", "--from", "2,0,0,0", "--to", "0,0,0,0"], "--from"),
    (["distance", "--from", "0,0,0,0", "--to", "0,0,0,2"], "--to")])
def test_point_error_names_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {flag}: point field" in message
    assert all(other not in message
               for other in ("--point", "--from", "--to") if other != flag)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", "0,0,0,0", "--bogus"])
        assert err.value.code == 2

    def test_unknown_region(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["volume", "--region", "X"])
        assert err.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


_MC_FLAG_CASES = [
    (command, flag, value)
    for command in (["volume", "--region", "Q"], ["ratios"])
    for flag, value in (("--n", "0"), ("--n", "abc"), ("--workers", "0"),
                        ("--seed", "-1"), ("--seed", str(2 ** 64)),
                        ("--batch-size", "0"))  # now an unknown flag
    if not (command == ["ratios"] and flag == "--batch-size")]


@pytest.mark.parametrize("command,flag,value", _MC_FLAG_CASES)
def test_mc_flag_outside_contract_is_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as err:
        main([*command, "--n", "100", flag, value])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", [["volume", "--region", "L"], ["ratios"]])
@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_malformed_workers_env_is_usage_error(capsys, monkeypatch, command,
                                              raw):
    monkeypatch.setenv("BELLVOL_WORKERS", raw)
    with pytest.raises(SystemExit) as err:
        main([*command, "--n", "100"])
    assert err.value.code == 2
    assert "BELLVOL_WORKERS" in capsys.readouterr().err
    # an explicit flag does not read the variable
    code, _, _ = run_cli(capsys, *command, "--n", "100", "--workers", "1")
    assert code == 0


class TestVolume:
    def test_exact_local_volume(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--region", "C",
                               "--method", "exact", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["exact"] == "32/3"
        assert obj["value"] == pytest.approx(32.0 / 3.0)
        assert obj["error_bound"] == 0.0

    def test_exact_rejected_for_quantum_region(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["volume", "--region", "Q", "--method", "exact"])
        assert err.value.code == 2

    def test_mc_volume_small(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--region", "L",
                               "--method", "mc", "--n", "1000", "--seed", "5",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == 16.0 and obj["n"] == 1000 and obj["seed"] == 5

    def test_quadrature_volume(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--region", "Q",
                               "--method", "quadrature", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(1.5 * math.pi ** 2, abs=1e-6)
        assert 0.0 <= obj["error_bound"] <= 1e-6

    @pytest.mark.parametrize("abs_tol", ["nan", "inf", "0", "1e-10"])
    def test_abs_tol_outside_contract_is_usage_error(self, capsys, abs_tol):
        with pytest.raises(SystemExit) as err:
            main(["volume", "--region", "Q", "--method", "quadrature",
                  "--abs-tol", abs_tol])
        assert err.value.code == 2
        assert "--abs-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["membership", "--point", "0,0,0,0", "--tolerance", "abc"],
        ["volume", "--region", "Q", "--method", "quadrature",
         "--abs-tol", "abc"]])
    def test_float_flag_reports_a_non_number(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert (f"argument {argv[-2]}: not a number: 'abc'"
                in capsys.readouterr().err)

    def test_batch_size_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["volume", "--region", "C", "--n", "10", "--batch-size", "10"])
        assert err.value.code == 2
        assert "unrecognized arguments: --batch-size" in capsys.readouterr().err

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLVOL_WORKERS", "2")
        code, out, _ = run_cli(capsys, "volume", "--region", "L",
                               "--method", "mc", "--n", "100", "--format", "json")
        assert code == 0


class TestRatios:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "ratios", "--n", "100000", "--seed", "1",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj["ratios"]) == {"Q/C", "Q/L", "C/L"}
        qc = obj["ratios"]["Q/C"]
        assert abs(qc["value"] - qc["analytic"]) < 5 * qc["std_error"]

    def test_table_contains_analytic_column(self, capsys):
        code, out, _ = run_cli(capsys, "ratios", "--n", "20000", "--seed", "2")
        assert code == 0
        assert "analytic" in out and "V_C" in out and "T/Q-1" in out

    def test_csv_rows_follow_the_report(self, capsys):
        argv = ("ratios", "--n", "20000", "--seed", "4")
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        _, text, _ = run_cli(capsys, *argv, "--format", "json")
        report = json.loads(text)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["kind"], r["name"]) for r in rows] == \
            [("volume", f"V_{k}") for k in report["volumes"]] \
            + [("ratio", k) for k in report["ratios"]] \
            + [("excess", k) for k in report["excesses"]]
        assert all(r["analytic"] for r in rows)
        # only the cube volume is exact, with no deviation to report
        assert [r["name"] for r in rows if not r["deviation_sigmas"]] == ["V_L"]

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "ratios", "--n", "20000", "--seed", "3",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "ratios", "--n", "20000", "--seed", "3",
                             "--format", "json")
        assert out1 == out2


class TestPolytope:
    def test_ns_counts_line(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--which", "ns",
                               "--task", "counts")
        assert code == 0
        assert out.strip() == "vertices: 24, facets: 16"

    def test_local_counts_line(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--which", "local",
                               "--task", "counts")
        assert code == 0
        assert out.strip() == "vertices: 16, facets: 24"

    def test_corr_vertices_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--which", "corrC",
                               "--task", "vertices")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "V 4 8"
        assert len(lines) == 9

    def test_ns_facet_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--which", "ns",
                               "--task", "facets")
        assert code == 0
        assert out.splitlines()[0] == "H 8 16"

    def test_corr_volume(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--which", "corrC",
                               "--task", "volume")
        assert code == 0
        assert "32/3" in out

    def test_volume_rejected_in_8d(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["polytope", "--which", "ns", "--task", "volume"])
        assert err.value.code == 2


# (vertex count, facet count) of each polytope the CLI knows
_POLYTOPE_COUNTS = {"local": (16, 24), "ns": (24, 16), "corrC": (8, 16)}
_POLYTOPES = {"local": polytopes.local_polytope_v, "ns": polytopes.ns_polytope_h,
              "corrC": polytopes.correlation_polytope_C}


@pytest.mark.parametrize("task", ["vertices", "facets", "counts", "volume"])
@pytest.mark.parametrize("which", ["local", "ns", "corrC"])
def test_polytope_output_is_the_library_text(capsys, which, task):
    poly = _POLYTOPES[which]()
    if poly.vertices is None:
        poly = polytopes.enumerate_vertices(poly)
    if poly.halfspaces is None:
        poly = polytopes.enumerate_facets(poly)
    n_vertices, n_facets = _POLYTOPE_COUNTS[which]
    assert (len(poly.vertices), len(poly.halfspaces)) == (n_vertices, n_facets)
    if task == "volume" and poly.dim > 4:
        with pytest.raises(SystemExit) as err:
            main(["polytope", "--which", which, "--task", task])
        assert err.value.code == 2
        assert "dimension" in capsys.readouterr().err
        return
    code, out, _ = run_cli(capsys, "polytope", "--which", which,
                           "--task", task)
    assert code == 0
    if task == "vertices":
        assert out == poly.to_text("V")
        assert out.startswith(f"V {poly.dim} {n_vertices}\n")
    elif task == "facets":
        assert out == poly.to_text("H")
        assert out.startswith(f"H {poly.dim} {n_facets}\n")
    elif task == "counts":
        assert out == f"vertices: {n_vertices}, facets: {n_facets}\n"
    else:
        assert out == "volume: 32/3 (10.6666666667)\n"


class TestExamples:
    def test_pr_box_verify(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "--which", "pr-box",
                               "--verify")
        assert code == 0
        assert "FAIL" not in out
        assert "1/2" in out

    def test_signaling_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "--which", "signaling",
                               "--verify", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert all(obj["checks"].values())
        assert obj["projection"] == {"c00": 0.0, "c01": 0.0, "c10": 0.0,
                                     "c11": 0.0}

    def test_table_without_verify(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "--which", "pr-box")
        assert code == 0
        assert "PASS" not in out

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("which,n_checks", [("pr-box", 6),
                                                ("signaling", 4)])
    def test_verify_lines_follow_the_table(self, capsys, which, n_checks,
                                           fmt):
        argv = ("examples", "--which", which, "--format", fmt)
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--verify")
        assert code == 0
        if fmt == "json":
            assert "PASS" not in out
            obj = json.loads(out)
            assert len(obj.pop("checks")) == n_checks
            assert obj == json.loads(plain)
        else:
            assert len(plain.splitlines()) == 5  # header and four settings
            assert out.startswith(plain)
            checks = out[len(plain):].splitlines()
            assert len(checks) == n_checks
            assert all(line.startswith("PASS  ") for line in checks)


class TestSampleQuantum:
    def test_json_lines_with_profiles(self, capsys):
        code, out, _ = run_cli(capsys, "sample-quantum", "--n", "5",
                               "--seed", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"c00", "c01", "c10", "c11", "profile"}
            assert rec["profile"]["Q"]["arcsin"]["inside"] is True

    def test_deterministic_for_fixed_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "sample-quantum", "--n", "3", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sample-quantum", "--n", "3", "--seed", "9")
        assert out1 == out2

    def test_records_have_the_profile_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "sample-quantum", "--n", "4", "--seed", "2")
        for line in out.splitlines():
            rec = json.loads(line)
            point = [rec[k] for k in ("c00", "c01", "c10", "c11")]
            assert list(rec) == ["c00", "c01", "c10", "c11", "profile"]
            scalar = membership_profile(point).as_dict()
            assert list(rec["profile"]) == list(scalar)
            for key, entry in scalar.items():
                assert list(rec["profile"][key]) == list(entry)
                if key == "Q":
                    for char, res in entry.items():
                        assert list(rec["profile"]["Q"][char]) == list(res)

    def test_output_does_not_depend_on_block_size(self, capsys, monkeypatch):
        outputs = []
        for block in (1, 7, 30, 1024):
            monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
            code, out, _ = run_cli(capsys, "sample-quantum", "--n", "30",
                                   "--seed", "11")
            assert code == 0 and len(out.splitlines()) == 30
            outputs.append(out)
        assert outputs == [outputs[-1]] * len(outputs)


def test_closed_stdout_exits_1_without_traceback():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from bellvol.cli import entrypoint; entrypoint()",
         "sample-quantum", "--n", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["profile"]
    proc.stdout.close()     # the output is far larger than the pipe buffer
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipe" not in err, err


class TestDistance:
    def test_reports_vector_and_aggregates(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--from", "0,0,0,0",
                               "--to", "0.5,0,0,0")
        assert code == 0
        obj = json.loads(out)
        assert obj["per_coordinate"]["c00"] == 0.25
        assert obj["max"] == 0.25 and obj["sum"] == 0.25

    def test_mixed_input_forms(self, capsys):
        code, out, _ = run_cli(
            capsys, "distance",
            "--from", '{"c00": 0.7, "c01": 0, "c10": 0, "c11": 0}',
            "--to", "0.1,0,0,0")
        assert code == 0
        assert json.loads(out)["per_coordinate"]["c00"] == pytest.approx(0.3)
