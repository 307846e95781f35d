import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellvol import cli, estimates, polytopes, quantum, toggles, volumes
from bellvol.cli import main
from bellvol.regions import (
    _FIELDS,
    PROFILE_ORDER,
    CorrelationPoint,
    QCharacterization,
    RegionId,
    in_box_L,
    in_local,
    in_quantum_arcsin,
    in_quantum_landau,
    in_quantum_sextic,
    in_tsirelson_T,
    in_uffink_U,
    membership_profile,
    membership_profiles,
    profile_record,
)


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
        c = (0.7, 0.7, 0.7, -0.7)
        profile = membership_profile(c)
        expected = [in_local(c), in_quantum_arcsin(c), in_uffink_U(c),
                    in_tsirelson_T(c), in_box_L(c),
                    in_quantum_landau(c), in_quantum_sextic(c)]
        assert expected == [
            *profile.regions().values(),
            profile.result(RegionId.QUANTUM_Q, QCharacterization.LANDAU),
            profile.result(RegionId.QUANTUM_Q, QCharacterization.SEXTIC)]
        assert [r[:2] for r in rows] == [
            ["C", ""], ["Q", "arcsin"], ["U", ""], ["T", ""], ["L", ""],
            ["Q", "landau"], ["Q", "sextic"]]
        assert [r[2] for r in rows] == [
            "true" if res.inside else "false" for res in expected]
        assert [r[3] for r in rows] == [
            format(res.margin, ".12g") for res in expected]

    # sha256 of the stdout of membership at a point next to Tsirelson's
    @pytest.mark.parametrize("fmt, digest", [
        ("table", "a19b08e72ae0c91d743dfacb03c22e81e5f1cb254333b487b3cfaadc2a43dc82"),
        ("csv", "b3408157f53e25be3f2810c73e668cd8bcce87994e193ce1884b14aaeb7cec27"),
        ("json", "94101cbb311d1353fbdc5246c1b3bfee227d27067a092aff3c95c544655380c2"),
    ], ids=["table", "csv", "json"])
    def test_output_bytes_are_pinned(self, capsys, fmt, digest):
        code, out, _ = run_cli(capsys, "membership", "--point",
                               "0.7,0.7,0.7,-0.7", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        # a leading -inf or -nan is joined to the flag like a negative number
        ("-inf,0,0,0", "c00"), ("-Infinity,0,0,0", "c00"),
        ("-NaN,0,0,0", "c00"),
        ('{"c00": 0, "c01": 0, "c10": NaN, "c11": 0}', "c10"),
        pytest.param('{"c00": 0, "c01": 1%s, "c10": 0, "c11": 0}' % ("0" * 400),
                     "c01", id="huge-json-integer")])
    @pytest.mark.parametrize("command", ["membership", "distance"])
    def test_point_outside_contract_is_usage_error(self, capsys, command,
                                                   point, field):
        argv = (["membership", "--point", point] if command == "membership"
                else ["distance", "--from", point, "--to", "0,0,0,0"])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"point field '{field}' " in capsys.readouterr().err

    @pytest.mark.parametrize("value, read", [
        ('"0.5"', "'0.5'"), ("true", "True"), ("null", "None"),
        ("[0.5]", "[0.5]")], ids=["text", "bool", "null", "list"])
    def test_a_json_point_field_that_is_no_number(self, capsys, value, read):
        # the JSON branch leaves every type check to CorrelationPoint
        point = '{"c00": 0, "c01": %s, "c10": 0, "c11": 0}' % value
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", point])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"argument --point: point field 'c01' is not a number: {read}\n")

    @pytest.mark.parametrize("tolerance, message", [
        ("nan", "is not finite: nan"), ("-inf", "is not finite: -inf"),
        ("-1", "is outside [0, inf]: -1.0")])
    def test_tolerance_message_is_the_real_contract(self, capsys, tolerance,
                                                    message):
        with pytest.raises(SystemExit) as err:
            main(["membership", "--point", "0,0,0,0", "--tolerance", tolerance])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"bellvol membership: error: argument --tolerance: tolerance"
            f" {message}\n")

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
    # the usage line above names every flag of the subcommand
    error_line = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {flag}: point field" in error_line
    assert all(other not in error_line
               for other in ("--point", "--from", "--to") if other != flag)


@pytest.mark.parametrize("argv", [
    ["membership", "--point", "2,0,0,0"],
    ["distance", "--from", "0,0,0,0", "--to", "0,0,nan,0"],
    ["volume", "--region", "Q", "--method", "exact"],
    ["polytope", "--which", "ns", "--task", "area"],
    ["volume", "--region", "C", "--batch-size", "10"]],
    ids=["point", "second-point", "exact-on-Q", "polytope-unknown-task",
         "unknown-flag"])
def test_usage_error_names_its_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith(f"usage: bellvol {argv[0]} ")
    assert f"\nbellvol {argv[0]}: error: " in message


@pytest.mark.parametrize("spaced,joined", [
    ("membership --point -0.5,0.5,0.5,0.5 --format json",
     "membership --point=-0.5,0.5,0.5,0.5 --format json"),
    ("membership --point -.5,0,0,-1", "membership --point=-.5,0,0,-1"),
    ("distance --from -1,0,0,0 --to 0,0,0,0",
     "distance --from=-1,0,0,0 --to 0,0,0,0"),
    ("distance --from 0,0,0,0 --to -1,-1,0,0",
     "distance --from 0,0,0,0 --to=-1,-1,0,0"),
    ("membership --poi -0.5,0,0,0", "membership --point=-0.5,0,0,0"),
    ("distance --fr -1,0,0,0 --to 0,0,0,0",
     "distance --from=-1,0,0,0 --to 0,0,0,0")])
def test_point_may_start_with_a_minus_sign(capsys, spaced, joined):
    code, out, err = run_cli(capsys, *spaced.split())
    assert (code, err) == (0, "")
    assert run_cli(capsys, *joined.split()) == (0, out, "")


@pytest.mark.parametrize("argv,flag", [
    (["membership", "--point", "--format", "json"], "--point"),
    (["distance", "--from", "--to", "-1,0,0,0"], "--from"),
    (["distance", "--from", "0,0,0,0", "--to", "--from", "-1,0,0,0"], "--to")])
def test_flag_where_a_point_belongs_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert (f"argument {flag}: expected one argument"
            in capsys.readouterr().err)


coordinate = st.one_of(st.floats(-1, 1), st.floats(allow_nan=True,
                                                   allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(st.tuples(coordinate, coordinate, coordinate, coordinate))
@example((2.0, math.nan, 0.0, 0.0))
@example((-math.inf, 0.0, 0.0, 0.0))
@example((1.0, -1.0, -0.0, 5e-324))
def test_cli_rejects_exactly_the_points_the_library_rejects(values):
    try:
        CorrelationPoint(*values)
        message = None
    except ValueError as exc:
        message = str(exc)
    argv = ["membership", "--point=" + ",".join(map(repr, values))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == (0 if message is None else 2)
    if message is not None:
        last = err.getvalue().splitlines()[-1]
        assert last.endswith(f"argument --point: {message}")


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


#: Every exception class of bellvol, with the base it kept when each
#: became a ValueError.
ERROR_BASES = {
    polytopes.PolytopeError: ValueError,
    polytopes.NoSignalingViolation: polytopes.PolytopeError,
    polytopes.UnboundedPolytope: polytopes.PolytopeError,
    polytopes.DegeneratePolytope: polytopes.PolytopeError,
    estimates.ToleranceNotMet: RuntimeError,
    volumes.DegenerateDenominator: ZeroDivisionError,
    toggles.TargetUnreachable: ValueError,
}


def _fail(*args):
    raise polytopes.DegeneratePolytope("injected")


class TestComputationErrors:
    """``main`` reports every bellvol error, a ValueError, as one stderr
    line with exit 1 and no output."""

    @pytest.mark.parametrize("argv, patch, message", [
        (["ratios", "--n", "1", "--seed", "3"], None,
         "no hits in the denominator region"),
        (["volume", "--region", "U", "--method", "quadrature",
          "--abs-tol", "1e-9"], (estimates, "_GL_ORDERS", (8, 16)),
         "Gauss-Legendre orders 8 and 16 differ by 7.615e-09"
         " > abs_tol 1.000e-09"),
        (["polytope", "--which", "local", "--task", "facets"],
         (polytopes, "enumerate_facets", _fail), "injected"),
    ], ids=["degenerate-denominator", "tolerance-not-met",
            "polytope-error"])
    def test_error_line_and_exit_1(self, capsys, monkeypatch, argv, patch,
                                   message):
        if patch:
            monkeypatch.setattr(*patch)
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_a_fraction_abs_tol_meets_the_same_tolerance_error(self,
                                                               monkeypatch):
        # check_abs_tol returns the float it reads, which the error's
        # message formats; a Fraction does not take the 'e' format before
        # Python 3.12
        monkeypatch.setattr(estimates, "_GL_ORDERS", (8, 16))
        with pytest.raises(estimates.ToleranceNotMet) as err:
            estimates.quadrature_volume(RegionId.UFFINK_U,
                                        abs_tol=Fraction(2, 10 ** 9))
        assert str(err.value) == ("Gauss-Legendre orders 8 and 16 differ by"
                                  " 7.615e-09 > abs_tol 2.000e-09")

    @pytest.mark.parametrize("error, base", ERROR_BASES.items(),
                             ids=lambda v: v.__name__)
    def test_every_error_class_is_a_value_error(self, error, base):
        assert issubclass(error, ValueError)
        assert issubclass(error, base)

    def test_the_table_holds_every_error_class(self):
        defined = {value for name in ("regions", "estimates", "volumes",
                                      "polytopes", "quantum", "toggles", "cli")
                   for value in vars(importlib.import_module(
                       f"bellvol.{name}")).values()
                   if isinstance(value, type)
                   and issubclass(value, BaseException)
                   and value.__module__.startswith("bellvol.")}
        assert defined == set(ERROR_BASES)


# a valid call of every subcommand, cheap enough to run many times
VALID_CALLS = {
    "membership": ["--point", "0,0,0,0"],
    "volume": ["--region", "C", "--method", "exact"],
    "ratios": ["--n", "1000", "--workers", "1"],
    "polytope": ["--which", "corrC", "--task", "counts"],
    "examples": ["--which", "pr-box"],
    "sample-quantum": ["--n", "2"],
    "distance": ["--from", "0,0,0,0", "--to", "0,0,0,0"]}

TOP_LEVEL_HELP = """\
usage: bellvol [-h]
               {membership,volume,ratios,polytope,examples,sample-quantum,distance}
               ...

Memberships, volumes and volume ratios of the nested two-party correlation
sets.

positional arguments:
  {membership,volume,ratios,polytope,examples,sample-quantum,distance}
    membership          membership profile of one point
    volume              volume of one region
    ratios              headline volume/ratio table
    polytope            vertex/facet enumeration and volume
    examples            reference probability tables
    sample-quantum      sample quantum points as JSON lines
    distance            toggle distance between two points

options:
  -h, --help            show this help message and exit
"""


def subparser(name):
    """``build_parser()``'s subparser of subcommand ``name``."""
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


class TestParsers:
    """``main`` parses ``<cmd> ...`` with ``command_parser(cmd)`` alone and
    any other argv with the whole tree; both must read the same."""

    def test_table_holds_every_subcommand(self):
        assert list(VALID_CALLS) == list(cli._COMMANDS)

    @pytest.mark.parametrize("name", list(VALID_CALLS))
    def test_command_parser_reads_like_the_subparser(self, capsys,
                                                     monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        alone, tree = cli.command_parser(name), subparser(name)
        assert alone.format_usage() == tree.format_usage()
        assert alone.format_help() == tree.format_help()
        with pytest.raises(SystemExit) as err:
            main([name, "-h"])
        assert err.value.code == 0
        assert capsys.readouterr() == (tree.format_help(), "")

    def test_top_level_help_is_pinned(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            main(["-h"])
        assert err.value.code == 0
        assert capsys.readouterr() == (TOP_LEVEL_HELP, "")

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    @pytest.mark.parametrize("name", list(VALID_CALLS))
    def test_valid_call_builds_one_parser(self, capsys, parsers_built, name):
        assert main([name, *VALID_CALLS[name]]) == 0
        assert parsers_built == [f"bellvol {name}"]

    @pytest.mark.parametrize("argv", [["-h"], ["bogus"], [],
                                      ["--bogus", "membership"]])
    def test_other_argv_builds_the_whole_tree(self, capsys, parsers_built,
                                              argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert sorted(parsers_built) == sorted(
            ["bellvol", *(f"bellvol {name}" for name in VALID_CALLS)])


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


@pytest.mark.parametrize("command", [
    ["volume", "--region", "L", "--method", "mc"], ["ratios"]],
    ids=["volume", "ratios"])
def test_workers_come_from_the_flag_alone(capsys, monkeypatch, command):
    # no environment variable sets the worker count: a malformed
    # BELLVOL_WORKERS, once read as the default, changes nothing
    monkeypatch.delenv("BELLVOL_WORKERS", raising=False)
    unset = run_cli(capsys, *command, "--n", "100")
    monkeypatch.setenv("BELLVOL_WORKERS", "abc")
    assert run_cli(capsys, *command, "--n", "100") == unset
    assert unset[0] == 0 and unset[1]


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

    @pytest.mark.parametrize("abs_tol, message", [
        ("inf", "is not finite: inf"),
        ("1e-10", "is outside [1e-09, inf]: 1e-10")])
    def test_abs_tol_message_is_the_real_contract(self, capsys, abs_tol,
                                                  message):
        with pytest.raises(SystemExit) as err:
            main(["volume", "--region", "Q", "--method", "quadrature",
                  "--abs-tol", abs_tol])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"bellvol volume: error: argument --abs-tol: abs_tol {message}\n")

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

    def test_zero_error_rows_that_miss_their_closed_form(self, capsys):
        # the one sample of seed 9 lies in every region: each row has
        # standard error 0, and only the cube's V_L = 16 is exact; every
        # other row misses its closed form by infinitely many sigmas
        argv = ("ratios", "--n", "1", "--seed", "9")
        code, text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        report = json.loads(text)
        rows = {**{f"V_{k}": r for k, r in report["volumes"].items()},
                **report["ratios"], **report["excesses"]}
        assert all(r["std_error"] == 0.0 for r in rows.values())
        assert rows.pop("V_L")["deviation_sigmas"] is None
        assert rows["V_C"]["value"] == 16.0
        for r in rows.values():
            assert r["deviation_sigmas"] == math.copysign(
                math.inf, r["value"] - r["analytic"])
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        signs = {r["name"]: r["deviation_sigmas"]
                 for r in csv.DictReader(io.StringIO(out))}
        assert signs == {"V_L": "", **{name: "inf" if r["value"] > r["analytic"]
                                       else "-inf" for name, r in rows.items()}}

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "ratios", "--n", "20000", "--seed", "3",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "ratios", "--n", "20000", "--seed", "3",
                             "--format", "json")
        assert out1 == out2


@pytest.mark.parametrize("command", [
    ["ratios"], ["volume", "--region", "Q", "--method", "mc"]])
def test_output_does_not_depend_on_workers(capsys, monkeypatch, command):
    # --workers only sets speed: 2 workers score the one stream in two
    # processes (cpu_count is raised so that they do) and print its bytes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outs = [run_cli(capsys, *command, "--n", "20000", "--seed", "3",
                    "--format", "json", "--workers", workers)
            for workers in ("1", "2")]
    assert outs[0][0] == 0 and outs[0][1]
    assert outs[1] == outs[0]


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

    def test_volume_in_8d(self, capsys):
        for which, line in (("local", "volume: 2048/315 (6.50158730159)\n"),
                            ("ns", "volume: 2176/315 (6.90793650794)\n")):
            assert run_cli(capsys, "polytope", "--which", which,
                           "--task", "volume") == (0, line, "")


# (vertex count, facet count) and exact volume of each polytope the CLI knows
_POLYTOPE_COUNTS = {"local": (16, 24), "ns": (24, 16), "corrC": (8, 16)}
_POLYTOPE_VOLUMES = {"local": Fraction(2048, 315), "ns": Fraction(2176, 315),
                     "corrC": Fraction(32, 3)}
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
        vol = polytopes.exact_volume(poly)
        assert vol == _POLYTOPE_VOLUMES[which]
        assert out == f"volume: {vol} ({float(vol):.12g})\n"


# sha256 of the stdout of polytope --which W --task K: the vertex and facet
# texts, each rational in lowest terms and each list in canonical order
@pytest.mark.parametrize("which, task, digest", [
    ("ns", "vertices", "53d673aa17e5ddb618e48b2a843b0d2faafac373b03bf5e7298fe56761423bc9"),
    ("ns", "facets", "6f2be862610f7ad630e2977b00632a0c5f5e114d52d803c2b1c96edfdabc0bf3"),
    ("local", "vertices", "c05b8285aa90789fb2a6d69cc23deaff84022a9c90734de415002d3456532e91"),
    ("local", "facets", "0b734425b941b7bb486a0a8c1b7e35354b46bf97e70a7d46cd07f5da8ea9331d"),
    ("corrC", "vertices", "f7d2374498ec60cae935150611ec36063b2d5077a7190a24e83429e5186c6b54"),
    ("corrC", "facets", "71f3a3c95b273ac04e50c9be0c71e074ea63807d192e5cead5a34c4df8254791"),
], ids=["ns-vertices", "ns-facets", "local-vertices", "local-facets",
        "corrC-vertices", "corrC-facets"])
def test_polytope_text_bytes_are_pinned(capsys, which, task, digest):
    code, out, err = run_cli(capsys, "polytope", "--which", which,
                             "--task", task)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("which,table", [
        ("pr-box", polytopes.pr_box()),
        ("signaling", polytopes.signaling_example())])
    def test_json_probabilities_are_the_table_entries(self, capsys, which,
                                                      table):
        code, out, _ = run_cli(capsys, "examples", "--which", which,
                               "--format", "json")
        assert code == 0
        settings = json.loads(out)["settings"]
        assert [(s["i"], s["j"]) for s in settings] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        for k, setting in enumerate(settings):
            assert setting["p"] == dict(zip(
                ["++", "+-", "-+", "--"],
                map(str, table.entries[4 * k:4 * k + 4])))

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

    # sha256 of the stdout of sample-quantum, written by json.dumps per record,
    # from the PCG64DXSM stream of the seed
    @pytest.mark.parametrize("n, seed, digest", [
        (2000, 1, "b7c251b986960a7afdee12fdd934ca06e4bd86b3545347da89c7627e8849f5b3"),
        (5000, 77, "c53df9dd6f29d61a2846cc436e8d1363c55a575758ea475a3e192e7cc0eda3e2"),
        # more points than one block
        (1025, 2026, "d9eb8cc47f7d19c7536ed199e6f60ba72338cce76df33c7de1fdb887a86f3a95"),
    ], ids=["n2000-seed1", "n5000-seed77", "n1025-seed2026"])
    def test_output_bytes_are_pinned(self, capsys, n, seed, digest):
        code, out, _ = run_cli(capsys, "sample-quantum", "--n", str(n),
                               "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def reference_lines(n, seed, block):
        """The lines as one json.dumps per record writes them."""
        rng = np.random.Generator(np.random.PCG64DXSM(seed))
        lines = []
        for start in range(0, n, block):
            pts = quantum.sample_quantum_points(min(block, n - start), rng)
            profiles = membership_profiles(pts)
            assert len(profiles.margins) == len(PROFILE_ORDER)
            verdicts = zip(*[zip(inside.tolist(), margins.tolist())
                             for inside, margins in zip(profiles.inside,
                                                        profiles.margins)])
            for row, pairs in zip(pts.tolist(), verdicts):
                lines.append(json.dumps({**dict(zip(_FIELDS, row)),
                                         "profile": profile_record(pairs)}))
        return lines

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_lines_match_one_dump_per_record(self, capsys, monkeypatch, block):
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
        code, out, _ = run_cli(capsys, "sample-quantum", "--n", "1030",
                               "--seed", "5")
        assert code == 0
        assert out.splitlines() == self.reference_lines(1030, 5, block)
        assert out.endswith("}\n")

    def test_line_format_has_a_field_per_value(self):
        line = cli._sample_line()
        # the four coordinates, then (inside, margin) for each of 7 verdicts
        assert re.findall("%.", line.replace("%%", "")) == \
            ["%r"] * 4 + ["%s", "%r"] * 7
        assert line.endswith("}\n") and line.count("\n") == 1

    @settings(max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(0.0)
    @example(5e-324)                  # the smallest subnormal
    @example(-2.225073858507201e-308)  # the largest subnormal, negated
    @example(1.0)
    @example(-1.0)
    def test_repr_of_a_finite_float_is_its_json(self, x):
        assert "%r" % x == json.dumps(x)


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
