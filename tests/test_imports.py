"""What the package loads: each command loads the modules it computes with
and no others, the commands that compute no arrays run without numpy, and
every public name of ``bellvol`` is its home module's object, whether
imported eagerly or on first access."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bellvol

#: Every public name ``bellvol`` exported before ``volumes`` and ``quantum``
#: were imported on first access, by home module.  Five of them moved from
#: ``volumes`` to ``estimates``.  ``volumes`` re-exports four: each is listed
#: under both, so both modules must hold the one object.
EXPORTS = {
    "regions": """DEFAULT_TOLERANCE TSIRELSON_BOUND CorrelationPoint
        MembershipProfile MembershipResult QCharacterization RegionId
        chsh_value in_box_L in_local in_quantum_arcsin in_quantum_landau
        in_quantum_sextic in_tsirelson_T in_uffink_U membership_profile
        membership_profiles region_margins region_mask""",
    "polytopes": """Behavior DegeneratePolytope Halfspace
        JointProbabilityTable NoSignalingViolation RationalPolytope
        UnboundedPolytope behavior_from_table check_no_signaling
        correlation_polytope_C cube_polytope_h deterministic_behaviors
        enumerate_facets enumerate_vertices exact_volume local_polytope_v
        ns_polytope_h pr_box project_to_correlations signaling_example""",
    "volumes": """ANALYTIC DegenerateDenominator EstimatorConfig
        VolumeEstimate exact_region_volume headline_report mc_volume
        quadrature_volume ratio_estimate""",
    "estimates": """ANALYTIC ToleranceNotMet VolumeEstimate
        exact_region_volume quadrature_volume""",
    "quantum": """BlochDirection MeasurementSettings TwoQubitState
        chsh_optimal_settings correlation_point sample_quantum_points
        singlet""",
    "toggles": """MinToggleResult OutcomeSequence TargetUnreachable
        ToggleDistance min_toggles toggle_distance""",
}

#: (argv, exit code) of every command that must run without numpy.
NUMPY_FREE = [
    (["membership", "--point", "-0.5,0.5,0.5,0.5"], 0),
    (["membership", "--point", '{"c00": 1, "c01": 1, "c10": 1, "c11": -1}',
      "--format", "json", "--tolerance", "1e-9"], 0),
    (["distance", "--from", "-1,0,0,0", "--to", "0.5,0,0,0.25"], 0),
    (["examples", "--which", "pr-box", "--verify"], 0),
    (["examples", "--which", "signaling", "--verify", "--format", "csv"], 0),
    *[(["polytope", "--which", which, "--task", task], 0)
      for which in ("local", "ns", "corrC")
      for task in ("vertices", "facets", "counts", "volume")],
    *[(["volume", "--region", region, "--method", "exact", "--format", fmt], 0)
      for region in ("C", "L") for fmt in ("table", "json", "csv")],
    # C, T and L quadrature is one numpy-free pass in estimates
    *[(["volume", "--region", region, "--method", "quadrature", "--format",
        fmt], 0)
      for region in ("C", "T", "L") for fmt in ("table", "json", "csv")],
    # --abs-tol is checked by the numpy-free estimates, whatever the method
    (["volume", "--region", "C", "--method", "exact", "--abs-tol", "1e-6"], 0),
    (["volume", "--region", "Q", "--method", "exact"], 2),
    (["membership", "--point", "2,0,0,0"], 2),
    (["distance", "--from", "0,0,0,0", "--to", "0,nan,0,0"], 2),
]

#: The modules whose loading is pinned per command: the package's own beyond
#: ``regions``, and the standard and third-party ones they bring in.
WATCHED = ("bellvol.polytopes", "bellvol.toggles", "bellvol.estimates",
           "bellvol.volumes", "bellvol.quantum", "fractions", "csv", "json",
           "numpy", "dataclasses", "inspect")

#: What defining a dataclass loads.  Every record of the package is a
#: NamedTuple but ``estimates.VolumeEstimate``, so only the commands that
#: load ``estimates`` load these.
DATACLASSES = {"dataclasses", "inspect"}

#: (an import statement or a command's argv, the watched modules it loads);
#: it must load none of the others.  Each runs in a fresh interpreter, as
#: modules pile up within one.
LOADS = [
    ("import bellvol", set()),
    ("import bellvol.cli", set()),
    (["membership", "--point", "-0.5,0.5,0.5,0.5"], set()),
    (["membership", "--point", "0.7,0.7,0.7,-0.7", "--format", "csv"],
     {"csv"}),
    (["membership", "--point", "0.7,0.7,0.7,-0.7", "--format", "json"],
     {"json"}),
    (["membership", "--point", '{"c00": 1, "c01": 1, "c10": 1, "c11": -1}'],
     {"json"}),
    (["distance", "--from", "-1,0,0,0", "--to", "0.5,0,0,0.25"],
     {"bellvol.toggles", "fractions", "json"}),
    (["examples", "--which", "pr-box", "--verify"],
     {"bellvol.polytopes", "fractions"}),
    (["polytope", "--which", "ns", "--task", "counts"],
     {"bellvol.polytopes", "fractions"}),
    (["volume", "--region", "C", "--method", "exact"],
     {"bellvol.polytopes", "bellvol.estimates", "fractions"} | DATACLASSES),
    (["volume", "--region", "Q", "--method", "mc", "--n", "1000"],
     {"bellvol.estimates", "bellvol.volumes", "numpy"} | DATACLASSES),
    *[(["volume", "--region", region, "--method", "quadrature"],
       {"bellvol.estimates"} | DATACLASSES)
      for region in ("C", "T", "L")],
    # Q and U quadrature compute with arrays in estimates, not in volumes
    *[(["volume", "--region", region, "--method", "quadrature", *tol],
       {"bellvol.estimates", "numpy"} | DATACLASSES)
      for region in ("Q", "U") for tol in ([], ["--abs-tol", "1e-9"])],
    (["ratios", "--n", "1000"],
     {"bellvol.estimates", "bellvol.volumes", "numpy"} | DATACLASSES),
    (["sample-quantum", "--n", "3"],
     {"bellvol.estimates", "bellvol.volumes", "bellvol.quantum", "numpy",
      "json"} | DATACLASSES),
]

# argv[1] is the watched modules, space-separated; runs argv[3] with exec
# if argv[2] is "exec", else argv[3:] through cli.main to exit 0 with its
# output dropped, then prints the watched modules loaded, space-separated.
# It loads no json of its own, which is watched
_LOADS_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys

    watched, how, *target = sys.argv[1:]
    if how == "exec":
        exec(*target)
    else:
        from bellvol import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(target)
        assert code == 0, (target, code)
    print(*sorted(set(watched.split()) & set(sys.modules)))
""")

# runs NUMPY_FREE (argv[1], as JSON) in a fresh interpreter, then one
# computation error of a numpy-free command; exits nonzero naming the first
# step after which numpy is loaded or the exit code is wrong
_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys

    def check(step):
        if "numpy" in sys.modules:
            sys.exit(f"numpy loaded by {step}")

    def run(argv, code):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                got = cli.main(argv)
            except SystemExit as exc:
                got = exc.code
        if got != code:
            sys.exit(f"{argv}: exit {got}, expected {code}")
        check(argv)

    import bellvol
    check("import bellvol")
    from bellvol import cli, polytopes
    check("import bellvol.cli")
    for argv, code in json.loads(sys.argv[1]):
        run(argv, code)

    def fail(poly):
        raise polytopes.DegeneratePolytope("injected")

    polytopes.enumerate_facets = fail
    run(["polytope", "--which", "local", "--task", "facets"], 1)
""")


def _python(*args: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_commands_without_arrays_do_not_load_numpy():
    proc = _python(_SCRIPT, json.dumps(NUMPY_FREE))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("target, loads", LOADS, ids=[
    target if isinstance(target, str) else " ".join(target)
    for target, _ in LOADS])
def test_each_command_loads_only_the_modules_it_computes_with(target, loads):
    how = ["exec", target] if isinstance(target, str) else ["main", *target]
    proc = _python(_LOADS_SCRIPT, " ".join(WATCHED), *how)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loads


def test_array_modules_resolve_after_a_plain_import():
    proc = _python(textwrap.dedent("""
        import sys, types
        import bellvol
        assert "numpy" not in sys.modules
        assert {"volumes", "quantum", "mc_volume", "singlet"} <= set(dir(bellvol))
        assert not hasattr(bellvol, "no_such_name")
        for name in ("volumes", "quantum", "polytopes", "toggles"):
            module = getattr(bellvol, name)
            assert isinstance(module, types.ModuleType), module
            assert module is sys.modules[f"bellvol.{name}"]
        from bellvol import mc_volume, singlet
        assert mc_volume is bellvol.volumes.mc_volume
        assert singlet is bellvol.quantum.singlet
    """))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("home, name", [
    (home, name) for home, names in EXPORTS.items() for name in names.split()])
def test_public_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"bellvol.{home}")
    assert getattr(bellvol, name) is getattr(module, name)


def test_quadrature_builds_no_rule_with_numpy_polynomial():
    # the Gauss-Legendre rules are a stored table: even U at 1e-9, which
    # reaches order 32, must not load numpy.polynomial (leggauss)
    proc = _python(textwrap.dedent("""
        import contextlib, io, sys
        from bellvol.cli import main
        argv = ["volume", "--region", "U", "--method", "quadrature",
                "--abs-tol", "1e-9"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert "numpy" in sys.modules
        assert "numpy.polynomial" not in sys.modules
    """))
    assert proc.returncode == 0, proc.stderr
