"""Command-line interface.

Subcommands: membership, volume, ratios, polytope, examples, sample-quantum,
distance.  Exit codes: 0 success, 1 computation error, 2 usage error; a
reader that closes stdout early ends the command with exit 1 and no
traceback.  Every error class of bellvol is a ValueError, so ``main``
catches that one type and prints ``error: <message>`` with exit 1, whichever
module raised it.  Every usage error, flag values (checked by the library
through one argparse type adapter) and unknown flags included, prints ``usage:
bellvol <cmd>`` and ``bellvol <cmd>: error:``.  Each subcommand is written
once, in ``_COMMANDS``: a call that starts with one builds one parser, that
subcommand's alone, and only any other argv (none, ``-h``, an unknown
command) builds the whole tree.  A value of a minus sign and a digit or
``.`` is joined to the flag before it, whole or abbreviated (``--poi
-0.5,0,0,0``).
Outputs contain no timestamps, so identical invocations produce identical
bytes.  Each command imports the modules it computes with where it uses
them, and no others: membership needs nothing beyond ``regions``, distance
loads ``toggles``, examples and polytope the exact engine ``polytopes``,
volume --method exact ``estimates`` and ``polytopes``, volume --method
quadrature ``estimates`` alone, volume --method mc and ratios ``volumes``,
and sample-quantum ``volumes`` and ``quantum``.  Only volume --method mc,
volume --method quadrature for Q and U, ratios and sample-quantum load
numpy.  ``csv`` and ``json`` are loaded only by a command that writes or
reads them.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from typing import TYPE_CHECKING

from .regions import (
    _FIELDS,
    DEFAULT_TOLERANCE,
    CorrelationPoint,
    QCharacterization,
    RegionId,
    _index,
    check_tolerance,
    chsh_value,
    membership_profile,
    membership_profiles,
    profile_record,
)

#: Points drawn and scored at a time by sample-quantum: large enough to
#: amortize numpy's per-call cost, small enough to keep memory flat in --n.
_SAMPLE_BLOCK = 1024

if TYPE_CHECKING:
    from . import polytopes


def _argument(parse):
    """An argparse type for ``parse(text)``: a ValueError it raises becomes
    ArgumentTypeError, which argparse reports as a usage error (exit 2)
    naming the flag, under the subcommand's usage line."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _number(kind, text: str):
    """``text`` read as an int or a float; ValueError names a bad one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"not {what}: {text!r}") from None


def _parse_point(text: str) -> CorrelationPoint:
    """A point given as '{"c00": ...}' JSON or inline 'c00,c01,c10,c11',
    checked by ``CorrelationPoint``; ValueError says what is wrong."""
    text = text.strip()
    if text.startswith("{"):
        import json
        try:  # integers read as floats: a huge one is then inf, not an error
            obj = json.loads(text, parse_int=float)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed point JSON: {exc}") from None
        unknown = sorted(set(obj) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown point field '{unknown[0]}'")
        vals = []
        for key in _FIELDS:
            if key not in obj:
                raise ValueError(f"point JSON missing field '{key}'")
            vals.append(obj[key])
    else:
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError("inline point must be 'c00,c01,c10,c11'")
        vals = []
        for key, part in zip(_FIELDS, parts):
            try:
                vals.append(float(part))
            except ValueError:
                raise ValueError(
                    f"point field '{key}' is not a number: {part!r}") from None
    return CorrelationPoint(*vals)


_count = _argument(lambda text: _index("value", _number(int, text), 1))
_seed = _argument(lambda text: _index("value", _number(int, text), 0, 2 ** 64))
_tolerance = _argument(lambda text: check_tolerance(_number(float, text)))
_point = _argument(_parse_point)


@_argument
def _abs_tol(text: str) -> float:
    from .estimates import check_abs_tol
    return check_abs_tol(_number(float, text))


def _emit_table(rows: list[dict], headers: list[str]) -> str:
    cells = [[_fmt(r.get(h)) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for c in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip())
    return "\n".join(out)


def _emit_csv(rows: list[dict], headers: list[str]) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({h: _fmt(r.get(h)) for h in headers})
    return buf.getvalue().rstrip("\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _emit(args, rows: list[dict], headers: list[str], json_obj) -> None:
    if args.format == "json":
        import json
        print(json.dumps(json_obj, indent=2))
    elif args.format == "csv":
        print(_emit_csv(rows, headers))
    else:
        print(_emit_table(rows, headers))


# -- membership --------------------------------------------------------------

def _cmd_membership(args):
    profile = membership_profile(args.point, tol=args.tolerance)
    # the five regions (Q as arcsin), then the other two Q characterizations
    quantum = profile.quantum()
    rows = [res.as_dict() for res in (*profile.regions().values(),
                                      quantum[QCharacterization.LANDAU],
                                      quantum[QCharacterization.SEXTIC])]
    json_obj = {"point": dict(zip(_FIELDS, args.point)),
                "profile": profile.as_dict()}
    _emit(args, rows, ["region", "characterization", "inside", "margin"], json_obj)
    return 0


# -- volume ------------------------------------------------------------------

def _cmd_volume(args):
    region = RegionId(args.region)
    if args.method == "mc":
        from . import volumes
        cfg = volumes.EstimatorConfig(sample_count=args.n, seed=args.seed,
                                      worker_count=args.workers)
        record = volumes.mc_volume(region, cfg).as_json_record()
    elif args.method == "quadrature":
        from . import estimates
        record = estimates.quadrature_volume(
            region, abs_tol=args.abs_tol).as_json_record()
    else:  # exact
        from . import estimates
        if region not in (RegionId.LOCAL_C, RegionId.NO_SIGNALING_L):
            args.parser.error(f"--method exact supports regions C and L,"
                              f" not {region.value}")
        frac = estimates.exact_region_volume(region)
        record = estimates.VolumeEstimate(
            region=region.value, method="exact", value=float(frac),
            std_error=0.0, error_bound=0.0).as_json_record()
        record["exact"] = str(frac)
    _emit(args, [record], ["region", "method", "value", "std_error",
                           "error_bound", "n", "seed"], record)
    return 0


# -- ratios ------------------------------------------------------------------

def _cmd_ratios(args):
    from . import volumes
    cfg = volumes.EstimatorConfig(sample_count=args.n, seed=args.seed,
                                  worker_count=args.workers)
    report = volumes.headline_report(cfg)
    rows = [{**rec, "kind": kind, "name": prefix + name}
            for kind, prefix, section in (("volume", "V_", "volumes"),
                                          ("ratio", "", "ratios"),
                                          ("excess", "", "excesses"))
            for name, rec in report[section].items()]
    _emit(args, rows,
          ["kind", "name", "value", "std_error", "analytic", "deviation_sigmas"],
          report)
    return 0


# -- polytope ----------------------------------------------------------------

#: The builder in ``polytopes`` of each --which, looked up when it runs.
_POLYTOPES = {"local": "local_polytope_v",
              "ns": "ns_polytope_h",
              "corrC": "correlation_polytope_C"}


def _cmd_polytope(args):
    from . import polytopes
    poly = getattr(polytopes, _POLYTOPES[args.which])()
    # complete the representations the task reads, each at most once
    if poly.vertices is None and args.task != "facets":
        poly = polytopes.enumerate_vertices(poly)
    if poly.halfspaces is None and args.task in ("facets", "counts"):
        poly = polytopes.enumerate_facets(poly)
    if args.task == "vertices":
        sys.stdout.write(poly.to_text("V"))
    elif args.task == "facets":
        sys.stdout.write(poly.to_text("H"))
    elif args.task == "counts":
        print(f"vertices: {len(poly.vertices)}, facets: {len(poly.halfspaces)}")
    else:
        vol = polytopes.exact_volume(poly)
        print(f"volume: {vol} ({float(vol):.12g})")
    return 0


# -- examples ----------------------------------------------------------------

def _table_rows(table: polytopes.JointProbabilityTable) -> list[dict]:
    """One row per setting block, its entries keyed by outcome signs."""
    from . import polytopes
    rows = {}
    for (i, j, a, b), p in zip(polytopes._OUTCOMES, table.entries):
        row = rows.setdefault((i, j), {"i": i, "j": j})
        row[f"{a:+d}"[0] + f"{b:+d}"[0]] = str(p)
    return list(rows.values())


def _cmd_examples(args):
    from . import polytopes
    table = polytopes.pr_box() if args.which == "pr-box" \
        else polytopes.signaling_example()
    rows = _table_rows(table)
    headers = list(rows[0])  # i, j, then the four outcome labels
    json_obj = {"which": args.which,
                "settings": [{"i": r["i"], "j": r["j"],
                              "p": {k: r[k] for k in headers[2:]}}
                             for r in rows]}
    ns_ok, discrepancy = polytopes.check_no_signaling(table)
    expectations = table.expectations().values()
    correlations = [ab for _, _, ab in expectations]
    point = [float(ab) for ab in correlations]
    profile = membership_profile(point)
    local = profile.result(RegionId.LOCAL_C).inside
    if args.which == "pr-box":
        checks = [
            ("no-signaling holds", ns_ok),
            ("marginals all zero", all(a == b == 0 for a, b, _ in expectations)),
            ("correlations (1, 1, 1, -1)", correlations == [1, 1, 1, -1]),
            ("CHSH functional at (1,1) equals 4",
             abs(chsh_value(point, 1, 1) - 4.0) < 1e-12),
            ("outside the local set", not local),
            ("outside the quantum set",
             not profile.result(RegionId.QUANTUM_Q).inside)]
    else:
        checks = [
            ("no-signaling violated", not ns_ok),
            ("max marginal discrepancy 1", discrepancy == 1),
            ("projection (0, 0, 0, 0)", point == [0.0, 0.0, 0.0, 0.0]),
            ("projection satisfies all CHSH inequalities", local)]
    json_obj["projection"] = dict(zip(_FIELDS, point))
    if args.verify:
        json_obj["checks"] = {name: bool(ok) for name, ok in checks}
    _emit(args, rows, headers, json_obj)
    if args.verify and args.format != "json":
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if args.verify and not all(ok for _, ok in checks):
        return 1
    return 0


# -- sample-quantum ----------------------------------------------------------

def _sample_line() -> str:
    """The %-format of one sample-quantum line, derived from the record
    layout of ``profile_record``: the record is dumped once with markers,
    then each float marker becomes ``%r`` and each verdict marker ``%s``.
    Its arguments are the point's four coordinates, then (``"true"`` or
    ``"false"``, margin) for each verdict in ``PROFILE_ORDER``.  ``%r`` of a
    finite float is its JSON text, and every value here is finite: the
    points lie in the cube and each kernel is bounded on it."""
    import json
    value, verdict = "\0value", "\0verdict"
    text = json.dumps({**dict.fromkeys(_FIELDS, value),
                       "profile": profile_record([(verdict, value)] * 7)})
    return (text.replace("%", "%%").replace(json.dumps(value), "%r")
            .replace(json.dumps(verdict), "%s") + "\n")


def _cmd_sample_quantum(args):
    from . import quantum, volumes
    rng = volumes.sample_stream(args.seed)
    line = _sample_line()
    for start in range(0, args.n, _SAMPLE_BLOCK):
        block = quantum.sample_quantum_points(
            min(_SAMPLE_BLOCK, args.n - start), rng)
        profiles = membership_profiles(block)
        # one list per format argument, one entry per point
        columns = block.T.tolist()
        for inside, margins in zip(profiles.inside, profiles.margins):
            columns += [[("false", "true")[v] for v in inside.tolist()],
                        margins.tolist()]
        sys.stdout.writelines(line % values for values in zip(*columns))
    return 0


# -- distance ----------------------------------------------------------------

def _cmd_distance(args):
    import json

    from . import toggles
    p, q = getattr(args, "from"), args.to
    dist = toggles.toggle_distance(p, q)
    obj = {"from": dict(zip(_FIELDS, p)), "to": dict(zip(_FIELDS, q))}
    obj.update(dist.as_dict())
    print(json.dumps(obj, indent=2))
    return 0


# -- parser ------------------------------------------------------------------

def _add_format(p):
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")


def _membership_args(p):
    p.add_argument("--point", required=True, type=_point,
                   help="JSON object with c00..c11 or inline 'c00,c01,c10,c11'")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    _add_format(p)
    return _cmd_membership


def _volume_args(p):
    p.add_argument("--region", required=True,
                   choices=sorted(r.value for r in RegionId))
    p.add_argument("--method", choices=("mc", "quadrature", "exact"),
                   default="mc")
    p.add_argument("--n", type=_count, default=10_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--abs-tol", type=_abs_tol, default=1e-6)
    _add_format(p)
    return _cmd_volume


def _ratios_args(p):
    p.add_argument("--n", type=_count, default=10_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_count, default=1)
    _add_format(p)
    return _cmd_ratios


def _polytope_args(p):
    p.add_argument("--which", required=True, choices=_POLYTOPES)
    p.add_argument("--task", required=True,
                   choices=("vertices", "facets", "counts", "volume"))
    return _cmd_polytope


def _examples_args(p):
    p.add_argument("--which", required=True, choices=("pr-box", "signaling"))
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    return _cmd_examples


def _sample_quantum_args(p):
    p.add_argument("--n", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    return _cmd_sample_quantum


def _distance_args(p):
    p.add_argument("--from", required=True, dest="from", type=_point)
    p.add_argument("--to", required=True, type=_point)
    return _cmd_distance


#: Each subcommand once: name -> (help line, adder).  The adder adds the
#: subcommand's arguments to a parser and returns the command's handler.
_COMMANDS = {
    "membership": ("membership profile of one point", _membership_args),
    "volume": ("volume of one region", _volume_args),
    "ratios": ("headline volume/ratio table", _ratios_args),
    "polytope": ("vertex/facet enumeration and volume", _polytope_args),
    "examples": ("reference probability tables", _examples_args),
    "sample-quantum": ("sample quantum points as JSON lines",
                       _sample_quantum_args),
    "distance": ("toggle distance between two points", _distance_args),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``p`` with subcommand ``name``'s arguments.  The checks argparse cannot
    express report through ``p``, so under the subcommand's usage line."""
    p.set_defaults(func=_COMMANDS[name][1](p), parser=p)
    return p


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone, for ``argv[1:]``: the same
    usage, help and errors as ``build_parser()``'s subparser of that name."""
    return _fill(argparse.ArgumentParser(prog=f"bellvol {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree; ``main`` needs it only for an argv that does
    not start with a subcommand (none, ``-h``, an unknown command, a leading
    option)."""
    parser = argparse.ArgumentParser(
        prog="bellvol",
        description="Memberships, volumes and volume ratios of the nested"
                    " two-party correlation sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -0.5,0,0,0 or -inf,0,0,0 for a flag:
    # join it to the flag before it, whole or abbreviated
    for k in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[^=]+", argv[k - 1]) and re.match(
                r"-([0-9.]|inf|nan)", argv[k], re.IGNORECASE):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    if argv and argv[0] in _COMMANDS:
        args = command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every bellvol error is one
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point stdout at devnull so
        # the interpreter's final flush cannot raise again, and exit 1 quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
