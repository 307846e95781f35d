"""Command-line interface.

Subcommands: membership, volume, ratios, polytope, examples, sample-quantum,
distance.  Exit codes: 0 success, 1 computation error, 2 usage error; a
reader that closes stdout early ends the command with exit 1 and no
traceback.
Outputs contain no timestamps, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import polytopes, quantum, toggles, volumes
from .regions import (
    DEFAULT_TOLERANCE,
    RegionId,
    check_tolerance,
    chsh_value,
    in_local,
    in_quantum_arcsin,
    membership_profile,
    membership_profiles,
    profile_record,
)

_POINT_KEYS = ("c00", "c01", "c10", "c11")

#: Points drawn and scored at a time by sample-quantum: large enough to
#: amortize numpy's per-call cost, small enough to keep memory flat in --n.
_SAMPLE_BLOCK = 1024


def _integer(low: int, high: int | None = None):
    """An argparse type accepting the integers in [low, high)."""
    bounds = f">= {low}" if high is None else f"in [{low}, {high})"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    return parse


_count = _integer(1)  # sample counts and workers
_seed = _integer(0, 2 ** 64)


def _workers_from_env(args, parser: argparse.ArgumentParser) -> None:
    """Fill an unset --workers from BELLVOL_WORKERS (default 1)."""
    if getattr(args, "workers", 0) is not None:
        return
    raw = os.environ.get("BELLVOL_WORKERS", "1")
    try:
        args.workers = _count(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"environment variable BELLVOL_WORKERS: {exc}")


def _checked_float(check):
    """An argparse type accepting the floats that ``check`` does not reject
    with ValueError."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a number: {text!r}") from None
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value
    return parse


_abs_tol = _checked_float(volumes.check_abs_tol)
_tolerance = _checked_float(check_tolerance)


def _parse_point(text: str, flag: str,
                 parser: argparse.ArgumentParser) -> tuple[float, ...]:
    """Accept '{"c00": ...}' JSON or inline 'c00,c01,c10,c11' given to
    ``flag``; errors name the flag."""

    def error(message: str):
        parser.error(f"argument {flag}: {message}")

    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            error(f"malformed point JSON: {exc}")
        if not isinstance(obj, dict):
            error("point JSON must be an object")
        unknown = sorted(set(obj) - set(_POINT_KEYS))
        if unknown:
            error(f"unknown point field '{unknown[0]}'")
        vals = []
        for key in _POINT_KEYS:
            if key not in obj:
                error(f"point JSON missing field '{key}'")
            v = obj[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                error(f"point field '{key}' is not a number")
            vals.append(float(v))
    else:
        parts = text.split(",")
        if len(parts) != 4:
            error("inline point must be 'c00,c01,c10,c11'")
        vals = []
        for key, part in zip(_POINT_KEYS, parts):
            try:
                vals.append(float(part))
            except ValueError:
                error(f"point field '{key}' is not a number: {part!r}")
    for key, v in zip(_POINT_KEYS, vals):
        if not math.isfinite(v):
            error(f"point field '{key}' is not finite: {v!r}")
        if not -1.0 <= v <= 1.0:
            error(f"point field '{key}' is outside [-1, 1]: {v!r}")
    return tuple(vals)


def _emit_table(rows: list[dict], headers: list[str]) -> str:
    cells = [[_fmt(r.get(h)) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for c in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip())
    return "\n".join(out)


def _emit_csv(rows: list[dict], headers: list[str]) -> str:
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
        print(json.dumps(json_obj, indent=2))
    elif args.format == "csv":
        print(_emit_csv(rows, headers))
    else:
        print(_emit_table(rows, headers))


# -- membership --------------------------------------------------------------

def _cmd_membership(args, parser):
    point = _parse_point(args.point, "--point", parser)
    profile = membership_profile(point, tol=args.tolerance)
    # the five regions (Q as arcsin), then the other two Q characterizations
    rows = [res.as_dict() for res in (*profile.regions().values(),
                                      profile.quantum_landau,
                                      profile.quantum_sextic)]
    json_obj = {"point": dict(zip(_POINT_KEYS, point)),
                "profile": profile.as_dict()}
    _emit(args, rows, ["region", "characterization", "inside", "margin"], json_obj)
    return 0


# -- volume ------------------------------------------------------------------

def _cmd_volume(args, parser):
    region = RegionId(args.region)
    if args.method == "mc":
        cfg = volumes.EstimatorConfig(sample_count=args.n, seed=args.seed,
                                      worker_count=args.workers)
        record = volumes.mc_volume(region, cfg).as_json_record()
    elif args.method == "quadrature":
        record = volumes.quadrature_volume(
            region, abs_tol=args.abs_tol).as_json_record()
    else:  # exact
        if region not in (RegionId.LOCAL_C, RegionId.NO_SIGNALING_L):
            parser.error(f"--method exact supports regions C and L, not"
                         f" {region.value}")
        frac = volumes.exact_region_volume(region)
        record = volumes.VolumeEstimate(
            region=region.value, method="exact", value=float(frac),
            std_error=0.0, error_bound=0.0).as_json_record()
        record["exact"] = str(frac)
    _emit(args, [record], ["region", "method", "value", "std_error",
                           "error_bound", "n", "seed"], record)
    return 0


# -- ratios ------------------------------------------------------------------

def _cmd_ratios(args, parser):
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

_POLYTOPES = {"local": polytopes.local_polytope_v,
              "ns": polytopes.ns_polytope_h,
              "corrC": polytopes.correlation_polytope_C}


def _cmd_polytope(args, parser):
    poly = _POLYTOPES[args.which]()
    if args.task == "volume" and poly.dim > 4:
        parser.error(f"--task volume needs dimension <= 4; '{args.which}'"
                     f" has dimension {poly.dim}")
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
    rows = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        row = {"i": i, "j": j}
        for a, label_a in ((1, "+"), (-1, "-")):
            for b, label_b in ((1, "+"), (-1, "-")):
                row[label_a + label_b] = str(table.entry(i, j, a, b))
        rows.append(row)
    return rows


def _cmd_examples(args, parser):
    table = polytopes.pr_box() if args.which == "pr-box" \
        else polytopes.signaling_example()
    rows = _table_rows(table)
    json_obj = {"which": args.which,
                "settings": [{"i": r["i"], "j": r["j"],
                              "p": {k: r[k] for k in ("++", "+-", "-+", "--")}}
                             for r in rows]}
    checks = []
    ns_ok, discrepancy = polytopes.check_no_signaling(table)
    point = [float(ab) for _, _, ab in table.expectations().values()]
    if args.which == "pr-box":
        behavior = polytopes.behavior_from_table(table)
        checks.append(("no-signaling holds", ns_ok))
        checks.append(("marginals all zero",
                       all(behavior.as_vector()[k] == 0 for k in range(4))))
        checks.append(("correlations (1, 1, 1, -1)",
                       tuple(behavior.as_vector()[4:]) == (1, 1, 1, -1)))
        checks.append(("CHSH functional at (1,1) equals 4",
                       abs(chsh_value(point, 1, 1) - 4.0) < 1e-12))
        checks.append(("outside the local set",
                       not in_local(point).inside))
        checks.append(("outside the quantum set",
                       not in_quantum_arcsin(point).inside))
    else:
        checks.append(("no-signaling violated", not ns_ok))
        checks.append(("max marginal discrepancy 1", discrepancy == 1))
        checks.append(("projection (0, 0, 0, 0)",
                       point == [0.0, 0.0, 0.0, 0.0]))
        checks.append(("projection satisfies all CHSH inequalities",
                       in_local(point).inside))
    json_obj["projection"] = dict(zip(_POINT_KEYS, point))
    if args.verify:
        json_obj["checks"] = {name: bool(ok) for name, ok in checks}
    _emit(args, rows, ["i", "j", "++", "+-", "-+", "--"], json_obj)
    if args.verify and args.format != "json":
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if args.verify and not all(ok for _, ok in checks):
        return 1
    return 0


# -- sample-quantum ----------------------------------------------------------

def _cmd_sample_quantum(args, parser):
    key = np.array([args.seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    for start in range(0, args.n, _SAMPLE_BLOCK):
        block = quantum.sample_quantum_points(
            min(_SAMPLE_BLOCK, args.n - start), rng)
        profiles = membership_profiles(block)
        for row, verdicts in zip(block.tolist(), profiles.verdicts()):
            rec = dict(zip(_POINT_KEYS, row))
            rec["profile"] = profile_record(verdicts)
            print(json.dumps(rec))
    return 0


# -- distance ----------------------------------------------------------------

def _cmd_distance(args, parser):
    p = _parse_point(getattr(args, "from"), "--from", parser)
    q = _parse_point(args.to, "--to", parser)
    dist = toggles.toggle_distance(p, q)
    obj = {"from": dict(zip(_POINT_KEYS, p)), "to": dict(zip(_POINT_KEYS, q))}
    obj.update(dist.as_dict())
    print(json.dumps(obj, indent=2))
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellvol",
        description="Memberships, volumes and volume ratios of the nested"
                    " two-party correlation sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")

    p = sub.add_parser("membership", help="membership profile of one point")
    p.add_argument("--point", required=True,
                   help="JSON object with c00..c11 or inline 'c00,c01,c10,c11'")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    add_format(p)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("volume", help="volume of one region")
    p.add_argument("--region", required=True,
                   choices=sorted(r.value for r in RegionId))
    p.add_argument("--method", choices=("mc", "quadrature", "exact"),
                   default="mc")
    p.add_argument("--n", type=_count, default=10_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_count, default=None)
    p.add_argument("--abs-tol", type=_abs_tol, default=1e-6)
    add_format(p)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("ratios", help="headline volume/ratio table")
    p.add_argument("--n", type=_count, default=10_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_count, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("polytope", help="vertex/facet enumeration and volume")
    p.add_argument("--which", required=True, choices=_POLYTOPES)
    p.add_argument("--task", required=True,
                   choices=("vertices", "facets", "counts", "volume"))
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("examples", help="reference probability tables")
    p.add_argument("--which", required=True, choices=("pr-box", "signaling"))
    p.add_argument("--verify", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("sample-quantum",
                       help="sample quantum points as JSON lines")
    p.add_argument("--n", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_sample_quantum)

    p = sub.add_parser("distance", help="toggle distance between two points")
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--to", required=True)
    p.set_defaults(func=_cmd_distance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _workers_from_env(args, parser)
    try:
        return args.func(args, parser)
    except (volumes.ToleranceNotMet, volumes.DegenerateDenominator,
            polytopes.PolytopeError, ValueError) as exc:
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
