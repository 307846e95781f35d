"""The four workloads: the operations each cycle runs, and their checks.

Every operation is either one in-process ``bellvol.cli.main(argv)`` call with
stdout captured, or one call to a public library function.  A check raises
``CheckFailed``; the harness then counts the operation as failed.  Checks
never skip, drop or re-draw data.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs

CHAIN = ("C", "Q", "U", "T", "L")


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Sizes:
    mc_samples: int = 4_000_000
    quad_abs_tol: float = 1e-7
    quantum_points: int = 5000
    profile_points: int = 4000
    setup_repeats: int = 5


FULL = Sizes()
#: Small enough for the smoke test: every operation still runs and is checked.
SMOKE = Sizes(mc_samples=20_000, quad_abs_tol=1e-4, quantum_points=50,
              profile_points=200, setup_repeats=1)


@dataclass
class Op:
    """One timed operation.  ``metric`` names the workload timing it adds
    to: a timing is the sum over its operations of each one's median."""

    metric: str
    argv: list[str] | None = None          # a CLI call ...
    call: Callable[[], object] | None = None   # ... or a library call
    check: Callable[[object], None] = lambda out: None
    label: str = ""     # tells apart operations that share a metric
    # filled in by the harness
    seconds: float = 0.0
    error: str | None = None
    output: object = field(default=None, repr=False)


@dataclass
class Workload:
    name: str
    cycle: Callable[[int], list[Op]]        # operations of cycle k
    after: Callable[[], list[Op]] = lambda: []   # untimed checks at the end
    values: dict = field(default_factory=dict)   # filled by checks
    reference: str = "python"   # run.REFERENCE_KERNELS key for scaling


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _within_sigmas(name: str, value: float, err: float, ref: float,
                   k: float = 5.0) -> None:
    if err == 0.0:
        _require(value == ref, f"{name}: {value!r} != {ref!r} with zero error")
    else:
        dev = (value - ref) / err
        _require(abs(dev) <= k, f"{name}: {dev:+.2f} sigma from {ref!r}")


# -- mc ----------------------------------------------------------------------

def _check_ratios(n: int, seed: int):
    def check(out: str) -> None:
        rep = json.loads(out)
        _require((rep["n"], rep["seed"]) == (n, seed), "n/seed echoed wrongly")
        for r, ref in refs.VOLUMES.items():
            rec = rep["volumes"][r]
            _within_sigmas(f"V_{r}", rec["value"], rec["std_error"], ref)
        for name, ref in refs.RATIOS.items():
            rec = rep["ratios"][name]
            _within_sigmas(name, rec["value"], rec["std_error"], ref)
        for name, ref in refs.EXCESSES.items():
            rec = rep["excesses"][name]
            _within_sigmas(name, rec["value"], rec["std_error"], ref)
    return check


def _check_mc_volume(region: str, n: int, seed: int):
    def check(out: str) -> None:
        rec = json.loads(out)
        _require((rec["region"], rec["n"], rec["seed"]) == (region, n, seed),
                 "region/n/seed echoed wrongly")
        _within_sigmas(f"V_{region}", rec["value"], rec["std_error"],
                       refs.VOLUMES[region])
    return check


def mc(rng: np.random.Generator, sizes: Sizes) -> Workload:
    n = sizes.mc_samples
    first: list[Op] = []

    def cycle(k: int) -> list[Op]:
        seed = int(rng.integers(2 ** 32))
        ops = [Op("mc.ratios_s", ["ratios", "--n", str(n), "--workers", "2",
                                  "--seed", str(seed), "--format", "json"],
                  check=_check_ratios(n, seed))]
        if not first:
            first.append(ops[0])
        for region in ("Q", "T"):
            ops.append(Op("mc.volume_s", ["volume", "--region", region,
                                          "--method", "mc", "--n", str(n),
                                          "--workers", "1",
                                          "--seed", str(seed),
                                          "--format", "json"],
                          check=_check_mc_volume(region, n, seed),
                          label=region))
        return ops

    def after() -> list[Op]:
        """The README promises byte-identical output for a fixed (seed,
        workers): rerun cycle 0's ``ratios`` and compare digests."""
        def digest(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()

        def check(out: str) -> None:
            got, want = digest(out), digest(first[0].output)
            _require(got == want, f"ratios rerun digest {got[:12]} != first"
                                  f" run {want[:12]}")
        return [Op("mc.rerun", first[0].argv, check=check)]

    return Workload("mc", cycle, after, reference="numpy")


# -- quad --------------------------------------------------------------------

def quad(rng: np.random.Generator, sizes: Sizes) -> Workload:
    tol = sizes.quad_abs_tol
    values: dict = {}

    def check_for(region: str):
        def check(out: str) -> None:
            rec = json.loads(out)
            _require(rec["region"] == region, "region echoed wrongly")
            err = abs(rec["value"] - refs.VOLUMES[region])
            values[f"volumes.quad.abs_err.{region}"] = err
            _require(err <= tol, f"quadrature V_{region} off by {err:.3e}"
                                 f" > abs_tol {tol:.0e}")
        return check

    def cycle(k: int) -> list[Op]:
        ops = [Op(f"quad.{r}_s", ["volume", "--region", r, "--method",
                                  "quadrature", "--abs-tol", repr(tol),
                                  "--format", "json"], check=check_for(r))
               for r in ("C", "Q", "U", "T")]
        return [ops[i] for i in rng.permutation(len(ops))]

    return Workload("quad", cycle, values=values, reference="quadrature")


# -- poly --------------------------------------------------------------------

def _check_text(name: str, kind: str, count: int):
    stored = refs.stored_text(name)

    def check(out: str) -> None:
        head = out.split("\n", 1)[0].split()
        _require(head == [kind, "8", str(count)], f"{name}: header {head}")
        _require(out == stored, f"{name}: text differs from the stored copy")
    return check


def _check_exact(region: str):
    def check(out: str) -> None:
        rec = json.loads(out)
        _require(rec["exact"] == refs.EXACT[region],
                 f"exact V_{region} = {rec['exact']}")
        _require(rec["value"] == refs.VOLUMES[region],
                 f"V_{region} = {rec['value']!r}")
    return check


def _check_corr_volume(out: str) -> None:
    _require(out == f"volume: 32/3 ({refs.V_C:.12g})\n",
             f"corrC volume line {out!r}")


def poly(rng: np.random.Generator, sizes: Sizes) -> Workload:
    def cycle(k: int) -> list[Op]:
        ops = [
            Op("poly.ns_vertices_s", ["polytope", "--which", "ns", "--task",
                                      "vertices"],
               check=_check_text("ns_vertices", "V", 24)),
            Op("poly.local_facets_s", ["polytope", "--which", "local",
                                       "--task", "facets"],
               check=_check_text("local_facets", "H", 24)),
            Op("poly.volume_s", ["polytope", "--which", "corrC", "--task",
                                 "volume"], check=_check_corr_volume,
               label="corrC"),
        ]
        ops += [Op("poly.volume_s", ["volume", "--region", r, "--method",
                                     "exact", "--format", "json"],
                   check=_check_exact(r), label=r) for r in ("C", "L")]
        return [ops[i] for i in rng.permutation(len(ops))]

    return Workload("poly", cycle)


# -- points ------------------------------------------------------------------

def _chain_broken(inside: dict) -> str | None:
    for inner, outer in zip(CHAIN, CHAIN[1:]):
        if inside[inner] and not inside[outer]:
            return f"inside {inner} but outside {outer}"
    return None


def _check_sample_quantum(n: int):
    def check(out: str) -> None:
        lines = out.splitlines()
        _require(len(lines) == n, f"{len(lines)} lines for {n} points")
        bad_q = broken = 0
        for line in lines:
            prof = json.loads(line)["profile"]
            inside = {r: prof[r]["inside"] for r in ("C", "U", "T", "L")}
            inside["Q"] = prof["Q"]["arcsin"]["inside"]
            bad_q += not inside["Q"]
            broken += _chain_broken(inside) is not None
        _require(bad_q == 0, f"{bad_q} sampled quantum points outside Q")
        _require(broken == 0, f"{broken} sampled points break the chain")
    return check


def _check_profiles(points: np.ndarray):
    def check(profiles: list) -> None:
        _require(len(profiles) == len(points), "profile count")
        for p, prof in zip(points, profiles):
            inside = {r.value: res.inside for r, res in prof.regions().items()}
            why = _chain_broken(inside)
            _require(why is None, f"point {p.tolist()}: {why}")
    return check


def _asin_margin(p: np.ndarray) -> float:
    s = [math.asin(min(1.0, max(-1.0, v))) for v in p]
    total = sum(s)
    return math.pi - max(abs(total - 2.0 * v) for v in s)


def _boundary_scale(region: str, d: np.ndarray) -> float:
    """Largest t with t*d in the region's closure, for d in the cube.

    Linear and quadratic regions scale exactly; Q is bisected on its
    arcsin margin, which is monotone along rays from the origin (Q is
    convex and contains it).  The cube face caps every region.
    """
    t_cube = 1.0 / np.abs(d).max()
    if region in ("C", "T"):
        bound = 2.0 if region == "C" else 2.0 * math.sqrt(2.0)
        t = bound / np.abs(d.sum() - 2.0 * d).max()
    elif region == "U":
        q = max((d[0] + d[3]) ** 2 + (d[1] - d[2]) ** 2,
                (d[0] - d[3]) ** 2 + (d[1] + d[2]) ** 2)
        t = 2.0 / math.sqrt(q)
    else:
        if _asin_margin(t_cube * d) >= 0.0:
            return t_cube
        lo, hi = 0.0, t_cube
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _asin_margin(mid * d) >= 0.0 else (lo, mid)
        t = lo
    return min(t, t_cube)


def profile_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Half uniform cube points; half within 1e-9 of the C, Q, U and T
    boundaries; plus the 16 cube vertices, the PR box (1, 1, 1, -1) among
    them.  Boundary points move along their ray by up to 1e-9 either way,
    but never out of the cube."""
    vertices = np.array([[a, b, c, e] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                         for c in (-1.0, 1.0) for e in (-1.0, 1.0)])
    n_uniform = count // 2
    n_edge = max(count - n_uniform - len(vertices), 0)
    uniform = rng.uniform(-1.0, 1.0, size=(n_uniform, 4))
    edge = np.empty((n_edge, 4))
    for i in range(n_edge):
        region = ("C", "Q", "U", "T")[i % 4]
        d = rng.uniform(-1.0, 1.0, size=4)
        t = _boundary_scale(region, d)
        shift = rng.uniform(-1e-9, 1e-9) / np.linalg.norm(d)
        edge[i] = np.clip((t + shift) * d, -1.0, 1.0)
    return np.concatenate([uniform, edge, vertices])


def points(rng: np.random.Generator, sizes: Sizes) -> Workload:
    from bellvol import regions

    pts = profile_points(rng, sizes.profile_points)
    as_tuples = [tuple(float(v) for v in p) for p in pts]
    n = sizes.quantum_points

    def profile_all() -> list:
        profile = regions.membership_profile
        return [profile(p) for p in as_tuples]

    def cycle(k: int) -> list[Op]:
        ops = [Op("points.sample_quantum_s",
                  ["sample-quantum", "--n", str(n), "--seed",
                   str(int(rng.integers(2 ** 32)))],
                  check=_check_sample_quantum(n)),
               Op("points.profiles_s", call=profile_all,
                  check=_check_profiles(pts))]
        return [ops[i] for i in rng.permutation(len(ops))]

    return Workload("points", cycle, values={"profile_points": len(pts)})


BUILDERS = {"mc": mc, "quad": quad, "poly": poly, "points": points}
