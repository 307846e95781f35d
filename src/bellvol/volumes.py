"""Monte Carlo and deterministic volume estimation for the correlation sets.

Under the flat measure on the correlation cube [-1, 1]^4 (the measure induced
by the per-experiment toggle cost, see :mod:`bellvol.toggles`), the volume of
a region is 16 times the probability that four independent uniform draws
land inside it.  This module provides:

* hit-or-miss Monte Carlo volumes and shared-sample ratios (delta-method
  errors), all read off one pass over the stream by ``score_stream``: one
  PCG64DXSM stream per seed, split into point ranges scored in up to
  os.cpu_count() processes, the calling process among them.  A range
  returns one hit count per region: one region alone is scored by its own
  kernel on every point; any other request takes the chain's four counts,
  C and T from one CHSH maximum and Q and U on the shell T \\ C alone, Q's
  verdict AND-ed with U's, so the counts nest.  The joint count of two
  regions is the count of the inner one.  Integer counts sum alike in any
  order, so results are bit-identical for a fixed seed, whatever the
  worker count or batch size,
* deterministic volumes of Q and U by quadrature in pair coordinates
  x = c00 + c11, y = c00 - c11, z = c01 - c10, w = c01 + c10 (Jacobian
  1/4), in which the cube is |x| + |y| <= 2, |z| + |w| <= 2, U is
  x^2 + z^2 <= 4, y^2 + w^2 <= 4, and Q is the L1 set |x| + |z| <= pi,
  |y| + |w| <= pi in arcsin coordinates with weight
  (cos x + cos y)(cos z + cos w)/4.  The (y, w) slice has a closed-form
  measure; the (x, z) integral uses tensor Gauss-Legendre rules on
  kink-aligned cells (Q's from ``estimates._linear_cells``), doubling the
  order n from 8 to at most 32 until orders n and 2n agree within the
  tolerance, and reports that difference; the rules come from a stored
  table, equal bit for bit to numpy's, so no call computes one.
  ``estimates.quadrature_volume``, re-exported here, is the entry point:
  it answers C, T and L without numpy and calls ``_doubling_volume`` for
  Q and U,
* the headline table: every estimate beside its closed form in ``ANALYTIC``.

The record type, the closed forms, the exact rational volumes and
``quadrature_volume`` compute no arrays; they live in
:mod:`bellvol.estimates` and are re-exported here.  ``EstimatorConfig`` is
a NamedTuple checked in ``__new__``, as the records of ``regions`` are.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Sequence

import numpy as np

from .estimates import (ANALYTIC, VolumeEstimate,  # noqa: F401  re-exported
                        _linear_cells, exact_region_volume, quadrature_volume)
from .regions import (REGION_CHAIN, RegionId, _chsh_verdicts, _index,
                      _member, _quantum_verdicts, _Record, _uffink_verdicts)
from .regions import region_mask  # noqa: F401  read by bench/tracer.py


class DegenerateDenominator(ZeroDivisionError, ValueError):
    """Ratio estimation with zero hits in the denominator region; a
    ValueError, as every bellvol error is, so the CLI exits 1."""


class ToleranceNotMet(RuntimeError, ValueError):
    """The adaptive scheme could not certify the requested tolerance; a
    ValueError, as every bellvol error is, so the CLI exits 1."""


class EstimatorConfig(_Record, NamedTuple("_Config", [
        ("sample_count", int), ("seed", int), ("worker_count", int)])):
    """Sampling parameters for the Monte Carlo estimators: a tuple of three
    ints.

    ``worker_count`` only sets speed: it caps the processes that score
    contiguous ranges of the one stream keyed by ``seed``, so estimates are
    bit-identical for a fixed (seed, sample_count), whatever
    ``worker_count``.  The three fields follow the integer contract of
    ``regions._index``: ``sample_count`` and ``worker_count`` >= 1, ``seed``
    in [0, 2**64).
    """

    __slots__ = ()

    def __new__(cls, sample_count=10_000_000, seed=0, worker_count=1):
        return tuple.__new__(cls, (_index("sample_count", sample_count, 1),
                                   _index("seed", seed, 0, 2 ** 64),
                                   _index("worker_count", worker_count, 1)))


def __getattr__(name: str):
    # bench/tracer.py patches ``volumes.integrate.quad``; scipy loads only then
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --------------------------------------------------------------------------
# Monte Carlo engine
# --------------------------------------------------------------------------

#: Points a process draws and scores at a time: bounds memory, and cannot
#: change a result, as the batches' counts add alike in any split.
#: 16 384 was the fastest of 4096, 8192, ..., 65 536 on the `mc` benchmark
#: (BENCH_12.json), when each batch still allocated its temporaries; now
#: every batch works in the buffers ``_score_points`` allocates once per
#: range (two blocks of 4 * _BATCH floats and two bool rows, 1.03 MiB), the
#: chain's U and Q kernels see only a batch's shell T \ C (~4 750 of its
#: points), and the per-batch Python overhead is a quarter of that at 4096.
_BATCH = 16_384


def sample_stream(seed: int, start: int = 0) -> np.random.Generator:
    """The stream of ``seed``, ``start`` points in: PCG64DXSM seeded through
    numpy's ``SeedSequence(seed)``, read by the Monte Carlo points and by
    ``sample-quantum``.  A point is four doubles and a double one 64-bit
    step, so point k starts ``4 * k`` steps in, reached by ``advance``."""
    return np.random.Generator(np.random.PCG64DXSM(seed).advance(4 * start))


def _score_points(cfg: EstimatorConfig, regions: tuple[RegionId, ...],
                  points: range) -> np.ndarray:
    """The hit counts N(C), N(Q), N(U), N(T) of the points ``points``
    against ``regions``, an int64 array in chain order.

    The points are drawn ``_BATCH`` at a time from ``points.start``,
    exactly as ``2 * random((m, 4)) - 1``, and scored in column layout.
    L is never scored, as every drawn point lies in [-1, 1)^4, and the
    counts take one of two shapes.  One scored region is scored by its own
    kernel on the whole batch, and only its count is taken; none draws
    nothing.  Any other request takes the chain's four counts from one
    gate: one CHSH maximum decides C and T on the whole batch, and a point
    inside C lies inside Q and U, one outside T outside both, so U and Q
    are scored on the shell T \\ C alone, (V_T - V_C) / 16 ~ 29 % of the
    cube, and N(C) is added to their shell counts.  C's verdict implies
    T's (2 - M and 2 sqrt 2 - M round monotonically in the CHSH maximum M)
    and Q's shell verdict is AND-ed with U's, so the four counts nest by
    construction.

    Every batch works in three buffers allocated once per call, so the
    stream allocates nothing of a batch's size and its page faults do not
    depend on the heap's state: the draw block, the column buffer and a
    bool block of two verdict rows.  Transposed into the column buffer,
    the draw block is free: on the whole batch it holds the kernels'
    intermediate values; on the shell it holds the shell's columns, taken
    from the column buffer, which then holds the intermediate values.
    """
    hits = np.zeros(len(REGION_CHAIN) - 1, dtype=np.int64)
    scored = set(regions) - {RegionId.NO_SIGNALING_L}
    if not scored:
        return hits
    alone = scored.pop() if len(scored) == 1 else None
    if alone is not None:
        at = REGION_CHAIN.index(alone)
        # C and T share one kernel, which writes the rows it is handed
        score = (lambda cols, work, out: _chsh_verdicts(cols, work, out, None),
                 _quantum_verdicts, _uffink_verdicts,
                 lambda cols, work, out: _chsh_verdicts(cols, work, None, out)
                 )[at]
    b = min(_BATCH, len(points))
    draw, columns = np.empty(4 * b), np.empty(4 * b)
    inside = np.empty(2 * b, dtype=bool)
    gen = sample_stream(cfg.seed, points.start)
    for start in range(points.start, points.stop, _BATCH):
        m = min(_BATCH, points.stop - start)
        raw = gen.random(out=draw[:4 * m].reshape(m, 4))
        cols = np.multiply(raw.T, 2.0, out=columns[:4 * m].reshape(4, m))
        cols -= 1.0
        work = draw[:4 * m].reshape(4, m)
        if alone is not None:
            score(cols, work, inside[:m])
            hits[at] += np.count_nonzero(inside[:m])
            continue
        c, t = inside[:2 * m].reshape(2, m)
        _chsh_verdicts(cols, work, c, t)
        n_c, n_t = np.count_nonzero(c), np.count_nonzero(t)
        hits[0] += n_c
        hits[3] += n_t
        # the shell T > C, i.e. T and not C, holds n_t - n_c points, as C
        # implies T; np.take's out is unbuffered in "clip" mode
        m = n_t - n_c
        cols = np.take(cols, np.flatnonzero(np.greater(t, c, out=c)), axis=1,
                       mode="clip", out=draw[:4 * m].reshape(4, m))
        work = columns[:4 * m].reshape(4, m)
        q, u = inside[:2 * m].reshape(2, m)
        _uffink_verdicts(cols, work, u)
        _quantum_verdicts(cols, work, q)
        hits[1] += np.count_nonzero(np.logical_and(q, u, out=q))
        hits[2] += np.count_nonzero(u)
    if alone is None:
        hits[1:3] += hits[0]
    return hits


def score_stream(cfg: EstimatorConfig,
                 regions: Sequence[RegionId]) -> np.ndarray:
    """One pass over the sample stream against any number of regions.

    Returns the symmetric (k, k) int64 matrix J, k = len(regions), whose
    entry J[a, b] is the hit count of the inner region of the pair
    ``regions[a]``, ``regions[b]`` in the chain C, Q, U, T, L; the counts
    of ``_score_points`` nest, so that is the number of points inside
    both, and the diagonal holds each region's hits.  A region may be
    listed more than once.  The points [0, n), n = ``cfg.sample_count``,
    are split into contiguous ranges, one per process, over
    min(worker_count, os.cpu_count(), n) processes, the calling one among
    them: it scores the first range while child processes score the
    rest, and the counts are summed.  L's count is n.  Bit-identical for a
    fixed seed, whatever ``worker_count``.
    """
    regions = tuple(_member(RegionId, region) for region in regions)
    procs = min(cfg.worker_count, os.cpu_count() or 1, cfg.sample_count)
    if procs == 1:
        hits = _score_points(cfg, regions, range(cfg.sample_count))
    else:
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor

        # A forked child inherits the loaded numpy and bellvol, where a
        # spawned one starts an interpreter (~0.1 s).  Fork is unsafe once
        # other threads may hold locks, so spawn is the fallback.
        fork = (threading.active_count() == 1
                and "fork" in multiprocessing.get_all_start_methods())
        context = multiprocessing.get_context("fork" if fork else "spawn")
        cuts = [cfg.sample_count * k // procs for k in range(procs + 1)]
        with ProcessPoolExecutor(procs - 1, mp_context=context) as pool:
            parts = [pool.submit(_score_points, cfg, regions, range(a, b))
                     for a, b in zip(cuts[1:], cuts[2:])]
            # the parent is one of the processes: it scores the first range
            hits = _score_points(cfg, regions, range(cuts[1]))
            hits = sum((part.result() for part in parts), hits)
    at = np.array([REGION_CHAIN.index(r) for r in regions], dtype=np.intp)
    return np.append(hits, cfg.sample_count)[np.minimum.outer(at, at)]


def _volume_from_hits(region: RegionId, hits: int,
                      cfg: EstimatorConfig) -> VolumeEstimate:
    n = cfg.sample_count
    p = hits / n
    return VolumeEstimate(
        region=region.value,
        method="monte-carlo",
        value=16.0 * p,
        std_error=16.0 * math.sqrt(p * (1.0 - p) / n),
        sample_count=n,
        seed=cfg.seed,
    )


def mc_volume(region: RegionId,
              cfg: EstimatorConfig | None = None) -> VolumeEstimate:
    """Hit-or-miss volume: 16 * (hits / n) on uniform draws from the cube."""
    cfg = cfg or EstimatorConfig()
    hits = int(score_stream(cfg, [region])[0, 0])
    return _volume_from_hits(region, hits, cfg)


def _ratio_with_error(joint: np.ndarray, n: int, a: int,
                      b: int) -> tuple[float, float]:
    """Shared-stream ratio of the hits of regions a and b of the joint
    counts of n points, with the correlated-binomial delta method."""
    n_a, n_b, n_ab = int(joint[a, a]), int(joint[b, b]), int(joint[a, b])
    if n_b == 0:
        raise DegenerateDenominator("no hits in the denominator region")
    p_a, p_b, p_ab = n_a / n, n_b / n, n_ab / n
    ratio = n_a / n_b
    cov = p_ab - p_a * p_b
    var = (p_a * (1.0 - p_a) - 2.0 * ratio * cov
           + ratio * ratio * p_b * (1.0 - p_b)) / (n * p_b * p_b)
    return ratio, math.sqrt(max(var, 0.0))


def ratio_estimate(region_a: RegionId, region_b: RegionId,
                   cfg: EstimatorConfig | None = None) -> VolumeEstimate:
    """Volume ratio V_A / V_B from one stream scored against both oracles.

    Containment is not assumed; the joint hit count enters the covariance
    term of the delta-method standard error.
    """
    cfg = cfg or EstimatorConfig()
    joint = score_stream(cfg, [region_a, region_b])
    ratio, err = _ratio_with_error(joint, cfg.sample_count, 0, 1)
    return VolumeEstimate(
        region=f"{region_a.value}/{region_b.value}",
        method="monte-carlo",
        value=ratio,
        std_error=err,
        sample_count=cfg.sample_count,
        seed=cfg.seed,
    )


# --------------------------------------------------------------------------
# deterministic quadrature in pair coordinates
# --------------------------------------------------------------------------

#: The negative nodes and their weights of each Gauss-Legendre rule the
#: quadrature uses, bit for bit as numpy computes the rule.  numpy makes
#: the nodes exactly antisymmetric and the weights exactly symmetric, so
#: ``_gauss_legendre`` restores the whole rule by mirroring.  Printed by
#: this command, then indented under ``_GL_HALF = ``:
# python -c "import numpy as np, pprint; pprint.pprint({n: tuple(tuple(map(float, a[:n // 2])) for a in np.polynomial.legendre.leggauss(n)) for n in (8, 16, 32)}, compact=True, width=68)"
_GL_HALF = {8: ((-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                 -0.18343464249564978),
                (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                 0.36268378337836166)),
            16: ((-0.9894009349916499, -0.9445750230732326,
                  -0.8656312023878318, -0.755404408355003, -0.6178762444026438,
                  -0.45801677765722737, -0.2816035507792589,
                  -0.09501250983763744),
                 (0.027152459411754176, 0.062253523938647456,
                  0.0951585116824926, 0.12462897125553407, 0.1495959888165767,
                  0.16915651939500265, 0.18260341504492364,
                  0.18945061045506864)),
            32: ((-0.9972638618494816, -0.9856115115452684,
                  -0.9647622555875064, -0.9349060759377397,
                  -0.8963211557660521, -0.84936761373257, -0.7944837959679424,
                  -0.7321821187402897, -0.6630442669302152,
                  -0.5877157572407623, -0.5068999089322294,
                  -0.42135127613063533, -0.33186860228212767,
                  -0.23928736225213706, -0.1444719615827965,
                  -0.048307665687738324),
                 (0.007018610009470506, 0.016274394730905743,
                  0.025392065309262024, 0.034273862913021765,
                  0.042835898022226836, 0.05099805926237609,
                  0.058684093478535565, 0.06582222277636168,
                  0.07234579410884834, 0.07819389578707023,
                  0.08331192422694671, 0.08765209300440378,
                  0.09117387869576378, 0.09384439908080451,
                  0.09563872007927471, 0.09654008851472766))}

#: The rule orders: at abs_tol 1e-9, the least accepted, Q stops at order
#: 16 and U at 32, and a larger abs_tol stops no later.
_GL_ORDERS = tuple(_GL_HALF)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-n Gauss-Legendre rule on [-1, 1]."""
    t, w = (np.array(half) for half in _GL_HALF[n])
    return np.concatenate((t, -t[::-1])), np.concatenate((w, w[::-1]))


def _pair_quadrature(cells, slice_fn, abs_tol: float) -> tuple[float, float]:
    """Volume as the integral over x, z >= 0 of ``slice_fn(x, z)``, the
    measure of the whole (y, w) slice (every region is even in each pair
    coordinate), and its error.

    ``cells(t)`` maps Gauss-Legendre nodes t on [0, 1] to one (x, z,
    Jacobian) triple per cell, x varying along axis 0 and z along axis 1.
    The rule order n doubles through ``_GL_ORDERS`` until the rules of order
    n and 2n agree within ``abs_tol``; returns Q_2n and |Q_n - Q_2n|.
    """
    def rule(n: int) -> float:
        t, w = _gauss_legendre(n)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        return math.fsum(float(w @ (jac * slice_fn(x, z)) @ w)
                         for x, z, jac in cells(t))

    coarse = rule(_GL_ORDERS[0])
    for n in _GL_ORDERS[1:]:
        fine = rule(n)
        diff = abs(fine - coarse)
        if diff <= abs_tol:
            return fine, diff
        coarse = fine
    raise ToleranceNotMet(f"Gauss-Legendre orders {n // 2} and {n} differ by"
                          f" {diff:.3e} > abs_tol {abs_tol:.3e}")


def _arcsin_volume(h: float, abs_tol: float) -> tuple[float, float]:
    """Q, the L1 case in arcsin coordinates s_ij = arcsin(c_ij):
    |sum(s) - 2 s_ij| <= h on the box |s_ij| <= pi/2 with weight prod cos(s);
    h = pi for Q, and h = 0 collapses the region.

    The slice |y| <= pi - x, |w| <= pi - z, |y| + |w| <= h has the w integral
    W cos z + sin W, W = min(pi - z, h - |y|), flat up to y = h - (pi - z);
    the y integral of each piece is elementary.  The slice weight kinks at
    x = pi - h and z = pi - h; its third kink, x + z = 2 pi - h, lies
    outside x + z <= h.
    """
    sin_h = math.sin(h)

    def weight(x, z):
        cx, cz = np.cos(x), np.cos(z)
        b = math.pi - z
        y_end = np.minimum(math.pi - x, h)
        y_kink = np.clip(h - b, 0.0, y_end)

        def primitive(y):  # of (cx + cos y) * ((h - y) cz + sin(h - y))
            r = h - y
            return (-0.5 * cx * cz * r * r + cx * np.cos(r)
                    + cz * (r * np.sin(y) - np.cos(y))
                    + 0.5 * y * sin_h + 0.25 * np.cos(h - 2.0 * y))

        flat = (b * cz + np.sin(b)) * (cx * y_kink + np.sin(y_kink))
        return flat + primitive(y_end) - primitive(y_kink)
    cells = _linear_cells(math.pi, h, [(math.pi - h, 0.0)])

    def nodes(t):  # the nodes t on [0, 1] mapped onto each cell
        for x0, x1, (c0, s0), (c1, s1) in cells:
            x = x0 + (x1 - x0) * t[:, None]
            z0, z1 = c0 + s0 * x, c1 + s1 * x
            yield x, z0 + (z1 - z0) * t, (x1 - x0) * (z1 - z0)
    return _pair_quadrature(nodes, weight, abs_tol)


def _disk_slice(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """U: area of |y| <= 2 - x, |w| <= 2 - z, y^2 + w^2 <= 4.

    Each quadrant's a-by-b rectangle lies inside the disk when
    a^2 + b^2 <= 4; otherwise the circle leaves it through w = b at
    y0 = sqrt(4 - b^2) and the area is b*y0 plus the circle from y0 to a.
    """
    def circle(y):  # integral of sqrt(4 - t^2) from 0 to y <= 2
        return 0.5 * (y * np.sqrt(np.maximum(4.0 - y * y, 0.0))
                      + 4.0 * np.arcsin(np.minimum(0.5 * y, 1.0)))

    a, b = 2.0 - x, 2.0 - z
    y0 = np.sqrt(np.maximum(4.0 - b * b, 0.0))
    cut = b * y0 + circle(a) - circle(y0)
    return 4.0 * np.where(a * a + b * b <= 4.0, a * b, cut)


def _disk_cells(t: np.ndarray):
    """The quarter disk x^2 + z^2 <= 4, below and above the kink curve
    (2 - x)^2 + (2 - z)^2 = 4; both circles run from (0, 2) to (2, 0).

    x = 2 sin^2(phi) takes the square roots out of both curves at x = 0 and
    x = 2, and z = z_kink * t^2 takes the one in y0 out at z = 0.
    """
    phi = 0.5 * math.pi * t[:, None]
    s = np.sin(phi)
    x, dx = 2.0 * s * s, math.pi * np.sin(2.0 * phi)
    z_kink = 2.0 - 2.0 * s * np.sqrt(2.0 - s * s)
    z_edge = 2.0 * np.cos(phi) * np.sqrt(1.0 + s * s)
    yield x, z_kink * t * t, dx * 2.0 * z_kink * t
    yield x, z_kink + (z_edge - z_kink) * t, dx * (z_edge - z_kink)


def _doubling_volume(region: RegionId,
                     abs_tol: float) -> tuple[float, float]:
    """Q or U by Gauss-Legendre doubling: Q_2n and |Q_n - Q_2n|, for
    ``estimates.quadrature_volume``, which answers C, T and L itself."""
    if region is RegionId.QUANTUM_Q:
        return _arcsin_volume(math.pi, abs_tol)
    return _pair_quadrature(_disk_cells, _disk_slice, abs_tol)


# --------------------------------------------------------------------------
# headline table
# --------------------------------------------------------------------------

def _row(value: float, std_error: float, analytic: float) -> dict:
    """An estimate beside its closed form and the deviation in standard
    errors: None for an exact estimate, and +-inf for one whose standard
    error is 0 (no hit, or all hits) while it misses its closed form."""
    if std_error:
        deviation = (value - analytic) / std_error
    elif value == analytic:
        deviation = None
    else:
        deviation = math.copysign(math.inf, value - analytic)
    return {"value": value, "std_error": std_error, "analytic": analytic,
            "deviation_sigmas": deviation}


def headline_report(cfg: EstimatorConfig | None = None) -> dict:
    """Everything the `ratios` command prints, from one shared sample stream.

    Returns volumes for all five regions, the ratios Q/C, Q/L and C/L, and
    the excesses T/Q - 1 and U/Q - 1 over the quantum set, each with its
    delta-method error, its analytic value and its deviation from that value
    in units of its standard error, followed by the analytic constants.
    """
    cfg = cfg or EstimatorConfig()
    joint = score_stream(cfg, REGION_CHAIN)
    n = cfg.sample_count
    pos = {r.value: k for k, r in enumerate(REGION_CHAIN)}

    volumes = {}
    for k, r in enumerate(REGION_CHAIN):
        est = _volume_from_hits(r, int(joint[k, k]), cfg)
        volumes[r.value] = {**est.as_json_record(), **_row(
            est.value, est.std_error, ANALYTIC[f"V_{r.value}"])}
    ratios = {f"{a}/{b}": _row(*_ratio_with_error(joint, n, pos[a], pos[b]),
                               ANALYTIC[f"ratio_{a}{b}"])
              for a, b in ("QC", "QL", "CL")}
    excesses = {}
    for top in "TU":
        value, err = _ratio_with_error(joint, n, pos[top], pos["Q"])
        excesses[f"{top}/Q-1"] = _row(
            value - 1.0, err, ANALYTIC[f"V_{top}"] / ANALYTIC["V_Q"] - 1.0)

    return {
        "n": cfg.sample_count,
        "seed": cfg.seed,
        "volumes": volumes,
        "ratios": ratios,
        "excesses": excesses,
        "analytic": dict(ANALYTIC),
    }
