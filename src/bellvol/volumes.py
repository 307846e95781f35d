"""Monte Carlo volume estimation for the correlation sets.

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
  verdict AND-ed with U's, so the counts nest: the points inside two
  regions are as many as the smaller count says.  Integer counts sum alike
  in any order, so results are bit-identical for a fixed seed, whatever the
  worker count or batch size,
* the headline table: every estimate beside its closed form in ``ANALYTIC``.

The stream's verdict kernels live here, beside ``_score_points``, their one
caller: ``_chsh_verdicts`` (C and T from one CHSH maximum),
``_uffink_verdicts`` and ``_quantum_verdicts``.  Each computes its region's
margin as the margin kernel of :mod:`bellvol.regions` does, operation for
operation, Q's being Landau's margin with the arcsin margin taken only next
to the boundary, and writes into buffers the caller allocates once.  They
check no column, as every drawn point lies in the cube, and the tests hold
each verdict equal to its region's margin rule.

The deterministic volumes, exact and by quadrature, the record type and the
closed forms live in :mod:`bellvol.estimates`, which computes them without
this module; ``VolumeEstimate``, ``ANALYTIC``, ``exact_region_volume`` and
``quadrature_volume`` are re-exported here.  ``EstimatorConfig`` is a
NamedTuple checked in ``__new__``, as the records of ``regions`` are.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Sequence

import numpy as np

from .estimates import (ANALYTIC, VolumeEstimate,  # noqa: F401  re-exported
                        exact_region_volume, quadrature_volume)
from .regions import (DEFAULT_TOLERANCE, REGION_CHAIN, TSIRELSON_BOUND,
                      RegionId, _index, _member, _Record, region_margins)
from .regions import region_mask  # noqa: F401  read by bench/tracer.py


class DegenerateDenominator(ZeroDivisionError, ValueError):
    """Ratio estimation with zero hits in the denominator region; a
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
    step, so point k starts ``4 * k`` steps in, reached by ``advance``.
    ``seed`` and ``start`` follow ``regions._index``: ``seed`` in
    [0, 2**64), as ``EstimatorConfig.seed``, and ``start`` >= 0."""
    seed, start = _index("seed", seed, 0, 2 ** 64), _index("start", start, 0)
    return np.random.Generator(np.random.PCG64DXSM(seed).advance(4 * start))


#: Half-width of the band of Landau's margin g about 0 inside which the Q
#: verdict of ``_quantum_verdicts`` falls back to the arcsin margin;
#: derived there.
_Q_BAND = 1e3 * DEFAULT_TOLERANCE


# The stream's verdict kernels: each writes margin >= -DEFAULT_TOLERANCE
# for the columns of a (4, m) array into bool rows, computing its region's
# margin as the kernel of ``regions`` does, operation for operation, and
# its temporaries into the rows of the float array ``work``, which may
# share memory with nothing else the call reads.  The columns are not
# checked: they must hold the point contract, as the stream's draws do.

def _chsh_verdicts(cols: np.ndarray, work: np.ndarray,
                   local: np.ndarray | None,
                   tsirelson: np.ndarray | None) -> None:
    """C and T verdicts into ``local`` and ``tsirelson`` (either may be
    None) from one CHSH maximum M = max(S - 2 min c, 2 max c - S), computed
    as ``regions._chsh`` computes it.  2 - M and 2 sqrt 2 - M round
    monotonically in M, so C's verdict implies T's in floats too."""
    c00, c01, c10, c11 = cols
    total, low, high = work[:3]
    np.add(c00, c01, out=total)
    total += c10
    total += c11
    np.min(cols, axis=0, out=low)
    low *= 2.0
    np.subtract(total, low, out=low)
    np.max(cols, axis=0, out=high)
    high *= 2.0
    high -= total
    chsh = np.maximum(low, high, out=low)
    for bound, out in ((2.0, local), (TSIRELSON_BOUND, tsirelson)):
        if out is not None:
            np.subtract(bound, chsh, out=high)
            np.greater_equal(high, -DEFAULT_TOLERANCE, out=out)


def _uffink_verdicts(cols: np.ndarray, work: np.ndarray,
                     out: np.ndarray) -> None:
    """U verdicts into ``out``, each operation that of ``regions._uffink``
    (a square is x * x, as numpy computes x ** 2)."""
    c00, c01, c10, c11 = cols
    lhs1, lhs2, t = work[:3]
    np.add(c00, c11, out=lhs1)
    lhs1 *= lhs1
    np.subtract(c01, c10, out=t)
    t *= t
    lhs1 += t
    np.subtract(c00, c11, out=lhs2)
    lhs2 *= lhs2
    np.add(c01, c10, out=t)
    t *= t
    lhs2 += t
    np.maximum(lhs1, lhs2, out=lhs1)
    np.subtract(4.0, lhs1, out=lhs1)
    np.greater_equal(lhs1, -DEFAULT_TOLERANCE, out=out)


def _quantum_verdicts(cols: np.ndarray, work: np.ndarray,
                      out: np.ndarray) -> None:
    """Q verdicts of (4, m) columns in [-1, 1] into ``out``, equal to the
    arcsin rule ``margin >= -DEFAULT_TOLERANCE``, from Landau's margin
    g = sqrt X + sqrt Y - |a| with a filter.  Here a = c00 c01 - c10 c11,
    X = (1 - c00^2)(1 - c01^2) and Y = (1 - c10^2)(1 - c11^2); g is
    computed as ``regions._landau`` computes it and left in ``work[2]``,
    and the other three rows of ``work`` hold temporaries.  Where
    |g| > ``_Q_BAND`` the verdict is g >= 0; the few columns with
    |g| <= ``_Q_BAND`` are scored by the arcsin margin of
    ``region_margins``.

    The band.  In arcsin coordinates c = sin s, with
    u_ij = (S - 2 s_ij) / 2 and the arcsin margins m_ij = pi - 2 |u_ij|
    (m = min m_ij), sqrt X = cos s00 cos s01 and sqrt Y = cos s10 cos s11
    give g = 2 min(cos u11 cos u10, cos u01 cos u00)
    = 2 min(sin(m11/2) sin(m10/2), sin(m01/2) sin(m00/2)).  Each sum or
    difference of two u_ij is a sum or difference of two s_kl, at most pi
    in size, so at most one m_ij is negative, and all lie in [-pi, pi].
    Hence |g| <= |m|, with the sign of m where g != 0.  Rounding: the
    float margin m' is within E_m ~ 1e-14 of m at the float point (arcsin
    is taken of the exact coordinates), and the float g' within E_g of g.
    With d = 1 - |c|, the float c^2 is within min(d^2, 2^-54) of c^2 and,
    where 1 - c^2 < 1/2, the subtraction from 1 is exact, so each factor
    1 - c^2 >= d is off by a relative min(d, 2^-54 / d); a square root
    halves that, and the factor's share of sqrt X is at most
    min(d^2, 2^-54) / (2 sqrt d) <= 2^-41.5.  Four factors and some ten
    rounded operations give E_g ~ 1.3e-12 (4.1e-13 is the worst seen at
    vertex neighbours and near |c| = 1 - 2^-27).  So |g'| > band implies
    g' has the sign of g and |m| >= |g| > band - E_g, hence m' >= -tol iff
    g' >= 0, whenever band > tol + E_m + E_g, about 2.3e-12 at
    tol = 1e-12.  The band, 1000 tol, leaves a factor of 400 over that;
    none of 2*10^7 uniform draws fell inside it.
    """
    c00, c01, c10, c11 = cols
    lhs, t, x, y = work
    np.multiply(c00, c01, out=lhs)
    np.multiply(c10, c11, out=t)
    lhs -= t
    np.abs(lhs, out=lhs)
    np.multiply(c00, c00, out=x)
    np.subtract(1.0, x, out=x)
    np.multiply(c01, c01, out=t)
    np.subtract(1.0, t, out=t)
    x *= t
    np.sqrt(x, out=x)
    np.multiply(c10, c10, out=y)
    np.subtract(1.0, y, out=y)
    np.multiply(c11, c11, out=t)
    np.subtract(1.0, t, out=t)
    y *= t
    np.sqrt(y, out=y)
    x += y
    x -= lhs
    near = np.flatnonzero(np.less_equal(np.abs(x, out=t), _Q_BAND, out=out))
    np.greater_equal(x, 0.0, out=out)
    if near.size:
        margin = region_margins(RegionId.QUANTUM_Q, cols[:, near].T)
        out[near] = margin >= -DEFAULT_TOLERANCE


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


def score_stream(cfg: EstimatorConfig | None,
                 regions: Sequence[RegionId]) -> dict[RegionId, int]:
    """One pass over the sample stream against any number of regions.

    Returns the hit count of each region in ``regions``, one key per
    region.  The counts nest along the chain C, Q, U, T, L, so the number
    of points inside two regions is the smaller of their two counts.  The
    points [0, n), n = ``cfg.sample_count``, are split into contiguous
    ranges, one per process, over min(worker_count, os.cpu_count(), n)
    processes, the calling one among them: it scores the first range while
    child processes score the rest, and the counts are summed.  L's count
    is n, which scores no point, so a request of L alone, or of no region,
    takes one process.  Bit-identical for a fixed seed, whatever
    ``worker_count``.  ``cfg`` is read by ``_config``, as the estimators
    read it: None is the default config.
    """
    cfg = _config(cfg)
    regions = tuple(_member(RegionId, region) for region in regions)
    procs = min(cfg.worker_count, os.cpu_count() or 1, cfg.sample_count)
    # a request of L alone, or of nothing, scores no point: no pool
    if procs == 1 or set(regions) <= {RegionId.NO_SIGNALING_L}:
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
    counts = [*hits.tolist(), cfg.sample_count]
    return {r: counts[REGION_CHAIN.index(r)] for r in regions}


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


def _config(cfg: EstimatorConfig | None) -> EstimatorConfig:
    """``cfg``, or the default ``EstimatorConfig()`` for None; ValueError
    naming ``cfg`` for anything else, a 0 or a plain tuple included."""
    if cfg is None:
        return EstimatorConfig()
    if not isinstance(cfg, EstimatorConfig):
        raise ValueError(f"cfg must be an EstimatorConfig, got {cfg!r}")
    return cfg


def mc_volume(region: RegionId,
              cfg: EstimatorConfig | None = None) -> VolumeEstimate:
    """Hit-or-miss volume: 16 * (hits / n) on uniform draws from the cube."""
    cfg = _config(cfg)
    return _volume_from_hits(region, score_stream(cfg, [region])[region], cfg)


def _ratio_with_error(n_a: int, n_b: int, n: int) -> tuple[float, float]:
    """Shared-stream ratio n_a / n_b of the hit counts of two regions on
    the same n points, with the correlated-binomial delta method; the
    counts nest, so min(n_a, n_b) points lie inside both."""
    if n_b == 0:
        raise DegenerateDenominator("no hits in the denominator region")
    p_a, p_b, p_ab = n_a / n, n_b / n, min(n_a, n_b) / n
    ratio = n_a / n_b
    cov = p_ab - p_a * p_b
    var = (p_a * (1.0 - p_a) - 2.0 * ratio * cov
           + ratio * ratio * p_b * (1.0 - p_b)) / (n * p_b * p_b)
    return ratio, math.sqrt(max(var, 0.0))


def ratio_estimate(region_a: RegionId, region_b: RegionId,
                   cfg: EstimatorConfig | None = None) -> VolumeEstimate:
    """Volume ratio V_A / V_B from one stream scored against both oracles.

    The counts nest, so the points inside both regions are those of the
    inner one; that count enters the covariance term of the delta-method
    standard error.
    """
    cfg = _config(cfg)
    hits = score_stream(cfg, [region_a, region_b])
    ratio, err = _ratio_with_error(hits[region_a], hits[region_b],
                                   cfg.sample_count)
    return VolumeEstimate(
        region=f"{region_a.value}/{region_b.value}",
        method="monte-carlo",
        value=ratio,
        std_error=err,
        sample_count=cfg.sample_count,
        seed=cfg.seed,
    )


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
    cfg = _config(cfg)
    # keyed by RegionId, which hashes and compares as its one-letter tag
    hits = score_stream(cfg, REGION_CHAIN)
    n = cfg.sample_count

    volumes = {}
    for r in REGION_CHAIN:
        est = _volume_from_hits(r, hits[r], cfg)
        volumes[r.value] = {**est.as_json_record(), **_row(
            est.value, est.std_error, ANALYTIC[f"V_{r.value}"])}
    ratios = {f"{a}/{b}": _row(*_ratio_with_error(hits[a], hits[b], n),
                               ANALYTIC[f"ratio_{a}{b}"])
              for a, b in ("QC", "QL", "CL")}
    excesses = {}
    for top in "TU":
        value, err = _ratio_with_error(hits[top], hits["Q"], n)
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
