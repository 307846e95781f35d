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
from .regions import (REGION_CHAIN, RegionId, _chsh_verdicts, _index,
                      _member, _quantum_verdicts, _Record, _uffink_verdicts)
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
    ``worker_count``.
    """
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
