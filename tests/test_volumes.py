import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import region_reference as reference
from cube_points import CUBE_POINTS, Q_BOUNDARY, UNIT, VERTICES, uniform_points
from bellvol import estimates, polytopes, regions, volumes
from bellvol.estimates import ToleranceNotMet
from bellvol.regions import (
    DEFAULT_TOLERANCE,
    TSIRELSON_BOUND,
    QCharacterization,
    RegionId,
    in_box_L,
    in_local,
    in_quantum_arcsin,
    in_tsirelson_T,
    in_uffink_U,
    region_margins,
)
from bellvol.volumes import (
    ANALYTIC,
    DegenerateDenominator,
    EstimatorConfig,
    exact_region_volume,
    headline_report,
    mc_volume,
    quadrature_volume,
    score_stream,
)

CHAIN = (RegionId.LOCAL_C, RegionId.QUANTUM_Q, RegionId.UFFINK_U,
         RegionId.TSIRELSON_T, RegionId.NO_SIGNALING_L)
ORACLES = dict(zip(CHAIN, (in_local, in_quantum_arcsin, in_uffink_U,
                           in_tsirelson_T, in_box_L)))

V_Q = 1.5 * math.pi ** 2
V_C = 32.0 / 3.0
# Every entry of ANALYTIC in closed form at 50 digits.  V_T is the cube
# minus eight disjoint Irwin-Hall corners (estimates module docstring).
with mpmath.workdps(50):
    CLOSED_FORMS = {
        "V_C": mpmath.mpf(32) / 3, "V_L": mpmath.mpf(16),
        "V_Q": 3 * mpmath.pi ** 2 / 2,
        "V_U": 32 * mpmath.pi - mpmath.mpf(256) / 3,
        "V_T": (768 * mpmath.sqrt(2) - 1040) / 3,
        "ratio_QC": (3 * mpmath.pi / 8) ** 2,
        "ratio_QL": 3 * mpmath.pi ** 2 / 32, "ratio_CL": mpmath.mpf(2) / 3}
# rounded once: in floats the difference cancels 768*sqrt(2) against 1040
V_T_CLOSED_FORM = float(CLOSED_FORMS["V_T"])

# Volume of the quadratic two-circle region in closed form (disjoint-corner
# argument in the estimates module docstring); recomputed independently with
# mpmath in test_circle_region_volume_reference, and guarded by Monte Carlo.
V_U_REFERENCE = 32.0 * math.pi - 256.0 / 3.0


def _v_u_mpmath(dps: int = 20):
    """V_U by mpmath.quad.  In pair coordinates x = c00 + c11,
    y = c00 - c11, z = c01 - c10, w = c01 + c10 (Jacobian 1/4) U is the pair
    of disks x^2 + z^2 <= 4, y^2 + w^2 <= 4 inside |x| + |y| <= 2,
    |z| + |w| <= 2.  The (y, w) slice area is closed form; the (x, z)
    integral over the quarter disk is split where the slice's corner
    (2 - x, 2 - z) crosses the circle."""
    with mpmath.workdps(dps):
        def prim(y):  # integral of sqrt(4 - t^2) from 0 to y
            return (y * mpmath.sqrt(4 - y * y) + 4 * mpmath.asin(y / 2)) / 2

        def area(x, z):
            a, b = 2 - x, 2 - z
            if a * a + b * b <= 4:
                return 4 * a * b
            y0 = mpmath.sqrt(4 - b * b)
            return 4 * (b * y0 + prim(a) - prim(y0))

        def over_z(x):
            kink = 2 - mpmath.sqrt(4 * x - x * x)
            return mpmath.quad(lambda z: area(x, z),
                               [0, kink, mpmath.sqrt(4 - x * x)])

        return mpmath.quad(over_z, [0, 2])


def _stream_points(seed: int, n: int) -> np.ndarray:
    """The first n points of the stream of ``seed``, drawn here as the
    README states the stream: PCG64DXSM(seed), 2 * random((n, 4)) - 1."""
    return 2.0 * np.random.Generator(np.random.PCG64DXSM(seed)).random(
        (n, 4)) - 1.0


def _assert_counts(hits: dict, regions, inside: dict) -> None:
    """``hits`` of ``score_stream`` against ``regions`` holds one key per
    region, in the order first listed, and for each pair of them the
    points inside both, counted from the per-point verdicts
    ``inside[region]``, are the smaller of the two counts: the rule
    ``_ratio_with_error`` relies on.  The pair of a region with itself is
    its own count."""
    listed = list(dict.fromkeys(regions))
    assert list(hits) == listed
    assert all(type(count) is int for count in hits.values())
    rows = np.array([inside[r] for r in listed], dtype=np.int64)
    joint = (rows @ rows.T).tolist() if listed else []
    assert joint == [[min(hits[a], hits[b]) for b in listed] for a in listed]


def _v_q_diamonds(h: float) -> float:
    """V_Q with half-width h <= pi/2: the box is inactive, and in arcsin
    pair coordinates the region is a product of two L1 diamonds of radius h
    weighted by (cos x + cos y)(cos z + cos w)/4."""
    return h ** 3 * math.sin(h) / 2.0 + 2.0 * (1.0 - math.cos(h)) ** 2


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.sample_count == 10_000_000
        assert volumes._BATCH == 16_384

    @pytest.mark.parametrize("kwargs", [
        {"sample_count": 0},
        {"worker_count": 0},
        {"seed": -1},
        {"seed": 2 ** 64},
        {"seed": 1.5},
        {"sample_count": 2.5},
        {"worker_count": 1.5},
        {"seed": True},
        {"sample_count": 1000.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            EstimatorConfig(**kwargs)

    def test_numpy_integers_are_stored_as_int(self):
        cfg = EstimatorConfig(sample_count=np.int64(1000), seed=np.uint64(7),
                              worker_count=np.int32(1))
        assert (cfg.sample_count, cfg.seed, cfg.worker_count) == (1000, 7, 1)
        assert all(type(v) is int for v in
                   (cfg.sample_count, cfg.seed, cfg.worker_count))
        rec = mc_volume(RegionId.LOCAL_C, cfg).as_json_record()
        assert rec["seed"] == 7 and type(rec["seed"]) is int

    # the two estimators that take a cfg
    ESTIMATORS = pytest.mark.parametrize("estimate", [
        lambda cfg: mc_volume(RegionId.QUANTUM_Q, cfg),
        headline_report], ids=["mc_volume", "headline_report"])

    @ESTIMATORS
    @pytest.mark.parametrize("cfg", [0, (1000, 1, 1), "x"],
                             ids=["zero", "tuple", "text"])
    def test_a_cfg_that_is_no_config_is_refused(self, monkeypatch, estimate,
                                                cfg):
        # a falsy cfg such as 0 does not fall back to the default 10^7
        # draws: nothing is scored
        def refuse(*args):
            raise AssertionError("the stream was scored")

        monkeypatch.setattr(volumes, "score_stream", refuse)
        with pytest.raises(ValueError) as err:
            estimate(cfg)
        assert str(err.value) == f"cfg must be an EstimatorConfig, got {cfg!r}"

    @ESTIMATORS
    def test_none_is_the_default_config(self, monkeypatch, estimate):
        seen = []

        def record(cfg, regions):
            seen.append(cfg)
            return dict.fromkeys(regions, 1)

        monkeypatch.setattr(volumes, "score_stream", record)
        estimate(None)
        assert seen == [EstimatorConfig()]


    @pytest.mark.parametrize("cfg", [0, (1000, 1, 1), "x"],
                             ids=["zero", "tuple", "text"])
    def test_score_stream_refuses_a_cfg_that_is_no_config(self, monkeypatch,
                                                          cfg):
        def refuse(*args):
            raise AssertionError("the stream was scored")

        monkeypatch.setattr(volumes, "_score_points", refuse)
        with pytest.raises(ValueError) as err:
            score_stream(cfg, [RegionId.LOCAL_C])
        assert str(err.value) == f"cfg must be an EstimatorConfig, got {cfg!r}"

    def test_score_stream_reads_none_as_the_default_config(self):
        # L alone scores no point, so the default's 10^7 points are not drawn
        hits = score_stream(None, [RegionId.NO_SIGNALING_L])
        assert hits == {RegionId.NO_SIGNALING_L: EstimatorConfig().sample_count}


class TestMcVolume:
    def test_cube_region_is_exact(self):
        est = mc_volume(RegionId.NO_SIGNALING_L,
                        EstimatorConfig(sample_count=10_000, seed=3))
        assert est.value == 16.0
        assert est.std_error == 0.0

    def test_local_volume_near_exact_value(self):
        est = mc_volume(RegionId.LOCAL_C,
                        EstimatorConfig(sample_count=300_000, seed=4))
        assert abs(est.value - V_C) < 4.0 * est.std_error

    def test_quantum_volume_near_exact_value(self):
        est = mc_volume(RegionId.QUANTUM_Q,
                        EstimatorConfig(sample_count=300_000, seed=5))
        assert abs(est.value - V_Q) < 4.0 * est.std_error

    def test_std_error_formula(self):
        cfg = EstimatorConfig(sample_count=50_000, seed=6)
        est = mc_volume(RegionId.LOCAL_C, cfg)
        p = est.value / 16.0
        assert est.std_error == pytest.approx(
            16.0 * math.sqrt(p * (1 - p) / cfg.sample_count))

    def test_json_record_fields(self):
        est = mc_volume(RegionId.LOCAL_C, EstimatorConfig(sample_count=1000, seed=1))
        rec = est.as_json_record()
        assert set(rec) == {"region", "method", "value", "std_error",
                            "error_bound", "n", "seed"}
        assert rec["region"] == "C" and rec["method"] == "monte-carlo"
        assert rec["error_bound"] is None


class TestReproducibility:
    def test_bit_identical_for_fixed_seed_and_workers(self):
        cfg = EstimatorConfig(sample_count=200_000, seed=7, worker_count=3)
        a = mc_volume(RegionId.LOCAL_C, cfg)
        b = mc_volume(RegionId.LOCAL_C, cfg)
        assert a.value == b.value

    def test_batch_size_does_not_change_the_stream(self):
        cfg = EstimatorConfig(sample_count=100_000, seed=8, worker_count=4)
        counts = []
        for batch in (100_000, 7_777):
            with mock.patch.object(volumes, "_BATCH", batch):
                counts.append(volumes._score_points(
                    cfg, (RegionId.QUANTUM_Q,),
                    range(cfg.sample_count)).tolist())
        assert counts[0] == counts[1]

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(50, 3000),
           st.integers(1, 3000), st.integers(1, 3))
    def test_estimates_do_not_depend_on_batch_size(self, seed, n, batch,
                                                   workers):
        cfg = EstimatorConfig(sample_count=n, seed=seed, worker_count=workers)
        base = volumes._score_points(cfg, CHAIN, range(cfg.sample_count))
        with mock.patch.object(volumes, "_BATCH", batch):
            alt = volumes._score_points(cfg, CHAIN, range(cfg.sample_count))
        assert base.tolist() == alt.tolist()

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 3000),
           st.lists(st.floats(0.0, 1.0), max_size=5), st.integers(1, 3000))
    def test_point_ranges_sum_to_the_whole_stream(self, seed, n, fractions,
                                                  batch):
        # any split of [0, n) into contiguous ranges, scored at any batch
        # size, adds up to the hit counts of the whole range
        cfg = EstimatorConfig(sample_count=n, seed=seed)
        cuts = [0, *sorted(int(f * n) for f in fractions), n]
        whole = volumes._score_points(cfg, CHAIN, range(n))
        with mock.patch.object(volumes, "_BATCH", batch):
            parts = sum(volumes._score_points(cfg, CHAIN, range(a, b))
                        for a, b in zip(cuts, cuts[1:]))
        assert parts.tolist() == whole.tolist()

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 100_000),
           st.integers(0, 3000))
    @example(0, 3333, 6667)
    @example(2 ** 64 - 1, 1, 1)
    def test_stream_from_point_k_is_the_whole_stream_from_row_k(self, seed,
                                                                k, m):
        # the draws themselves, not their summed counts, which an advance
        # off by a whole point at some split could leave unchanged
        whole = volumes.sample_stream(seed).random((k + m, 4))
        part = volumes.sample_stream(seed, k).random((m, 4))
        assert part.tobytes() == whole[k:].tobytes()

    @pytest.mark.parametrize("args, message", [
        ((0, -1), "start must be >= 0, got -1"),
        ((0, 1.5), "start must be an integer, got 1.5"),
        ((0, True), "start must be an integer, got True"),
        ((-1,), r"seed must be in \[0, 18446744073709551616\), got -1"),
        ((2 ** 64,), "seed must be in"),
        ((1.5,), "seed must be an integer, got 1.5"),
        ((True,), "seed must be an integer, got True"),
    ], ids=["start-negative", "start-float", "start-bool", "seed-negative",
            "seed-past-64-bits", "seed-float", "seed-bool"])
    def test_stream_arguments_follow_the_integer_contract(self, args, message):
        # start -1 would rewind the stream by one point, and seed True would
        # read as seed 1's stream
        with pytest.raises(ValueError, match=message):
            volumes.sample_stream(*args)

    def test_stream_takes_numpy_integers(self):
        a = volumes.sample_stream(np.uint64(7), np.int64(3)).random(8)
        assert a.tobytes() == volumes.sample_stream(7, 3).random(8).tobytes()

    @pytest.mark.parametrize("seed, start", [(0, 0), (3, 12_345), (2 ** 64 - 1, 7)])
    def test_stream_doubles_are_the_top_53_raw_bits(self, seed, start):
        # NEP 19 keeps a bit generator's raw stream stable across numpy
        # releases but not Generator.random, which the stream and CI's
        # sha256 pins read: if a release moves a pin, this names the cause
        k = 100_000
        raw = np.random.PCG64DXSM(seed).advance(4 * start).random_raw(k)
        want = (raw >> np.uint64(11)) * 2.0 ** -53
        got = volumes.sample_stream(seed, start).random(k)
        assert got.tobytes() == want.tobytes()

    def test_stream_is_pinned(self, monkeypatch):
        # the hit counts of a fixed seed's stream, pinned so that a change
        # to the drawn points or to their verdicts shows; 250 007 points
        # leave a partial last batch in every process's range
        expected = dict(zip(CHAIN, (166779, 231391, 237516, 240252, 250007)))
        monkeypatch.setattr(volumes.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            cfg = EstimatorConfig(sample_count=250_007, seed=0,
                                  worker_count=workers)
            hits = score_stream(cfg, CHAIN)
            assert hits == expected, workers
            assert list(hits) == list(CHAIN)

    def test_different_seeds_differ(self):
        a = mc_volume(RegionId.LOCAL_C, EstimatorConfig(sample_count=100_000, seed=1))
        b = mc_volume(RegionId.LOCAL_C, EstimatorConfig(sample_count=100_000, seed=2))
        assert a.value != b.value


class TestSharedStreamMonotonicity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hit_counts_are_nested(self, seed):
        cfg = EstimatorConfig(sample_count=100_000, seed=seed)
        chain = (RegionId.LOCAL_C, RegionId.QUANTUM_Q, RegionId.UFFINK_U,
                 RegionId.TSIRELSON_T, RegionId.NO_SIGNALING_L)
        hits = score_stream(cfg, chain)
        counts = [hits[r] for r in chain]
        assert counts == sorted(counts)
        assert counts[-1] == cfg.sample_count


class TestScoreStream:
    def test_joint_counts_match_scalar_oracles(self):
        # the same draws, scored point by point by the scalar oracles
        n, seed = 20_000, 23
        with mock.patch.object(volumes, "_BATCH", 4096):
            hits = score_stream(EstimatorConfig(sample_count=n, seed=seed),
                                CHAIN)
        pts = [tuple(row) for row in _stream_points(seed, n)]
        _assert_counts(hits, CHAIN,
                       {r: [ORACLES[r](p).inside for p in pts] for r in CHAIN})
        # and by the inequalities written out in the tests
        _assert_counts(hits, CHAIN, {
            r: [ref(p) >= -DEFAULT_TOLERANCE for p in pts]
            for r, ref in zip(CHAIN, reference.CHAIN)})

    @pytest.mark.parametrize("regions", [
        [r] for r in CHAIN] + [[RegionId.TSIRELSON_T, RegionId.LOCAL_C],
                               [RegionId.NO_SIGNALING_L, RegionId.UFFINK_U],
                               [], [RegionId.NO_SIGNALING_L] * 2,
                               [RegionId.QUANTUM_Q] * 2],
        ids=lambda regions: "".join(r.value for r in regions) or "none")
    def test_joint_counts_of_short_region_lists(self, regions):
        # one scored region, alone, beside L or listed twice, takes the
        # stream's one-region path, L scores nothing and [] is an empty
        # dict; [T, C] and [L, U] list regions out of chain order, where the
        # points inside both are still the count of the inner one, and a
        # region listed twice has one key
        n, seed = 20_000, 29
        with mock.patch.object(volumes, "_BATCH", 4096):
            hits = score_stream(EstimatorConfig(sample_count=n, seed=seed),
                                regions)
        pts = [tuple(row) for row in _stream_points(seed, n)]
        _assert_counts(hits, regions, {
            r: [ORACLES[r](p).inside for p in pts] for r in set(regions)})

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 400),
           st.lists(st.sampled_from(CHAIN), min_size=9, max_size=16),
           st.integers(1, 400))
    def test_joint_counts_of_long_region_lists(self, seed, n, regions, batch):
        # more than eight regions, so some listed twice or more: one key
        # each, and every count is still one taken point by point
        with mock.patch.object(volumes, "_BATCH", batch):
            hits = score_stream(EstimatorConfig(sample_count=n, seed=seed),
                                regions)
        pts = [tuple(row) for row in _stream_points(seed, n)]
        _assert_counts(hits, regions, {
            r: [ORACLES[r](p).inside for p in pts] for r in set(regions)})

    @staticmethod
    def _columns_scored(listed, n, seed):
        """The hits of the stream of ``seed`` against ``listed`` in one process,
        and the columns the U and Q kernels received, region by region,
        patched where the stream looks them up."""
        counts = {RegionId.UFFINK_U: 0, RegionId.QUANTUM_Q: 0}

        def counting(region, kernel):
            def wrapped(cols, work, out):
                counts[region] += cols.shape[1]
                return kernel(cols, work, out)
            return wrapped

        with mock.patch.object(volumes, "_uffink_verdicts", counting(
                RegionId.UFFINK_U, volumes._uffink_verdicts)), \
                mock.patch.object(volumes, "_quantum_verdicts", counting(
                    RegionId.QUANTUM_Q, volumes._quantum_verdicts)):
            hits = score_stream(EstimatorConfig(sample_count=n, seed=seed),
                                listed)
        return hits, counts

    def test_chain_scores_u_and_q_on_the_shell_alone(self):
        # C and T decide every point outside T \ C, so U and Q see exactly
        # the shell's columns, N(T) - N(C) of them
        n, seed = 50_000, 31
        hits, counts = self._columns_scored(CHAIN, n, seed)
        shell = hits[RegionId.TSIRELSON_T] - hits[RegionId.LOCAL_C]
        assert 0 < shell < n
        assert counts == {RegionId.UFFINK_U: shell, RegionId.QUANTUM_Q: shell}

    @pytest.mark.parametrize("region", [RegionId.UFFINK_U, RegionId.QUANTUM_Q],
                             ids=lambda r: r.value)
    def test_one_region_scores_every_point(self, region):
        # one region alone is not gated: Q or U alone sees all n
        n = 50_000
        _, counts = self._columns_scored([region], n, 31)
        assert counts[region] == n

    def test_two_regions_take_the_gated_chain(self):
        # any request of two scored regions, here [Q, U] without C and T,
        # takes the chain's gate, so U and Q see the shell alone
        _, shell = self._columns_scored(CHAIN, 50_000, 31)
        _, counts = self._columns_scored(
            [RegionId.QUANTUM_Q, RegionId.UFFINK_U], 50_000, 31)
        assert counts == shell

    def test_chain_counts_nest_by_construction(self):
        # a Q verdict "inside" on every shell column and a U verdict
        # "outside" on every one: Q's count is AND-ed with U's, so the
        # counts stay sorted along the chain and Q's is C's
        def fill(value):
            def kernel(cols, work, out):
                out[...] = value
            return kernel

        cfg = EstimatorConfig(sample_count=20_000, seed=37)
        with mock.patch.object(volumes, "_quantum_verdicts", fill(True)), \
                mock.patch.object(volumes, "_uffink_verdicts", fill(False)):
            hits = score_stream(cfg, CHAIN)
        counts = [hits[r] for r in CHAIN]
        assert counts == sorted(counts)
        assert hits[RegionId.QUANTUM_Q] == hits[RegionId.LOCAL_C]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 3000),
           st.integers(1, 3000))
    @example(3, 200, 1)  # one-point batches: each all shell or none of it
    @example(3, 3000, 3000)
    def test_chain_diagonal_is_each_regions_own_count(self, seed, n, batch):
        # the gated chain and the one-region path of `volume --method mc`
        # count every region's hits alike
        cfg = EstimatorConfig(sample_count=n, seed=seed)
        with mock.patch.object(volumes, "_BATCH", batch):
            chain = score_stream(cfg, CHAIN)
            alone = {r: score_stream(cfg, [r])[r] for r in CHAIN}
        assert chain == alone

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 5000),
           st.sampled_from([2, 3, 4]), st.integers(1, 3000))
    def test_pool_matches_in_process_scoring(self, seed, n, workers, batch):
        # the worker count and the batch size only set speed: the pooled
        # counts are those of the whole range in one process
        cfg = EstimatorConfig(sample_count=n, seed=seed, worker_count=workers)
        serial = score_stream(cfg._replace(worker_count=1), CHAIN)
        with mock.patch.object(volumes.os, "cpu_count", lambda: workers), \
                mock.patch.object(volumes, "_BATCH", batch):
            pooled = score_stream(cfg, CHAIN)
        assert pooled == serial

    def test_pool_spawns_while_other_threads_run(self, monkeypatch):
        import multiprocessing

        methods = []
        real = multiprocessing.get_context

        def recording(method=None):
            methods.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording)
        monkeypatch.setattr(volumes.os, "cpu_count", lambda: 2)
        cfg = EstimatorConfig(sample_count=20_000, seed=4, worker_count=2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            pooled = score_stream(cfg, CHAIN)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert methods == ["spawn"]
        assert pooled == score_stream(cfg._replace(worker_count=1), CHAIN)

    def test_process_count_capped_at_cpu_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        cfg = EstimatorConfig(sample_count=1000, seed=3, worker_count=100_000)
        hits = score_stream(cfg, [RegionId.LOCAL_C])
        assert len(sizes) <= 1 and all(k <= os.cpu_count() for k in sizes)
        assert hits == {RegionId.LOCAL_C: int(volumes._score_points(
            cfg, (RegionId.LOCAL_C,), range(cfg.sample_count))[0])}

    @pytest.mark.parametrize("regions", [[RegionId.NO_SIGNALING_L], []],
                             ids=["L", "none"])
    def test_no_pool_for_a_request_that_scores_no_region(self, monkeypatch,
                                                         regions):
        # L's count is n without a draw, so two workers must not fork one
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        monkeypatch.setattr(volumes.os, "cpu_count", lambda: 2)
        cfg = EstimatorConfig(sample_count=1000, seed=1, worker_count=2)
        hits = score_stream(cfg, regions)
        assert sizes == []
        assert hits == dict.fromkeys(regions, 1000)

    def test_no_process_for_an_empty_range(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a pool was opened for one point")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(volumes.os, "cpu_count", lambda: 4)
        cfg = EstimatorConfig(sample_count=1, seed=5, worker_count=4)
        hits = score_stream(cfg, CHAIN)
        counts = volumes._score_points(cfg, CHAIN, range(1)).tolist()
        assert hits == dict(zip(CHAIN, [*counts, 1]))  # L holds the point

    @staticmethod
    def _stream_faults(first_import: str, **env: str) -> int:
        """Minor page faults of scoring 10^6 chain points in a fresh
        process whose first line is ``first_import``, with ``env`` added to
        its environment."""
        src = Path(volumes.__file__).resolve().parents[1]
        env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        script = first_import + textwrap.dedent("""
            import resource
            from bellvol import volumes
            from bellvol.regions import REGION_CHAIN

            def faults():
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

            cfg = volumes.EstimatorConfig(sample_count=10 ** 6, seed=3)
            volumes._score_points(cfg, REGION_CHAIN, range(4 * volumes._BATCH))
            before = faults()
            volumes._score_points(cfg, REGION_CHAIN, range(cfg.sample_count))
            print(faults() - before)
        """)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return int(run.stdout)

    # every batch works in the buffers _score_points allocates once per
    # range, so 10^6 chain points fault in a few hundred pages whatever the
    # heap's state.  When each batch allocated its temporaries, the count
    # hung on glibc's dynamic thresholds: ~400 with bellvol imported first;
    # ~14k or ~400 with numpy imported first, as the environment varied;
    # 54-66k with the mmap threshold pinned
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="minor faults as Linux counts them")
    def test_stream_minor_fault_budget(self):
        assert self._stream_faults("") < 2000

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="minor faults as Linux counts them")
    def test_stream_minor_fault_budget_with_numpy_imported_first(self):
        assert self._stream_faults("import numpy\n") < 2000

    @pytest.mark.skipif(sys.platform != "linux"
                        or platform.libc_ver()[0] != "glibc",
                        reason="glibc's malloc reads the variable")
    def test_stream_minor_fault_budget_with_mmap_threshold_pinned(self):
        # a fixed threshold, glibc's default of 128 KiB, which no freed
        # block can raise: an array of a batch's size would be mapped and
        # faulted in afresh every batch
        assert self._stream_faults(
            "", MALLOC_MMAP_THRESHOLD_=str(128 * 1024)) < 2000

    def test_stream_traced_peak_is_its_buffers(self):
        # a range's buffers are the draw block and the column buffer, 4 * b
        # floats each, and two bool rows of b (C and T, then Q and U on the
        # shell); 8 batches may add no array of a batch's size on top, only
        # the index of a batch's shell T \ C, ~29 % of b int64s (~38 KiB),
        # within the 128 KiB
        b = volumes._BATCH
        buffers = (2 * 4 * 8 + 2) * b
        cfg = EstimatorConfig(sample_count=8 * b, seed=3)
        volumes._score_points(cfg, CHAIN, range(b))
        tracemalloc.start()
        try:
            volumes._score_points(cfg, CHAIN, range(cfg.sample_count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffers + 128 * 1024, (peak, buffers)


class TestRatioEstimate:
    """The ratios of ``headline_report``, the one ratio entry point."""

    def test_local_over_cube(self):
        rep = headline_report(EstimatorConfig(sample_count=300_000, seed=9))
        est = rep["ratios"]["C/L"]
        assert abs(est["value"] - 2.0 / 3.0) < 4.0 * est["std_error"]

    def test_quantum_over_local(self):
        rep = headline_report(EstimatorConfig(sample_count=300_000, seed=10))
        est = rep["ratios"]["Q/C"]
        assert abs(est["value"] - (3.0 * math.pi / 8.0) ** 2) \
            < 4.0 * est["std_error"]

    @pytest.mark.parametrize("a, b", [("Q", "C"), ("Q", "L"), ("C", "L")])
    def test_value_equals_count_ratio(self, a, b):
        cfg = EstimatorConfig(sample_count=50_000, seed=11)
        hits = score_stream(cfg, [RegionId(a), RegionId(b)])
        est = headline_report(cfg)["ratios"][f"{a}/{b}"]
        assert est["value"] == hits[RegionId(a)] / hits[RegionId(b)]

    def test_degenerate_denominator(self):
        # a single-sample stream whose point falls outside the local set
        for seed in range(100):
            cfg = EstimatorConfig(sample_count=1, seed=seed)
            if score_stream(cfg, [RegionId.LOCAL_C])[RegionId.LOCAL_C] == 0:
                with pytest.raises(DegenerateDenominator):
                    headline_report(cfg)
                return
        pytest.fail("no seed produced a point outside the local set")


class TestCltCalibration:
    def test_reported_error_matches_spread_over_seeds(self):
        estimates = [mc_volume(RegionId.LOCAL_C,
                               EstimatorConfig(sample_count=1_000_000, seed=s))
                     for s in range(100)]
        values = np.array([e.value for e in estimates])
        reported = np.mean([e.std_error for e in estimates])
        empirical = values.std(ddof=1)
        assert abs(empirical - reported) / reported < 0.30


class TestDeviationsLookNormal:
    def test_deviation_sigmas_over_fixed_seeds(self):
        # over seeds 0-199 at n = 20 000, the deviations in standard errors
        # of V_C, V_Q and Q/C should be draws of N(0, 1), as for any sound
        # stream, whatever its bytes.  Bounds derived from N(0, 1) before
        # any run:
        # |z| has mean sqrt(2/pi) = 0.798 and sd sqrt(1 - 2/pi) = 0.603, so
        # mean |z| over 200 seeds has standard error 0.0426, and 4 of them
        # give [0.627, 0.969].  P(|z| > 3) = 0.0027, so the count over 200
        # seeds is about Poisson(0.54): P(count >= 6) = 2.2e-5, below the
        # one-sided 4-sigma tail 3.2e-5, so at most 5
        rows = [("volumes", "C"), ("volumes", "Q"), ("ratios", "Q/C")]
        z = np.array([[rep[section][key]["deviation_sigmas"]
                       for section, key in rows]
                      for rep in (headline_report(EstimatorConfig(
                          sample_count=20_000, seed=seed))
                          for seed in range(200))])
        mean_abs, beyond = np.abs(z).mean(axis=0), (np.abs(z) > 3).sum(axis=0)
        for (_, key), m, count in zip(rows, mean_abs, beyond):
            assert 0.627 <= m <= 0.969, (key, m)
            assert count <= 5, (key, count)


class TestGaussLegendreTable:
    """``estimates._GL_HALF`` stores half of each rule of numpy's ``leggauss``;
    ``_gauss_legendre`` mirrors it back to the whole rule."""

    def test_table_covers_every_order(self):
        # the order ladder is the table's keys, read off it, not listed twice
        assert (estimates._GL_ORDERS == tuple(estimates._GL_HALF)
                == (8, 16, 32))

    @pytest.mark.parametrize("n", estimates._GL_ORDERS)
    def test_rule_is_leggauss(self, n):
        # bit for bit where tabulated; another LAPACK may round the
        # eigenvalues of leggauss differently by an ulp or so
        t, w = estimates._gauss_legendre(n)
        live_t, live_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_max_ulp(t, live_t, maxulp=4)
        np.testing.assert_array_max_ulp(w, live_w, maxulp=4)

    @pytest.mark.parametrize("n", estimates._GL_ORDERS)
    def test_rule_is_exactly_symmetric(self, n):
        t, w = estimates._gauss_legendre(n)
        assert len(t) == len(w) == n
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(t) > 0) and np.all(w > 0)

    @pytest.mark.parametrize("n", estimates._GL_ORDERS)
    def test_rule_integrates_even_powers(self, n):
        # exact up to degree 2n - 1; odd powers vanish by the symmetry
        t, w = estimates._gauss_legendre(n)
        for k in range(n):
            assert abs(float(w @ t ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-14

    @pytest.mark.parametrize("abs_tol", [1e-7, 1e-9])
    @pytest.mark.parametrize("region", [RegionId.QUANTUM_Q, RegionId.UFFINK_U])
    def test_volumes_match_live_leggauss_rules(self, monkeypatch, region,
                                               abs_tol):
        stored = quadrature_volume(region, abs_tol=abs_tol)
        live = {n: tuple(a[:n // 2]
                         for a in np.polynomial.legendre.leggauss(n))
                for n in estimates._GL_ORDERS}
        monkeypatch.setattr(estimates, "_GL_HALF", live)
        est = quadrature_volume(region, abs_tol=abs_tol)
        assert abs(est.value - stored.value) <= 1e-13
        assert abs(est.error_bound - stored.error_bound) <= 1e-13


def _poly_integral(coeffs, a, b):
    """The integral from a to b of the polynomial sum(c_k x^k)."""
    return sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
               for k, c in enumerate(coeffs))


def _line_power(c, s, n):
    """The coefficients of (c + s x)^n, exactly."""
    out = [Fraction(1)]
    for _ in range(n):
        out = [a * c + b * s for a, b in zip(out + [0], [0] + out)]
    return out


#: A cell of ``estimates._linear_cells``' shape: x0 < x1 in [0, 2] and
#: two lines z = c + s x, s in {0, -1}, the first at least 0 and at least
#: 0.01 below the second on all of [x0, x1].
CELLS = st.tuples(
    st.floats(0.0, 1.9), st.floats(0.01, 2.0), st.floats(0.0, 2.0),
    st.floats(0.01, 2.0), st.sampled_from([0.0, -1.0]),
    st.sampled_from([0.0, -1.0])).map(
        lambda v: (v[0], min(v[0] + v[1], 2.0), (v[2] - 2.0 * v[4], v[4]),
                   (v[2] - 2.0 * v[4] + v[3] + 2.0, v[5])))


def _order_two_nodes(cell):
    """The four nodes (x, z, jac) of the tensor order-2 rule on ``cell``,
    each of weight 1/4, as ``estimates._l1_volume`` maps them."""
    return [estimates._cell_map(cell, t, s) for t in estimates._GL2_NODES
            for s in estimates._GL2_NODES]


#: Lists of cells as ``estimates`` cuts them: Q's in arcsin coordinates,
#: for any half-width h in (0, pi], and C's and T's, for any bound in [2, 4].
LINEAR_CELLS = st.one_of(
    st.floats(0.0, math.pi, exclude_min=True).map(
        lambda h: estimates._linear_cells(math.pi, h, [(math.pi - h, 0.0)])),
    st.floats(2.0, 4.0).map(
        lambda b: estimates._linear_cells(2.0, b, [(4.0 - b, -1.0)])))


class TestOrderTwoRule:
    """C and T: one order-2 Gauss-Legendre pass over the cells of
    ``estimates._linear_cells``, mapped by ``estimates._cell_map``, exact
    for their polynomial slices, with an error bound derived by forward
    error analysis."""

    def test_nodes_are_correctly_rounded(self):
        with localcontext() as ctx:
            ctx.prec = 40
            root = Decimal(3).sqrt()
            exact = ((3 - root) / 6, (3 + root) / 6)
        assert estimates._GL2_NODES == tuple(map(float, exact))

    @settings(deadline=None, max_examples=200)
    @given(CELLS, st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
    def test_rule_is_exact_in_cell_coordinates(self, cell, coeffs):
        # P(t, s) of degree <= 3 in t and <= 2 in s, pulled onto the cell:
        # g = P / jac there, so the integral of g over the cell is that of
        # P over the unit square
        x0, x1, (c0, s0), (c1, s1) = cell
        p = [coeffs[3 * i:3 * i + 3] for i in range(4)]  # p[i][j] t^i s^j

        def g(x, z):
            z0, z1 = c0 + s0 * x, c1 + s1 * x
            t, s = (x - x0) / (x1 - x0), (z - z0) / (z1 - z0)
            return sum(p[i][j] * t ** i * s ** j
                       for i in range(4) for j in range(3)) / (
                (x1 - x0) * (z1 - z0))
        rule = math.fsum(jac * g(x, z) / 4 for x, z, jac
                         in _order_two_nodes(cell))
        exact = sum(Fraction(p[i][j]) / ((i + 1) * (j + 1))
                    for i in range(4) for j in range(3))
        assert abs(rule - float(exact)) <= 1e-10  # rounding alone

    @settings(deadline=None, max_examples=200)
    @given(CELLS, st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_rule_is_exact_for_quadratics_in_x_and_z(self, cell, coeffs):
        # the slice areas of C and T are such quadratics on each cell
        x0, x1, (c0, s0), (c1, s1) = cell
        powers = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        rule = math.fsum(jac * sum(c * x ** i * z ** j for c, (i, j)
                                   in zip(coeffs, powers)) / 4
                         for x, z, jac in _order_two_nodes(cell))
        exact = Fraction(0)
        for c, (i, j) in zip(coeffs, powers):
            # the integral of x^i (z1^(j+1) - z0^(j+1)) / (j + 1) over x
            top, bottom = (_line_power(Fraction(c_), Fraction(s_), j + 1)
                           for c_, s_ in ((c1, s1), (c0, s0)))
            inner = [(a - b) / (j + 1) for a, b in zip(top, bottom)]
            exact += Fraction(c) * _poly_integral(
                [0] * i + inner, Fraction(x0), Fraction(x1))
        assert abs(rule - float(exact)) <= 1e-10  # rounding alone

    @settings(deadline=None, max_examples=200)
    @given(LINEAR_CELLS, st.data(),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_array_map_equals_the_scalar_calls(self, cells, data, nodes):
        # Q maps a grid of nodes at once, C and T one node at a time: both
        # must give the same bits, as their bytes did before one map served
        cell = data.draw(st.sampled_from(cells))
        t = np.array(nodes)
        x, z, jac = estimates._cell_map(cell, t[:, None], t)
        assert x.shape == jac.shape == (len(nodes), 1)
        assert z.shape == (len(nodes), len(nodes))
        for i, ti in enumerate(nodes):
            for j, sj in enumerate(nodes):
                want = estimates._cell_map(cell, ti, sj)
                got = (x[i, 0], z[i, j], jac[i, 0])
                assert [float(v).hex() for v in got] == [
                    v.hex() for v in want], (cell, ti, sj)

    @staticmethod
    def _tiling(bound):
        """The cells of {0 <= x, z <= 2, x + z <= bound} cut at the kink
        x + z = 4 - bound, read exactly: the largest amount by which a cell
        corner leaves the region or a cell crosses the kink, and the cells'
        summed area less the region's, 4 - (4 - bound)^2 / 2."""
        b, kink = Fraction(bound), 4 - Fraction(bound)
        total, worst = Fraction(0), Fraction(0)
        for cell in estimates._linear_cells(2.0, bound,
                                            [(4.0 - bound, -1.0)]):
            x0, x1, c0, s0, c1, s1 = map(Fraction, (*cell[:2], *cell[2],
                                                   *cell[3]))
            assert 0 <= x0 < x1 <= 2
            above, below = [], []
            for x in (x0, x1):
                lo, hi = c0 + s0 * x, c1 + s1 * x
                worst = max(worst, -lo, lo - hi, hi - 2, x + hi - b)
                above.append(kink - x - lo)
                below.append(x + hi - kink)
            worst = max(worst, min(max(above), max(below)))
            total += (x1 - x0) * (2 * (c1 - c0) + (s1 - s0) * (x0 + x1)) / 2
        return worst, total - (4 - kink ** 2 / 2)

    @pytest.mark.parametrize("bound", [2.0, regions.TSIRELSON_BOUND],
                             ids=["C", "T"])
    def test_cells_tile_the_region_exactly(self, bound):
        # the cells _l1_volume integrates over for C and T
        assert self._tiling(bound) == (0, 0)

    @settings(deadline=None, max_examples=300)
    @given(st.floats(2.0, 4.0))
    @example(3.0)
    @example(4.0)
    @example(math.nextafter(2.0, 3.0))
    def test_cells_tile_the_region_exactly_for_every_bound(self, bound):
        # at a bound an ulp above 2 the strip [0, bound - 2] is 2^-51 wide,
        # and the line x + z = bound lies above the box at its left end
        assert self._tiling(bound) == (0, 0)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(2.0, 4.0))
    @example(2.0)
    @example(regions.TSIRELSON_BOUND)
    def test_volume_within_its_bound_for_every_bound(self, bound):
        # the cube cut by |S - 2 c_ij| <= bound has volume
        # 16 - (4 - bound)^4 / 3 (estimates docstring), read exactly
        value, err = estimates._l1_volume(bound, 0.0)
        exact = 16 - (4 - Fraction(bound)) ** 4 / 3
        assert abs(Fraction(value) - exact) <= err <= 1e-12

    @pytest.mark.parametrize("abs_tol", [1e-6, 1e-7, 1e-9])
    @pytest.mark.parametrize("region, closed_form", [
        (RegionId.LOCAL_C, lambda: mpmath.mpf(32) / 3),
        (RegionId.TSIRELSON_T, lambda: (768 * mpmath.sqrt(2) - 1040) / 3)],
        ids=["C", "T"])
    def test_closed_form_within_the_derived_bound(self, region, closed_form,
                                                  abs_tol):
        # T's bound covers the float TSIRELSON_BOUND standing in for 2 sqrt 2
        est = quadrature_volume(region, abs_tol=abs_tol)
        with mpmath.workdps(40):
            off = abs(mpmath.mpf(est.value) - closed_form())
        assert off <= est.error_bound <= 1e-12


class TestQuadrature:
    def test_quantum_volume_hits_closed_form(self):
        est = quadrature_volume(RegionId.QUANTUM_Q, abs_tol=1e-9)
        assert est.method == "quadrature" and est.std_error == 0.0
        assert abs(est.value - V_Q) <= 1e-9
        assert est.error_bound <= 1e-9

    @settings(deadline=None)
    @given(st.floats(0.0, math.pi / 2.0))
    def test_small_half_width_matches_diamond_product(self, h):
        value, err = estimates._arcsin_volume(h, abs_tol=1e-9)
        assert abs(value - _v_q_diamonds(h)) <= 1e-9
        assert err <= 1e-9

    @settings(deadline=None)
    @given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
    def test_volume_non_decreasing_in_half_width(self, h1, h2):
        lo, hi = sorted((h1, h2))
        tol = 1e-9
        v_lo = estimates._arcsin_volume(lo, abs_tol=tol)[0]
        v_hi = estimates._arcsin_volume(hi, abs_tol=tol)[0]
        assert v_lo <= v_hi + 2.0 * tol

    def test_halving_tolerance_is_stable(self):
        tol = 1e-4
        prev = quadrature_volume(RegionId.QUANTUM_Q, abs_tol=tol).value
        for _ in range(3):
            cur = quadrature_volume(RegionId.QUANTUM_Q, abs_tol=tol / 2).value
            assert abs(cur - prev) <= tol
            prev, tol = cur, tol / 2

    def test_degenerate_slab_width_gives_zero(self):
        assert estimates._arcsin_volume(0.0, abs_tol=1e-6)[0] == 0.0

    def test_rejects_too_small_tolerance(self):
        with pytest.raises(ValueError):
            quadrature_volume(RegionId.QUANTUM_Q, abs_tol=1e-10)

    @pytest.mark.parametrize("call", [
        lambda: quadrature_volume(RegionId.QUANTUM_Q, abs_tol=math.nan),
        lambda: quadrature_volume(RegionId.QUANTUM_Q, abs_tol=math.inf),
        lambda: quadrature_volume(RegionId.LOCAL_C, abs_tol=math.nan),
        lambda: quadrature_volume(RegionId.UFFINK_U, abs_tol=math.nan),
        lambda: quadrature_volume(RegionId.NO_SIGNALING_L, abs_tol=math.inf),
        lambda: quadrature_volume(RegionId.LOCAL_C, abs_tol="1e-6"),
        lambda: quadrature_volume(RegionId.LOCAL_C, abs_tol=None),
        lambda: quadrature_volume(RegionId.NO_SIGNALING_L, abs_tol="1e-6"),
        # True == 1, but a bool is no tolerance
        lambda: quadrature_volume(RegionId.LOCAL_C, abs_tol=True),
        lambda: quadrature_volume(RegionId.QUANTUM_Q, abs_tol=np.True_),
        # an int beyond the float range is no finite tolerance either
        lambda: quadrature_volume(RegionId.UFFINK_U, abs_tol=10 ** 400),
    ])
    def test_rejects_non_finite_input(self, call):
        with pytest.raises(ValueError):
            call()

    def test_order_cap_raises(self, monkeypatch):
        # U needs order 32 to certify 1e-9; a cap of 16 must refuse
        monkeypatch.setattr(estimates, "_GL_ORDERS", (8, 16))
        with pytest.raises(ToleranceNotMet):
            quadrature_volume(RegionId.UFFINK_U, abs_tol=1e-9)

    def test_local_volume_exact(self):
        est = quadrature_volume(RegionId.LOCAL_C, abs_tol=1e-9)
        assert abs(est.value - V_C) <= 1e-9
        assert est.error_bound <= 1e-9

    def test_cube_volume(self):
        est = quadrature_volume(RegionId.NO_SIGNALING_L)
        assert est.value == 16.0 and est.error_bound == 0.0

    def test_linear_bound_volume_matches_corner_cut_formula(self):
        # Independent oracle: the eight violation regions |S - 2c_ij| > 2√2
        # are pairwise disjoint (any two bounds cannot be exceeded at once),
        # and each equals the Irwin-Hall tail 16*(17 - 12*sqrt(2))/6, so
        # V_T = 16 - 8*16*(17 - 12*sqrt(2))/6 = (768*sqrt(2) - 1040)/3.
        est = quadrature_volume(RegionId.TSIRELSON_T, abs_tol=1e-9)
        assert abs(est.value - V_T_CLOSED_FORM) <= 1e-9
        assert est.error_bound <= 1e-9

    def test_circle_region_volume_reference(self):
        assert abs(float(_v_u_mpmath()) - V_U_REFERENCE) <= 1e-14
        est = quadrature_volume(RegionId.UFFINK_U, abs_tol=1e-9)
        assert abs(est.value - V_U_REFERENCE) <= 1e-9
        assert est.error_bound <= 1e-9

    def test_circle_region_corner_integral(self):
        # the piece f1 > 4 of the cube: 4 * integral of (2 - x)(2 - z) over
        # [0, 2]^2 outside the quarter disk, here by mpmath in polar form
        with mpmath.workdps(30):
            def outside(t):
                r0 = 2 / mpmath.cos(t)          # edge x = 2 for t <= pi/4
                return mpmath.quad(
                    lambda r: (2 - r * mpmath.cos(t)) * (2 - r * mpmath.sin(t)) * r,
                    [2, r0])
            corner = 8 * mpmath.quad(outside, [0, mpmath.pi / 4])
            assert abs(corner - (mpmath.mpf(152) / 3 - 16 * mpmath.pi)) < 1e-25
            assert abs(16 - 2 * corner - V_U_REFERENCE) <= 1e-14

    def test_circle_region_against_monte_carlo(self):
        quad = quadrature_volume(RegionId.UFFINK_U, abs_tol=1e-7)
        mc = mc_volume(RegionId.UFFINK_U, EstimatorConfig(sample_count=1_000_000,
                                                          seed=12))
        assert abs(quad.value - mc.value) < 4.0 * mc.std_error


class TestNumericTU:
    def test_mc_default(self):
        cfg = EstimatorConfig(sample_count=200_000, seed=13)
        t = mc_volume(RegionId.TSIRELSON_T, cfg)
        u = mc_volume(RegionId.UFFINK_U, cfg)
        assert t.method == "monte-carlo" and u.method == "monte-carlo"
        assert abs(t.value / 16.0 - 0.961) < 0.01
        assert abs(u.value / 16.0 - 0.950) < 0.01

    def test_quadrature_option(self):
        t = quadrature_volume(RegionId.TSIRELSON_T, abs_tol=1e-7)
        assert abs(t.value - V_T_CLOSED_FORM) <= 1e-7

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            quadrature_volume("bogus")

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_quadratic_region_dominated_by_linear_region(self, seed):
        cfg = EstimatorConfig(sample_count=100_000, seed=seed)
        hits = score_stream(cfg, [RegionId.UFFINK_U, RegionId.TSIRELSON_T])
        assert hits[RegionId.UFFINK_U] <= hits[RegionId.TSIRELSON_T]


class TestExactRegionVolume:
    def test_local(self):
        assert exact_region_volume(RegionId.LOCAL_C) == Fraction(32, 3)
        # the closed form against the engine's triangulation of the hull
        assert exact_region_volume(RegionId.LOCAL_C) \
            == polytopes.exact_volume(polytopes.correlation_polytope_C())

    def test_cube(self):
        assert exact_region_volume(RegionId.NO_SIGNALING_L) == 16
        cube = polytopes.enumerate_vertices(polytopes.cube_polytope_h(4))
        assert exact_region_volume(RegionId.NO_SIGNALING_L) \
            == polytopes.exact_volume(cube)

    def test_closed_forms_run_no_double_description(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("double description run")

        monkeypatch.setattr(polytopes, "_double_description", refuse)
        for region in (RegionId.LOCAL_C, RegionId.NO_SIGNALING_L):
            assert type(exact_region_volume(region)) is Fraction
        with pytest.raises(AssertionError, match="double description run"):
            polytopes.exact_volume(polytopes.correlation_polytope_C())

    def test_unsupported(self):
        with pytest.raises(ValueError):
            exact_region_volume(RegionId.QUANTUM_Q)


@pytest.mark.parametrize("estimate", [
    lambda region: mc_volume(region, EstimatorConfig(sample_count=10)),
    quadrature_volume, exact_region_volume],
    ids=["mc", "quadrature", "exact"])
@pytest.mark.parametrize("region", ["C", "Q"])
def test_a_region_that_is_not_a_region_id_is_refused(estimate, region):
    with pytest.raises(ValueError, match=f"unknown region '{region}'"):
        estimate(region)


class TestAnalyticConstants:
    def test_values(self):
        c = ANALYTIC
        assert c["V_C"] == pytest.approx(32.0 / 3.0, rel=0, abs=0)
        assert c["V_L"] == 16.0
        assert c["V_Q"] == pytest.approx(14.80440660, abs=5e-9)
        assert c["ratio_QC"] == pytest.approx(1.38791312, abs=5e-9)
        assert c["ratio_QL"] == pytest.approx(0.92527541, abs=5e-9)
        assert c["ratio_CL"] == pytest.approx(2.0 / 3.0, rel=0, abs=0)
        assert c["V_U"] == V_U_REFERENCE
        assert c["V_U"] == pytest.approx(15.19763158154005, abs=5e-14)
        assert c["V_T"] == V_T_CLOSED_FORM
        assert list(c) == ["V_C", "V_L", "V_Q", "V_U", "V_T",
                           "ratio_QC", "ratio_QL", "ratio_CL"]

    def test_read_only(self):
        with pytest.raises(TypeError):
            ANALYTIC["V_C"] = 0.0

    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    def test_each_constant_is_its_closed_form_correctly_rounded(self, name):
        # float() rounds the 50-digit value to the nearest double
        assert ANALYTIC[name] == float(CLOSED_FORMS[name])

    def test_tsirelson_volume_by_exact_arithmetic(self):
        """V_T from the polytope engine, with no float on the way.

        The cube cut by |S - 2 c_ij| <= B is a rational polytope for
        rational B: C at B = 2, the cube at B = 4.  On [2, 4] its volume is
        the cube minus 8 disjoint Irwin-Hall corners, a quartic in B.  The
        quartic through five rational B, checked at a sixth, is evaluated
        at B = 2 sqrt(2) in Q(sqrt(2)) as a + b sqrt(2)."""
        def volume(bound):
            cube = polytopes.cube_polytope_h(4).halfspaces
            cuts = [polytopes.Halfspace.normalized(
                [sign * (1 - 2 * (k == m)) for k in range(4)], bound)
                for m in range(4) for sign in (1, -1)]
            return polytopes.exact_volume(polytopes.enumerate_vertices(
                polytopes.RationalPolytope(dim=4, halfspaces=(*cube, *cuts))))

        nodes = [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2),
                 Fraction(4)]
        values = [volume(b) for b in nodes]
        assert values == [Fraction(32, 3), Fraction(229, 16), Fraction(47, 3),
                          Fraction(767, 48), Fraction(16)]
        # monomial coefficients c_0..c_4 by Lagrange interpolation
        coeffs = [Fraction(0)] * 5
        for i, (bi, vi) in enumerate(zip(nodes, values)):
            basis = [Fraction(1)]       # prod over j != i of (B - b_j)
            for bj in nodes[:i] + nodes[i + 1:]:
                basis = [x - bj * y for x, y in zip([0, *basis], [*basis, 0])]
            scale = vi / math.prod(bi - bj for bj in nodes if bj != bi)
            coeffs = [c + scale * x for c, x in zip(coeffs, basis)]
        assert coeffs == [Fraction(-208, 3), Fraction(256, 3), -32,
                          Fraction(16, 3), Fraction(-1, 3)]
        check = Fraction(11, 4)
        assert volume(check) == sum(c * check ** k for k, c in enumerate(coeffs))
        # (2 sqrt(2))^k = 1, 2 sqrt(2), 8, 16 sqrt(2), 64
        a = coeffs[0] + 8 * coeffs[2] + 64 * coeffs[4]
        b = 2 * coeffs[1] + 16 * coeffs[3]
        assert (a, b) == (Fraction(-1040, 3), 256)
        assert ANALYTIC["V_T"] == pytest.approx(
            float(a) + float(b) * math.sqrt(2.0), rel=1e-15)

    def test_ratios_equal_quotients(self):
        c = ANALYTIC
        assert c["ratio_QC"] == pytest.approx(c["V_Q"] / c["V_C"], rel=1e-15)
        assert c["ratio_QL"] == pytest.approx(c["V_Q"] / c["V_L"], rel=1e-15)
        assert c["ratio_CL"] == pytest.approx(c["V_C"] / c["V_L"], rel=1e-15)


class TestExcessReport:
    """Excesses over the quantum set: quotients of quadrature volumes, and
    the ``excesses`` rows of the headline report on a shared stream."""

    def test_quadrature_values(self):
        v_q, v_t, v_u = (quadrature_volume(r, abs_tol=1e-7) for r in (
            RegionId.QUANTUM_Q, RegionId.TSIRELSON_T, RegionId.UFFINK_U))
        excess_t = v_t.value / v_q.value - 1.0
        excess_u = v_u.value / v_q.value - 1.0
        assert excess_t == pytest.approx(V_T_CLOSED_FORM / V_Q - 1.0, abs=1e-7)
        assert excess_u == pytest.approx(V_U_REFERENCE / V_Q - 1.0, abs=1e-6)
        assert 1.0 - v_q.value / v_t.value == pytest.approx(
            1.0 - V_Q / V_T_CLOSED_FORM, abs=1e-7)
        assert v_t.std_error == 0.0 and v_q.std_error == 0.0

    def test_mc_agrees_with_quadrature(self):
        cfg = EstimatorConfig(sample_count=400_000, seed=14)
        rep = headline_report(cfg)["excesses"]
        t, u = rep["T/Q-1"], rep["U/Q-1"]
        hits = score_stream(cfg, [RegionId.QUANTUM_Q, RegionId.TSIRELSON_T])
        fraction, err = volumes._ratio_with_error(
            hits[RegionId.QUANTUM_Q], hits[RegionId.TSIRELSON_T],
            cfg.sample_count)
        assert t["std_error"] > 0.0
        assert abs(t["value"] - 0.03834) < 4.0 * t["std_error"]
        assert abs(u["value"] - 0.02656) < 4.0 * u["std_error"]
        assert abs((1.0 - fraction) - 0.03692) < 4.0 * err


class TestHeadlineReport:
    def test_structure_and_consistency(self):
        cfg = EstimatorConfig(sample_count=100_000, seed=15)
        rep = headline_report(cfg)
        assert set(rep["volumes"]) == {"C", "Q", "U", "T", "L"}
        assert set(rep["ratios"]) == {"Q/C", "Q/L", "C/L"}
        assert set(rep["excesses"]) == {"T/Q-1", "U/Q-1"}
        assert rep["volumes"]["L"]["value"] == 16.0
        for region, ref in (("C", ANALYTIC["V_C"]), ("Q", ANALYTIC["V_Q"]),
                            ("U", V_U_REFERENCE), ("T", V_T_CLOSED_FORM)):
            rec = rep["volumes"][region]
            assert rec["analytic"] == ref
            assert rec["deviation_sigmas"] == \
                (rec["value"] - ref) / rec["std_error"]
            assert abs(rec["deviation_sigmas"]) < 5
        assert rep["volumes"]["L"]["analytic"] == 16.0
        assert rep["volumes"]["L"]["deviation_sigmas"] is None
        # each ratio is the delta-method quotient of the shared-stream
        # counts, whichever regions the stream is scored against
        for a, b in ("QC", "QL", "CL"):
            hits = score_stream(cfg, [RegionId(a), RegionId(b)])
            row = rep["ratios"][f"{a}/{b}"]
            assert (row["value"], row["std_error"]) == volumes._ratio_with_error(
                hits[a], hits[b], cfg.sample_count)

    def test_excess_rows_carry_analytic_values(self):
        rep = headline_report(EstimatorConfig(sample_count=100_000, seed=15))
        t, u = rep["excesses"]["T/Q-1"], rep["excesses"]["U/Q-1"]
        assert t["analytic"] == ANALYTIC["V_T"] / ANALYTIC["V_Q"] - 1.0
        assert abs(t["analytic"] - (V_T_CLOSED_FORM / V_Q - 1.0)) <= 1e-15
        assert u["analytic"] == ANALYTIC["V_U"] / ANALYTIC["V_Q"] - 1.0
        closed = 64.0 / (3.0 * math.pi) - 512.0 / (9.0 * math.pi ** 2) - 1.0
        assert abs(u["analytic"] - closed) <= 1e-15
        for rec in (t, u):
            assert rec["deviation_sigmas"] == \
                (rec["value"] - rec["analytic"]) / rec["std_error"]
            assert abs(rec["deviation_sigmas"]) < 5

    def test_deterministic(self):
        cfg = EstimatorConfig(sample_count=50_000, seed=16)
        assert headline_report(cfg) == headline_report(cfg)


# --------------------------------------------------------------------------
# the Monte Carlo stream's verdicts
# --------------------------------------------------------------------------

QUANTUM = RegionId.QUANTUM_Q
#: Steps along a ray off the boundary of Q: 0 and +-1e-15 ... +-1e-9.
OFFSETS = (0.0, *(sign * 10.0 ** -k for k in range(9, 16) for sign in (1, -1)))


#: The regions the stream's verdict kernels decide: L is never scored.
SCORED = CHAIN[:-1]


def _column_verdicts(regions_, cols):
    """The stream's verdicts of the distinct ``regions_`` among C, Q, U
    and T on (4, m) columns, one new row each, as the stream calls the
    kernels: C and T from one CHSH maximum, all in one work array."""
    out = {region: np.empty(cols.shape[1], dtype=bool) for region in regions_}
    work = np.empty(cols.shape)
    local, tsirelson = out.get(RegionId.LOCAL_C), out.get(RegionId.TSIRELSON_T)
    if local is not None or tsirelson is not None:
        volumes._chsh_verdicts(cols, work, local, tsirelson)
    if RegionId.UFFINK_U in out:
        volumes._uffink_verdicts(cols, work, out[RegionId.UFFINK_U])
    if QUANTUM in out:
        volumes._quantum_verdicts(cols, work, out[QUANTUM])
    return [out[region] for region in regions_]


def _assert_verdicts_follow_margins(points):
    """The stream's verdicts of C, Q, U and T together, and of each alone,
    equal margin >= -DEFAULT_TOLERANCE for every region and point."""
    rows = np.array(points, dtype=np.float64)
    cols = np.ascontiguousarray(rows.T)
    for region, inside in zip(SCORED, _column_verdicts(SCORED, cols)):
        rule = region_margins(region, rows) >= -DEFAULT_TOLERANCE
        (alone,) = _column_verdicts([region], cols)
        for verdicts in (inside, alone):
            wrong = np.flatnonzero(verdicts != rule)
            assert verdicts.dtype == bool and verdicts.shape == rule.shape
            assert not wrong.size, (region.value, len(wrong),
                                    cols[:, wrong[:3]].T)


def _facet_points(bound):
    """The eight points with |S - 2 c_ij| = ``bound``, one per CHSH facet:
    every coordinate sigma * bound / 4 but c_ij, which has the other sign."""
    a = bound / 4.0
    return [tuple(-sigma * a if k == ij else sigma * a for k in range(4))
            for ij in range(4) for sigma in (1.0, -1.0)]


#: Points on the two circles of U: (c00 + c11)^2 + (c01 - c10)^2 = 4 and
#: (c00 - c11)^2 + (c01 + c10)^2 = 4.
U_CIRCLES = [p for angle in (0.3, math.pi / 4, 1.2, 2.5)
             for c, s in [(math.cos(angle), math.sin(angle))]
             for p in ((c, s, -s, c), (c, s, s, -c))]


def _where_rounding_decides(points, bound, degree):
    """``points``, on a boundary where a constraint of degree ``degree``
    reaches ``bound``, and the same points scaled out to where its margin
    is -DEFAULT_TOLERANCE, each with its neighbours one ulp farther from
    and nearer to the origin in every coordinate: the verdict flips within
    each scaled triple, so only the margin rule's own rounding decides it."""
    scale = (1.0 + DEFAULT_TOLERANCE / bound) ** (1.0 / degree)
    out = []
    for p in points + [tuple(scale * v for v in p) for p in points]:
        out += [p, tuple(math.nextafter(v, math.copysign(math.inf, v))
                         for v in p),
                tuple(math.nextafter(v, 0.0) for v in p)]
    return out


def _to_q_boundary(base, step):
    """Rows with ``base`` in Q and ``base + step`` outside, as (base, step,
    t) with t the largest scale in [0, 1] at which bisection by the arcsin
    margin finds ``base + t * step`` inside Q."""
    out = region_margins(QUANTUM, base + step) < 0
    base, step = base[out], step[out]
    lo, hi = np.zeros(len(step)), np.ones(len(step))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = region_margins(QUANTUM, base + step * mid[:, None]) >= 0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return base, step, lo


def _rays_to_q_boundary(directions):
    """Rays from the origin, each scaled to meet the cube's surface at 1,
    taken to the boundary of Q where they leave Q inside the cube."""
    d = np.asarray(directions, dtype=np.float64)
    top = np.abs(d).max(axis=1)
    d = d[top > 0] / top[top > 0, None]
    return _to_q_boundary(np.zeros_like(d), d)


def _stepped(base, step, t):
    """Each boundary point moved along its step by every one of
    ``OFFSETS``, kept in the cube."""
    return np.clip(np.concatenate([base + step * (t + off)[:, None]
                                   for off in OFFSETS]), -1.0, 1.0)


@settings(deadline=None, max_examples=300)
@given(st.lists(CUBE_POINTS, min_size=1, max_size=20))
@example(VERTICES + [Q_BOUNDARY])
@example(_where_rounding_decides(_facet_points(2.0), 2.0, 1))
@example(_where_rounding_decides(_facet_points(TSIRELSON_BOUND),
                                 TSIRELSON_BOUND, 1))
@example(_where_rounding_decides(U_CIRCLES, 4.0, 2))
def test_column_verdicts_equal_the_margin_rule(points):
    _assert_verdicts_follow_margins(points)


@pytest.mark.parametrize("region, points, bound, degree", [
    (RegionId.LOCAL_C, _facet_points(2.0), 2.0, 1),
    (RegionId.TSIRELSON_T, _facet_points(TSIRELSON_BOUND), TSIRELSON_BOUND, 1),
    (RegionId.UFFINK_U, U_CIRCLES, 4.0, 2)])
def test_rounding_examples_straddle_the_tolerance(region, points, bound,
                                                  degree):
    # the examples above pin the verdict kernels only if, next to the
    # dilated boundary, the margin rule gives both verdicts in each triple
    near = _where_rounding_decides(points, bound, degree)[3 * len(points):]
    rule = region_margins(region, np.array(near)) >= -DEFAULT_TOLERANCE
    assert all(len(set(triple)) == 2 for triple in rule.reshape(-1, 3).tolist())


@settings(deadline=None, max_examples=100)
@given(st.tuples(UNIT, UNIT, UNIT, UNIT), st.sampled_from(OFFSETS))
def test_q_verdict_equals_the_arcsin_rule_next_to_the_boundary(direction, off):
    base, step, t = _rays_to_q_boundary([direction])
    if len(t):
        _assert_verdicts_follow_margins(np.clip(step * (t + off), -1.0, 1.0))


def test_q_verdict_on_rays_stepped_off_the_boundary():
    ray = _rays_to_q_boundary(uniform_points(4_000, seed=31))
    assert len(ray[2]) > 1_000
    _assert_verdicts_follow_margins(_stepped(*ray))


def _vertex_neighbours():
    """Every subset of a vertex's coordinates moved one ulp into the cube:
    there the arcsin margin is steepest and 1 - c^2 is 0 or 2^-52."""
    return [[math.nextafter(v, 0.0) if moved else v
             for v, moved in zip(vertex, subset)]
            for vertex in VERTICES
            for subset in itertools.product((False, True), repeat=4)]


def _face_points():
    """Points of the boundary of Q in a face c_k = +-1, where X or Y of
    Landau's form vanishes, moved off the face by up to 1e-7 and off the
    boundary along the other three coordinates by each of OFFSETS: one
    array for each depth off the face."""
    rng = np.random.Generator(np.random.Philox(key=np.array([32, 0], np.uint64)))
    n, rows = 600, np.arange(600)
    face = np.zeros((n, 4))
    face[rows, rng.integers(4, size=n)] = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    rest = np.where(face == 0.0, 2.0 * rng.random((n, 4)) - 1.0, 0.0)
    on_face, rest, t = _to_q_boundary(face, rest)
    assert len(t) > 200
    return [_stepped(on_face * (1.0 - depth), rest, t)
            for depth in (0.0, 2.0 ** -53, 1e-15, 1e-12, 1e-9, 1e-7)]


def test_q_verdict_at_one_ulp_neighbours_of_the_vertices():
    _assert_verdicts_follow_margins(_vertex_neighbours())


def test_q_verdict_next_to_the_faces_of_the_cube():
    for points in _face_points():
        _assert_verdicts_follow_margins(points)


def test_q_kernel_leaves_landaus_margin_in_work():
    # the Q kernel computes Landau's margin as regions._landau does,
    # operation for operation, and leaves it in work[2]: bit for bit equal
    # to the Landau margin of region_margins, next to the vertices and the
    # faces of the cube too
    for points in [uniform_points(5_000, seed=35), _vertex_neighbours(),
                   *_face_points()]:
        rows = np.array(points, dtype=np.float64)
        cols = np.ascontiguousarray(rows.T)
        work = np.empty(cols.shape)
        volumes._quantum_verdicts(cols, work, np.empty(len(rows), dtype=bool))
        landau = region_margins(QUANTUM, rows, QCharacterization.LANDAU)
        assert work[2].tobytes() == landau.tobytes()


def test_q_verdict_takes_arcsin_only_next_to_the_boundary(monkeypatch):
    pts = uniform_points(5_000, seed=33)
    far = np.ascontiguousarray(
        pts[np.abs(region_margins(QUANTUM, pts)) > 1e-6].T)
    _, step, t = _rays_to_q_boundary(uniform_points(200, seed=34))
    near = np.concatenate([step * t[:, None], [Q_BOUNDARY]])
    both = np.concatenate([far, near.T], axis=1)
    rule = region_margins(QUANTUM, both.T) >= -DEFAULT_TOLERANCE
    calls = []

    def counted(region, pts, *characterization):
        calls.append((region, characterization, pts.shape))
        return region_margins(region, pts, *characterization)

    # the fallback reads the arcsin margin through volumes.region_margins
    monkeypatch.setattr(volumes, "region_margins", counted)
    _column_verdicts([QUANTUM], far)
    assert calls == []
    (verdicts,) = _column_verdicts([QUANTUM], both)
    assert calls == [(QUANTUM, (), (len(near), 4))]
    assert verdicts.tolist() == rule.tolist()
