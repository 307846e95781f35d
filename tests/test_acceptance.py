"""Acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Monte Carlo criteria use fixed seeds, so the whole suite is
deterministic.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellvol.polytopes import (
    check_no_signaling,
    correlation_polytope_C,
    enumerate_facets,
    enumerate_vertices,
    exact_volume,
    local_polytope_v,
    ns_polytope_h,
    pr_box,
    signaling_example,
)
from bellvol.quantum import (
    chsh_optimal_settings,
    correlation_point,
    sample_quantum_points,
    singlet,
)
from bellvol.regions import (
    TSIRELSON_BOUND,
    QCharacterization,
    RegionId,
    chsh_value,
    in_quantum_arcsin,
    region_margins,
)
from bellvol.toggles import OutcomeSequence, min_toggles
from bellvol.volumes import (
    EstimatorConfig,
    headline_report,
    mc_volume,
    quadrature_volume,
)

V_Q = 1.5 * math.pi ** 2
REPORT_DIR = Path(__file__).resolve().parents[1] / "build" / "reports"
BAND = 1e-9
CHAIN = (RegionId.LOCAL_C, RegionId.QUANTUM_Q, RegionId.UFFINK_U,
         RegionId.TSIRELSON_T, RegionId.NO_SIGNALING_L)


@contextmanager
def criterion(num: int, label: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    print(f"criterion {num:2d} ({label}): PASS  [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def uniform_million():
    rng = np.random.Generator(np.random.Philox(
        key=np.array([20260810, 0], dtype=np.uint64)))
    return 2.0 * rng.random((1_000_000, 4)) - 1.0


def test_criterion_01_exact_local_volume():
    with criterion(1, "exact V_C = 32/3", budget_s=1.0):
        vol = exact_volume(correlation_polytope_C())
        assert vol == Fraction(32, 3)


def test_criterion_02_polytope_counts():
    with criterion(2, "polytope counts 16/24, 24/16 and CHSH facets",
                   budget_s=30.0):
        local = enumerate_facets(local_polytope_v())
        assert len(local.vertices) == 16
        assert len(local.halfspaces) == 24

        ns = ns_polytope_h()
        assert len(ns.halfspaces) == 16
        assert len(enumerate_vertices(ns).vertices) == 24

        # The correlation hull is a linear image of the 4D cross-polytope:
        # its CHSH-type facets are exactly the 8 normalized inequalities
        # |sum(c) - 2 c_ij| <= 2; the remaining facets are the 8 coordinate
        # bounds |c_ij| <= 1 inherited from the ambient cube.
        hull = enumerate_facets(correlation_polytope_C())
        expected_chsh = set()
        for k in range(4):
            normal = [1, 1, 1, 1]
            normal[k] = -1
            expected_chsh.add((tuple(normal), Fraction(2)))
            expected_chsh.add((tuple(-x for x in normal), Fraction(2)))
        got = {(h.normal, h.offset) for h in hull.halfspaces}
        chsh_facets = {hs for hs in got if all(n != 0 for n in hs[0])}
        assert chsh_facets == expected_chsh
        assert len(chsh_facets) == 8
        box_facets = got - chsh_facets
        assert all(sorted(abs(n) for n in normal) == [0, 0, 0, 1]
                   and offset == 1 for normal, offset in box_facets)
        assert len(got) == 16


def test_criterion_03_quadrature_quantum_volume():
    with criterion(3, "quadrature V_Q within 1e-6 of 3*pi^2/2", budget_s=60.0):
        est = quadrature_volume(RegionId.QUANTUM_Q, abs_tol=1e-6)
        assert abs(est.value - V_Q) <= 1e-6


def test_criterion_04_headline_ratios_at_1e7():
    targets = {
        ("Q", "C"): (3.0 * math.pi / 8.0) ** 2,
        ("Q", "L"): 3.0 * math.pi ** 2 / 32.0,
        ("C", "L"): 2.0 / 3.0,
    }
    with criterion(4, "MC ratios at n=1e7 within 3 sigma", budget_s=60.0):
        ratios = headline_report(
            EstimatorConfig(sample_count=10_000_000, seed=1))["ratios"]
        for (a, b), target in targets.items():
            est = ratios[f"{a}/{b}"]
            dev = abs(est["value"] - target)
            assert dev < 3.0 * est["std_error"], (
                f"{a}/{b}: {est['value']} vs {target}"
                f" ({dev / est['std_error']:.2f} sigma)")


def test_criterion_05_linear_and_quadratic_relaxations():
    with criterion(5, "V_T/16=0.961, V_U/16=0.950, excesses 3.8%/2.6%"):
        cfg = EstimatorConfig(sample_count=10_000_000, seed=2)
        v_t = mc_volume(RegionId.TSIRELSON_T, cfg)
        v_u = mc_volume(RegionId.UFFINK_U, cfg)
        tol_t = max(3.0 * v_t.std_error / 16.0, 0.001)
        tol_u = max(3.0 * v_u.std_error / 16.0, 0.001)
        assert abs(v_t.value / 16.0 - 0.961) <= tol_t
        assert abs(v_u.value / 16.0 - 0.950) <= tol_u

        q, t, u = (quadrature_volume(r, abs_tol=1e-7).value for r in (
            RegionId.QUANTUM_Q, RegionId.TSIRELSON_T, RegionId.UFFINK_U))
        assert abs((t / q - 1.0) - 0.038) <= 0.002
        assert abs((u / q - 1.0) - 0.026) <= 0.002
        assert abs((1.0 - q / t) - 0.037) <= 0.002


def test_criterion_06_reference_tables_exact():
    with criterion(6, "reference tables: no-signaling and CHSH checks"):
        box = pr_box()
        ok, _ = check_no_signaling(box)
        assert ok
        c00, c01, c10, c11 = (ab for _, _, ab in box.expectations().values())
        s = c00 + c01 + c10 + c11
        assert s - 2 * c11 == 4            # maximal CHSH violation, exact

        sig = signaling_example()
        ok, discrepancy = check_no_signaling(sig)
        assert not ok and discrepancy == 1
        corr = [sum(a * bb * sig.entry(i, j, a, bb)
                    for a in (-1, 1) for bb in (-1, 1))
                for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
        total = sum(corr)
        for c in corr:
            assert abs(total - 2 * c) <= 2  # all eight CHSH inequalities, exact


def test_criterion_07_tsirelson_bound_witness():
    with criterion(7, "singlet reaches 2*sqrt(2) on the quantum boundary"):
        pt = correlation_point(singlet(), chsh_optimal_settings())
        assert abs(chsh_value(pt, 1, 1) - TSIRELSON_BOUND) <= 1e-12
        assert abs(in_quantum_arcsin(pt).margin) <= 1e-9


def test_criterion_08_quantum_necessity_sweep():
    with criterion(8, "1e5 quantum samples inside the arcsin oracle",
                   budget_s=120.0):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([8, 0], dtype=np.uint64)))
        pts = sample_quantum_points(100_000, rng)
        margins = region_margins(RegionId.QUANTUM_Q, pts,
                                 QCharacterization.ARCSIN)
        assert margins.min() >= -1e-9
        chsh_max = TSIRELSON_BOUND - region_margins(RegionId.TSIRELSON_T, pts)
        assert chsh_max.max() <= TSIRELSON_BOUND + 1e-9


def test_criterion_09_characterization_agreement(uniform_million):
    with criterion(9, "Landau/arcsin agree on 1e6 points"):
        pts = uniform_million
        m_arc = region_margins(RegionId.QUANTUM_Q, pts,
                               QCharacterization.ARCSIN)
        m_lan = region_margins(RegionId.QUANTUM_Q, pts,
                               QCharacterization.LANDAU)
        band = (np.abs(m_arc) < BAND) | (np.abs(m_lan) < BAND)
        disagree = ((m_arc >= 0) != (m_lan >= 0)) & ~band
        assert disagree.sum() == 0

        # informational: the degree-six form is compared and any
        # disagreements are dumped for inspection, without failing
        m_sex = region_margins(RegionId.QUANTUM_Q, pts,
                               QCharacterization.SEXTIC)
        band_s = band | (np.abs(m_sex) < BAND)
        sex_disagree = ((m_arc >= 0) != (m_sex >= 0)) & ~band_s
        REPORT_DIR.mkdir(parents=True, exist_ok=True)
        report = {
            "points_tested": int(len(pts)),
            "boundary_band": BAND,
            "sextic_disagreements": int(sex_disagree.sum()),
            "sample_points": [list(map(float, row))
                              for row in pts[sex_disagree][:100]],
        }
        path = REPORT_DIR / "sextic_disagreements.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"  sextic disagreements: {report['sextic_disagreements']}"
              f" (report: {path})")


def test_criterion_10_inclusion_chain(uniform_million):
    with criterion(10, "inclusion chain C in Q in U in T in L on 1e6 points"):
        pts = uniform_million
        margins = {r: region_margins(r, pts) for r in CHAIN}
        band = np.zeros(len(pts), dtype=bool)
        for m in margins.values():
            band |= np.abs(m) < BAND
        masks = {r: m >= 0 for r, m in margins.items()}
        for inner, outer in zip(CHAIN, CHAIN[1:]):
            violations = masks[inner] & ~masks[outer] & ~band
            assert violations.sum() == 0, f"{inner.value} escapes {outer.value}"


def _exhaustive_minimum(seq: OutcomeSequence, target: float):
    n = len(seq)
    products = np.array([a * b for a, b in zip(seq.alice, seq.bob)],
                        dtype=np.int64)
    bits = ((np.arange(2 ** n, dtype=np.uint32)[:, None]
             >> np.arange(n)) & 1).astype(np.int64)
    achieved = (products.sum() - 2 * bits @ products) / n
    counts = bits.sum(axis=1)
    error = np.abs(achieved - float(target))
    eligible = error <= error.min() + 1e-15
    return int(counts[eligible].min())


def test_criterion_11_toggle_metric():
    with criterion(11, "toggle counts exact and match exhaustive search"):
        seq = OutcomeSequence(alice=(1,) * 1_000_000,
                              bob=(1,) * 500_000 + (-1,) * 500_000)
        assert seq.correlation == 0
        res = min_toggles(seq, 0.5)
        assert res.count == 250_000
        assert res.achieved == Fraction(1, 2)

        rng = np.random.default_rng(11)
        for n in range(1, 13):
            for _ in range(4):
                alice = tuple(int(v) for v in rng.choice((-1, 1), size=n))
                bob = tuple(int(v) for v in rng.choice((-1, 1), size=n))
                short = OutcomeSequence(alice=alice, bob=bob)
                for target in (-1.0, 0.0, 0.5, 1.0, float(rng.uniform(-1, 1))):
                    greedy = min_toggles(short, target)
                    assert greedy.count == _exhaustive_minimum(short, target)
