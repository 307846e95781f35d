import copy
import functools
import hashlib
import itertools
import json
import math
import pickle
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import region_reference as reference
from bellvol import regions
from bellvol.regions import (
    DEFAULT_TOLERANCE,
    PROFILE_ORDER,
    TSIRELSON_BOUND,
    CorrelationPoint,
    MembershipResult,
    QCharacterization,
    RegionId,
    check_tolerance,
    chsh_value,
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
    region_margins,
    region_mask,
)
from bellvol.estimates import _QUADRATURE_MIN_TOL, check_abs_tol
from bellvol.polytopes import (
    Behavior, Halfspace, JointProbabilityTable, RationalPolytope)
from bellvol.quantum import (
    X_DIR, Y_DIR, Z_DIR, BlochDirection, MeasurementSettings, TwoQubitState,
    singlet)
from bellvol.toggles import (
    OutcomeSequence, TargetUnreachable, ToggleDistance, min_toggles,
    toggle_distance)
from bellvol.volumes import EstimatorConfig

S = 1.0 / math.sqrt(2.0)
Q_BOUNDARY = (S, S, S, -S)   # saturates the linear bound 2*sqrt(2)
PR_POINT = (1.0, 1.0, 1.0, -1.0)


def uniform_points(n, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))
    return 2.0 * rng.random((n, 4)) - 1.0


class TestChshValue:
    def test_pr_box_point(self):
        assert chsh_value(PR_POINT, 1, 1) == pytest.approx(4.0, abs=1e-15)

    def test_zero_point(self):
        for i, j in itertools.product((0, 1), repeat=2):
            assert chsh_value((0, 0, 0, 0), i, j) == 0.0

    def test_deterministic_vertex(self):
        assert chsh_value((1, 1, 1, 1), 0, 0) == pytest.approx(2.0, abs=1e-15)

    def test_invalid_index(self):
        for index in (2, 0.0, True, 1.5):
            with pytest.raises(ValueError):
                chsh_value((0, 0, 0, 0), index, 0)
            with pytest.raises(ValueError):
                chsh_value((0, 0, 0, 0), 0, index)


class TestLocal:
    def test_deterministic_vertex_saturates(self):
        res = in_local((1, 1, 1, 1))
        assert res.inside and res.margin == pytest.approx(0.0, abs=1e-15)

    def test_quantum_boundary_point_outside(self):
        res = in_local(Q_BOUNDARY)
        assert not res.inside
        assert res.margin == pytest.approx(2.0 - 2.0 * math.sqrt(2.0), abs=1e-12)

    def test_origin(self):
        res = in_local((0, 0, 0, 0))
        assert res.inside and res.margin == pytest.approx(2.0)


class TestBoxL:
    def test_cube_vertex(self):
        res = in_box_L(PR_POINT)
        assert res.inside and res.margin == 0.0

    def test_outside(self):
        with pytest.raises(ValueError) as err:
            in_box_L((1.2, 0, 0, 0))
        assert str(err.value) == "point field 'c00' is outside [-1, 1]: 1.2"

    def test_interior(self):
        res = in_box_L((0.5, -0.5, 0.5, 0.5))
        assert res.inside and res.margin == pytest.approx(0.5)


class TestTsirelson:
    def test_boundary_saturation(self):
        res = in_tsirelson_T(Q_BOUNDARY)
        assert res.inside and res.margin == pytest.approx(0.0, abs=1e-12)

    def test_pr_point_outside(self):
        res = in_tsirelson_T(PR_POINT)
        assert not res.inside
        assert res.margin == pytest.approx(TSIRELSON_BOUND - 4.0, abs=1e-12)

    def test_origin_margin(self):
        assert in_tsirelson_T((0, 0, 0, 0)).margin == pytest.approx(TSIRELSON_BOUND)


class TestUffink:
    def test_first_form_saturates(self):
        res = in_uffink_U((1, 0, 0, 1))
        assert res.inside and res.margin == pytest.approx(0.0, abs=1e-15)

    def test_pr_point_outside(self):
        # second form: (1+1)^2 + (1+1)^2 = 8 > 4
        res = in_uffink_U(PR_POINT)
        assert not res.inside
        assert res.margin == pytest.approx(-4.0, abs=1e-15)

    def test_origin_margin(self):
        assert in_uffink_U((0, 0, 0, 0)).margin == pytest.approx(4.0)


class TestQuantumArcsin:
    def test_boundary_point(self):
        res = in_quantum_arcsin(Q_BOUNDARY)
        assert res.inside and res.margin == pytest.approx(0.0, abs=1e-12)

    def test_pr_point_outside(self):
        # |pi - 2*(-pi/2)| = 2*pi
        res = in_quantum_arcsin(PR_POINT)
        assert not res.inside
        assert res.margin == pytest.approx(-math.pi, abs=1e-12)

    def test_all_ones_boundary(self):
        res = in_quantum_arcsin((1, 1, 1, 1))
        assert res.inside and res.margin == pytest.approx(0.0, abs=1e-12)

    def test_refuses_inputs_past_the_domain(self):
        with pytest.raises(ValueError, match="^point field 'c00' is outside"):
            in_quantum_arcsin((1.0 + 5e-13, 1.0, 1.0, 1.0))
        for vertex in ((1.0, 1.0, 1.0, 1.0), (-1.0, -1.0, -1.0, 1.0)):
            assert math.isfinite(in_quantum_arcsin(vertex).margin)


class TestQuantumLandau:
    def test_origin(self):
        res = in_quantum_landau((0, 0, 0, 0))
        assert res.inside and res.margin == pytest.approx(2.0)

    def test_pr_point(self):
        # lhs 2, rhs 0
        res = in_quantum_landau(PR_POINT)
        assert not res.inside and res.margin == pytest.approx(-2.0)

    def test_boundary_point(self):
        res = in_quantum_landau(Q_BOUNDARY)
        assert res.inside and res.margin == pytest.approx(0.0, abs=1e-12)


class TestQuantumSextic:
    def test_origin(self):
        assert in_quantum_sextic((0, 0, 0, 0)).inside

    def test_boundary_point(self):
        assert in_quantum_sextic(Q_BOUNDARY).inside

    def test_pr_point_agrees_with_landau(self):
        assert not in_quantum_sextic(PR_POINT).inside
        assert not in_quantum_landau(PR_POINT).inside


class TestProfile:
    def test_origin_inside_everything(self):
        profile = membership_profile((0, 0, 0, 0))
        assert all(r.inside for r in profile.regions().values())
        assert all(r.inside for r in profile.quantum().values())

    def test_quantum_boundary_profile(self):
        verdicts = {rid.value: r.inside
                    for rid, r in membership_profile(Q_BOUNDARY).regions().items()}
        assert verdicts == {"C": False, "Q": True, "U": True, "T": True, "L": True}

    def test_pr_profile(self):
        verdicts = {rid.value: r.inside
                    for rid, r in membership_profile(PR_POINT).regions().items()}
        assert verdicts == {"C": False, "Q": False, "U": False, "T": False,
                            "L": True}

    def test_as_dict_reports_all_three_q_forms(self):
        d = membership_profile((0, 0, 0, 0)).as_dict()
        assert set(d["Q"]) == {"arcsin", "landau", "sextic"}

    def test_pickle_and_deepcopy_round_trip(self):
        profile = membership_profile(Q_BOUNDARY, tol=1e-6)
        result = in_quantum_landau(PR_POINT)
        sextic = profile.result(RegionId.QUANTUM_Q, QCharacterization.SEXTIC)
        for obj in (profile, result, sextic):
            for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert twin == obj and twin is not obj
                assert twin.as_dict() == obj.as_dict()
        twin = pickle.loads(pickle.dumps(profile))
        assert twin.tolerance == 1e-6
        assert twin.result(RegionId.LOCAL_C).tolerance == 1e-6
        assert twin.regions() == profile.regions()
        assert twin.quantum() == profile.quantum()

    def test_results_are_slotted_and_frozen(self):
        profile = membership_profile((0, 0, 0, 0))
        local = profile.result(RegionId.LOCAL_C)
        for obj, field in ((profile, "margins"), (profile, "tolerance"),
                           (local, "margin")):
            assert not hasattr(obj, "__dict__")
            held = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            assert getattr(obj, field) is held
        assert isinstance(local, MembershipResult)

    def test_profile_holds_seven_margins_and_its_tolerance(self):
        profile = membership_profile(Q_BOUNDARY, tol=1e-6)
        assert profile._fields == ("margins", "tolerance")
        assert profile.margins == tuple(
            ORACLE_OF[slot](Q_BOUNDARY, 1e-6).margin for slot in PROFILE_ORDER)
        assert profile.inside == tuple(m >= -1e-6 for m in profile.margins)
        # Q alone is its arcsin form
        assert profile.result(RegionId.QUANTUM_Q) == profile.result(
            RegionId.QUANTUM_Q, QCharacterization.ARCSIN)

    @pytest.mark.parametrize("region, char", [
        (RegionId.LOCAL_C, QCharacterization.ARCSIN),
        (RegionId.TSIRELSON_T, QCharacterization.LANDAU),
    ])
    def test_result_refuses_an_entry_not_in_the_profile(self, region, char):
        with pytest.raises(ValueError, match="no profile entry"):
            membership_profile((0, 0, 0, 0)).result(region, char)

    @pytest.mark.parametrize("key, message", [
        (("C",), "unknown region 'C'"),
        (("Q",), "unknown region 'Q'"),
        (("LOCAL_C",), "unknown region 'LOCAL_C'"),
        (("X",), "unknown region 'X'"),
        ((None,), "unknown region None"),
        ((RegionId.QUANTUM_Q, "landau"), "unknown characterization 'landau'"),
        ((RegionId.LOCAL_C, "landau"), "unknown characterization 'landau'"),
    ], ids=["C", "Q", "LOCAL_C", "X-None", "None-None", "Q-landau",
            "LOCAL_C-landau"])
    def test_result_refuses_a_key_that_is_not_the_enum_member(self, key,
                                                                message):
        # "C" hashes and compares as RegionId.LOCAL_C, so a plain lookup by
        # (region, characterization) would read its slot
        with pytest.raises(ValueError, match=message):
            membership_profile((0, 0, 0, 0)).result(*key)

    def test_profile_builds_results_only_on_request(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args[:1])
            return MembershipResult(*args)

        monkeypatch.setattr(regions, "MembershipResult", counted)
        profile = membership_profile(Q_BOUNDARY)
        assert profile.as_dict() == \
            profile_record(zip(profile.inside, profile.margins))
        assert built == []
        profile.result(RegionId.UFFINK_U)
        assert built == [(RegionId.UFFINK_U,)]
        profile.regions()
        assert len(built) == 1 + len(CHAIN)


class TestPointValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="c01"):
            CorrelationPoint(0.0, 1.5, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="huge-int"),
        pytest.param(-10 ** 400, id="-huge-int")])
    @pytest.mark.parametrize("field", ["c00", "c01", "c10", "c11"])
    def test_rejects_non_finite(self, bad, field):
        values = {"c00": 0.0, "c01": 0.0, "c10": 0.0, "c11": 0.0, field: bad}
        with pytest.raises(ValueError,
                           match=f"^point field '{field}' is not finite: "):
            CorrelationPoint(**values)
        with pytest.raises(ValueError,
                           match=f"^point field '{field}' is not finite: "):
            in_local(tuple(values.values()))

    @pytest.mark.parametrize("bad", [
        "0.5", "abc", b"1", None, 1j, object(),
        True, False, np.True_, np.False_])
    @pytest.mark.parametrize("field", ["c00", "c01", "c10", "c11"])
    def test_rejects_non_numbers(self, bad, field):
        values = {"c00": 0.0, "c01": 0.0, "c10": 0.0, "c11": 0.0, field: bad}
        message = f"point field '{field}' is not a number: {bad!r}"
        with pytest.raises(ValueError) as err:
            CorrelationPoint(**values)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            in_local(tuple(values.values()))
        assert str(err.value) == message

    def test_messages_are_the_cli_wording(self):
        with pytest.raises(ValueError) as err:
            CorrelationPoint(math.nan, 0.0, 0.0, 0.0)
        assert str(err.value) == "point field 'c00' is not finite: nan"
        with pytest.raises(ValueError) as err:
            CorrelationPoint(2, 0.0, 0.0, 0.0)
        assert str(err.value) == "point field 'c00' is outside [-1, 1]: 2.0"

    def test_fields_are_checked_in_order(self):
        # each field is checked whole (finite, then in the cube) before the
        # next, so the first bad field is the one reported
        with pytest.raises(ValueError, match="'c00' is outside"):
            CorrelationPoint(2.0, math.nan, 0.0, 0.0)
        with pytest.raises(ValueError, match="'c00' is not finite"):
            CorrelationPoint(math.nan, 2.0, 0.0, 0.0)

    @pytest.mark.parametrize("values", [(0.0,) * 3, (0.0,) * 5])
    def test_a_point_of_other_than_four_values_is_a_value_error(self, values):
        # as a batch of another shape is in _as_columns
        origin = (0.0,) * 4
        message = f"^expected 4 correlations, got {len(values)}$"
        for call in (membership_profile, in_local,
                     lambda p: toggle_distance(p, origin),
                     lambda p: toggle_distance(origin, p)):
            with pytest.raises(ValueError, match=message):
                call(values)

    def test_tolerance_semantics(self):
        res = in_local((1, 1, 1, 1), tol=1e-6)
        assert res.inside and res.tolerance == 1e-6


# --------------------------------------------------------------------------
# properties on random points
# --------------------------------------------------------------------------

CHAIN = (RegionId.LOCAL_C, RegionId.QUANTUM_Q, RegionId.UFFINK_U,
         RegionId.TSIRELSON_T, RegionId.NO_SIGNALING_L)

SCALARS = {
    RegionId.LOCAL_C: in_local,
    RegionId.QUANTUM_Q: in_quantum_arcsin,
    RegionId.UFFINK_U: in_uffink_U,
    RegionId.TSIRELSON_T: in_tsirelson_T,
    RegionId.NO_SIGNALING_L: in_box_L,
}

Q_ORACLES = {
    QCharacterization.ARCSIN: in_quantum_arcsin,
    QCharacterization.LANDAU: in_quantum_landau,
    QCharacterization.SEXTIC: in_quantum_sextic,
}

#: The scalar oracle of each (region, characterization) of PROFILE_ORDER.
ORACLE_OF = {(region, char): Q_ORACLES[char] if char else SCALARS[region]
             for region, char in PROFILE_ORDER}


def test_inclusion_chain_on_random_points():
    pts = uniform_points(200_000, seed=11)
    margins = {r: region_margins(r, pts) for r in CHAIN}
    band = np.zeros(len(pts), dtype=bool)
    for m in margins.values():
        band |= np.abs(m) < 1e-9
    masks = {r: margins[r] >= 0 for r in CHAIN}
    for inner, outer in zip(CHAIN, CHAIN[1:]):
        violations = masks[inner] & ~masks[outer] & ~band
        assert violations.sum() == 0, f"{inner} not inside {outer}"


def test_landau_arcsin_agreement_on_random_points():
    pts = uniform_points(200_000, seed=12)
    m_arc = region_margins(RegionId.QUANTUM_Q, pts,
                           QCharacterization.ARCSIN)
    m_lan = region_margins(RegionId.QUANTUM_Q, pts,
                           QCharacterization.LANDAU)
    band = (np.abs(m_arc) < DEFAULT_TOLERANCE) | (np.abs(m_lan) < DEFAULT_TOLERANCE)
    assert (((m_arc >= 0) == (m_lan >= 0)) | band).all()


def _row_swap(c):
    return (c[2], c[3], c[0], c[1])


def _col_swap(c):
    return (c[1], c[0], c[3], c[2])


def _transpose(c):
    return (c[0], c[2], c[1], c[3])


def _sign_flip(c, which):
    signs = {"row0": (-1, -1, 1, 1), "row1": (1, 1, -1, -1),
             "col0": (-1, 1, -1, 1), "col1": (1, -1, 1, -1)}[which]
    return tuple(s * v for s, v in zip(signs, c))


def _relabelings():
    """The 8 setting/party relabelings: <row swap, col swap, transpose>."""
    maps = []
    for use_t in (False, True):
        for use_r in (False, True):
            for use_c in (False, True):
                def f(c, use_t=use_t, use_r=use_r, use_c=use_c):
                    if use_t:
                        c = _transpose(c)
                    if use_r:
                        c = _row_swap(c)
                    if use_c:
                        c = _col_swap(c)
                    return c
                maps.append(f)
    return maps


def test_relabeling_and_sign_flip_invariance():
    rng = np.random.Generator(np.random.Philox(key=np.array([13, 0], np.uint64)))
    pts = 2.0 * rng.random((300, 4)) - 1.0
    transforms = _relabelings() + [
        lambda c, w=w: _sign_flip(c, w) for w in ("row0", "row1", "col0", "col1")]
    margin_invariant = (in_local, in_uffink_U, in_tsirelson_T, in_box_L,
                        in_quantum_arcsin)
    for row in pts:
        c = tuple(row)
        for f in transforms:
            image = f(c)
            for oracle in margin_invariant:
                a, b = oracle(c), oracle(image)
                assert a.inside == b.inside
                assert a.margin == pytest.approx(b.margin, abs=1e-12)
            # the landau/sextic polynomials are not symmetric expressions,
            # so only the verdict is preserved (away from the boundary)
            for oracle in (in_quantum_landau, in_quantum_sextic):
                a, b = oracle(c), oracle(image)
                if min(abs(a.margin), abs(b.margin)) > 1e-9:
                    assert a.inside == b.inside


def test_star_shaped_about_origin():
    rng = np.random.Generator(np.random.Philox(key=np.array([14, 0], np.uint64)))
    pts = 2.0 * rng.random((500, 4)) - 1.0
    oracles = list(SCALARS.values()) + [in_quantum_landau, in_quantum_sextic]
    for row in pts:
        c = tuple(row)
        for oracle in oracles:
            if not oracle(c).inside:
                continue
            for lam in (0.9, 0.5, 0.1):
                scaled = tuple(lam * v for v in c)
                assert oracle(scaled).inside, (oracle.__name__, c, lam)


def test_scalar_and_vectorized_margins_agree():
    pts = uniform_points(2_000, seed=15)
    # include exact boundary-ish rows
    pts[:8] = [(1, 1, 1, 1), (1, 1, 1, -1), (S, S, S, -S), (0, 0, 0, 0),
               (1, 0, 0, 1), (-1, 1, -1, 1), (0.5, -0.5, 0.25, 0.75),
               (1, -1, -1, -1)]
    for region, scalar in SCALARS.items():
        vec = region_margins(region, pts)
        for k in range(len(pts)):
            assert vec[k] == pytest.approx(scalar(tuple(pts[k])).margin, abs=1e-12)
    for char in QCharacterization:
        vec = region_margins(RegionId.QUANTUM_Q, pts, char)
        for k in range(50):
            assert vec[k] == pytest.approx(
                Q_ORACLES[char](tuple(pts[k])).margin, abs=1e-12)
    # the scalar oracles share the kernels, so also check against the
    # inequalities written out in the tests
    for region, ref in zip(CHAIN, reference.CHAIN):
        vec = region_margins(region, pts)
        for k in range(len(pts)):
            assert vec[k] == pytest.approx(ref(tuple(pts[k])), abs=1e-12)


def test_region_mask_matches_margins():
    pts = uniform_points(10_000, seed=16)
    for region in CHAIN:
        assert (region_mask(region, pts)
                == (region_margins(region, pts) >= -DEFAULT_TOLERANCE)).all()


def test_margin_continuity_under_small_perturbations():
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], np.uint64)))
    base = 2.0 * rng.random((100, 4)) - 1.0
    eps = 1e-7
    for row in base:
        c = tuple(0.999 * v for v in row)
        for region, oracle in SCALARS.items():
            m0 = oracle(c).margin
            for k in range(4):
                shifted = tuple(v + (eps if i == k else 0.0)
                                for i, v in enumerate(c))
                # Lipschitz constant of every margin is at most ~8
                assert abs(oracle(shifted).margin - m0) < 100 * eps


# --------------------------------------------------------------------------
# properties on points of the cube
# --------------------------------------------------------------------------

UNIT = st.floats(-1.0, 1.0)
CUBE_POINTS = (st.tuples(UNIT, UNIT, UNIT, UNIT)
               | st.tuples(*[st.sampled_from((-1.0, -S, 0.0, S, 1.0))] * 4))
ORACLES = (in_local, in_quantum_arcsin, in_quantum_landau, in_quantum_sextic,
           in_uffink_U, in_tsirelson_T, in_box_L)


@settings(deadline=None, max_examples=300)
@given(CUBE_POINTS)
def test_chain_is_monotone(c):
    margins = [r.margin for r in membership_profile(c).regions().values()]
    if min(abs(m) for m in margins) < 1e-9:
        return      # a verdict this close to a boundary is decided by rounding
    inside = [m >= 0 for m in margins]
    assert inside == [ref(c) >= 0 for ref in reference.CHAIN]
    assert inside == sorted(inside), dict(zip("CQUTL", margins))


@settings(deadline=None, max_examples=300)
@given(CUBE_POINTS)
def test_scalar_and_column_margins_are_equal(c):
    cols = np.array(c, dtype=np.float64).reshape(4, 1)
    profile = membership_profile(c)
    # a float's ** calls pow, which can round a square 1 ulp away from the
    # product that numpy's ** 2 takes; with the same four squares the U
    # margins are equal
    c00, c01, c10, c11 = c
    pow_squares = all(v ** 2 == v * v for v in (c00 + c11, c01 - c10,
                                                c00 - c11, c01 + c10))
    for region, res in profile.regions().items():
        column = region_margins(region, np.array([c]))[0]
        assert column == region_margins(region, cols.T)[0]
        if region is RegionId.UFFINK_U and not pow_squares:
            assert abs(res.margin - column) <= 2 * math.ulp(8.0)
        elif region is not RegionId.QUANTUM_Q:
            assert res.margin == column
    for char in (QCharacterization.LANDAU, QCharacterization.SEXTIC):
        assert Q_ORACLES[char](c).margin \
            == profile.result(RegionId.QUANTUM_Q, char).margin \
            == region_margins(RegionId.QUANTUM_Q, [c], char)[0] \
            == region_margins(RegionId.QUANTUM_Q, cols.T, char)[0]
    # math.asin and numpy's arcsin may round a coordinate differently, by
    # at most 1 ulp; with the same four angles the margins are equal
    scalar_angles = [math.asin(v) for v in c]
    column_angles = np.arcsin(cols[:, 0]).tolist()
    for a, b in zip(scalar_angles, column_angles):
        assert abs(a - b) <= math.ulp(a)
    arcsin = region_margins(RegionId.QUANTUM_Q, [c],
                            QCharacterization.ARCSIN)[0]
    scalar_arcsin = profile.result(RegionId.QUANTUM_Q).margin
    if scalar_angles == column_angles:
        assert scalar_arcsin == arcsin
    else:
        assert abs(scalar_arcsin - arcsin) <= 8 * math.ulp(2 * math.pi)


@settings(deadline=None, max_examples=200)
@given(CUBE_POINTS, st.sampled_from([0.0, 1e-15, DEFAULT_TOLERANCE, 1e-6, 0.5]))
def test_inside_iff_margin_within_tolerance(c, tol):
    profile = membership_profile(c, tol)
    results = [oracle(c, tol) for oracle in ORACLES]
    results += [*profile.regions().values(), *profile.quantum().values()]
    for res in results:
        assert res.inside == (res.margin >= -tol)
        assert res.tolerance == tol
    # each entry of the profile is its oracle's result, margin bits included
    for slot, inside in zip(PROFILE_ORDER, profile.inside):
        oracle = ORACLE_OF[slot](c, tol)
        assert profile.result(*slot) == oracle
        assert inside == oracle.inside
    for region in CHAIN:
        margins = region_margins(region, np.array([c]))
        assert region_mask(region, np.array([c]), tol)[0] == (margins[0] >= -tol)


# the values a coordinate may be offered: numbers in and out of [-1, 1],
# the non-finite floats, and bools, which are numbers by no contract
COORDINATE = (UNIT | st.integers(-2, 2)
              | st.sampled_from([2.0, -1.0 - 2 ** -52, math.nan, math.inf,
                                 -math.inf, True, False]))

def record_builds(cls, template) -> dict:
    """Every way a record of type ``cls`` is built from its field values,
    ``_replace`` on the valid record ``template``.  Pickle and copy rebuild
    a record through ``__new__``, so each is given one forged past the
    checks."""
    return {
        "constructor": lambda v: cls(*v),
        "keywords": lambda v: cls(**dict(zip(cls._fields, v))),
        "_make": cls._make,
        "_replace": lambda v: template._replace(**dict(zip(cls._fields, v))),
        "pickle": lambda v: pickle.loads(pickle.dumps(tuple.__new__(cls, v))),
        "deepcopy": lambda v: copy.deepcopy(tuple.__new__(cls, v)),
        "copy": lambda v: copy.copy(tuple.__new__(cls, v)),
    }


POINT_BUILDS = record_builds(CorrelationPoint, CorrelationPoint(0.0, 0.0, 0.0, 0.0))


@settings(deadline=None, max_examples=200)
@given(st.tuples(*[COORDINATE] * 4))
@example((0, 1, -1, 0.5))
@example((True, 0.0, 0.0, 0.0))
@example((0.0, 0.0, 0.0, math.nan))
@example((0.0, 2.0, 0.0, 0.0))
def test_every_way_to_build_a_point_keeps_the_contract(values):
    valid = all(not isinstance(v, bool) and math.isfinite(v) and -1 <= v <= 1
                for v in values)
    if valid:
        want = tuple(float(v) for v in values)
        for name, build in POINT_BUILDS.items():
            point = build(values)
            assert type(point) is CorrelationPoint, name
            assert [type(v) for v in point] == [float] * 4, name
            assert point == want and tuple(point) == want, name
            assert (point.c00, point.c01, point.c10, point.c11) == want, name
        return
    messages = set()
    for name, build in POINT_BUILDS.items():
        with pytest.raises(ValueError, match="^point field 'c[01]{2}' ") as err:
            build(values)
        messages.add(str(err.value))
    assert len(messages) == 1   # the one check, whatever the path


_F = Fraction
_MIXED = np.eye(4) / 4

#: Each checked record of the package: a valid record, field values it
#: takes and the fields it stores from them, then values it refuses and
#: its message.
RECORDS = {
    "Behavior": (Behavior(*[0] * 8), (_F(1, 2), 0.5, 0, np.int64(0), 0, 0, 0, 0),
                 (_F(1, 2), _F(1, 2), *[_F(0)] * 6), (2, *[0] * 7),
                 "P(A0=-1, B0=+1) = -1/4 is negative"),
    "JointProbabilityTable": (
        JointProbabilityTable([_F(1, 4)] * 16), ([0.25] * 16,),
        ((_F(1, 4),) * 16,), ([0.5] * 16,), "block (i=0, j=0) sums to 2, not 1"),
    "Halfspace": (Halfspace((1, 0), 1), ([np.int64(1), 0], 0.5), ((1, 0), _F(1, 2)),
                  ((1, 0), None), "not a number: None"),
    "Halfspace normal": (Halfspace((1, 0), 1), ((-3, 2), _F(1, 3)), ((-3, 2), _F(1, 3)),
                         ((2, -4), 1), "halfspace normal (2, -4) is not primitive;"
                         " Halfspace.normalized scales a row to one"),
    "RationalPolytope": (
        RationalPolytope(1, ((0,),)), (2, [(0, 0), (1, 0.5)], None),
        (2, ((_F(0), _F(0)), (_F(1), _F(1, 2))), None),
        (2, ((0, 0), (0.0, _F(0))), None), "vertices must be pairwise distinct"),
    "RationalPolytope dim": (
        RationalPolytope(1, ((0,),)), (np.int64(1), None, [Halfspace((1,), 1)]),
        (1, None, (Halfspace((1,), 1),)), (True, None, None),
        "dim must be an integer, got True"),
    "RationalPolytope halfspaces": (
        RationalPolytope(1, ((0,),)), (1, None, ()), (1, None, ()),
        (1, None, [((1,), 1)]), "halfspace ((1,), 1) is not a Halfspace"),
    "BlochDirection": (X_DIR, (0, np.float64(0.6), 0.8), (0.0, 0.6, 0.8),
                       (1, 1, 0), "direction norm 1.4142135623730951 is not 1 within 1e-12"),
    "MeasurementSettings": (
        MeasurementSettings(X_DIR, X_DIR, X_DIR, X_DIR), (X_DIR, Y_DIR, Z_DIR, X_DIR),
        (X_DIR, Y_DIR, Z_DIR, X_DIR), (X_DIR, Y_DIR, Z_DIR, (1.0, 0.0, 0.0)),
        "axis b1 is not a BlochDirection: (1.0, 0.0, 0.0)"),
    "TwoQubitState": (singlet(), (_MIXED,), (_MIXED.astype(complex),),
                      (_MIXED + np.eye(4, k=1) / 8,), "density matrix is not Hermitian"),
    "ToggleDistance": (ToggleDistance((0.0,) * 4), ((1, 0.5, _F(1, 4), 0),),
                       ((1.0, 0.5, 0.25, 0.0),), ((1.5, 0, 0, 0),),
                       "per-coordinate cost 'c00' is outside [0, 1]: 1.5"),
    "OutcomeSequence": (OutcomeSequence((1,), (1,)), ((1.0, -1), [np.int64(1), 1]),
                        ((1, -1), (1, 1)), ((1, 2), (1, 1)),
                        "outcomes must be +1 or -1"),
    "EstimatorConfig": (EstimatorConfig(), (np.int64(1000), np.uint64(7), 2),
                        (1000, 7, 2), (0, 0, 1), "sample_count must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_every_way_to_build_a_record_keeps_its_contract(name):
    template, valid, stored, invalid, message = RECORDS[name]
    cls = type(template)
    builds = record_builds(cls, template)
    for how, build in builds.items():
        record = build(valid)
        assert type(record) is cls, how
        # repr holds the type of each value, numpy's scalars and arrays too
        assert repr(tuple(record)) == repr(stored), how
        assert not hasattr(record, "__dict__"), how
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)
    for how, build in builds.items():
        with pytest.raises(ValueError) as err:
            build(invalid)
        assert type(err.value) is ValueError and str(err.value) == message, how


# floats in and out of the cube: the non-finite ones, [-2, 2], and the
# cube's faces with their outer one-ulp neighbours
EDGE = [-1.0, 1.0, math.nextafter(-1.0, -2.0), math.nextafter(1.0, 2.0)]
COORDINATE_FLOAT = (st.floats(-2.0, 2.0)
                    | st.sampled_from([math.nan, math.inf, -math.inf, *EDGE]))

#: Every entry point that scores one point, and every one that scores the
#: rows of an array, here given the origin's row and then the point's.
POINT_ENTRY_POINTS = {
    **{oracle.__name__: oracle for oracle in ORACLES},
    "membership_profile": membership_profile,
    "chsh_value": lambda p: chsh_value(p, 1, 0),
    "toggle_distance(p, o)": lambda p: toggle_distance(p, (0.0,) * 4),
    "toggle_distance(o, p)": lambda p: toggle_distance((0.0,) * 4, p),
}
ARRAY_ENTRY_POINTS = {
    "membership_profiles": membership_profiles,
    **{f"region_margins {region.value}": functools.partial(region_margins, region)
       for region in CHAIN},
    **{f"region_mask {region.value}": functools.partial(region_mask, region)
       for region in CHAIN},
    **{f"region_margins Q {char.value}":
       functools.partial(region_margins, RegionId.QUANTUM_Q, characterization=char)
       for char in QCharacterization},
}


def _check_the_one_point_contract(p):
    """Every entry point refuses ``p`` exactly when ``CorrelationPoint``
    does, with its message; that message, or None."""
    try:
        CorrelationPoint(*p)
        message = None
    except ValueError as err:
        message = str(err)
    rows = np.array([(0.0,) * 4, p])
    calls = {**{name: functools.partial(call, p)
                for name, call in POINT_ENTRY_POINTS.items()},
             **{name: functools.partial(score, rows)
                for name, score in ARRAY_ENTRY_POINTS.items()}}
    for name, call in calls.items():
        if message is None:
            call()
            continue
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message, name
    return message


@settings(deadline=None, max_examples=300)
@given(st.tuples(*[COORDINATE_FLOAT] * 4))
@example((0.0, 0.0, math.nextafter(-1.0, -2.0), math.nan))
@example((math.nextafter(1.0, 2.0), 0.0, 0.0, 0.0))
@example((0.0, 0.0, 0.0, math.nextafter(1.0, 2.0)))
@example((math.nan, 0.0, 0.0, 0.0))
@example((0.0, 0.0, 0.0, math.nan))
def test_every_entry_point_keeps_the_one_point_contract(p):
    _check_the_one_point_contract(p)


def test_the_one_point_contract_at_a_point_outside_and_at_the_vertices():
    assert _check_the_one_point_contract((1.2, 0.0, 0.0, 0.0)) == \
        "point field 'c00' is outside [-1, 1]: 1.2"
    for vertex in itertools.product((-1.0, 1.0), repeat=4):
        assert _check_the_one_point_contract(vertex) is None


@pytest.mark.parametrize("p", [None, 5, 0.5], ids=repr)
@pytest.mark.parametrize("name", POINT_ENTRY_POINTS)
def test_a_point_that_cannot_be_iterated_is_a_value_error(name, p):
    # tuple(p) raises TypeError; the point contract promises ValueError
    with pytest.raises(ValueError, match=(
            f"^a point must be a sequence of 4 correlations, got {p!r}$")):
        POINT_ENTRY_POINTS[name](p)


def test_make_of_a_point_that_cannot_be_iterated_keeps_its_type_error():
    # namedtuple semantics: _make unpacks its argument before any check
    with pytest.raises(TypeError):
        CorrelationPoint._make(None)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, "0.1",
                                 None, True, False, np.True_, 10 ** 400])
def test_tolerance_outside_contract_is_rejected(tol):
    origin, rows = (0.0, 0.0, 0.0, 0.0), np.zeros((3, 4))
    with pytest.raises(ValueError, match="tolerance"):
        check_tolerance(tol)
    for oracle in ORACLES:
        with pytest.raises(ValueError, match="tolerance"):
            oracle(origin, tol)
    with pytest.raises(ValueError, match="tolerance"):
        membership_profile(origin, tol)
    with pytest.raises(ValueError, match="tolerance"):
        membership_profiles(rows, tol)
    for region in CHAIN:
        with pytest.raises(ValueError, match="tolerance"):
            region_mask(region, rows, tol)


def test_profile_checks_its_tolerance_once(monkeypatch):
    calls = []

    def counted(tol):
        calls.append(tol)
        return check_tolerance(tol)

    monkeypatch.setattr(regions, "check_tolerance", counted)
    profile = membership_profile((0.0, 0.0, 0.0, 0.0), np.float64(0.5))
    assert calls == [0.5]
    # the profile keeps the value the check returns, not the argument
    assert type(profile.tolerance) is float


@pytest.mark.parametrize("tol", [np.float64(1e-12), np.float32(1e-12), 0, 1],
                         ids=["float64", "float32", "int-0", "int-1"])
def test_a_numpy_or_int_tolerance_gives_python_verdicts(tol):
    point = (0.7, 0.7, 0.7, -0.7)
    assert type(check_tolerance(tol)) is float
    profile = membership_profile(point, tol)
    assert type(profile.tolerance) is float and profile.tolerance == float(tol)
    assert [type(inside) for inside in profile.inside] == [bool] * 7
    json.dumps(profile.as_dict())
    for oracle in ORACLES:
        result = oracle(point, tol)
        assert type(result.inside) is bool and type(result.tolerance) is float
        json.dumps(result.as_dict())


#: Values on both sides of every real contract: no number at all, not
#: finite, past the floats, and reals of each type the package reads.
REAL_VALUE = (st.floats(-2.0, 2.0) | st.integers(-2, 2)
              | st.fractions(-2, 2, max_denominator=10 ** 6)
              | st.decimals(-2, 2, places=6)
              | st.sampled_from([
                  True, False, np.True_, np.False_, "0.5", b"1", None, 1j,
                  object(), math.nan, math.inf, -math.inf, 10 ** 400,
                  -10 ** 400, Fraction(10 ** 400, 3), Decimal("nan"),
                  Decimal("snan"), Decimal("-inf"), np.float32(0.5),
                  np.float64(-1.5), np.int64(1), _QUADRATURE_MIN_TOL,
                  math.nextafter(_QUADRATURE_MIN_TOL, 0.0), 0.5 + 0j,
                  np.complex64(0.5), np.complex128(0.5 + 0.5j),
                  np.complex128(1)]))


def _bloch_component(value):
    try:
        d = BlochDirection(0.0, value, 0.0)
    except ValueError as err:
        if not str(err).startswith("direction norm "):
            raise
        return None  # a real component, but off the unit sphere
    return d.y


def _normalized_component(value):
    d = BlochDirection.normalized(0.0, value, 1.0)
    assert [type(c) for c in (d.x, d.y, d.z)] == [float] * 3
    return None


_SEQUENCE = OutcomeSequence(alice=(1, 1, 1, 1), bob=(1, 1, -1, -1))

#: Every entry point that reads a real argument: the name, bounds and error
#: class of its contract, and a call that reads ``value`` and returns the
#: float it stored, or None when it stores none.
REAL_ENTRY_POINTS = {
    "CorrelationPoint": (("point field 'c01'", -1, 1), ValueError,
                         lambda v: CorrelationPoint(0.0, v, 0.0, 0.0).c01),
    "check_tolerance": (("tolerance", 0, math.inf), ValueError,
                        check_tolerance),
    "membership_profile": (("tolerance", 0, math.inf), ValueError,
                           lambda v: membership_profile((0.0,) * 4, v).tolerance),
    "check_abs_tol": (("abs_tol", _QUADRATURE_MIN_TOL, math.inf), ValueError,
                      check_abs_tol),
    "min_toggles": (("target", -1, 1), TargetUnreachable,
                    lambda v: min_toggles(_SEQUENCE, v) and None),
    "BlochDirection": (("direction component 'y'", -math.inf, math.inf),
                       ValueError, _bloch_component),
    "BlochDirection.normalized": (
        ("direction component 'y'", -math.inf, math.inf), ValueError,
        _normalized_component),
    "mixed_with": (("mixing weight", 0, 1), ValueError,
                   lambda v: singlet().mixed_with(singlet(), v) and None),
    "ToggleDistance": (("per-coordinate cost 'c01'", 0, 1), ValueError,
                       lambda v: ToggleDistance((0.0, v, 0.0, 0.0)).per_coordinate[1]),
}


@settings(deadline=None, max_examples=300)
@given(REAL_VALUE)
@example(True)
@example(np.True_)
@example("0.5")
@example(10 ** 400)
@example(Fraction(10 ** 400, 3))
@example(Decimal("0.5"))
@example(np.float32(0.5))
@example(-0.5)
@example(np.complex64(0.5))
@example(np.complex128(0.5 + 0.5j))
def test_every_real_argument_keeps_the_one_real_contract(value):
    """Each entry point refuses ``value`` exactly when ``regions._real``
    does, with its message and never a TypeError, and stores the float it
    returns."""
    for name, ((label, low, high), error, read) in REAL_ENTRY_POINTS.items():
        try:
            want = regions._real(label, value, low, high)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                read(value)
            assert type(got.value) is error, name
            assert str(got.value) == str(err), name
            continue
        assert type(want) is float
        got = read(value)
        assert got is None or (type(got) is float and got == want), name


@pytest.mark.parametrize("score", [region_margins, region_mask])
@pytest.mark.parametrize("region", ["C", "Q", "LOCAL_C"])
def test_a_region_that_is_not_a_region_id_is_refused_by_the_kernel_table(
        score, region):
    # "C" hashes and compares as RegionId.LOCAL_C, so a plain lookup by
    # (region, characterization) would score it
    with pytest.raises(ValueError, match=f"unknown region '{region}'"):
        score(region, np.zeros((2, 4)))


def test_a_characterization_that_is_not_a_q_characterization_is_refused():
    with pytest.raises(ValueError, match="unknown characterization 'landau'"):
        region_margins(RegionId.QUANTUM_Q, np.zeros((2, 4)), "landau")


@pytest.mark.parametrize("region", [r for r in CHAIN if r is not RegionId.QUANTUM_Q])
@pytest.mark.parametrize("char, message", [
    ("landau", "unknown characterization 'landau'"),
    (QCharacterization.LANDAU, "no profile entry"),
    (QCharacterization.ARCSIN, "no profile entry"),
], ids=["str-landau", "LANDAU", "ARCSIN"])
def test_a_characterization_of_a_region_other_than_q_is_refused(
        region, char, message):
    # one key rule for the arrays and the profile: the kernel of C does not
    # read the characterization, so a lookup that ignored it would score C
    rows = np.zeros((2, 4))
    with pytest.raises(ValueError, match=message):
        region_margins(region, rows, char)
    with pytest.raises(ValueError, match=message):
        region_mask(region, rows, characterization=char)
    with pytest.raises(ValueError, match=message):
        membership_profile(rows[0]).result(region, char)


def test_q_without_a_characterization_is_its_arcsin_form():
    pts = uniform_points(200, seed=31)
    arcsin = region_margins(RegionId.QUANTUM_Q, pts, QCharacterization.ARCSIN)
    assert region_margins(RegionId.QUANTUM_Q, pts, None).tobytes() == \
        arcsin.tobytes()
    assert region_mask(RegionId.QUANTUM_Q, pts, characterization=None).tolist() == \
        (arcsin >= -DEFAULT_TOLERANCE).tolist()


def _pinned_profile_points():
    """2000 points of [-1.5, 1.5]^4, the 81 points of {-1, 0, 1}^4, and the
    16 vertices each with its 8 neighbours one ulp nearer to and farther
    from the origin in one coordinate: 572 of them in the cube."""
    rng = np.random.default_rng(28)
    points = [tuple(p) for p in rng.uniform(-1.5, 1.5, size=(2000, 4)).tolist()]
    points += itertools.product((-1.0, 0.0, 1.0), repeat=4)
    for vertex in itertools.product((-1.0, 1.0), repeat=4):
        points.append(vertex)
        for k, v in enumerate(vertex):
            for target in (0.0, 2.0 * v):
                points.append(vertex[:k] + (math.nextafter(v, target),)
                              + vertex[k + 1:])
    return points


def test_profile_margins_are_pinned_bit_for_bit():
    points = _pinned_profile_points()
    assert len(points) == 2000 + 81 + 16 * 9
    digest, scored = hashlib.sha256(), 0
    for p in points:
        if not all(-1.0 <= v <= 1.0 for v in p):
            with pytest.raises(ValueError, match="is outside"):
                membership_profile(p)
            continue
        margins = membership_profile(p).margins
        digest.update(struct.pack("<7d", *margins))
        assert margins == tuple(ORACLE_OF[slot](p).margin
                                for slot in PROFILE_ORDER), p
        scored += 1
    assert scored == 572
    assert digest.hexdigest() == \
        "61f3779097d8e44ce860426c2eb4064959ecd3feba2b14ee65770e61df8d8356"


def test_profile_array_margins_are_pinned_bit_for_bit():
    # the in-cube points of the scalar pin, scored as the rows of one array
    # and hashed row by row in the same layout; np.arcsin and math.asin may
    # round apart, so the digest differs from the scalar one
    rows = np.array([p for p in _pinned_profile_points()
                     if all(-1.0 <= v <= 1.0 for v in p)])
    assert rows.shape == (572, 4)
    margins = np.stack(membership_profiles(rows).margins, axis=1)
    assert hashlib.sha256(margins.astype("<f8").tobytes()).hexdigest() == \
        "f1365c28cdbffa1d5eb48ecf390077d372be50cc0a1d4adcebad64dff70cfe70"


def _dyadic_verdicts(n):
    """Every point x/n of the cube with x in {-n, -n+2, ..., n}^4 (exact in
    floats for n a power of 2), and each region's verdict on it by exact
    integer tests, scaled by n: C |S - 2 x_ij| <= 2n, T (S - 2 x_ij)^2 <=
    8n^2, U its two quadratics <= 4n^2, L every point, and Q Landau's form
    |a| <= sqrt(P) + sqrt(R) squared twice."""
    steps = np.arange(-n, n + 1, 2, dtype=np.int64)
    x = np.stack(np.meshgrid(*[steps] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    x00, x01, x10, x11 = x.T
    nn = n * n
    chsh = x.sum(axis=1, keepdims=True) - 2 * x
    p = (nn - x00 * x00) * (nn - x01 * x01)
    r = (nn - x10 * x10) * (nn - x11 * x11)
    d = (x00 * x01 - x10 * x11) ** 2 - p - r
    exact = {
        RegionId.LOCAL_C: (np.abs(chsh) <= 2 * n).all(axis=1),
        RegionId.QUANTUM_Q: (d <= 0) | (d * d <= 4 * p * r),
        RegionId.UFFINK_U: ((x00 + x11) ** 2 + (x01 - x10) ** 2 <= 4 * nn)
        & ((x00 - x11) ** 2 + (x01 + x10) ** 2 <= 4 * nn),
        RegionId.TSIRELSON_T: (chsh * chsh <= 8 * nn).all(axis=1),
        RegionId.NO_SIGNALING_L: np.ones(len(x), dtype=bool),
    }
    return x / n, exact


@pytest.mark.parametrize("n", [8, 16, 32])
def test_verdicts_on_dyadic_grids_equal_exact_integer_tests(n):
    # the arcsin form at tol 0 is left out: its rounding rejects some points
    # on Q's boundary (42, 56 and 146 of these grids)
    points, exact = _dyadic_verdicts(n)
    margins = membership_profiles(points).margins
    for (region, char), margin in zip(PROFILE_ORDER, margins):
        tols = [DEFAULT_TOLERANCE]
        if char is not QCharacterization.ARCSIN:
            tols.append(0.0)
        for tol in tols:
            wrong = np.count_nonzero((margin >= -tol) != exact[region])
            assert wrong == 0, (region, char, tol)


# --------------------------------------------------------------------------
# shared quantities of a batch
# --------------------------------------------------------------------------

@pytest.mark.parametrize("profile, point", [
    (membership_profile, (0.3, -0.2, 0.9, 0.1)),
    (membership_profiles, np.array([[0.3, -0.2, 0.9, 0.1], [1.0, 1.0, 1.0, -1.0]])),
])
def test_profile_computes_each_quantity_once_per_batch(
        monkeypatch, profile, point):
    chsh_of, asin_of = [], []
    chsh, asin = regions._chsh, math.asin

    def counted_chsh(ops, cols):
        chsh_of.append(cols)
        return chsh(ops, cols)

    def counted_asin(v):
        asin_of.append(v)
        return asin(v)

    monkeypatch.setattr(regions, "_chsh", counted_chsh)
    monkeypatch.setattr(math, "asin", counted_asin)
    profile(point)
    # one _chsh for the point's batch, whose four quantities C, T and L
    # share, and one for its arcsin values (Q), which form no batch of
    # their own
    assert len(chsh_of) == 2
    cols, arcsin = chsh_of
    if isinstance(point, tuple):
        assert cols == point
        assert asin_of == list(point)   # math.asin of each coordinate, once
        assert arcsin == tuple(asin(v) for v in point)
    else:
        assert cols.tobytes() == np.ascontiguousarray(point.T).tobytes()
        assert asin_of == []
        assert arcsin.tobytes() == np.arcsin(cols).tobytes()


# --------------------------------------------------------------------------
# batch profiles
# --------------------------------------------------------------------------

VERTICES = list(itertools.product((-1.0, 1.0), repeat=4))


def _scalar_gap(c, region, char):
    """Largest difference allowed between the scalar margin at ``c`` and the
    numpy one, by the bounds of test_scalar_and_column_margins_are_equal."""
    c00, c01, c10, c11 = c
    if region is RegionId.UFFINK_U:
        pow_squares = all(v ** 2 == v * v for v in (c00 + c11, c01 - c10,
                                                    c00 - c11, c01 + c10))
        return 0.0 if pow_squares else 2 * math.ulp(8.0)
    if char is QCharacterization.ARCSIN:
        same = [math.asin(v) for v in c] == np.arcsin(c).tolist()
        return 0.0 if same else 8 * math.ulp(2 * math.pi)
    return 0.0


def _rows(profile):
    """Per row of a batch profile, its seven (inside, margin) pairs as
    Python values."""
    return list(zip(*[zip(inside.tolist(), margins.tolist())
                      for inside, margins in zip(profile.inside,
                                                 profile.margins)]))


def _check_profiles(points, tol=DEFAULT_TOLERANCE, boundary=1e-9):
    rows = np.array(points, dtype=np.float64)
    batch = membership_profiles(rows, tol)
    assert batch.tolerance == tol
    assert len(batch.margins) == len(batch.inside) == len(PROFILE_ORDER)
    for (region, char), margins, inside in zip(PROFILE_ORDER, batch.margins,
                                               batch.inside):
        column = region_margins(region, rows, char)
        assert margins.tobytes() == column.tobytes()
        assert inside.tolist() == (column >= -tol).tolist()
        assert inside.tolist() == region_mask(region, rows, tol, char).tolist()
        res = batch.result(region, char)
        assert (res.region, res.characterization) == (region, char)
        assert res.margin is margins and res.inside.tolist() == inside.tolist()
    for c, verdicts in zip(points, _rows(batch)):
        scalar = membership_profile(c, tol)
        for (region, char), (inside, margin) in zip(PROFILE_ORDER, verdicts):
            res = scalar.result(region, char)
            assert (res.region, res.characterization) == (region, char)
            assert abs(res.margin - margin) <= _scalar_gap(c, region, char)
            if abs(res.margin + tol) >= boundary:
                assert res.inside == inside, (c, region, char)


@settings(deadline=None, max_examples=150)
@given(st.lists(CUBE_POINTS, min_size=1, max_size=12),
       st.sampled_from([0.0, DEFAULT_TOLERANCE, 1e-6]))
@example(VERTICES + [Q_BOUNDARY], DEFAULT_TOLERANCE)
def test_batch_profiles_match_columns_and_scalar_profiles(points, tol):
    _check_profiles(points, tol)


def test_batch_profiles_at_vertices_and_tsirelson_point():
    points = VERTICES + [Q_BOUNDARY]
    _check_profiles(points, boundary=0.0)   # every verdict, on the boundary too
    inside = membership_profiles(np.array(points)).inside
    by_slot = dict(zip(PROFILE_ORDER, inside))
    assert by_slot[RegionId.NO_SIGNALING_L, None].all()
    # a vertex is local iff its CHSH values stay within 2: an even count of -1
    local = [math.prod(v) > 0 for v in VERTICES] + [False]
    assert by_slot[RegionId.LOCAL_C, None].tolist() == local
    for char in QCharacterization:
        assert by_slot[RegionId.QUANTUM_Q, char].tolist() == local[:-1] + [True]
    assert by_slot[RegionId.TSIRELSON_T, None].tolist() == local[:-1] + [True]


@settings(deadline=None, max_examples=100)
@given(st.lists(CUBE_POINTS, min_size=1, max_size=8),
       st.lists(CUBE_POINTS, min_size=1, max_size=8))
def test_batch_profiles_are_row_independent(a, b):
    whole = membership_profiles(np.array(a + b))
    parts = [membership_profiles(np.array(a)), membership_profiles(np.array(b))]
    for k in range(len(PROFILE_ORDER)):
        joined = np.concatenate([p.margins[k] for p in parts])
        assert whole.margins[k].tobytes() == joined.tobytes()
        assert whole.inside[k].tolist() == \
            np.concatenate([p.inside[k] for p in parts]).tolist()
    assert _rows(whole) == [*_rows(parts[0]), *_rows(parts[1])]


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0, 0.0, math.nan]],
    [[0.1, 0.2, 0.3, 0.4], [math.inf, 0.0, 0.0, 0.0]],
    [[0.0, -math.inf, 0.0, 0.0]],
    [0.0, 0.0, 0.0, 0.0],
    [[0.0, 0.0, 0.0]],
    np.zeros((2, 5)),
    np.zeros((1, 4, 1)),
    # bools and text, which the scalar point contract refuses
    pytest.param(np.array([[True, False, True, False]]), id="bool-array"),
    pytest.param([[True, False, True, False]], id="bool-list"),
    pytest.param(np.array([[0.5, 0.0, 0.0, 0.0]]).astype(str), id="text"),
    pytest.param([[None, 0.0, 0.0, 0.0]], id="none"),
    # numpy's cast of a mixed list or an object array reads True as 1.0 and
    # parses text, so these reach the scalar contract value by value
    pytest.param([[True, 0.5, 0.0, 0.0]], id="bool-in-float-list"),
    pytest.param([[0.5, 0.0, 0.0, 0.0], [0.0, "0.5", 0.0, 0.0]],
                 id="text-in-float-list"),
    pytest.param(np.array([["0.5", 0.0, 0.0, 0.0]], dtype=object),
                 id="text-in-object-array"),
    pytest.param(np.array([[0.5, np.True_, 0.0, 0.0]], dtype=object),
                 id="bool-in-object-array"),
    pytest.param(np.zeros((1, 4), dtype=complex), id="complex"),
])
def test_batch_profiles_reject_bad_input(pts):
    with pytest.raises(ValueError):
        membership_profiles(pts)
    for region in CHAIN:
        with pytest.raises(ValueError):
            region_margins(region, pts)
        with pytest.raises(ValueError):
            region_mask(region, pts)


def test_batch_of_numbers_in_any_container_matches_float_array():
    # values a float32 holds exactly, and an int among them
    rows = [[0.5, -0.25, 1, 0.0], [0.375, 0.375, 0.375, -0.375]]
    want = membership_profiles(np.array(rows)).margins
    for pts in (rows, [tuple(r) for r in rows], np.array(rows, dtype=object),
                [[np.float32(v) for v in r] for r in rows]):
        got = membership_profiles(pts).margins
        assert [m.tolist() for m in got] == [m.tolist() for m in want]


def test_batch_profile_records_match_scalar_layout():
    # points whose scalar and numpy margins agree exactly, so the records
    # must be equal byte for byte, key order included
    points = VERTICES + [(0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, -0.5)]
    batch = membership_profiles(np.array(points))
    for c, verdicts in zip(points, _rows(batch)):
        record = profile_record(verdicts)
        scalar = membership_profile(c).as_dict()
        assert json.dumps(record) == json.dumps(scalar)
