import itertools
import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellvol.polytopes import (
    DegeneratePolytope,
    Halfspace,
    JointProbabilityTable,
    RationalPolytope,
    UnboundedPolytope,
    check_no_signaling,
    correlation_polytope_C,
    cube_polytope_h,
    enumerate_facets,
    enumerate_vertices,
    exact_volume,
    local_polytope_v,
    ns_polytope_h,
    pr_box,
    signaling_example,
)
from bellvol import polytopes
from bellvol.polytopes import (
    _det_int_py, _homogenize, _hull_facets, _integer_row, _triangulate)
from bellvol.regions import (DEFAULT_TOLERANCE, RegionId, in_box_L, in_local,
                             in_quantum_arcsin, in_tsirelson_T, region_margins)

PM = (-1, 1)
SETTINGS = ((0, 0), (0, 1), (1, 0), (1, 1))


# behaviors are 8-tuples (mA0, mA1, mB0, mB1, c00, c01, c10, c11)
def zero_behavior():
    return (Fraction(0),) * 8


#: The PR box's behavior: no marginal, correlations (1, 1, 1, -1).
PR_BEHAVIOR = (0, 0, 0, 0, 1, 1, 1, -1)


def text_rows(text):
    """The header row of a ``to_text`` block and its other rows, each read
    back as a tuple of Fractions."""
    header, *rows = text.splitlines()
    return header, [tuple(map(Fraction, row.split())) for row in rows]


def random_behaviors(count, seed=0):
    """Valid behaviors with coordinates on the grid k/8 (rejection sampling):
    every 4 * P is nonnegative."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        b = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(8))
        if all(four_p(b, i, j, a, bb) >= 0
               for (i, j), a, bb in itertools.product(SETTINGS, PM, PM)):
            out.append(b)
    return out


def four_p(b, i, j, a, bb):
    """4 * P(A_i=a, B_j=bb) of a behavior, written out from its fields."""
    m_a, m_b = b[0:2], b[2:4]
    c = (b[4:6], b[6:8])
    return 1 + a * m_a[i] + bb * m_b[j] + a * bb * c[i][j]


def table(b):
    """The joint probability table of a behavior, each entry four_p / 4."""
    return JointProbabilityTable.from_function(
        lambda i, j, a, bb: Fraction(four_p(b, i, j, a, bb), 4))


def facet_outcome(h):
    """The outcome (i, j, a, b) of a no-signaling facet
    -(a e_i + b e_(2+j) + ab e_(4+2i+j)) . x <= 1."""
    i, j = (0 if h.normal[0] else 1), (0 if h.normal[2] else 1)
    return i, j, -h.normal[i], -h.normal[2 + j]


#: The column order of `bellvol examples`: ++ +- -+ --.
PRINTED = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# --------------------------------------------------------------------------
# behaviors and tables
# --------------------------------------------------------------------------

class TestBehavior:
    def test_rejects_negative_probability(self):
        # perfect correlation with contradictory marginals: one facet's
        # slack, 4 * P(A0=-1, B0=+1), is negative
        b = (1, 0, -1, 0, 1, 0, 0, 0)
        negative = {facet_outcome(h): h.slack(b)
                    for h in ns_polytope_h().halfspaces if h.slack(b) < 0}
        assert negative == {(0, 0, -1, 1): -2}

    def test_ns_slacks_and_table_agree_on_validity(self):
        # all ns slacks >= 0 exactly when the table of 4 * P / 4 is accepted
        rng = random.Random(11)
        facets = ns_polytope_h().halfspaces
        verdicts = Counter()
        for _ in range(3000):
            b = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(8))
            by_slack = all(h.slack(b) >= 0 for h in facets)
            try:
                table(b)
                by_table = True
            except ValueError as err:
                assert "is negative" in str(err)
                by_table = False
            assert by_slack == by_table, b
            verdicts[by_slack] += 1
        assert verdicts[True] and verdicts[False]


class TestDeterministicBehaviors:
    def test_sixteen_distinct(self):
        dets = local_polytope_v().vertices
        assert len(dets) == 16
        assert len(set(dets)) == 16

    def test_all_plus_assignment(self):
        assert (1,) * 8 in local_polytope_v().vertices

    def test_mixed_assignment_correlations(self):
        # assignment (a0, a1, b0, b1) = (+1, -1, +1, +1)
        match = [d for d in local_polytope_v().vertices
                 if d[:4] == (1, -1, 1, 1)]
        assert len(match) == 1
        assert match[0][4:] == (1, 1, -1, -1)

    def test_correlations_are_products(self):
        for v in local_polytope_v().vertices:
            for i, j in SETTINGS:
                assert v[4 + 2 * i + j] == v[i] * v[2 + j]

    def test_each_vertex_table_is_deterministic(self):
        # in each block the one outcome of probability 1 is (A_i, B_j) =
        # (v[i], v[2 + j]), and the table signals nothing
        for v in local_polytope_v().vertices:
            t = table(v)
            for (i, j), a, b in itertools.product(SETTINGS, PM, PM):
                want = int((a, b) == (v[i], v[2 + j]))
                assert t.entry(i, j, a, b) == want, (v, i, j, a, b)
            assert check_no_signaling(t) == (True, 0)


class TestTables:
    def test_zero_behavior_uniform_blocks(self):
        t = table(zero_behavior())
        assert all(e == Fraction(1, 4) for e in t.entries)

    def test_deterministic_table(self):
        t = table((1,) * 8)
        for (i, j), a, b in itertools.product(SETTINGS, PM, PM):
            expected = Fraction(1) if (a, b) == (1, 1) else Fraction(0)
            assert t.entry(i, j, a, b) == expected

    def test_table_validation(self):
        bad = [Fraction(1, 4)] * 16
        bad[0] = Fraction(1, 2)  # block (0, 0) sums to 5/4
        with pytest.raises(ValueError, match="sums to"):
            JointProbabilityTable(tuple(bad))
        bad = [Fraction(1, 4)] * 16
        bad[0], bad[1] = Fraction(-1, 4), Fraction(3, 4)
        with pytest.raises(ValueError, match="negative"):
            JointProbabilityTable(tuple(bad))

    def test_round_trip_on_random_behaviors(self):
        # A's marginals off blocks (i, 0), B's off blocks (0, j)
        for b in random_behaviors(25, seed=5):
            e = table(b).expectations()
            assert (e[0, 0][0], e[1, 0][0], e[0, 0][1], e[0, 1][1],
                    *(ab for _, _, ab in e.values())) == b

    def test_uniform_table_gives_zero_behavior(self):
        t = JointProbabilityTable(tuple([Fraction(1, 4)] * 16))
        assert t == table(zero_behavior())
        assert list(t.expectations().values()) == [(0, 0, 0)] * 4

    def test_entries_follow_the_printed_outcome_order(self):
        for b in random_behaviors(10, seed=7):
            t = table(b)
            assert t.entries == tuple(four_p(b, i, j, a, bb) / 4
                                      for i, j in SETTINGS for a, bb in PRINTED)

    def test_expectations_of_a_behavior_table(self):
        for b in random_behaviors(10, seed=8):
            e = table(b).expectations()
            mA0, mA1, mB0, mB1, c00, c01, c10, c11 = b
            assert list(e) == list(SETTINGS)
            assert e == {(0, 0): (mA0, mB0, c00),
                         (0, 1): (mA0, mB1, c01),
                         (1, 0): (mA1, mB0, c10),
                         (1, 1): (mA1, mB1, c11)}


class TestNoSignaling:
    def test_pr_box_passes(self):
        ok, worst = check_no_signaling(pr_box())
        assert ok and worst == 0

    def test_signaling_example_fails_with_unit_discrepancy(self):
        ok, worst = check_no_signaling(signaling_example())
        assert not ok
        assert worst == 1

    @pytest.mark.parametrize("weight", [0, Fraction(1, 4), Fraction(1, 2),
                                        Fraction(3, 4), 1])
    def test_discrepancy_of_a_mixture_is_its_signaling_weight(self, weight):
        # the marginal differences are linear in the table and vanish on the
        # PR box, so mixing in the signaling example at weight w leaves w
        t = JointProbabilityTable(tuple(
            weight * s + (1 - weight) * p
            for s, p in zip(signaling_example().entries, pr_box().entries)))
        assert check_no_signaling(t) == (weight == 0, weight)

    def test_behavior_tables_always_pass(self):
        for b in random_behaviors(10, seed=6):
            t = table(b)
            ok, worst = check_no_signaling(t)
            assert ok and worst == 0


def marginal_difference_maximum(t):
    """max over (i, a) of |P(A_i=a) in block (i, 0) - in block (i, 1)|, and
    the same for B over (j, b), indexing the printed outcome order."""
    def p(i, j, a, b):
        return t.entries[8 * i + 4 * j + PRINTED.index((a, b))]

    worst = Fraction(0)
    for k, s in itertools.product((0, 1), PM):
        worst = max(worst,
                    abs(sum(p(k, 0, s, b) for b in PM)
                        - sum(p(k, 1, s, b) for b in PM)),
                    abs(sum(p(0, k, a, s) for a in PM)
                        - sum(p(1, k, a, s) for a in PM)))
    return worst


@st.composite
def normalized_tables(draw):
    """Tables with random blocks (mostly signaling) or one block repeated
    four times (no-signaling)."""
    block = st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(any)
    weights = draw(block)
    blocks = [weights] * 4 if draw(st.booleans()) else \
        [weights, *(draw(block) for _ in range(3))]
    return JointProbabilityTable(tuple(Fraction(w, sum(ws))
                                       for ws in blocks for w in ws))


@given(normalized_tables())
def test_no_signaling_discrepancy_is_the_marginal_difference_maximum(t):
    worst = marginal_difference_maximum(t)
    assert check_no_signaling(t) == (worst == 0, worst)


class TestReferenceTables:
    def test_pr_box_entries(self):
        t = pr_box()
        half = Fraction(1, 2)
        assert t.entry(0, 0, 1, 1) == half and t.entry(0, 0, -1, -1) == half
        assert t.entry(1, 1, 1, -1) == half and t.entry(1, 1, -1, 1) == half
        assert t.entry(1, 1, 1, 1) == 0
        assert sum(1 for e in t.entries if e == half) == 8

    @pytest.mark.parametrize("outcome", [
        (2, 0, 1, 1), (0, -1, 1, 1), (0, 0, 0, 1), (1, 1, 1, 2),
        # equal to a setting or an outcome, but not integers by the contract
        (True, 0, 1, 1), (0, 0, 1.0, 1)])
    def test_an_outcome_outside_the_table_is_named(self, outcome):
        with pytest.raises(ValueError) as err:
            pr_box().entry(*outcome)
        assert str(err.value).startswith(
            f"no outcome (i, j, a, b) = {outcome!r}")

    def test_pr_box_behavior_and_projection(self):
        t = pr_box()
        assert t == table(PR_BEHAVIOR)
        e = t.expectations().values()
        assert [(a, b) for a, b, _ in e] == [(0, 0)] * 4
        p = [float(ab) for _, _, ab in e]
        assert p == [1.0, 1.0, 1.0, -1.0]
        assert not in_quantum_arcsin(p).inside

    def test_signaling_example_projection_is_local(self):
        t = signaling_example()
        # all entries nonnegative and each block normalized is enforced by
        # the JointProbabilityTable constructor; the projection must be local
        corr = [sum(a * b * t.entry(i, j, a, b) for a in PM for b in PM)
                for i, j in SETTINGS]
        assert corr == [0, 0, 0, 0]
        assert in_local([float(c) for c in corr]).inside

    def test_projection_of_deterministic_behaviors(self):
        match = [d for d in local_polytope_v().vertices
                 if d[:4] == (1, -1, 1, 1)]
        assert match[0][4:] == (1, 1, -1, -1)
        assert zero_behavior()[4:] == (0, 0, 0, 0)


# --------------------------------------------------------------------------
# polytopes
# --------------------------------------------------------------------------

class TestNsPolytope:
    def test_sixteen_facets(self):
        assert len(ns_polytope_h().halfspaces) == 16

    def test_zero_behavior_strictly_interior_with_unit_slack(self):
        # facets are scaled to 1 + a*mA + b*mB + ab*c >= 0 (4x probability)
        zero = (Fraction(0),) * 8
        for h in ns_polytope_h().halfspaces:
            assert h.slack(zero) == 1

    def test_facet_slack_is_four_times_its_outcome_probability(self):
        facets = ns_polytope_h().halfspaces
        outcomes = [facet_outcome(h) for h in facets]
        assert len(set(outcomes)) == 16
        for b in random_behaviors(10, seed=9):
            for h, o in zip(facets, outcomes):
                assert h.slack(b) == four_p(b, *o)

    def test_pr_behavior_tight_on_eight_facets(self):
        vec = tuple(PR_BEHAVIOR)
        slacks = [h.slack(vec) for h in ns_polytope_h().halfspaces]
        assert all(s >= 0 for s in slacks)
        assert sum(1 for s in slacks if s == 0) == 8


class TestEnumerateVertices:
    def test_ns_polytope_has_24_vertices(self):
        poly = enumerate_vertices(ns_polytope_h())
        assert len(poly.vertices) == 24

    def test_ns_vertex_classification(self):
        verts = enumerate_vertices(ns_polytope_h()).vertices
        det = set(local_polytope_v().vertices)
        deterministic = [v for v in verts if v in det]
        others = [v for v in verts if v not in det]
        assert len(deterministic) == 16 and len(others) == 8
        for v in others:
            marginals, corr = v[:4], v[4:]
            assert marginals == (0, 0, 0, 0)
            assert all(abs(c) == 1 for c in corr)
            assert sum(1 for c in corr if c == -1) % 2 == 1

    @pytest.mark.parametrize("dim", [1.0, True, "4", None, -1])
    def test_cube_dimension_follows_the_integer_contract(self, dim):
        with pytest.raises(ValueError, match="^dim must be"):
            cube_polytope_h(dim)

    def test_cube_vertices(self):
        poly = enumerate_vertices(cube_polytope_h(4))
        assert len(poly.vertices) == 16
        assert set(poly.vertices) == {
            tuple(Fraction(s) for s in signs)
            for signs in itertools.product(PM, repeat=4)}

    def test_unbounded_quadrant_detected(self):
        h = RationalPolytope(dim=2, halfspaces=(
            Halfspace.normalized((1, 0), 1), Halfspace.normalized((0, 1), 1)))
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(h)

    def test_rank_deficient_slab_detected(self):
        h = RationalPolytope(dim=2, halfspaces=(
            Halfspace.normalized((1, 0), 1), Halfspace.normalized((-1, 0), 1)))
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(h)

    def test_vertices_sorted_canonically(self):
        verts = enumerate_vertices(ns_polytope_h()).vertices
        assert list(verts) == sorted(verts)


def chsh_halfspaces():
    """The eight normalized CHSH facet inequalities in correlation space."""
    out = set()
    for k in range(4):
        normal = [1, 1, 1, 1]
        normal[k] = -1
        out.add((tuple(normal), Fraction(2)))
        out.add((tuple(-n for n in normal), Fraction(2)))
    return out


def box_halfspaces(dim):
    out = set()
    for k in range(dim):
        for s in (1, -1):
            normal = [0] * dim
            normal[k] = s
            out.add((tuple(normal), Fraction(1)))
    return out


class TestEnumerateFacets:
    def test_local_polytope_has_24_facets(self):
        facets = enumerate_facets(local_polytope_v()).halfspaces
        assert len(facets) == 24

    def test_local_polytope_facet_classification(self):
        facets = enumerate_facets(local_polytope_v()).halfspaces
        positivity = {(h.normal, h.offset) for h in ns_polytope_h().halfspaces}
        got = {(h.normal, h.offset) for h in facets}
        # 16 positivity facets, shared with the no-signaling polytope
        assert positivity <= got
        chsh = got - positivity
        assert len(chsh) == 8
        for normal, offset in chsh:
            assert normal[:4] == (0, 0, 0, 0)      # no marginal terms
            assert sorted(abs(n) for n in normal[4:]) == [1, 1, 1, 1]
            assert offset == 2

    def test_correlation_hull_facets(self):
        # The hull is a linear image of the 4D cross-polytope: its facet
        # list is the 8 CHSH inequalities plus the 8 coordinate bounds.
        facets = enumerate_facets(correlation_polytope_C()).halfspaces
        got = {(h.normal, h.offset) for h in facets}
        assert got == chsh_halfspaces() | box_halfspaces(4)
        assert len(got & chsh_halfspaces()) == 8

    def test_cube_facets(self):
        cube_v = enumerate_vertices(cube_polytope_h(4))
        facets = enumerate_facets(
            RationalPolytope(dim=4, vertices=cube_v.vertices)).halfspaces
        assert {(h.normal, h.offset) for h in facets} == box_halfspaces(4)

    def test_degenerate_input_raises(self):
        square_in_3d = RationalPolytope(dim=3, vertices=(
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0))))
        with pytest.raises(DegeneratePolytope):
            enumerate_facets(square_in_3d)

    def test_normals_are_primitive_and_text_round_trips(self):
        # x <= 1/2 must come out as normal (1, 0) with offset 1/2, not (2, 0), 1
        half = Fraction(1, 2)
        rect = RationalPolytope(dim=2, vertices=(
            (Fraction(0), Fraction(0)), (half, Fraction(0)),
            (Fraction(0), Fraction(1)), (half, Fraction(1))))
        facets = enumerate_facets(rect)
        assert {(h.normal, h.offset) for h in facets.halfspaces} == {
            ((1, 0), half), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)}
        for h in facets.halfspaces:
            assert math.gcd(*h.normal) == 1
        assert text_rows(facets.to_text("H")) == (
            "H 2 4", [(*h.normal, h.offset) for h in facets.halfspaces])


class TestDuality:
    def test_cube_round_trip(self):
        h = cube_polytope_h(4)
        recon = enumerate_facets(
            RationalPolytope(dim=4, vertices=enumerate_vertices(h).vertices))
        assert {(f.normal, f.offset) for f in recon.halfspaces} \
            == {(f.normal, f.offset) for f in h.halfspaces}

    def test_ns_polytope_round_trip(self):
        h = ns_polytope_h()
        verts = enumerate_vertices(h).vertices
        recon = enumerate_facets(RationalPolytope(dim=8, vertices=verts))
        assert {(f.normal, f.offset) for f in recon.halfspaces} \
            == {(f.normal, f.offset) for f in h.halfspaces}


class TestProjectionConsistency:
    def test_vertices_are_the_deterministic_behaviors(self):
        # (a0, a1, b0, b1, a_i * b_j), by the assignment ascending
        dets = [(a0, a1, b0, b1, a0 * b0, a0 * b1, a1 * b0, a1 * b1)
                for a0, a1, b0, b1 in itertools.product(PM, repeat=4)]
        assert local_polytope_v().vertices == tuple(dets)
        assert correlation_polytope_C().vertices \
            == tuple(sorted({v[4:] for v in dets}))

    def test_each_correlation_vertex_hit_twice(self):
        images = Counter(v[4:] for v in local_polytope_v().vertices)
        assert len(images) == 8
        assert all(count == 2 for count in images.values())
        assert set(images) == set(correlation_polytope_C().vertices)

    def test_vertex_signs_and_products(self):
        for v in correlation_polytope_C().vertices:
            assert all(abs(x) == 1 for x in v)
            assert v[0] * v[1] * v[2] * v[3] == 1

    def test_vertices_saturate_some_chsh_functional(self):
        for v in correlation_polytope_C().vertices:
            s = sum(v)
            values = [abs(s - 2 * x) for x in v]
            assert max(values) == 2  # exact rational arithmetic

    def test_ns_vertices_project_into_cube_and_pr_family_outside_T(self):
        verts = enumerate_vertices(ns_polytope_h()).vertices
        det = set(local_polytope_v().vertices)
        outside_t = 0
        for v in verts:
            corr = [float(x) for x in v[4:]]
            assert in_box_L(corr).inside
            if not in_tsirelson_T(corr).inside:
                outside_t += 1
                assert v not in det
        assert outside_t == 8


#: {-1, 0, 1}^4: the cube plus every pairwise midpoint of its vertices, so
#: each face of dimension >= 1 carries points inside it.
GRID = RationalPolytope(dim=4, vertices=tuple(
    itertools.product((-1, 0, 1), repeat=4)))


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return det


class TestExactVolume:
    def test_correlation_hull_volume(self):
        assert exact_volume(correlation_polytope_C()) == Fraction(32, 3)

    def test_cube_volume(self):
        cube = enumerate_vertices(cube_polytope_h(4))
        assert exact_volume(cube) == 16

    def test_grid_with_points_inside_every_face(self):
        assert exact_volume(GRID) == 16

    @pytest.mark.parametrize("make", [
        lambda: enumerate_vertices(cube_polytope_h(4)), correlation_polytope_C,
        local_polytope_v, lambda: enumerate_vertices(ns_polytope_h()),
    ], ids=["cube", "corrC", "local", "ns"])
    def test_one_double_description_run(self, make, monkeypatch):
        poly = make()
        runs = []
        dd = polytopes._double_description

        def counting(*args):
            runs.append(args)
            return dd(*args)

        monkeypatch.setattr(polytopes, "_double_description", counting)
        exact_volume(poly)
        assert len(runs) == 1

    @pytest.mark.parametrize("make, simplices", [
        (lambda: enumerate_vertices(cube_polytope_h(4)), 24),
        (correlation_polytope_C, 8),
        (local_polytope_v, 64),
        (lambda: enumerate_vertices(ns_polytope_h()), 80),
    ], ids=["cube", "corrC", "local", "ns"])
    def test_simplices_summed(self, make, simplices, monkeypatch):
        # one simplex per face a pulling triangulation cones to; a fan
        # from every face's centroid summed one per complete flag of
        # faces (192 for the cube, 16 for C)
        poly = make()
        dets = []
        det = polytopes._det_int_py

        def counting(rows):
            dets.append(det(rows))
            return dets[-1]

        monkeypatch.setattr(polytopes, "_det_int_py", counting)
        exact_volume(poly)
        assert len(dets) == simplices
        assert all(dets)

    def test_eight_dimensional_volumes(self):
        v_local = exact_volume(local_polytope_v())
        v_ns = exact_volume(enumerate_vertices(ns_polytope_h()))
        assert (v_local, v_ns) == (Fraction(2048, 315), Fraction(2176, 315))
        assert v_local / v_ns == Fraction(16, 17)

    def test_no_signaling_minus_local_is_eight_pr_box_pyramids(self):
        """V_NS - V_L by a decomposition that shares no code with the
        engine: the no-signaling polytope is the local one plus one pyramid
        per PR box, with the box as apex over the eight deterministic
        behaviors on the one CHSH facet of the local polytope it violates.
        Each pyramid is an 8-simplex, its volume one determinant over
        Fractions.

        The ratio V_L / V_NS = 16/17 lives in the full 8-D (marginals,
        correlations) space of behaviors.  The paper's ratios live in the
        4-D correlation projection, where the local set C and the cube L
        (the image of the no-signaling polytope) have V_C / V_L = 2/3."""
        deterministic = local_polytope_v().vertices
        pyramids = []
        for signs in itertools.product(PM, repeat=4):
            if math.prod(signs) != -1:
                continue
            # the PR box of these correlations violates sum s_ij c_ij <= 2
            apex = (0, 0, 0, 0, *signs)
            base = [v for v in deterministic
                    if sum(s * c for s, c in zip(signs, v[4:])) == 2]
            assert len(base) == 8
            edges = [[Fraction(x - y) for x, y in zip(v, apex)] for v in base]
            pyramids.append(abs(fraction_det(edges)) / math.factorial(8))
        assert pyramids == [Fraction(16, 315)] * 8
        v_local = exact_volume(local_polytope_v())
        v_ns = exact_volume(enumerate_vertices(ns_polytope_h()))
        assert v_ns - v_local == sum(pyramids) == Fraction(128, 315)

    def test_unit_simplex_volume(self):
        verts = [tuple(Fraction(0) for _ in range(4))]
        for k in range(4):
            v = [Fraction(0)] * 4
            v[k] = Fraction(1)
            verts.append(tuple(v))
        simplex = RationalPolytope(dim=4, vertices=tuple(verts))
        assert exact_volume(simplex) == Fraction(1, 24)

    def test_degenerate_raises(self):
        flat = RationalPolytope(dim=3, vertices=(
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0))))
        with pytest.raises(DegeneratePolytope):
            exact_volume(flat)

    def test_invariant_under_vertex_permutation(self):
        verts = list(correlation_polytope_C().vertices)
        rng = random.Random(3)
        for _ in range(3):
            rng.shuffle(verts)
            poly = RationalPolytope(dim=4, vertices=tuple(verts))
            assert exact_volume(poly) == Fraction(32, 3)

    def test_invariant_under_relabelings(self):
        # coordinate permutations and paired sign flips map the hull to itself
        def transform(v, perm, signs):
            return tuple(signs[k] * v[perm[k]] for k in range(4))

        cases = [((2, 3, 0, 1), (1, 1, 1, 1)),      # swap Alice's settings
                 ((1, 0, 3, 2), (1, 1, 1, 1)),      # swap Bob's settings
                 ((0, 2, 1, 3), (1, 1, 1, 1)),      # swap parties
                 ((0, 1, 2, 3), (-1, -1, 1, 1)),    # flip one row
                 ((0, 1, 2, 3), (-1, 1, -1, 1))]    # flip one column
        for perm, signs in cases:
            verts = tuple(sorted(transform(v, perm, signs)
                                 for v in correlation_polytope_C().vertices))
            poly = RationalPolytope(dim=4, vertices=verts)
            assert exact_volume(poly) == Fraction(32, 3)


class TestLatticeCount:
    """C's points on the N-run grid {k/N : k = N mod 2}^4, the correlations
    an experiment of N runs can report, are the lattice points of a dilate
    of C.  Their number is C's Ehrhart polynomial 2N^4/3 + 2N^3 + 7N^2/3 +
    2N + 1, whose leading coefficient is the volume of C over that of a grid
    cell, (2/N)^4 (Beck and Robins, Computing the Continuous Discretely,
    2007, ch. 3).  C's float margins give the same verdicts at the default
    tolerance.  At tolerance 0 they do not, for N in {3, 5, 6, 7, 9, 10,
    11, 12}: k/N is then no binary fraction, and a point on a CHSH facet
    can come out a few ulp outside, as the verdict is taken on the float,
    not on the rational it stands for."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_is_the_ehrhart_polynomial(self, n):
        forms = sorted(chsh_halfspaces())
        normals = np.array([normal for normal, _ in forms])
        offsets = np.array([int(offset) for _, offset in forms])
        ks = np.array(list(itertools.product(range(-n, n + 1, 2), repeat=4)))
        inside = (ks @ normals.T <= offsets * n).all(axis=1)
        assert 3 * inside.sum() == 2 * n**4 + 6 * n**3 + 7 * n**2 + 6 * n + 3
        margins = region_margins(RegionId.LOCAL_C, ks / n)
        assert np.array_equal(margins >= -DEFAULT_TOLERANCE, inside)

    def test_leading_coefficient_is_the_volume_over_sixteen(self):
        assert exact_volume(correlation_polytope_C()) / 16 == Fraction(2, 3)


class TestAgainstFloatingPointHull:
    """Cross-check the exact engine against scipy's qhull on random hulls."""

    @pytest.mark.parametrize("dim,seed", [(3, 0), (3, 1), (4, 2), (4, 3)])
    def test_random_hulls_match_qhull(self, dim, seed):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        rng = random.Random(seed)
        pts = [tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(dim))
               for _ in range(10)]
        pts = sorted(set(pts))
        hull = scipy_spatial.ConvexHull([[float(x) for x in p] for p in pts])
        extreme = tuple(pts[i] for i in sorted(hull.vertices))
        poly = RationalPolytope(dim=dim, vertices=extreme)
        faceted = enumerate_facets(poly)
        import numpy as np
        qhull_planes = len(np.unique(np.round(hull.equations, 8), axis=0))
        assert len(faceted.halfspaces) == qhull_planes
        assert float(exact_volume(poly)) == pytest.approx(hull.volume, rel=1e-9)


class TestSerialization:
    def test_vertex_round_trip(self):
        poly = correlation_polytope_C()
        assert text_rows(poly.to_text("V")) == ("V 4 8", list(poly.vertices))

    def test_halfspace_round_trip(self):
        poly = ns_polytope_h()
        header, rows = text_rows(poly.to_text("H"))
        assert header == "H 8 16"
        assert rows == [(*h.normal, h.offset) for h in poly.halfspaces]

    @pytest.mark.parametrize("offset", [0.1, 1, Fraction(1, 10)])
    def test_halfspace_offset_is_exact_and_round_trips(self, offset):
        # the offset is a Fraction of the value given, as vertices are, so
        # slack is exact and to_text writes the facet that was built
        h = Halfspace((1,), offset)
        assert type(h.offset) is Fraction and h.offset == Fraction(offset)
        assert h.slack((h.offset,)) == 0 and type(h.slack((0,))) is Fraction
        poly = RationalPolytope(dim=1, halfspaces=(h, Halfspace((-1,), 0)))
        assert text_rows(poly.to_text("H"))[1] == [(1, h.offset), (-1, 0)]

    def test_fractions_serialized_as_p_over_q(self):
        poly = RationalPolytope(dim=2, vertices=(
            (Fraction(1, 3), Fraction(-2, 7)), (Fraction(0), Fraction(1))))
        text = poly.to_text("V")
        assert "1/3" in text and "-2/7" in text
        assert text_rows(text)[1] == list(poly.vertices)

    @pytest.mark.parametrize("make, kind", [
        (correlation_polytope_C, "V"),
        (local_polytope_v, "V"),
        (ns_polytope_h, "H"),
        (lambda: cube_polytope_h(3), "H"),
        (lambda: enumerate_vertices(ns_polytope_h()), "V"),
        (lambda: enumerate_vertices(cube_polytope_h(3)), "V"),
        (lambda: enumerate_facets(local_polytope_v()), "H"),
        (lambda: enumerate_facets(correlation_polytope_C()), "H"),
    ], ids=["corrC", "local", "ns", "cube", "ns-vertices", "cube-vertices",
            "local-facets", "corrC-facets"])
    def test_header_counts_rows_of_lowest_term_rationals(self, make, kind):
        # the block the CLI writes: the header names the kind, dim and row
        # count, each row holds dim values (dim + 1 for a halfspace), and
        # each value is an integer or p/q in lowest terms
        poly = make()
        text = poly.to_text(kind)
        assert text.endswith("\n")
        header, *rows = text.splitlines()
        assert header == f"{kind} {poly.dim} {len(rows)}"
        width = poly.dim + (kind == "H")
        for row in rows:
            values = row.split()
            assert len(values) == width
            assert all(re.fullmatch(r"-?\d+(/\d+)?", x) for x in values)
            assert [str(Fraction(x)) for x in values] == values

    def test_mutual_containment_of_dual_representations(self):
        poly = enumerate_vertices(ns_polytope_h())
        for v in poly.vertices:
            assert all(h.slack(v) >= 0 for h in poly.halfspaces)
        # every facet supports the polytope: slack 0 on >= 8 vertices
        for h in poly.halfspaces:
            tight = sum(1 for v in poly.vertices if h.slack(v) == 0)
            assert tight >= 8


SQUARE_V = RationalPolytope(dim=2, vertices=((0, 0), (1, 0), (0, 1), (1, 1)))
SQUARE_H = cube_polytope_h(2)


@pytest.mark.parametrize("call, match", [
    (lambda: JointProbabilityTable((Fraction(1, 4),) * 15),
     "^need 16 entries, got 15$"),
    (lambda: Halfspace.normalized((0, 0), 1),
     "^halfspace normal must be nonzero$"),
    (lambda: Halfspace((0, 0), 1), "^halfspace normal must be nonzero$"),
    (lambda: RationalPolytope(dim=-1), "^dim must be >= 0, got -1$"),
    (lambda: RationalPolytope(dim=2, vertices=((0, 0, 0),)),
     "^vertex .* has wrong dimension$"),
    (lambda: RationalPolytope(dim=2, halfspaces=(Halfspace((1, 0, 0), 1),)),
     "^halfspace .* has wrong dimension$"),
    (lambda: Halfspace((1, 0), 1).slack((5,)),
     "^point of length 1 for a halfspace of length 2$"),
    (lambda: Halfspace((1, 0), 1).slack((0, 0, 7)),
     "^point of length 3 for a halfspace of length 2$"),
    (lambda: SQUARE_V.to_text("X"), "^unknown representation kind 'X'$"),
    (lambda: SQUARE_V.to_text("H"),
     "^no halfspace representation to serialize$"),
    (lambda: SQUARE_H.to_text("V"), "^no vertex representation to serialize$"),
    (lambda: enumerate_vertices(SQUARE_V),
     "^input polytope has no halfspace representation$"),
    (lambda: enumerate_facets(SQUARE_H),
     "^input polytope has no vertex representation$"),
    (lambda: exact_volume(SQUARE_H),
     "^exact_volume needs a vertex representation$"),
], ids=["table-of-15", "zero-normal", "zero-normal-built", "dim-negative",
        "vertex-dimension", "halfspace-dimension", "slack-of-a-short-point",
        "slack-of-a-long-point", "unknown-kind",
        "no-halfspaces-to-write", "no-vertices-to-write",
        "vertices-of-a-v-polytope", "facets-of-an-h-polytope",
        "volume-of-an-h-polytope"])
def test_input_outside_the_contract_is_a_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# --------------------------------------------------------------------------
# rationals read once into integer rows, Fractions out
# --------------------------------------------------------------------------

def reference_integer_row(row):
    """``_integer_row`` written out in Fractions: scale the row by the lcm
    of its denominators, then divide by the gcd of the scaled entries."""
    fr = [Fraction(x) for x in row]
    scale = math.lcm(*(f.denominator for f in fr))
    scaled = [f * scale for f in fr]
    g = math.gcd(*(f.numerator for f in scaled))
    return [int(f / g) if g else 0 for f in scaled]


MIXED_RATIONALS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 6),
    st.builds(lambda k, e: k / 2 ** e, st.integers(-2 ** 40, 2 ** 40),
              st.integers(0, 60)))                  # dyadic floats, exact


NO_NUMBER = "not a number: {!r}"

#: Each field that reads a value, and its message for a value refused: the
#: rationals by ``_frac``, and a normal entry and ``dim`` by the integer
#: contract of ``regions._index``.
RATIONAL_FIELDS = [
    (lambda v: Halfspace.normalized([v, 1], 1), NO_NUMBER),
    (lambda v: Halfspace((1, 0), v), NO_NUMBER),
    (lambda v: RationalPolytope(dim=2, vertices=((v, 0),)), NO_NUMBER),
    (lambda v: Halfspace((v, 1), 1),
     "halfspace normal must be an integer, got {!r}"),
    (lambda v: RationalPolytope(dim=v), "dim must be an integer, got {!r}"),
]
RATIONAL_FIELD_IDS = ["halfspace-normal", "halfspace-offset",
                      "vertex", "halfspace-normal-entry", "dim"]

#: A table's sixteen entries, each the value: read by ``_frac`` as well.
TABLE_FIELD = (lambda v: JointProbabilityTable([v] * 16), NO_NUMBER)


class TestIntegerRows:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(MIXED_RATIONALS, min_size=1, max_size=9))
    @example([0, 0, 0.0])
    @example([1, Fraction(-1, 3), 0.25, 6])
    def test_integer_row_matches_the_fraction_reference(self, row):
        got = _integer_row(row)
        assert got == reference_integer_row(row)
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_],
                             ids=repr)
    @pytest.mark.parametrize("make, message", [TABLE_FIELD, *RATIONAL_FIELDS],
                             ids=["table", *RATIONAL_FIELD_IDS])
    def test_a_bool_is_no_rational(self, make, message, flag):
        # True == 1, yet a bool is no number by any contract
        with pytest.raises(ValueError) as err:
            make(flag)
        assert str(err.value) == message.format(flag)

    @pytest.mark.parametrize("value", [
        None, 1j, np.complex128(1), math.inf, -math.inf, math.nan,
        np.float64(math.inf), np.float32(math.inf), np.longdouble(math.nan),
        "x", "1/10", "1", (1,)],
        ids=["None", "1j", "np.complex128", "inf", "-inf", "nan",
             "np.inf", "np.float32-inf", "np.longdouble-nan", "text",
             "rational-text", "integer-text", "tuple"])
    @pytest.mark.parametrize("make, message", [
        TABLE_FIELD, *RATIONAL_FIELDS], ids=["table", *RATIONAL_FIELD_IDS])
    def test_a_value_fraction_refuses_is_no_rational(self, make, message,
                                                     value):
        # Fraction raises TypeError, OverflowError or ValueError for these,
        # and parses text: every bellvol error is the one ValueError
        with pytest.raises(ValueError) as err:
            make(value)
        assert type(err.value) is ValueError
        assert str(err.value) == message.format(value)

    @pytest.mark.parametrize("value", [
        np.float32(0.5), np.float32(0.1), np.float16(-0.25),
        np.longdouble(0.375), np.float64(0.1), Decimal("0.1")], ids=repr)
    @pytest.mark.parametrize("make", [
        lambda v: Halfspace((1, 0), v).offset,
        lambda v: RationalPolytope(dim=2, vertices=(
            (v, 0), (0, 1), (1, 1))).vertices[0][0]],
        ids=["halfspace-offset", "vertex"])
    def test_any_finite_real_is_read_exactly(self, make, value):
        # numpy's float32, float16 and longdouble are no float subclass,
        # and Fraction refuses them: each is read by its exact ratio
        got = make(value)
        assert got == Fraction(*value.as_integer_ratio())
        assert type(got.numerator) is int and type(got.denominator) is int

    @pytest.mark.parametrize("value", [
        np.float32(0.5), np.float32(0.1), np.float16(0.25),
        np.longdouble(0.375), np.float64(0.1), Decimal("0.1")], ids=repr)
    def test_a_table_entry_is_read_exactly(self, value):
        # block (0, 0) holds the value and its exact complement, so the
        # block sums to 1 only if the entry is read by its exact ratio
        exact = Fraction(*value.as_integer_ratio())
        t = JointProbabilityTable(
            [value, 1 - exact, 0, 0] + [Fraction(1, 4)] * 12)
        assert t.entries[:2] == (exact, 1 - exact)
        for x in t.entries:
            assert type(x.numerator) is int and type(x.denominator) is int

    @pytest.mark.parametrize("value", [0.5, 1.0, np.float64(1), Fraction(1)],
                             ids=repr)
    def test_a_normal_entry_is_an_integer_not_a_rational(self, value):
        # the offset is any rational, the normal integers by the one
        # integer contract: an integral float or Fraction is refused there
        with pytest.raises(ValueError) as err:
            Halfspace((value, 1), 1)
        assert str(err.value) == ("halfspace normal must be an integer,"
                                  f" got {value!r}")

    def test_halfspaces_sort_by_normal_then_offset(self):
        hs = [Halfspace((0, 1), 2), Halfspace((0, 1), Fraction(1, 2)),
              Halfspace((-1, 0), 5), Halfspace((0, -1), 0)]
        assert sorted(hs) == sorted(hs, key=lambda h: (h.normal, h.offset))
        assert [h.offset for h in sorted(hs)] == [5, 0, Fraction(1, 2), 2]

    def test_numpy_integers_are_read_as_python_ints(self):
        got = _integer_row((np.int64(2 ** 62), Fraction(1, 3), np.int32(-5)))
        assert got == [3 * 2 ** 62, 1, -15]
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("a, b", itertools.product(
        [1, Fraction(2, 2), 1.0], repeat=2))
    def test_duplicate_vertices_refused_in_any_spelling(self, a, b):
        with pytest.raises(ValueError, match="pairwise distinct"):
            RationalPolytope(dim=2, vertices=((a, 0), (0, 1), (b, 0)))

    @pytest.mark.parametrize("make", [
        local_polytope_v,
        correlation_polytope_C,
        lambda: enumerate_vertices(ns_polytope_h()),
        lambda: enumerate_vertices(cube_polytope_h(3)),
        lambda: enumerate_facets(local_polytope_v()),
        lambda: enumerate_facets(correlation_polytope_C()),
        lambda: enumerate_facets(RationalPolytope(dim=2, vertices=(
            (np.int64(0), 0.5), (1, 1.0), (Fraction(-1, 3), -2)))),
    ], ids=["local", "corrC", "ns-vertices", "cube-vertices", "local-facets",
            "corrC-facets", "mixed-input"])
    def test_outputs_hold_fractions_of_python_ints(self, make):
        poly = make()
        coords = [x for v in poly.vertices or () for x in v]
        coords += [h.offset for h in poly.halfspaces or ()]
        assert coords
        for x in coords:
            assert type(x) is Fraction, x
            assert type(x.numerator) is int and type(x.denominator) is int
        for h in poly.halfspaces or ():
            assert all(type(n) is int for n in h.normal), h

    @pytest.mark.parametrize("make, message", [
        (lambda: Halfspace(None, 1),
         "halfspace normal must be a sequence, got None"),
        (lambda: Halfspace(5, 1),
         "halfspace normal must be a sequence, got 5"),
        (lambda: JointProbabilityTable(None),
         "table entries must be a sequence, got None"),
        (lambda: RationalPolytope(2, vertices=5),
         "vertices must be a sequence, got 5"),
        (lambda: RationalPolytope(2, vertices=[5]),
         "vertex must be a sequence, got 5"),
        (lambda: RationalPolytope(2, halfspaces=5),
         "halfspaces must be a sequence, got 5"),
    ], ids=["normal-None", "normal-int", "table-None", "vertices-int",
            "vertex-int", "halfspaces-int"])
    def test_a_field_that_is_no_sequence_is_refused(self, make, message):
        # tuple() raises TypeError for these: every bellvol error is the
        # one ValueError
        with pytest.raises(ValueError) as err:
            make()
        assert type(err.value) is ValueError
        assert str(err.value) == message


# --------------------------------------------------------------------------
# the double-description engine against a brute-force oracle
# --------------------------------------------------------------------------

def kernel(rows, n):
    """A basis of {x in Q^n : row . x = 0 for every row} (Gauss-Jordan)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(n):
        r = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if r is None:
            continue
        k = len(pivots)
        m[k], m[r] = m[r], m[k]
        m[k] = [x / m[k][c] for x in m[k]]
        m = [row if i == k else [x - row[c] * y for x, y in zip(row, m[k])]
             for i, row in enumerate(m)]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [Fraction(int(c == f)) for c in range(n)]
        for i, c in enumerate(pivots):
            x[c] = -m[i][f]
        basis.append(x)
    return basis


def primitive(v):
    """The integer multiple of a rational vector with coprime entries."""
    scale = math.lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def oracle_vertices(halfspaces, d):
    """Solve every d-subset of the inequalities as equations; keep the
    feasible unique solutions."""
    found = set()
    for sub in itertools.combinations(halfspaces, d):
        ker = kernel([(*h.normal, -h.offset) for h in sub], d + 1)
        if len(ker) == 1 and ker[0][d]:
            x = tuple(c / ker[0][d] for c in ker[0][:d])
            if all(h.slack(x) >= 0 for h in halfspaces):
                found.add(x)
    return sorted(found)


def oracle_facets(points, d):
    """Span a hyperplane through every affinely independent d-subset; keep
    the ones with every point on one side, with a primitive normal."""
    found = set()
    for sub in itertools.combinations(points, d):
        ker = kernel([(*p, 1) for p in sub], d + 1)
        if len(ker) != 1:
            continue
        *a, c = ker[0]                  # a . p + c = 0 on the subset
        vals = [sum(ai * x for ai, x in zip(a, p)) + c for p in points]
        for sign in (1, -1):
            if all(sign * v <= 0 for v in vals):
                normal = primitive([sign * x for x in a])
                k = next(i for i, x in enumerate(normal) if x)
                found.add((normal, -sign * c * normal[k] / (sign * a[k])))
    return sorted(found)


def full_dimensional(points, d):
    return not kernel([(*p, 1) for p in points], d + 1)


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def cut_boxes(draw):
    """The box [-2, 2]^d cut by random halfspaces, one row maybe repeated:
    bounded, often with redundant rows, sometimes empty.  At most 10 rows."""
    d = draw(st.integers(2, 4))
    normals = st.lists(RATIONALS, min_size=d, max_size=d).filter(any)
    rows = [Halfspace.normalized(n, 2) for n, _ in sorted(box_halfspaces(d))]
    rows += [Halfspace.normalized(n, c) for n, c in
             draw(st.lists(st.tuples(normals, RATIONALS), max_size=9 - 2 * d))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=1))
    rows = draw(st.permutations(rows))
    return RationalPolytope(dim=d, halfspaces=tuple(rows))


@st.composite
def point_sets(draw):
    d = draw(st.integers(2, 4))
    pts = draw(st.sets(st.tuples(*[RATIONALS] * d), min_size=1, max_size=10))
    pts = draw(st.permutations(sorted(pts)))
    return RationalPolytope(dim=d, vertices=tuple(pts))


class TestDoubleDescription:
    @settings(deadline=None, max_examples=60)
    @given(cut_boxes())
    def test_vertices_match_oracle(self, poly):
        got = enumerate_vertices(poly)
        assert list(got.vertices) == oracle_vertices(poly.halfspaces, poly.dim)
        assert got.halfspaces == poly.halfspaces

    @settings(deadline=None, max_examples=60)
    @given(point_sets())
    def test_facets_match_oracle(self, poly):
        if not full_dimensional(poly.vertices, poly.dim):
            with pytest.raises(DegeneratePolytope):
                enumerate_facets(poly)
            return
        got = enumerate_facets(poly).halfspaces
        assert [(h.normal, h.offset) for h in got] \
            == oracle_facets(poly.vertices, poly.dim)

    @settings(deadline=None, max_examples=60)
    @given(point_sets())
    def test_tight_sets_are_the_zero_slack_points(self, poly):
        points = [*poly.vertices, poly.vertices[0]]     # one point repeated
        rays, _ = _hull_facets(_homogenize(points), poly.dim)
        for (*normal, offset), mask in rays:
            slacks = [offset - sum(n * x for n, x in zip(normal, p))
                      for p in points]
            assert all(s >= 0 for s in slacks)
            assert mask == sum(1 << i for i, s in enumerate(slacks) if s == 0)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_halfspaces_open_towards_minus_e1_are_unbounded(self, data):
        # every normal has a nonnegative first entry, so -e1 recedes
        d = data.draw(st.integers(2, 4))
        first = st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2]))
        normal = st.tuples(first, *[RATIONALS] * (d - 1)).filter(any)
        rows = data.draw(st.lists(st.tuples(normal, RATIONALS), max_size=10))
        poly = RationalPolytope(dim=d, halfspaces=tuple(
            Halfspace.normalized(n, c) for n, c in rows))
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(poly)

    def test_empty_polytope_has_no_vertices(self):
        cube = cube_polytope_h(3).halfspaces
        empty = RationalPolytope(dim=3, halfspaces=(
            *cube, Halfspace.normalized((-1, 0, 0), -2)))    # x0 >= 2
        assert enumerate_vertices(empty).vertices == ()

    def test_unbounded_even_when_empty(self):
        # x0 <= -1 and x0 >= 1 in the plane, open along x1 both ways
        h = RationalPolytope(dim=2, halfspaces=(
            Halfspace.normalized((1, 0), -1), Halfspace.normalized((-1, 0), -1),
            Halfspace.normalized((0, 1), 1)))
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(h)

    @settings(deadline=None, max_examples=40)
    @given(point_sets())
    def test_volume_matches_qhull(self, poly):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        if not full_dimensional(poly.vertices, poly.dim):
            with pytest.raises(DegeneratePolytope):
                exact_volume(poly)
            return
        hull = scipy_spatial.ConvexHull([[float(x) for x in p]
                                         for p in poly.vertices])
        assert float(exact_volume(poly)) == pytest.approx(hull.volume, rel=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(point_sets())
    def test_volume_unchanged_by_midpoints(self, poly):
        # the midpoints lie on the hull's faces or inside it, so its faces
        # gain points that are not vertices
        mids = {tuple((x + y) / 2 for x, y in zip(p, q))
                for p, q in itertools.combinations(poly.vertices, 2)}
        denser = RationalPolytope(dim=poly.dim, vertices=tuple(
            sorted(mids | set(poly.vertices))))
        if not full_dimensional(poly.vertices, poly.dim):
            with pytest.raises(DegeneratePolytope):
                exact_volume(denser)
            return
        assert exact_volume(denser) == exact_volume(poly)
        # each cone goes over a facet that misses its apex: no simplex is flat
        points = _homogenize(denser.vertices)
        masks = [mask for _, mask in _hull_facets(points, poly.dim)[0]]
        full = (1 << len(points)) - 1
        assert all(_det_int_py(s)
                   for s in _triangulate(points, full, poly.dim, masks))

    @settings(deadline=None, max_examples=60)
    @given(point_sets(), st.randoms(use_true_random=False))
    @example(GRID, random.Random(1))
    def test_volume_unchanged_by_shuffling(self, poly, rng):
        # the apex of each face is its first point in input order, so a
        # shuffle moves the apexes; this shuffle of the grid puts the centre
        # of a facet first, and many lower apexes are not vertices either
        points = list(poly.vertices)
        rng.shuffle(points)
        shuffled = RationalPolytope(dim=poly.dim, vertices=tuple(points))
        if not full_dimensional(points, poly.dim):
            with pytest.raises(DegeneratePolytope):
                exact_volume(shuffled)
            return
        assert exact_volume(shuffled) == exact_volume(poly)
        rows = _homogenize(points)
        masks = [mask for _, mask in _hull_facets(rows, poly.dim)[0]]
        full = (1 << len(rows)) - 1
        assert all(_det_int_py(s)
                   for s in _triangulate(rows, full, poly.dim, masks))

    @pytest.mark.parametrize("seed", range(4))
    def test_ns_vertices_do_not_depend_on_row_order(self, seed):
        # the line phase keeps a line or ray of height 0 as it is; a shuffle
        # changes which lines and rays a row finds at height 0, and every
        # order must give the same vertices, tight on exactly their
        # zero-slack rows
        halfspaces = list(ns_polytope_h().halfspaces)
        random.Random(seed).shuffle(halfspaces)
        rows = [_integer_row((h.offset, *(-n for n in h.normal)))
                for h in halfspaces]
        rays, lineality = polytopes._double_description([*rows, [1] + [0] * 8],
                                                        9)
        assert lineality == 0
        vertices = sorted(tuple(Fraction(x, t) for x in xs)
                          for (t, *xs), _ in rays)
        assert vertices == list(enumerate_vertices(ns_polytope_h()).vertices)
        for (t, *xs), mask in rays:
            v = tuple(Fraction(x, t) for x in xs)
            assert mask == sum(1 << i for i, h in enumerate(halfspaces)
                               if h.slack(v) == 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_local_facets_do_not_depend_on_point_order(self, seed):
        points = list(local_polytope_v().vertices)
        random.Random(seed).shuffle(points)
        rays, lineality = _hull_facets(_homogenize(points), 8)
        assert lineality == 0
        facets = [(Halfspace.normalized(r[:-1], r[-1]), mask)
                  for r, mask in rays]
        assert sorted(h for h, _ in facets) \
            == sorted(enumerate_facets(local_polytope_v()).halfspaces)
        for h, mask in facets:
            assert mask == sum(1 << i for i, p in enumerate(points)
                               if h.slack(p) == 0)
