import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellvol.polytopes import (
    Behavior,
    DegeneratePolytope,
    Halfspace,
    JointProbabilityTable,
    NoSignalingViolation,
    RationalPolytope,
    UnboundedPolytope,
    behavior_from_table,
    check_no_signaling,
    correlation_polytope_C,
    cube_polytope_h,
    deterministic_behaviors,
    enumerate_facets,
    enumerate_vertices,
    exact_volume,
    local_polytope_v,
    ns_polytope_h,
    pr_box,
    project_to_correlations,
    signaling_example,
)
from bellvol.polytopes import _homogenize, _hull_facets
from bellvol.regions import in_box_L, in_local, in_quantum_arcsin, in_tsirelson_T

PM = (-1, 1)
SETTINGS = ((0, 0), (0, 1), (1, 0), (1, 1))


def zero_behavior():
    return Behavior(*([Fraction(0)] * 8))


def random_behaviors(count, seed=0):
    """Valid behaviors with coordinates on the grid k/8 (rejection sampling)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fields = [Fraction(rng.randint(-8, 8), 8) for _ in range(8)]
        try:
            out.append(Behavior(*fields))
        except ValueError:
            continue
    return out


def four_p(b, i, j, a, bb):
    """4 * P(A_i=a, B_j=bb) of a behavior, written out from its fields."""
    m_a, m_b = (b.mA0, b.mA1), (b.mB0, b.mB1)
    c = ((b.c00, b.c01), (b.c10, b.c11))
    return 1 + a * m_a[i] + bb * m_b[j] + a * bb * c[i][j]


#: The column order of `bellvol examples`: ++ +- -+ --.
PRINTED = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# --------------------------------------------------------------------------
# behaviors and tables
# --------------------------------------------------------------------------

class TestBehavior:
    def test_rejects_negative_probability(self):
        # perfect correlation with contradictory marginals
        with pytest.raises(ValueError, match=r"P\(A0"):
            Behavior(1, 0, -1, 0, 1, 0, 0, 0)

    def test_probability_parametrization(self):
        b = zero_behavior()
        for (i, j), a, bb in itertools.product(SETTINGS, PM, PM):
            assert b.probability(i, j, a, bb) == Fraction(1, 4)


class TestDeterministicBehaviors:
    def test_sixteen_distinct(self):
        dets = deterministic_behaviors()
        assert len(dets) == 16
        assert len({d.as_vector() for d in dets}) == 16

    def test_all_plus_assignment(self):
        b = Behavior(1, 1, 1, 1, 1, 1, 1, 1)
        assert b in deterministic_behaviors()

    def test_mixed_assignment_correlations(self):
        # assignment (a0, a1, b0, b1) = (+1, -1, +1, +1)
        match = [d for d in deterministic_behaviors()
                 if (d.mA0, d.mA1, d.mB0, d.mB1) == (1, -1, 1, 1)]
        assert len(match) == 1
        assert (match[0].c00, match[0].c01, match[0].c10, match[0].c11) \
            == (1, 1, -1, -1)

    def test_correlations_are_products(self):
        for d in deterministic_behaviors():
            for i, j in SETTINGS:
                v = d.as_vector()
                assert v[4 + 2 * i + j] == v[i] * v[2 + j]


class TestTables:
    def test_zero_behavior_uniform_blocks(self):
        t = JointProbabilityTable.from_function(zero_behavior().probability)
        assert all(e == Fraction(1, 4) for e in t.entries)

    def test_deterministic_table(self):
        d = Behavior(1, 1, 1, 1, 1, 1, 1, 1)
        t = JointProbabilityTable.from_function(d.probability)
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
        for b in random_behaviors(25, seed=5):
            t = JointProbabilityTable.from_function(b.probability)
            assert behavior_from_table(t) == b

    def test_uniform_table_gives_zero_behavior(self):
        t = JointProbabilityTable(tuple([Fraction(1, 4)] * 16))
        assert behavior_from_table(t) == zero_behavior()

    def test_entries_follow_the_printed_outcome_order(self):
        for b in random_behaviors(10, seed=7):
            t = JointProbabilityTable.from_function(b.probability)
            assert t.entries == tuple(four_p(b, i, j, a, bb) / 4
                                      for i, j in SETTINGS for a, bb in PRINTED)

    def test_expectations_of_a_behavior_table(self):
        for b in random_behaviors(10, seed=8):
            e = JointProbabilityTable.from_function(b.probability).expectations()
            assert list(e) == list(SETTINGS)
            assert e == {(0, 0): (b.mA0, b.mB0, b.c00),
                         (0, 1): (b.mA0, b.mB1, b.c01),
                         (1, 0): (b.mA1, b.mB0, b.c10),
                         (1, 1): (b.mA1, b.mB1, b.c11)}


class TestNoSignaling:
    def test_pr_box_passes(self):
        ok, worst = check_no_signaling(pr_box())
        assert ok and worst == 0

    def test_signaling_example_fails_with_unit_discrepancy(self):
        ok, worst = check_no_signaling(signaling_example())
        assert not ok
        assert worst == 1

    def test_behavior_tables_always_pass(self):
        for b in random_behaviors(10, seed=6):
            t = JointProbabilityTable.from_function(b.probability)
            ok, worst = check_no_signaling(t)
            assert ok and worst == 0

    def test_behavior_from_signaling_table_raises(self):
        with pytest.raises(NoSignalingViolation) as err:
            behavior_from_table(signaling_example())
        assert err.value.max_discrepancy == 1


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

    def test_pr_box_behavior_and_projection(self):
        b = behavior_from_table(pr_box())
        assert (b.mA0, b.mA1, b.mB0, b.mB1) == (0, 0, 0, 0)
        assert (b.c00, b.c01, b.c10, b.c11) == (1, 1, 1, -1)
        p = project_to_correlations(b)
        assert p.as_tuple() == (1.0, 1.0, 1.0, -1.0)
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
        match = [d for d in deterministic_behaviors()
                 if (d.mA0, d.mA1, d.mB0, d.mB1) == (1, -1, 1, 1)]
        assert project_to_correlations(match[0]).as_tuple() == (1.0, 1.0, -1.0, -1.0)
        assert project_to_correlations(zero_behavior()).as_tuple() == (0, 0, 0, 0)


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
        # facet -(a e_i + b e_(2+j) + ab e_(4+2i+j)) . x <= 1
        outcomes = []
        for h in facets:
            i, j = (0 if h.normal[0] else 1), (0 if h.normal[2] else 1)
            outcomes.append((i, j, -h.normal[i], -h.normal[2 + j]))
        assert len(set(outcomes)) == 16
        for b in random_behaviors(10, seed=9):
            for h, o in zip(facets, outcomes):
                assert h.slack(b.as_vector()) == four_p(b, *o)

    def test_pr_behavior_tight_on_eight_facets(self):
        vec = behavior_from_table(pr_box()).as_vector()
        slacks = [h.slack(vec) for h in ns_polytope_h().halfspaces]
        assert all(s >= 0 for s in slacks)
        assert sum(1 for s in slacks if s == 0) == 8


class TestEnumerateVertices:
    def test_ns_polytope_has_24_vertices(self):
        poly = enumerate_vertices(ns_polytope_h())
        assert len(poly.vertices) == 24

    def test_ns_vertex_classification(self):
        verts = enumerate_vertices(ns_polytope_h()).vertices
        det = {b.as_vector() for b in deterministic_behaviors()}
        deterministic = [v for v in verts if v in det]
        others = [v for v in verts if v not in det]
        assert len(deterministic) == 16 and len(others) == 8
        for v in others:
            marginals, corr = v[:4], v[4:]
            assert marginals == (0, 0, 0, 0)
            assert all(abs(c) == 1 for c in corr)
            assert sum(1 for c in corr if c == -1) % 2 == 1

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
        text = facets.to_text("H")
        assert RationalPolytope.from_text(text).halfspaces == facets.halfspaces
        assert RationalPolytope.from_text(text).to_text("H") == text


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
        dets = [b.as_vector() for b in deterministic_behaviors()]
        assert local_polytope_v().vertices == tuple(sorted(dets))
        assert correlation_polytope_C().vertices \
            == tuple(sorted({v[4:] for v in dets}))

    def test_each_correlation_vertex_hit_twice(self):
        images = Counter(tuple(b.as_vector()[4:])
                         for b in deterministic_behaviors())
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
        det = {b.as_vector() for b in deterministic_behaviors()}
        outside_t = 0
        for v in verts:
            corr = [float(x) for x in v[4:]]
            assert in_box_L(corr).inside
            if not in_tsirelson_T(corr).inside:
                outside_t += 1
                assert v not in det
        assert outside_t == 8


class TestExactVolume:
    def test_correlation_hull_volume(self):
        assert exact_volume(correlation_polytope_C()) == Fraction(32, 3)

    def test_cube_volume(self):
        cube = enumerate_vertices(cube_polytope_h(4))
        assert exact_volume(cube) == 16

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
        text = poly.to_text("V")
        lines = text.strip().splitlines()
        assert lines[0] == "V 4 8"
        parsed = RationalPolytope.from_text(text)
        assert parsed.vertices == poly.vertices

    def test_halfspace_round_trip(self):
        poly = ns_polytope_h()
        text = poly.to_text("H")
        assert text.startswith("H 8 16\n")
        parsed = RationalPolytope.from_text(text)
        assert {(h.normal, h.offset) for h in parsed.halfspaces} \
            == {(h.normal, h.offset) for h in poly.halfspaces}

    def test_fractions_serialized_as_p_over_q(self):
        poly = RationalPolytope(dim=2, vertices=(
            (Fraction(1, 3), Fraction(-2, 7)), (Fraction(0), Fraction(1))))
        text = poly.to_text("V")
        assert "1/3" in text and "-2/7" in text
        assert RationalPolytope.from_text(text).vertices == poly.vertices

    def test_mutual_containment_of_dual_representations(self):
        poly = enumerate_vertices(ns_polytope_h())
        for v in poly.vertices:
            assert all(h.slack(v) >= 0 for h in poly.halfspaces)
        # every facet supports the polytope: slack 0 on >= 8 vertices
        for h in poly.halfspaces:
            tight = sum(1 for v in poly.vertices if h.slack(v) == 0)
            assert tight >= 8


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
