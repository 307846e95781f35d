"""Exact rational polytope engine for two-party behaviors and correlations.

Behaviors live in the 8-dimensional (marginals, correlations) parametrization

    (mA0, mA1, mB0, mB1, c00, c01, c10, c11),

in which the sixteen joint probabilities are

    P(A_i=a, B_j=b) = (1 + a*mA_i + b*mB_j + a*b*c_ij) / 4 ,

so normalization and no-signaling hold identically and the only nontrivial
constraints are the sixteen positivity inequalities.  The module provides:

* the deterministic behaviors (vertices of the local behavior polytope),
* joint probability tables and conversions to/from behaviors,
* the two canonical extremal tables (perfectly correlated no-signaling box,
  one-sided signaling box),
* exact vertex and facet enumeration for rational polytopes by one
  double-description routine: the vertices are the extreme rays of the
  homogenized cone of an H-polytope, the facets those of the polar cone of
  a V-polytope,
* exact volume of full-dimensional rational polytopes of dimension <= 4 by a
  centroid-fan triangulation over the same routine's facet-point incidences.

All geometry is exact: coordinates are ``fractions.Fraction``; rays, tight
sets and determinants are computed on Python's arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .regions import CorrelationPoint

Vector = tuple[Fraction, ...]
_Ray = tuple[list[int], int]    # integer ray, bitmask of its tight rows

_SETTINGS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: The 16 outcomes (i, j, a, b) in table order: setting block (i, j), then
#: a and b, each +1 before -1.
_OUTCOMES = tuple((i, j, a, b) for i, j in _SETTINGS
                  for a in (1, -1) for b in (1, -1))

#: The 16 deterministic behaviors a_i, b_j = +/-1 as integer 8-tuples
#: (a0, a1, b0, b1, a0*b0, a0*b1, a1*b0, a1*b1), by (a0, a1, b0, b1)
#: ascending.
_DETERMINISTIC = tuple((a0, a1, b0, b1, a0 * b0, a0 * b1, a1 * b0, a1 * b1)
                       for a0, a1, b0, b1 in itertools.product((-1, 1), repeat=4))


def _probability_row(i: int, j: int, a: int, b: int) -> list[int]:
    """The integer row r with 4 * P(A_i=a, B_j=b) = 1 + r . (mA0, mA1, mB0,
    mB1, c00, c01, c10, c11)."""
    row = [0] * 8
    row[i], row[2 + j], row[4 + 2 * i + j] = a, b, a * b
    return row


class PolytopeError(Exception):
    """Base class for polytope engine failures."""


class NoSignalingViolation(PolytopeError):
    """A joint probability table whose marginals depend on the far setting."""

    def __init__(self, message, max_discrepancy: Fraction):
        super().__init__(message)
        self.max_discrepancy = max_discrepancy


class UnboundedPolytope(PolytopeError):
    """A recession direction was detected during vertex enumeration."""


class DegeneratePolytope(PolytopeError):
    """The polytope is not full-dimensional in its ambient space."""


# --------------------------------------------------------------------------
# behaviors and probability tables
# --------------------------------------------------------------------------

def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Behavior:
    """Four marginal expectations and four correlations, all rational.

    Construction validates that every derived joint probability is
    nonnegative (normalization and no-signaling are automatic in this
    parametrization).
    """

    mA0: Fraction
    mA1: Fraction
    mB0: Fraction
    mB1: Fraction
    c00: Fraction
    c01: Fraction
    c10: Fraction
    c11: Fraction

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _frac(getattr(self, name)))
        for i, j, a, b in _OUTCOMES:
            p = self.probability(i, j, a, b)
            if p < 0:
                raise ValueError(
                    f"P(A{i}={a:+d}, B{j}={b:+d}) = {p} is negative")

    def probability(self, i: int, j: int, a: int, b: int) -> Fraction:
        return (1 + _dot(_probability_row(i, j, a, b), self.as_vector())) / 4

    def as_vector(self) -> Vector:
        return (self.mA0, self.mA1, self.mB0, self.mB1,
                self.c00, self.c01, self.c10, self.c11)


@dataclass(frozen=True)
class JointProbabilityTable:
    """Sixteen rational entries P(A_i=a, B_j=b), a, b in {-1, +1}, in table
    order: setting block (i, j) = (0, 0), (0, 1), (1, 0), (1, 1), then a and
    b, each +1 before -1.

    Entries must be nonnegative and each setting block (i, j) must sum to 1.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != 16:
            raise ValueError(f"need 16 entries, got {len(self.entries)}")
        object.__setattr__(self, "entries", tuple(_frac(e) for e in self.entries))
        sums = dict.fromkeys(_SETTINGS, 0)
        for (i, j, a, b), p in zip(_OUTCOMES, self.entries):
            if p < 0:
                raise ValueError(
                    f"P(A{i}={a:+d}, B{j}={b:+d}) = {p} is negative")
            sums[i, j] += p
        for (i, j), s in sums.items():
            if s != 1:
                raise ValueError(f"block (i={i}, j={j}) sums to {s}, not 1")

    @classmethod
    def from_function(cls, f) -> "JointProbabilityTable":
        """Build from a callable f(i, j, a, b) -> probability."""
        return cls(tuple(_frac(f(*o)) for o in _OUTCOMES))

    def entry(self, i: int, j: int, a: int, b: int) -> Fraction:
        return self.entries[_OUTCOMES.index((i, j, a, b))]

    def expectations(self) -> dict[tuple[int, int],
                                   tuple[Fraction, Fraction, Fraction]]:
        """``{(i, j): (<A_i>, <B_j>, <A_i B_j>)}`` read off each setting
        block, in block order (0, 0), (0, 1), (1, 0), (1, 1)."""
        sums = {s: [0, 0, 0] for s in _SETTINGS}
        for (i, j, a, b), p in zip(_OUTCOMES, self.entries):
            e = sums[i, j]
            e[0] += a * p
            e[1] += b * p
            e[2] += a * b * p
        return {s: tuple(e) for s, e in sums.items()}


def deterministic_behaviors() -> list[Behavior]:
    """The 16 behaviors with deterministic outcomes a_i, b_j = +/-1.

    Ordered by the assignment tuple (a0, a1, b0, b1) ascending over
    {-1, +1}^4; correlations are c_ij = a_i * b_j.
    """
    return [Behavior(*v) for v in _DETERMINISTIC]


def check_no_signaling(t: JointProbabilityTable) -> tuple[bool, Fraction]:
    """Check the eight marginal equalities exactly.

    Returns (all hold, maximal probability discrepancy).  The discrepancy
    for party A is max over (i, a) of |P(A_i=a | B_0 side) - P(A_i=a | B_1
    side)| and symmetrically for B.  As P(A_i=a) = (1 + a * <A_i>) / 2 in
    a normalized block, that is half the largest change of <A_i> across j,
    or of <B_j> across i.
    """
    e = t.expectations()
    worst = max(*(abs(e[i, 0][0] - e[i, 1][0]) for i in (0, 1)),
                *(abs(e[0, j][1] - e[1, j][1]) for j in (0, 1))) / 2
    return worst == 0, worst


def behavior_from_table(t: JointProbabilityTable) -> Behavior:
    """The behavior b whose table is
    ``JointProbabilityTable.from_function(b.probability)``.

    Raises :class:`NoSignalingViolation` (carrying the maximal marginal
    discrepancy) when the table's marginals depend on the far setting, in
    which case no behavior reproduces it.
    """
    ok, worst = check_no_signaling(t)
    if not ok:
        raise NoSignalingViolation(
            f"table violates no-signaling (max marginal discrepancy {worst})",
            worst)
    e = t.expectations()
    return Behavior(e[0, 0][0], e[1, 0][0], e[0, 0][1], e[0, 1][1],
                    *(ab for _, _, ab in e.values()))


def project_to_correlations(b: Behavior) -> CorrelationPoint:
    """Drop the marginals: the 4D correlation image of a behavior."""
    return CorrelationPoint(float(b.c00), float(b.c01), float(b.c10), float(b.c11))


def pr_box() -> JointProbabilityTable:
    """The no-signaling table with perfect (anti)correlations.

    Outcomes agree for the setting pairs (0,0), (0,1), (1,0) and disagree
    for (1,1), each with probability 1/2; its correlation image (1, 1, 1, -1)
    gives the CHSH functional the algebraic maximum 4.
    """
    half = Fraction(1, 2)

    def f(i, j, a, b):
        if (i, j) == (1, 1):
            return half if a != b else Fraction(0)
        return half if a == b else Fraction(0)

    return JointProbabilityTable.from_function(f)


def signaling_example() -> JointProbabilityTable:
    """A table whose A-marginal flips with B's setting choice.

    A's outcome is +1 whenever B measures setting 0 and -1 whenever B
    measures setting 1 (B's outcome is a fair coin), so the A marginals
    signal B's choice; all four correlations vanish, which satisfies every
    CHSH inequality.
    """
    half = Fraction(1, 2)

    def f(i, j, a, b):
        forced = 1 if j == 0 else -1
        return half if a == forced else Fraction(0)

    return JointProbabilityTable.from_function(f)


# --------------------------------------------------------------------------
# rational polytopes
# --------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Halfspace:
    """Inequality normal . x <= offset with a primitive integer normal."""

    normal: tuple[int, ...]
    offset: Fraction

    @classmethod
    def normalized(cls, normal: Sequence, offset) -> "Halfspace":
        """Scale by a positive rational so the normal is primitive integers."""
        ints = _integer_row(normal)
        k = next((k for k, n in enumerate(ints) if n), None)
        if k is None:
            raise ValueError("halfspace normal must be nonzero")
        return cls(tuple(ints), _frac(offset) * ints[k] / _frac(normal[k]))

    def slack(self, x: Sequence[Fraction]) -> Fraction:
        return self.offset - sum(n * xi for n, xi in zip(self.normal, x))


@dataclass(frozen=True)
class RationalPolytope:
    """A polytope with exact rational V- and/or H-representation."""

    dim: int
    vertices: tuple[Vector, ...] | None = None
    halfspaces: tuple[Halfspace, ...] | None = None

    def __post_init__(self):
        if self.vertices is not None:
            verts = tuple(tuple(_frac(x) for x in v) for v in self.vertices)
            for v in verts:
                if len(v) != self.dim:
                    raise ValueError(f"vertex {v} has wrong dimension")
            if len(set(verts)) != len(verts):
                raise ValueError("vertices must be pairwise distinct")
            object.__setattr__(self, "vertices", verts)
        if self.halfspaces is not None:
            hs = tuple(self.halfspaces)
            for h in hs:
                if len(h.normal) != self.dim:
                    raise ValueError(f"halfspace {h} has wrong dimension")
            object.__setattr__(self, "halfspaces", hs)

    # -- serialization ------------------------------------------------------

    def to_text(self, which: str | None = None) -> str:
        """Serialize one representation: header ``<kind> <dim> <count>``,
        then one line per vertex (d rationals) or halfspace (d rationals for
        the normal, then the offset), rationals in p/q form."""
        if which is None:
            which = "V" if self.vertices is not None else "H"
        if which == "V":
            if self.vertices is None:
                raise ValueError("no vertex representation to serialize")
            lines = [f"V {self.dim} {len(self.vertices)}"]
            lines += [" ".join(str(x) for x in v) for v in self.vertices]
        elif which == "H":
            if self.halfspaces is None:
                raise ValueError("no halfspace representation to serialize")
            lines = [f"H {self.dim} {len(self.halfspaces)}"]
            lines += [" ".join([*(str(n) for n in h.normal), str(h.offset)])
                      for h in self.halfspaces]
        else:
            raise ValueError(f"unknown representation kind {which!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RationalPolytope":
        rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        kind, dim, count = rows[0].split()
        dim, count = int(dim), int(count)
        body = rows[1:1 + count]
        if len(body) != count:
            raise ValueError(f"expected {count} rows, found {len(body)}")
        if kind == "V":
            verts = tuple(tuple(Fraction(tok) for tok in ln.split()) for ln in body)
            return cls(dim=dim, vertices=verts)
        if kind == "H":
            hs = []
            for ln in body:
                toks = [Fraction(t) for t in ln.split()]
                hs.append(Halfspace.normalized(toks[:-1], toks[-1]))
            return cls(dim=dim, halfspaces=tuple(hs))
        raise ValueError(f"unknown representation kind {kind!r}")


def ns_polytope_h() -> RationalPolytope:
    """H-representation of the no-signaling behavior polytope (8D).

    Facets are the sixteen positivity constraints in the scaled form
    1 + a*mA_i + b*mB_j + a*b*c_ij >= 0 (i.e. four times the probability),
    so the slack of the zero behavior is exactly 1 on every facet.
    """
    hs = sorted(Halfspace(tuple(-x for x in _probability_row(*o)), Fraction(1))
                for o in _OUTCOMES)
    return RationalPolytope(dim=8, halfspaces=tuple(hs))


def local_polytope_v() -> RationalPolytope:
    """V-representation of the local behavior polytope: the 16 deterministic
    behaviors as points of the 8D (marginals, correlations) space."""
    return RationalPolytope(dim=8, vertices=tuple(sorted(_DETERMINISTIC)))


def correlation_polytope_C() -> RationalPolytope:
    """V-representation of the 4D correlation image of the local polytope.

    Projecting the 16 deterministic behaviors yields 8 distinct points
    (flipping both parties' outcomes fixes every correlation), each of the
    form (a0*b0, a0*b1, a1*b0, a1*b1) with entries +/-1 of product +1.
    """
    pts = {v[4:] for v in _DETERMINISTIC}
    return RationalPolytope(dim=4, vertices=tuple(sorted(pts)))


def cube_polytope_h(dim: int) -> RationalPolytope:
    """H-representation of the cube [-1, 1]^dim."""
    hs = []
    for k in range(dim):
        for s in (1, -1):
            normal = [0] * dim
            normal[k] = s
            hs.append(Halfspace.normalized(normal, 1))
    return RationalPolytope(dim=dim, halfspaces=tuple(sorted(hs)))


# --------------------------------------------------------------------------
# exact double description
# --------------------------------------------------------------------------

def _primitive(v: list[int]) -> list[int]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _integer_row(row: Sequence) -> list[int]:
    """The primitive integer vector on the ray of a rational vector."""
    fr = [_frac(x) for x in row]
    scale = math.lcm(*(f.denominator for f in fr))
    return _primitive([int(f * scale) for f in fr])


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(ai * xi for ai, xi in zip(a, x))


def _double_description(rows: Sequence[Sequence[int]], n: int
                        ) -> tuple[list[_Ray], int]:
    """Extreme rays of the cone {x in Q^n : row . x >= 0 for every row}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) on
    Python integers, adding one row at a time.  While the cone built so far
    still contains lines, a row that some line does not vanish on turns
    that line into a ray and projects the other lines and rays onto the
    row's hyperplane.  Every later row splits the rays by the sign of
    row . ray: the negative ones go, and each adjacent (+, -) pair meets on
    the hyperplane in a new ray.  Two rays are adjacent when no third ray
    is tight on every row that both are tight on.

    Returns ``(rays, lineality)``: each ray is a primitive integer vector
    with the bitmask of the rows it is tight on, and ``lineality`` is the
    dimension of the largest linear subspace inside the cone.  The cone is
    pointed when it is 0; otherwise the rays generate it modulo that
    subspace, and their tight sets are still exact.
    """
    lines = [[int(i == j) for j in range(n)] for i in range(n)]
    rays: list[_Ray] = []
    done = 0    # bitmask of the rows added so far
    for k, row in enumerate(rows):
        bit = 1 << k
        heights = [_dot(row, ln) for ln in lines]
        pivot = next((i for i, h in enumerate(heights) if h), None)
        if pivot is not None:
            h = heights.pop(pivot)
            line = lines.pop(pivot)
            if h < 0:
                h, line = -h, [-x for x in line]
            lines = [_primitive([h * x - t * y for x, y in zip(ln, line)])
                     for ln, t in zip(lines, heights)]
            rays = [(_primitive([h * x - _dot(row, r) * y
                                 for x, y in zip(r, line)]), z | bit)
                    for r, z in rays]
            rays.append((line, done))
        else:
            signed = [(_dot(row, r), r, z) for r, z in rays]
            zsets = [z for _, _, z in signed]
            negative = [t for t in signed if t[0] < 0]
            needed = n - len(lines) - 2     # tight rows along an edge
            rays = [(r, z | bit if s == 0 else z)
                    for s, r, z in signed if s >= 0]
            for sp, rp, zp in signed:
                if sp <= 0:
                    continue
                for sq, rq, zq in negative:
                    common = zp & zq
                    if common.bit_count() < needed or any(
                            z & common == common and z != zp and z != zq
                            for z in zsets):
                        continue
                    rays.append((_primitive([sp * y - sq * x
                                             for x, y in zip(rp, rq)]),
                                 common | bit))
        done |= bit
    return rays, len(lines)


def _hull_facets(points: Sequence[Sequence[int]], dim: int
                 ) -> tuple[list[_Ray], int]:
    """Facets of the hull of homogeneous integer points (w * v, w), w > 0,
    with v in Q^dim.

    They are the extreme rays (a, c) of the polar cone
    {(a, c) : c * w - a . (w * v) >= 0 for every point}, each with the mask
    of the points on it: a . x <= c is the facet.  The lineality is dim
    minus the dimension of the hull.
    """
    return _double_description([[*(-x for x in p[:-1]), p[-1]] for p in points],
                               dim + 1)


def _homogenize(points: Sequence[Vector]) -> list[list[int]]:
    """Each rational point v as the primitive integer row (w * v, w)."""
    return [_integer_row((*v, 1)) for v in points]


def enumerate_vertices(h: RationalPolytope) -> RationalPolytope:
    """Vertex enumeration of a bounded H-polytope (exact).

    The vertices are the extreme rays (t, x), t > 0, of the cone
    {(t, x) : t * offset - normal . x >= 0, t >= 0}.  Returns a polytope
    carrying both representations; vertices are sorted canonically, and an
    empty polytope has none.  Raises :class:`UnboundedPolytope` when a
    recession direction exists: a ray with t = 0, or a cone that is not
    pointed.
    """
    if h.halfspaces is None:
        raise ValueError("input polytope has no halfspace representation")
    rows = [_integer_row((hs.offset, *(-n for n in hs.normal)))
            for hs in h.halfspaces]
    rays, lineality = _double_description(
        [*rows, [1] + [0] * h.dim], h.dim + 1)
    if lineality:
        raise UnboundedPolytope("constraint normals do not span the space")
    verts = []
    for (t, *x), _ in rays:
        if t == 0:
            raise UnboundedPolytope(f"recession direction {tuple(x)}")
        verts.append(tuple(Fraction(xi, t) for xi in x))
    return RationalPolytope(dim=h.dim, vertices=tuple(sorted(verts)),
                            halfspaces=h.halfspaces)


def enumerate_facets(v: RationalPolytope) -> RationalPolytope:
    """Facet enumeration of a full-dimensional V-polytope (exact).

    Each facet normal . x <= offset has a primitive integer normal, as in
    :meth:`Halfspace.normalized`; facets are sorted canonically.  Raises
    :class:`DegeneratePolytope` when the points do not span the ambient space.
    """
    if v.vertices is None:
        raise ValueError("input polytope has no vertex representation")
    rays, lineality = _hull_facets(_homogenize(v.vertices), v.dim)
    if lineality:
        raise DegeneratePolytope("vertex set is not full-dimensional")
    hs = sorted(Halfspace.normalized(r[:-1], r[-1]) for r, _ in rays)
    return RationalPolytope(dim=v.dim, vertices=v.vertices,
                            halfspaces=tuple(hs))


# --------------------------------------------------------------------------
# exact volume by centroid-fan triangulation
# --------------------------------------------------------------------------

def _det_int_py(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant on Python integers."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * piv - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def _triangulate(points: list[list[int]], g: int, facets=None
                 ) -> Iterator[list[list[int]]]:
    """Decompose the g-dimensional hull of homogeneous integer points into
    g-simplices, fanning from a centroid over recursively triangulated
    facets.  The centroid is the sum of the points' rows: the mean of the
    points weighted by their homogenizing entries, inside the hull."""
    if len(points) == g + 1:
        yield points
        return
    z = [sum(col) for col in zip(*points)]
    if facets is None:
        facets, _ = _hull_facets(points, len(z) - 1)
    for _, mask in facets:
        face = [p for i, p in enumerate(points) if mask >> i & 1]
        for simplex in _triangulate(face, g - 1):
            yield [z, *simplex]


def exact_volume(p: RationalPolytope) -> Fraction:
    """Exact volume of a full-dimensional rational V-polytope, dim <= 4.

    Triangulates by fanning from centroids over facet triangulations; a
    simplex with homogeneous rows (w_i * v_i, w_i) contributes
    |det| / (d! * prod w_i).
    """
    if p.vertices is None:
        raise ValueError("exact_volume needs a vertex representation")
    d = p.dim
    if d > 4:
        raise ValueError("exact_volume supports dimension <= 4")
    points = _homogenize(p.vertices)
    facets, lineality = _hull_facets(points, d)
    if lineality:
        raise DegeneratePolytope("polytope is not full-dimensional")
    total = sum((Fraction(abs(_det_int_py(s)), math.prod(r[-1] for r in s))
                 for s in _triangulate(points, d, facets)), Fraction(0))
    return total / math.factorial(d)
