"""Exact rational polytope engine for two-party behaviors and correlations.

Behaviors live in the 8-dimensional (marginals, correlations) parametrization

    (mA0, mA1, mB0, mB1, c00, c01, c10, c11),

in which the sixteen joint probabilities are

    P(A_i=a, B_j=b) = (1 + a*mA_i + b*mB_j + a*b*c_ij) / 4 ,

so normalization and no-signaling hold identically and the only nontrivial
constraints are the sixteen positivity inequalities: a behavior is a point
of ``ns_polytope_h()``, valid iff every facet slack (4 * P) is >= 0, and
the deterministic ones are the vertices of ``local_polytope_v()``.  The
module provides:

* joint probability tables, read back through their expectations,
* the two canonical extremal tables (perfectly correlated no-signaling box,
  one-sided signaling box),
* exact vertex and facet enumeration for rational polytopes by one
  double-description routine: the vertices are the extreme rays of the
  homogenized cone of an H-polytope, the facets those of the polar cone of
  a V-polytope,
* exact volume of full-dimensional rational polytopes in any dimension by a
  pulling triangulation over the facet-point incidences of one run of the
  same routine, every lower face an intersection of facets.

In this 8-dimensional space the local polytope has volume 2048/315 and the
no-signaling polytope 2176/315, so V_local / V_NS = 16/17.  The paper's
ratios live in the 4-dimensional correlation projection instead, where the
local set and the cube have V_C / V_L = 2/3.

All geometry is exact.  Rationals come in as numbers ``Fraction`` reads
exactly, such as ints or finite floats (text, a bool or anything else is a
ValueError), and each row is read once into a primitive integer vector; the
engine's rays, tight sets and determinants are Python's arbitrary-precision
integers, and ``Fraction``s are built once, for the vertices, offsets and
volumes it returns.  The three records are NamedTuples checked in
``__new__``, as ``regions``' are.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .regions import _index, _is_bool, _items, _Record

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


def _outcome_index(i: int, j: int, a: int, b: int) -> int:
    """Position of the outcome (i, j, a, b) in table order; a ValueError
    naming it when it is not one of the 16.  Each of the four is read by the
    integer contract of ``regions._index``, so a bool or a float is refused
    even when it equals a setting or an outcome."""
    outcome = (i, j, a, b)
    try:
        for v in outcome:
            _index("outcome", v, -1, 2)
        return _OUTCOMES.index(outcome)
    except ValueError:
        raise ValueError(f"no outcome (i, j, a, b) = {outcome!r}:"
                         " settings are 0 or 1, outcomes +1 or -1") from None


def _probability_row(i: int, j: int, a: int, b: int) -> list[int]:
    """The integer row r with 4 * P(A_i=a, B_j=b) = 1 + r . (mA0, mA1, mB0,
    mB1, c00, c01, c10, c11)."""
    row = [0] * 8
    row[i], row[2 + j], row[4 + 2 * i + j] = a, b, a * b
    return row


class PolytopeError(ValueError):
    """Base class for polytope engine failures; a ValueError, as every
    bellvol error is, so the CLI exits 1."""


class UnboundedPolytope(PolytopeError):
    """A recession direction was detected during vertex enumeration."""


class DegeneratePolytope(PolytopeError):
    """The polytope is not full-dimensional in its ambient space."""


# --------------------------------------------------------------------------
# probability tables
# --------------------------------------------------------------------------

def _frac(x) -> Fraction:
    """``x`` as a Fraction of Python ints.  The exact type is tested first,
    as ``isinstance`` against Fraction goes through ``ABCMeta``.  A bool is
    refused, though ``True == 1``, and so is text, which ``Fraction`` would
    parse, as ``regions._real`` refuses it.  Another integer type, such as
    numpy's, is read by ``__index__``: ``Fraction`` would keep it as its
    numerator, and int64 products overflow.  Any other real, numpy's
    ``float32``, ``float16`` and ``longdouble`` among them, is read exactly
    by its ``as_integer_ratio``.  ValueError for a bool, for text and for
    anything without a finite ratio: ``None``, a complex or a non-finite
    float."""
    if type(x) is Fraction or isinstance(x, Fraction):
        return x
    if _is_bool(x) or isinstance(x, str):
        raise ValueError(f"not a number: {x!r}")
    try:
        if hasattr(x, "__index__"):
            return Fraction(operator.index(x))
        return Fraction(*x.as_integer_ratio())
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise ValueError(f"not a number: {x!r}") from None


class JointProbabilityTable(_Record, NamedTuple("_Table", [
        ("entries", tuple)])):
    """Sixteen rational entries P(A_i=a, B_j=b), a, b in {-1, +1}, in table
    order: setting block (i, j) = (0, 0), (0, 1), (1, 0), (1, 1), then a and
    b, each +1 before -1, held as a tuple of Fractions.

    Entries must be nonnegative and each setting block (i, j) must sum to 1.
    """

    __slots__ = ()

    def __new__(cls, entries):
        entries = _items("table entries", entries)
        if len(entries) != 16:
            raise ValueError(f"need 16 entries, got {len(entries)}")
        entries = tuple(map(_frac, entries))
        sums = dict.fromkeys(_SETTINGS, 0)
        for (i, j, a, b), p in zip(_OUTCOMES, entries):
            if p < 0:
                raise ValueError(
                    f"P(A{i}={a:+d}, B{j}={b:+d}) = {p} is negative")
            sums[i, j] += p
        for (i, j), s in sums.items():
            if s != 1:
                raise ValueError(f"block (i={i}, j={j}) sums to {s}, not 1")
        return tuple.__new__(cls, (entries,))

    @classmethod
    def from_function(cls, f) -> "JointProbabilityTable":
        """Build from a callable f(i, j, a, b) -> probability."""
        return cls([f(*o) for o in _OUTCOMES])

    def entry(self, i: int, j: int, a: int, b: int) -> Fraction:
        return self.entries[_outcome_index(i, j, a, b)]

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

class Halfspace(_Record, NamedTuple("_Halfspace", [
        ("normal", tuple), ("offset", Fraction)])):
    """Inequality normal . x <= offset with a primitive integer normal: a
    tuple of Python ints, each read by the integer contract of
    ``regions._index``, whose gcd is 1.  As a tuple (normal, offset),
    halfspaces sort by normal, then offset."""

    __slots__ = ()

    def __new__(cls, normal, offset):
        normal = tuple([n if type(n) is int else
                        _index("halfspace normal", n, -math.inf)
                        for n in _items("halfspace normal", normal)])
        g = math.gcd(*normal)
        if g != 1:
            raise ValueError("halfspace normal must be nonzero" if not g else
                             f"halfspace normal {normal} is not primitive;"
                             " Halfspace.normalized scales a row to one")
        # exact, as vertices are: a float offset is its binary value
        return tuple.__new__(cls, (normal, _frac(offset)))

    @classmethod
    def normalized(cls, normal: Sequence, offset) -> "Halfspace":
        """Scale by a positive rational so the normal is primitive integers:
        the row (normal, offset) read as integers (n, c), the halfspace is
        (n / g, c / g) with g the gcd of n."""
        *ints, c = _integer_row((*normal, offset))
        g = math.gcd(*ints)
        if not g:
            raise ValueError("halfspace normal must be nonzero")
        normal = tuple([n // g for n in ints])  # primitive: checked once
        return tuple.__new__(cls, (normal, Fraction(c, g)))

    def slack(self, x: Sequence[Fraction]) -> Fraction:
        """offset - normal . x; ValueError unless ``x`` has one entry per
        entry of the normal."""
        if len(x) != len(self.normal):
            raise ValueError(f"point of length {len(x)} for a halfspace of"
                             f" length {len(self.normal)}")
        return self.offset - sum(n * xi for n, xi in zip(self.normal, x))


class RationalPolytope(_Record, NamedTuple("_Polytope", [
        ("dim", int), ("vertices", tuple), ("halfspaces", tuple)])):
    """A polytope with exact rational V- and/or H-representation: tuples
    of vertices (each of Fractions) and of halfspaces, or None."""

    __slots__ = ()

    def __new__(cls, dim, vertices=None, halfspaces=None):
        dim = _index("dim", dim, 0)
        if vertices is not None:
            vertices = tuple(tuple(map(_frac, _items("vertex", v)))
                             for v in _items("vertices", vertices))
            for v in vertices:
                if len(v) != dim:
                    raise ValueError(f"vertex {v} has wrong dimension")
            # lowest terms are unique, and int pairs hash in C
            if len({tuple((x.numerator, x.denominator) for x in v)
                    for v in vertices}) != len(vertices):
                raise ValueError("vertices must be pairwise distinct")
        if halfspaces is not None:
            halfspaces = _items("halfspaces", halfspaces)
            for h in halfspaces:
                if not isinstance(h, Halfspace):
                    raise ValueError(f"halfspace {h!r} is not a Halfspace")
                if len(h.normal) != dim:
                    raise ValueError(f"halfspace {h} has wrong dimension")
        return tuple.__new__(cls, (dim, vertices, halfspaces))

    # -- serialization ------------------------------------------------------

    def to_text(self, which: str) -> str:
        """Serialize the representation ``which``, ``"V"`` or ``"H"``:
        header ``<kind> <dim> <count>``, then one line per vertex (d
        rationals) or halfspace (d rationals for the normal, then the
        offset), rationals in p/q form."""
        if which == "V":
            name, rows = "vertex", self.vertices
        elif which == "H":
            name, rows = "halfspace", None if self.halfspaces is None else [
                (*h.normal, h.offset) for h in self.halfspaces]
        else:
            raise ValueError(f"unknown representation kind {which!r}")
        if rows is None:
            raise ValueError(f"no {name} representation to serialize")
        lines = [f"{which} {self.dim} {len(rows)}"]
        lines += [" ".join(str(x) for x in r) for r in rows]
        return "\n".join(lines) + "\n"


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
    """H-representation of the cube [-1, 1]^dim; ``dim`` >= 0 follows the
    integer contract of ``regions._index``."""
    dim = _index("dim", dim, 0)
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
    """The primitive integer vector on the ray of a rational vector.

    An int or a Fraction is read by its numerator and denominator, anything
    else once through :func:`_frac`; the row is scaled by the lcm of the
    denominators in integer arithmetic."""
    fr = [x if type(x) is int or type(x) is Fraction else _frac(x)
          for x in row]
    scale = math.lcm(*(f.denominator for f in fr))
    return _primitive([f.numerator * (scale // f.denominator) for f in fr])


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(operator.mul, a, x))


def _sort_key(row: Sequence[Fraction]) -> tuple:
    """A key that orders rational rows as the rows themselves do, each
    integral entry as an int: ints compare in C, Fractions in Python."""
    return tuple(x.numerator if x.denominator == 1 else x for x in row)


def _project(v: list[int], t: int, h: int, line: list[int]) -> list[int]:
    """The primitive vector on h * v - t * line, the projection of ``v``, of
    height ``t``, along ``line``, of height h > 0, onto the hyperplane of
    height 0.  Every line and ray of the double description is primitive,
    so at height 0 that is ``v`` itself, returned as it is."""
    if not t:
        return v
    return _primitive([h * x - t * y for x, y in zip(v, line)])


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
            lines = [_project(ln, t, h, line)
                     for ln, t in zip(lines, heights)]
            rays = [(_project(r, _dot(row, r), h, line), z | bit)
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
    return RationalPolytope(dim=h.dim,
                            vertices=tuple(sorted(verts, key=_sort_key)),
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
    hs = sorted((Halfspace.normalized(r[:-1], r[-1]) for r, _ in rays),
                key=lambda h: _sort_key((*h.normal, h.offset)))
    return RationalPolytope(dim=v.dim, vertices=v.vertices,
                            halfspaces=tuple(hs))


# --------------------------------------------------------------------------
# exact volume by pulling triangulation
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


def _triangulate(points: list[list[int]], face: int, g: int,
                 facets: Sequence[int]) -> Iterator[list[list[int]]]:
    """Decompose the g-dimensional face of the hull of homogeneous integer
    points, given as the bitmask of the points on it, into g-simplices.

    This is the pulling triangulation (Lee 1991): the face is coned from its
    first member p over those of its facets that do not contain p, each
    triangulated in turn.  For any point p of a face F, the cones from p over
    the facets of F that miss p cover F with disjoint interiors, whether or
    not p is a vertex; no cone is flat, as a facet that misses p lies in a
    hyperplane that misses it too.  Every face of a polytope is the
    intersection of the hull's facets that contain it, and a face of F that
    misses p lies in one of them that misses p.  So the facets of F that
    miss p are the largest nonempty intersections of F with the hull's
    facet masks that miss p."""
    members = [p for i, p in enumerate(points) if face >> i & 1]
    if len(members) == g + 1:
        yield members
        return
    apex = face & -face
    subfaces = {face & f for f in facets if not f & apex} - {0}
    for sub in subfaces:
        if not any(s != sub and s & sub == sub for s in subfaces):
            yield from ([members[0], *simplex] for simplex
                        in _triangulate(points, sub, g - 1, facets))


def exact_volume(p: RationalPolytope) -> Fraction:
    """Exact volume of a full-dimensional rational V-polytope.

    One double-description run gives the hull's facets as masks over the
    points; every face below them is an intersection of those masks, and
    the volume is a sum over a pulling triangulation of the hull (see
    :func:`_triangulate`).  A simplex with homogeneous rows
    (w_i * v_i, w_i) contributes |det| / (d! * prod w_i).
    """
    if p.vertices is None:
        raise ValueError("exact_volume needs a vertex representation")
    d = p.dim
    points = _homogenize(p.vertices)
    facets, lineality = _hull_facets(points, d)
    if lineality:
        raise DegeneratePolytope("polytope is not full-dimensional")
    masks = [mask for _, mask in facets]
    terms = [(abs(_det_int_py(s)), math.prod(r[-1] for r in s))
             for s in _triangulate(points, (1 << len(points)) - 1, d, masks)]
    scale = math.lcm(*(w for _, w in terms))
    return Fraction(sum(det * (scale // w) for det, w in terms),
                    scale * math.factorial(d))
