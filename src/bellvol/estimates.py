"""Volume records, closed forms, exact volumes and the quadrature front
door: the half of volume estimation that computes no arrays, so ``volume
--method exact`` and ``volume --method quadrature`` for C, T and L run
without numpy.  :mod:`bellvol.volumes` re-exports these names.  The polytope
engine, and with it ``fractions``, is loaded by ``exact_region_volume``
alone, so the Monte Carlo and quadrature volumes never load it.

* ``VolumeEstimate``, the value-with-error record every method returns, the
  one record still a dataclass (code outside the package copies it with
  ``dataclasses.replace``): the commands that load it load ``dataclasses``,
* ``ANALYTIC``, the closed-form constants the estimates are compared against,
* ``exact_region_volume``, the rational volumes of C and L by the polytope
  engine,
* ``quadrature_volume``, every region's deterministic volume: L is 16, C
  and T come from one order-2 Gauss-Legendre pass over the kink-aligned
  cells of ``_linear_cells``, exact for their polynomial slices, with an
  error bound derived by forward error analysis (``_l1_volume``), and Q
  and U come from the Gauss-Legendre doubling of :mod:`bellvol.volumes`,
  the one branch that loads numpy,
* ``check_abs_tol``, the contract of a quadrature tolerance, so the CLI
  checks ``--abs-tol`` before it knows whether numpy is needed.

Closed forms: V_C = 32/3, V_L = 16, V_Q = 3*pi^2/2,
V_T = (768*sqrt(2) - 1040)/3 and V_U = 32*pi - 256/3.  Both T and U are the
cube minus disjoint corner pieces:

* T: the eight pieces the linear bound 2*sqrt(2) cuts off are pairwise
  disjoint, and each has the Irwin-Hall volume 16*(17 - 12*sqrt(2))/6.
  For any bound B in [2, 4] the same argument gives 16 - (4 - B)^4/3,
  which is V_C at B = 2.
* U: with f1 = (c00 + c11)^2 + (c01 - c10)^2 and
  f2 = (c00 - c11)^2 + (c01 + c10)^2, f1 + f2 = 2 * sum c_ij^2 <= 8 on the
  cube, so f1 > 4 and f2 > 4 never hold together and the cube minus U is
  two disjoint pieces of equal volume.  The piece f1 > 4 is x^2 + z^2 > 4
  in the pair coordinates x = c00 + c11, z = c01 - c10; its (y, w) slice is
  the full rectangle of area 4*(2 - |x|)(2 - |z|), so with Jacobian 1/4 and
  four sign quadrants it has volume 4 * integral of (2 - x)(2 - z) over the
  part of [0, 2]^2 outside x^2 + z^2 <= 4.  That integral is
  4 - (4*pi - 32/3 + 2) = 38/3 - 4*pi, so each piece is 152/3 - 16*pi and
  V_U = 16 - 2*(152/3 - 16*pi) = 32*pi - 256/3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

from .regions import TSIRELSON_BOUND, RegionId, _member, _real

if TYPE_CHECKING:
    from fractions import Fraction

#: Closed-form volumes of the five regions and the three headline ratios.
ANALYTIC = MappingProxyType({
    "V_C": 2.0 ** 5 / 3.0,
    "V_L": 2.0 ** 4,
    "V_Q": 1.5 * math.pi ** 2,
    "V_U": 32.0 * math.pi - 256.0 / 3.0,
    # (768*sqrt(2) - 1040)/3 times (768*sqrt(2) + 1040) over itself: the
    # difference would cancel 768*sqrt(2) ~ 1086 against 1040 (24 ulp off)
    "V_T": 98048.0 / (3.0 * (768.0 * math.sqrt(2.0) + 1040.0)),
    "ratio_QC": (3.0 * math.pi / 8.0) ** 2,
    "ratio_QL": 3.0 * math.pi ** 2 / 32.0,
    "ratio_CL": 2.0 / 3.0,
})


#: The smallest ``abs_tol`` the quadrature accepts.
_QUADRATURE_MIN_TOL = 1e-9


def check_abs_tol(abs_tol: float) -> float:
    """``abs_tol`` as a float by ``regions._real``'s contract; ValueError
    unless the quadrature can honour it (finite and >= 1e-9)."""
    return _real("abs_tol", abs_tol, _QUADRATURE_MIN_TOL, math.inf)


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume or ratio value with its error accounting.

    ``std_error`` is the CLT standard error for Monte Carlo estimates and 0
    for deterministic methods (quadrature, exact); ``region`` is the region
    tag, or "A/B" for ratios.

    ``error_bound`` is 0.0 for exact values and None for Monte Carlo.  For
    quadrature it is 0.0 for L; for C and T a bound on |value - volume|
    derived by forward error analysis (``_l1_volume``); and for Q and U
    |Q_n - Q_2n| between the Gauss-Legendre rules of order n and 2n where
    doubling stopped (``value`` is Q_2n), which is not a rigorous bound.
    """

    region: str
    method: str  # "monte-carlo" | "quadrature" | "exact"
    value: float
    std_error: float
    sample_count: int | None = None
    seed: int | None = None
    error_bound: float | None = None

    def as_json_record(self) -> dict:
        return {
            "region": self.region,
            "method": self.method,
            "value": self.value,
            "std_error": self.std_error,
            "error_bound": self.error_bound,
            "n": self.sample_count,
            "seed": self.seed,
        }


def exact_region_volume(region: RegionId) -> Fraction:
    """Exact rational volume via the polytope engine (cube and local set)."""
    from . import polytopes
    if _member(RegionId, region) is RegionId.LOCAL_C:
        return polytopes.exact_volume(polytopes.correlation_polytope_C())
    if region is RegionId.NO_SIGNALING_L:
        cube = polytopes.enumerate_vertices(polytopes.cube_polytope_h(4))
        return polytopes.exact_volume(cube)
    raise ValueError(f"region {region.value} has no exact rational volume")


# --------------------------------------------------------------------------
# deterministic quadrature in pair coordinates
# --------------------------------------------------------------------------

#: The nodes (3 -+ sqrt(3))/6 of the order-2 Gauss-Legendre rule on [0, 1],
#: correctly rounded, so each lies within 2**-54 of its exact value; both
#: weights are 1/2.
_GL2_NODES = (0.2113248654051871, 0.7886751345948129)

#: The unit roundoff u of a double: fl(p op q) = (p op q)(1 + d), |d| <= u.
_UNIT_ROUNDOFF = 2.0 ** -53


def _linear_cells(box: float, bound: float,
                  kinks: Sequence[tuple[float, float]]) -> list[tuple]:
    """Cells of {0 <= x, z <= box, x + z <= bound} cut at kink lines, each
    (x0, x1, (c0, s0), (c1, s1)): x0 <= x <= x1 between the lines
    z = c0 + s0*x below and z = c1 + s1*x above.

    ``kinks`` are lines z = c + s*x given as (c, s), s in {0, -1}; by x <-> z
    symmetry each line z = c comes with x = c.  The x breakpoints include all
    crossings, so between two of them consecutive lines bound a cell.  A
    line bounds cells of a strip if it lies in the region at both of the
    strip's ends, and so, linear under the region's concave upper edge,
    along the whole strip.  Testing the ends, not the rounded midpoint,
    keeps out a line outside at one end, such as x + z = bound at the bound
    an ulp above 2, whose cell would be a sliver outside the box.
    """
    lines = {(0.0, 0.0), (box, 0.0), (bound, -1.0), *kinks}
    right = min(box, bound)
    xs = {right, *(c for c, s in lines if s == 0.0)}
    xs.update((c2 - c1) / (s1 - s2) for (c1, s1), (c2, s2)
              in itertools.combinations(lines, 2) if s1 != s2)
    xs = sorted(x for x in xs if 0.0 <= x <= right)
    cells = []
    for x0, x1 in zip(xs, xs[1:]):
        edges = sorted(((c + s * x0, c + s * x1), (c, s)) for c, s in lines
                       if all(0.0 <= c + s * x <= min(box, bound - x)
                              for x in (x0, x1)))
        cells += [(x0, x1, lo, hi) for (_, lo), (_, hi) in zip(edges, edges[1:])]
    return cells


def _cell_nodes(x0: float, x1: float, line0: tuple[float, float],
                line1: tuple[float, float]):
    """The four nodes (x, z, jac) of the tensor order-2 Gauss-Legendre rule
    on one cell of ``_linear_cells``, each of weight 1/4.

    The cell is the image of (t, s) in [0, 1]^2 under x = x0 + dx*t,
    z = z0 + h*s, with dx = x1 - x0, z0 and z1 the cell's lines at x and
    h = z1 - z0; jac = dx*h is the Jacobian.  So the sum of jac*g(x, z)/4
    over the nodes is the integral of g over the cell, exactly when
    jac*g pulls back to a polynomial of degree <= 3 in t and <= 2 in s, as
    it does for any polynomial g of degree <= 2 in (x, z).
    """
    (c0, s0), (c1, s1) = line0, line1
    dx = x1 - x0
    for t in _GL2_NODES:
        x = x0 + dx * t
        z0 = c0 + s0 * x
        h = c1 + s1 * x - z0
        jac = dx * h
        for s in _GL2_NODES:
            yield x, z0 + h * s, jac


def _l1_volume(bound: float, bound_error: float) -> tuple[float, float]:
    """C (``bound`` 2) and T (2 sqrt 2), ``bound`` in [2, 4] and within
    ``bound_error`` of the bound it stands for: the volume, and a bound on
    its error.

    In the pair coordinates x = c00 + c11, y = c00 - c11, z = c01 - c10,
    w = c01 + c10 (Jacobian 1/4) the cube is |x| + |y| <= 2,
    |z| + |w| <= 2, and the region is |x| + |z| <= bound,
    |y| + |w| <= bound.  It is even in each coordinate, so its volume is
    the integral over x, z >= 0 of the area of the whole (y, w) slice,
    |y| <= a, |w| <= b, |y| + |w| <= bound with a = 2 - x and b = 2 - z:
    in each quadrant the a-by-b rectangle less the corner y + w > bound, a
    right triangle of legs m = max(a + b - bound, 0), so of area
    4 (ab - m^2/2).  The cells are cut
    at the kink x + z = 4 - bound, so on each the area is a polynomial of
    degree 2 in (x, z) and ``_cell_nodes``' rule is exact.  Its weight 1/4
    times the four quadrants is 1, so the volume is the fsum over the
    nodes of jac (ab - m^2/2).

    The error, by forward error analysis (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., 2002, ch. 3-4).  For bound in
    [2, 4] every cell corner is an exact float (4 - bound and bound - 2
    by Sterbenz's lemma), and the cells tile the region exactly.
    s0, s1 in {0, -1} make s*x exact.  The exact values at the exact nodes
    satisfy 0 <= x, z, a, b, dx, h <= 2, 0 <= m <= min(a, b),
    |a + b - bound| <= 4 and 0 <= ab - m^2/2 <= 4.
    So, to first order in u, each computed value is off by at most: each
    node, u/2; dx, u dx; dx t, 2.5u dx; x, 7u; z0 and z1, 9u; h, 20u;
    jac, 24u dx; a, 9u; h s, 23u; z, 34u; b, 36u; ab, 94u;
    a + b - bound, 53u, and so m (max is 1-Lipschitz); m^2/2, 108u;
    q = ab - m^2/2, 206u; and the term jac q, 4 (24u dx) + 206u jac +
    4u jac = 96u dx + 210u jac.  A cell's four nodes add 384u dx +
    210u (sum of jac).  The constants are rounded up to 400 and 220,
    which covers the products of two errors (below 10^4 u^2 per unit of
    dx or jac) and the rounding of the bound's own arithmetic.  The
    weights are exact.  fsum rounds the sum of the terms once, adding
    u |value|.  Last, the exact rule gives V(bound) = 16 - (4 - bound)^4/3
    for the float ``bound``; the bound it stands for lies within
    ``bound_error``, and V' = 4 (4 - B)^3/3 falls in B, so that moves the
    volume by at most 4 (4 - bound + bound_error)^3/3 times ``bound_error``.
    """
    terms, width, size = [], 0.0, 0.0
    for cell in _linear_cells(2.0, bound, [(4.0 - bound, -1.0)]):
        width += cell[1] - cell[0]
        for x, z, jac in _cell_nodes(*cell):
            a, b = 2.0 - x, 2.0 - z
            m = max(a + b - bound, 0.0)
            terms.append(jac * (a * b - 0.5 * m * m))
            size += jac
    value = math.fsum(terms)
    slope = 4.0 / 3.0 * (4.0 - bound + bound_error) ** 3
    return value, (_UNIT_ROUNDOFF * (400.0 * width + 220.0 * size + value)
                   + slope * bound_error)


def quadrature_volume(region: RegionId, abs_tol: float = 1e-6) -> VolumeEstimate:
    """Deterministic volume of any of the five regions.

    L is 16 exactly.  C and T take one exact order-2 pass with a derived
    error bound (``_l1_volume``), below 1e-12 and so below any ``abs_tol``
    accepted.  Q and U double the Gauss-Legendre order until ``abs_tol``
    is met, in :mod:`bellvol.volumes`, which only they load, and with it
    numpy.
    """
    abs_tol = check_abs_tol(abs_tol)
    if _member(RegionId, region) is RegionId.NO_SIGNALING_L:
        value, err = 16.0, 0.0
    elif region is RegionId.LOCAL_C:
        value, err = _l1_volume(2.0, 0.0)
    elif region is RegionId.TSIRELSON_T:
        # 2 * sqrt(2.0) is 2 sqrt 2 correctly rounded: off by half an ulp
        value, err = _l1_volume(TSIRELSON_BOUND,
                                0.5 * math.ulp(TSIRELSON_BOUND))
    else:  # Q and U
        from . import volumes
        value, err = volumes._doubling_volume(region, abs_tol)
    return VolumeEstimate(region=region.value, method="quadrature",
                          value=value, std_error=0.0, error_bound=err)
