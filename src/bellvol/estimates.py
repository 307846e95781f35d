"""Volume records, closed forms, exact volumes and every region's
quadrature: the deterministic half of volume estimation.
:mod:`bellvol.volumes`, the Monte Carlo half, re-exports the record, the
closed forms and the two deterministic entry points.  ``volume --method
exact`` and ``volume --method quadrature`` load this module and not
``volumes``.  Only Q and U quadrature load numpy, inside the functions that
compute with arrays.  ``fractions`` is loaded by ``exact_region_volume``
alone, and nothing here loads the polytope engine.

* ``VolumeEstimate``, the value-with-error record every method returns, the
  one record still a dataclass (code outside the package copies it with
  ``dataclasses.replace``): the commands that load it load ``dataclasses``,
* ``ANALYTIC``, the closed-form constants the estimates are compared against,
* ``exact_region_volume``, the rational volumes of C and L in closed form,
* ``quadrature_volume``, every region's deterministic volume, in pair
  coordinates x = c00 + c11, y = c00 - c11, z = c01 - c10, w = c01 + c10
  (Jacobian 1/4), in which the cube is |x| + |y| <= 2, |z| + |w| <= 2.
  Every region is even in each coordinate, and the measure of its whole
  (y, w) slice is closed form, so the volume is an integral over x, z >= 0
  on cells aligned with the slice's kinks.  L is 16.  C and T come from one
  order-2 Gauss-Legendre pass over the cells of ``_linear_cells``, exact
  for their polynomial slices, with an error bound derived by forward
  error analysis (``_l1_volume``).  Q (the L1 set |x| + |z| <= pi,
  |y| + |w| <= pi in arcsin coordinates, with weight
  (cos x + cos y)(cos z + cos w)/4, on the same cells) and U
  (x^2 + z^2 <= 4, y^2 + w^2 <= 4) double the order n of tensor
  Gauss-Legendre rules from 8 to at most 32 until orders n and 2n agree
  within the tolerance, and report that difference (``_pair_quadrature``);
  the rules come from a stored table, equal bit for bit to numpy's, so no
  call computes one,
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

    import numpy as np

#: Closed-form volumes of the five regions and the three headline ratios,
#: each the double nearest its exact value.  Three are literals, as a float
#: evaluation of their closed form lands one ulp low.
ANALYTIC = MappingProxyType({
    "V_C": 2.0 ** 5 / 3.0,
    "V_L": 2.0 ** 4,
    "V_Q": 14.804406601634039,          # 3*pi^2/2
    "V_U": 32.0 * math.pi - 256.0 / 3.0,
    "V_T": 15.372005300845666,          # (768*sqrt(2) - 1040)/3
    "ratio_QC": (3.0 * math.pi / 8.0) ** 2,
    "ratio_QL": 0.9252754126021274,     # 3*pi^2/32
    "ratio_CL": 2.0 / 3.0,
})


#: The smallest ``abs_tol`` the quadrature accepts.
_QUADRATURE_MIN_TOL = 1e-9


def check_abs_tol(abs_tol: float) -> float:
    """``abs_tol`` as a float by ``regions._real``'s contract; ValueError
    unless the quadrature can honour it (finite and >= 1e-9)."""
    return _real("abs_tol", abs_tol, _QUADRATURE_MIN_TOL, math.inf)


class ToleranceNotMet(RuntimeError, ValueError):
    """The adaptive scheme could not certify the requested tolerance; a
    ValueError, as every bellvol error is, so the CLI exits 1."""


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
    """Exact rational volume of C or L, in closed form.

    L is the cube [-1, 1]^4, of volume 2^4 = 16.  C is the hull of the
    eight correlation points c = (a0 b0, a0 b1, a1 b0, a1 b1), the
    Kronecker products a (x) b of a, b in {-1, 1}^2.  Take u = H c / 2,
    with H = H2 (x) H2 the 4x4 Sylvester-Hadamard matrix,
    H2 = [[1, 1], [1, -1]]: H H^T = 4 I, so |det(H / 2)| = 1 and the map
    keeps volume.  H c = (H2 a) (x) (H2 b), and H2 a is (+-2, 0) or
    (0, +-2), so each point maps to one of the eight points +-2 e_k: C is
    the cross-polytope |u|_1 <= 2.  Its part in each of the 16 orthants is
    a simplex with legs 2, of volume 2^4 / 4!, so V_C = 4^4 / 4! = 32/3.
    ``polytopes.exact_volume`` derives both again from the vertices, the
    check the tests make.
    """
    from fractions import Fraction
    if _member(RegionId, region) is RegionId.LOCAL_C:
        return Fraction(4 ** 4, math.factorial(4))
    if region is RegionId.NO_SIGNALING_L:
        return Fraction(2 ** 4)
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


def _cell_map(cell: tuple, t, s):
    """The point (x, z) and Jacobian of (t, s) in [0, 1]^2 on one cell of
    ``_linear_cells``: x = x0 + dx*t, z = z0 + h*s, with dx = x1 - x0, z0
    and z1 the cell's lines at x and h = z1 - z0, and jac = dx*h.

    ``t`` and ``s`` are floats, or arrays that broadcast, such as nodes
    ``t[:, None]`` and ``t``, with x varying along axis 0 and z along axis
    1.  Both take the same operations in the same order, so an array call
    equals the scalar calls bit for bit.
    """
    x0, x1, (c0, s0), (c1, s1) = cell
    dx = x1 - x0
    x = x0 + dx * t
    z0 = c0 + s0 * x
    h = c1 + s1 * x - z0
    return x, z0 + h * s, dx * h


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
    degree 2 in (x, z).  The tensor order-2 Gauss-Legendre rule, the four
    nodes (t, s) of ``_GL2_NODES`` mapped by ``_cell_map``, each of weight
    1/4, integrates g over a cell exactly when jac*g pulls back to a
    polynomial of degree <= 3 in t and <= 2 in s, as it does for any
    polynomial g of degree <= 2 in (x, z).  Its weight 1/4 times the four
    quadrants is 1, so the volume is the fsum over the nodes of
    jac (ab - m^2/2).

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
        for t, s in itertools.product(_GL2_NODES, repeat=2):
            x, z, jac = _cell_map(cell, t, s)
            a, b = 2.0 - x, 2.0 - z
            m = max(a + b - bound, 0.0)
            terms.append(jac * (a * b - 0.5 * m * m))
            size += jac
    value = math.fsum(terms)
    slope = 4.0 / 3.0 * (4.0 - bound + bound_error) ** 3
    return value, (_UNIT_ROUNDOFF * (400.0 * width + 220.0 * size + value)
                   + slope * bound_error)


# Q and U: Gauss-Legendre doubling on array nodes, the one path that
# loads numpy

#: The negative nodes and their weights of each Gauss-Legendre rule the
#: quadrature uses, bit for bit as numpy computes the rule.  numpy makes
#: the nodes exactly antisymmetric and the weights exactly symmetric, so
#: ``_gauss_legendre`` restores the whole rule by mirroring.  Printed by
#: this command, then indented under ``_GL_HALF = ``:
# python -c "import numpy as np, pprint; pprint.pprint({n: tuple(tuple(map(float, a[:n // 2])) for a in np.polynomial.legendre.leggauss(n)) for n in (8, 16, 32)}, compact=True, width=68)"
_GL_HALF = {8: ((-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                 -0.18343464249564978),
                (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                 0.36268378337836166)),
            16: ((-0.9894009349916499, -0.9445750230732326,
                  -0.8656312023878318, -0.755404408355003, -0.6178762444026438,
                  -0.45801677765722737, -0.2816035507792589,
                  -0.09501250983763744),
                 (0.027152459411754176, 0.062253523938647456,
                  0.0951585116824926, 0.12462897125553407, 0.1495959888165767,
                  0.16915651939500265, 0.18260341504492364,
                  0.18945061045506864)),
            32: ((-0.9972638618494816, -0.9856115115452684,
                  -0.9647622555875064, -0.9349060759377397,
                  -0.8963211557660521, -0.84936761373257, -0.7944837959679424,
                  -0.7321821187402897, -0.6630442669302152,
                  -0.5877157572407623, -0.5068999089322294,
                  -0.42135127613063533, -0.33186860228212767,
                  -0.23928736225213706, -0.1444719615827965,
                  -0.048307665687738324),
                 (0.007018610009470506, 0.016274394730905743,
                  0.025392065309262024, 0.034273862913021765,
                  0.042835898022226836, 0.05099805926237609,
                  0.058684093478535565, 0.06582222277636168,
                  0.07234579410884834, 0.07819389578707023,
                  0.08331192422694671, 0.08765209300440378,
                  0.09117387869576378, 0.09384439908080451,
                  0.09563872007927471, 0.09654008851472766))}

#: The rule orders: at abs_tol 1e-9, the least accepted, Q stops at order
#: 16 and U at 32, and a larger abs_tol stops no later.
_GL_ORDERS = tuple(_GL_HALF)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-n Gauss-Legendre rule on [-1, 1]."""
    import numpy as np
    t, w = (np.array(half) for half in _GL_HALF[n])
    return np.concatenate((t, -t[::-1])), np.concatenate((w, w[::-1]))


def _pair_quadrature(cells, slice_fn, abs_tol: float) -> tuple[float, float]:
    """Volume as the integral over x, z >= 0 of ``slice_fn(x, z)``, the
    measure of the whole (y, w) slice (every region is even in each pair
    coordinate), and its error.

    ``cells(t)`` maps Gauss-Legendre nodes t on [0, 1] to one (x, z,
    Jacobian) triple per cell, x varying along axis 0 and z along axis 1.
    The rule order n doubles through ``_GL_ORDERS`` until the rules of order
    n and 2n agree within ``abs_tol``; returns Q_2n and |Q_n - Q_2n|.
    """
    def rule(n: int) -> float:
        t, w = _gauss_legendre(n)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        return math.fsum(float(w @ (jac * slice_fn(x, z)) @ w)
                         for x, z, jac in cells(t))

    coarse = rule(_GL_ORDERS[0])
    for n in _GL_ORDERS[1:]:
        fine = rule(n)
        diff = abs(fine - coarse)
        if diff <= abs_tol:
            return fine, diff
        coarse = fine
    raise ToleranceNotMet(f"Gauss-Legendre orders {n // 2} and {n} differ by"
                          f" {diff:.3e} > abs_tol {abs_tol:.3e}")


def _arcsin_volume(h: float, abs_tol: float) -> tuple[float, float]:
    """Q, the L1 case in arcsin coordinates s_ij = arcsin(c_ij):
    |sum(s) - 2 s_ij| <= h on the box |s_ij| <= pi/2 with weight prod cos(s);
    h = pi for Q, and h = 0 collapses the region.

    The slice |y| <= pi - x, |w| <= pi - z, |y| + |w| <= h has the w integral
    W cos z + sin W, W = min(pi - z, h - |y|), flat up to y = h - (pi - z);
    the y integral of each piece is elementary.  The slice weight kinks at
    x = pi - h and z = pi - h; its third kink, x + z = 2 pi - h, lies
    outside x + z <= h.
    """
    import numpy as np
    sin_h = math.sin(h)

    def weight(x, z):
        cx, cz = np.cos(x), np.cos(z)
        b = math.pi - z
        y_end = np.minimum(math.pi - x, h)
        y_kink = np.clip(h - b, 0.0, y_end)

        def primitive(y):  # of (cx + cos y) * ((h - y) cz + sin(h - y))
            r = h - y
            return (-0.5 * cx * cz * r * r + cx * np.cos(r)
                    + cz * (r * np.sin(y) - np.cos(y))
                    + 0.5 * y * sin_h + 0.25 * np.cos(h - 2.0 * y))

        flat = (b * cz + np.sin(b)) * (cx * y_kink + np.sin(y_kink))
        return flat + primitive(y_end) - primitive(y_kink)
    cells = _linear_cells(math.pi, h, [(math.pi - h, 0.0)])
    return _pair_quadrature(
        lambda t: (_cell_map(cell, t[:, None], t) for cell in cells),
        weight, abs_tol)


def _disk_slice(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """U: area of |y| <= 2 - x, |w| <= 2 - z, y^2 + w^2 <= 4.

    Each quadrant's a-by-b rectangle lies inside the disk when
    a^2 + b^2 <= 4; otherwise the circle leaves it through w = b at
    y0 = sqrt(4 - b^2) and the area is b*y0 plus the circle from y0 to a.
    """
    import numpy as np

    def circle(y):  # integral of sqrt(4 - t^2) from 0 to y <= 2
        return 0.5 * (y * np.sqrt(np.maximum(4.0 - y * y, 0.0))
                      + 4.0 * np.arcsin(np.minimum(0.5 * y, 1.0)))

    a, b = 2.0 - x, 2.0 - z
    y0 = np.sqrt(np.maximum(4.0 - b * b, 0.0))
    cut = b * y0 + circle(a) - circle(y0)
    return 4.0 * np.where(a * a + b * b <= 4.0, a * b, cut)


def _disk_cells(t: np.ndarray):
    """The quarter disk x^2 + z^2 <= 4, below and above the kink curve
    (2 - x)^2 + (2 - z)^2 = 4; both circles run from (0, 2) to (2, 0).

    x = 2 sin^2(phi) takes the square roots out of both curves at x = 0 and
    x = 2, and z = z_kink * t^2 takes the one in y0 out at z = 0.
    """
    import numpy as np
    phi = 0.5 * math.pi * t[:, None]
    s = np.sin(phi)
    x, dx = 2.0 * s * s, math.pi * np.sin(2.0 * phi)
    z_kink = 2.0 - 2.0 * s * np.sqrt(2.0 - s * s)
    z_edge = 2.0 * np.cos(phi) * np.sqrt(1.0 + s * s)
    yield x, z_kink * t * t, dx * 2.0 * z_kink * t
    yield x, z_kink + (z_edge - z_kink) * t, dx * (z_edge - z_kink)


def quadrature_volume(region: RegionId, abs_tol: float = 1e-6) -> VolumeEstimate:
    """Deterministic volume of any of the five regions.

    L is 16 exactly.  C and T take one exact order-2 pass with a derived
    error bound (``_l1_volume``), below 1e-12 and so below any ``abs_tol``
    accepted.  Q and U double the Gauss-Legendre order until ``abs_tol``
    is met (``_pair_quadrature``), the one branch that loads numpy.
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
    elif region is RegionId.QUANTUM_Q:
        value, err = _arcsin_volume(math.pi, abs_tol)
    else:  # U
        value, err = _pair_quadrature(_disk_cells, _disk_slice, abs_tol)
    return VolumeEstimate(region=region.value, method="quadrature",
                          value=value, std_error=0.0, error_bound=err)
