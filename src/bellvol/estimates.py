"""Volume records, closed forms and exact volumes: the half of volume
estimation that computes no arrays, so ``volume --method exact`` runs
without numpy.  :mod:`bellvol.volumes` re-exports these names.  The polytope
engine, and with it ``fractions``, is loaded by ``exact_region_volume``
alone, so the Monte Carlo and quadrature volumes never load it.

* ``VolumeEstimate``, the value-with-error record every method returns, the
  one record still a dataclass (code outside the package copies it with
  ``dataclasses.replace``): the commands that load it load ``dataclasses``,
* ``ANALYTIC``, the closed-form constants the estimates are compared against,
* ``exact_region_volume``, the rational volumes of C and L by the polytope
  engine,
* ``check_abs_tol``, the contract of a quadrature tolerance, so the CLI
  checks ``--abs-tol`` before it knows whether numpy is needed.

Closed forms: V_C = 32/3, V_L = 16, V_Q = 3*pi^2/2,
V_T = (768*sqrt(2) - 1040)/3 and V_U = 32*pi - 256/3.  Both T and U are the
cube minus disjoint corner pieces:

* T: the eight pieces the linear bound 2*sqrt(2) cuts off are pairwise
  disjoint, and each has the Irwin-Hall volume 16*(17 - 12*sqrt(2))/6.
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

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

from .regions import RegionId, _member, _real

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

    ``error_bound`` is 0.0 for exact values, None for Monte Carlo, and for
    quadrature |Q_n - Q_2n| between the Gauss-Legendre rules of order n and
    2n where doubling stopped (``value`` is Q_2n): not a rigorous bound.
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
