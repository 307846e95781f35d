"""Membership oracles for the nested sets of two-party correlations.

The scenario: two parties, each choosing one of two dichotomic (+/-1 valued)
measurements.  A point is the vector of the four product expectations
(c00, c01, c10, c11) with c_ij = <A_i B_j>.  Five nested regions of the cube
[-1, 1]^4 are supported:

    C  -- correlations reachable by local hidden-variable models
          (the eight CHSH inequalities |S - 2 c_ij| <= 2, S = sum of the four),
    Q  -- correlations reachable by measurements on quantum states, in three
          equivalent characterizations (arcsin form, Landau form, sextic form),
    U  -- the two quadratic two-circle inequalities
          (c00 +/- c11)^2 + (c01 -/+ c10)^2 <= 4,
    T  -- the eight linear inequalities |S - 2 c_ij| <= 2*sqrt(2),
    L  -- the full cube |c_ij| <= 1 (all no-signaling correlations).

Every oracle returns a :class:`MembershipResult` carrying the signed slack
margin, i.e. the minimum over the region's constraints of (bound - value).
All sets are closed; a point is inside iff margin >= -tol.

Scalar oracles are pure Python.  The vector formulas are column kernels on a
(4, m) array, one coordinate per row: ``column_margins`` scores a batch
against several regions at once, and ``region_margins`` / ``region_mask``
apply the same kernels to the rows of an (n, 4) array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

#: Absolute tolerance used for boundary comparisons unless overridden.
DEFAULT_TOLERANCE = 1e-12

#: Largest CHSH functional value reachable by quantum states.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class RegionId(str, Enum):
    """The five correlation regions, keyed by their one-letter tags."""

    LOCAL_C = "C"
    QUANTUM_Q = "Q"
    UFFINK_U = "U"
    TSIRELSON_T = "T"
    NO_SIGNALING_L = "L"


class QCharacterization(str, Enum):
    """Selector for the three equivalent descriptions of the quantum set."""

    ARCSIN = "arcsin"
    LANDAU = "landau"
    SEXTIC = "sextic"


#: Nesting order, innermost first: C subset Q subset U subset T subset L.
REGION_CHAIN = (
    RegionId.LOCAL_C,
    RegionId.QUANTUM_Q,
    RegionId.UFFINK_U,
    RegionId.TSIRELSON_T,
    RegionId.NO_SIGNALING_L,
)


@dataclass(frozen=True)
class CorrelationPoint:
    """Four product expectations c_ij = <A_i B_j>, each in [-1, 1]."""

    c00: float
    c01: float
    c10: float
    c11: float

    def __post_init__(self):
        for name in ("c00", "c01", "c10", "c11"):
            v = float(getattr(self, name))
            if not (-1.0 <= v <= 1.0):
                raise ValueError(f"{name}={v!r} outside [-1, 1]")
            object.__setattr__(self, name, v)

    @classmethod
    def clamped(cls, c00, c01, c10, c11, atol=1e-9) -> "CorrelationPoint":
        """Build a point, absorbing representation error up to ``atol``.

        Values may stick out of [-1, 1] by at most ``atol`` and are clipped;
        anything worse is a genuine error.
        """
        vals = []
        for name, v in zip(("c00", "c01", "c10", "c11"), (c00, c01, c10, c11)):
            v = float(v)
            if abs(v) > 1.0 + atol:
                raise ValueError(f"{name}={v!r} outside [-1, 1] beyond atol={atol}")
            vals.append(min(1.0, max(-1.0, v)))
        return cls(*vals)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c00, self.c01, self.c10, self.c11)

    def __iter__(self):
        return iter(self.as_tuple())


PointLike = Union[CorrelationPoint, Sequence[float]]


def _coords(p: PointLike) -> tuple[float, float, float, float]:
    """Extract 4 raw coordinates; deliberately does not range-check."""
    if isinstance(p, CorrelationPoint):
        return p.as_tuple()
    t = tuple(float(v) for v in p)
    if len(t) != 4:
        raise TypeError(f"expected 4 correlations, got {len(t)}")
    return t


@dataclass(frozen=True)
class MembershipResult:
    """Verdict of one region oracle.

    ``margin`` is the minimum signed slack over the region's constraints
    (negative outside); ``inside`` holds iff margin >= -tolerance, with the
    tolerance recorded so the invariant can be audited.
    """

    region: RegionId
    inside: bool
    margin: float
    characterization: QCharacterization | None = None
    tolerance: float = DEFAULT_TOLERANCE

    def as_dict(self) -> dict:
        d = {"region": self.region.value, "inside": self.inside, "margin": self.margin}
        if self.characterization is not None:
            d["characterization"] = self.characterization.value
        return d


def _result(region, margin, tol, char=None) -> MembershipResult:
    return MembershipResult(
        region=region,
        inside=margin >= -tol,
        margin=margin,
        characterization=char,
        tolerance=tol,
    )


# --------------------------------------------------------------------------
# scalar oracles
# --------------------------------------------------------------------------

def chsh_value(p: PointLike, i: int, j: int) -> float:
    """CHSH functional S - 2*c_ij with S = c00 + c01 + c10 + c11."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"setting indices must be 0 or 1, got ({i}, {j})")
    c = _coords(p)
    s = c[0] + c[1] + c[2] + c[3]
    return s - 2.0 * c[2 * i + j]


def in_local(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """All eight CHSH inequalities |S - 2 c_ij| <= 2."""
    margin = min(2.0 - abs(chsh_value(p, i, j)) for i, j in _SETTING_PAIRS)
    return _result(RegionId.LOCAL_C, margin, tol)


def in_box_L(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """The cube |c_ij| <= 1; doubles as the validity test for raw points."""
    margin = min(1.0 - abs(v) for v in _coords(p))
    return _result(RegionId.NO_SIGNALING_L, margin, tol)


def in_tsirelson_T(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """The eight linear inequalities |S - 2 c_ij| <= 2*sqrt(2)."""
    margin = min(TSIRELSON_BOUND - abs(chsh_value(p, i, j)) for i, j in _SETTING_PAIRS)
    return _result(RegionId.TSIRELSON_T, margin, tol)


def in_uffink_U(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """The two quadratic inequalities (c00 +/- c11)^2 + (c01 -/+ c10)^2 <= 4."""
    c00, c01, c10, c11 = _coords(p)
    lhs1 = (c00 + c11) ** 2 + (c01 - c10) ** 2
    lhs2 = (c00 - c11) ** 2 + (c01 + c10) ** 2
    margin = min(4.0 - lhs1, 4.0 - lhs2)
    return _result(RegionId.UFFINK_U, margin, tol)


def in_quantum_arcsin(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """Quantum set via |sum_kl arcsin(c_kl) - 2 arcsin(c_ij)| <= pi for all ij.

    This is the canonical quantum oracle of the package.  Inputs are clamped
    to [-1, 1] before arcsin so representation error at cube vertices cannot
    raise a domain error; the margin is reported in radians.
    """
    c = _coords(p)
    s = [math.asin(min(1.0, max(-1.0, v))) for v in c]
    total = sum(s)
    margin = min(math.pi - abs(total - 2.0 * v) for v in s)
    return _result(RegionId.QUANTUM_Q, margin, tol, QCharacterization.ARCSIN)


def in_quantum_landau(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """Quantum set via the single product-vs-geometric-mean inequality.

    |c00*c01 - c10*c11| <= sqrt(1-c00^2)sqrt(1-c01^2) + sqrt(1-c10^2)sqrt(1-c11^2)
    """
    c00, c01, c10, c11 = _coords(p)
    lhs = abs(c00 * c01 - c10 * c11)
    rhs = math.sqrt(max(0.0, 1.0 - c00 * c00)) * math.sqrt(max(0.0, 1.0 - c01 * c01)) + \
        math.sqrt(max(0.0, 1.0 - c10 * c10)) * math.sqrt(max(0.0, 1.0 - c11 * c11))
    return _result(RegionId.QUANTUM_Q, rhs - lhs, tol, QCharacterization.LANDAU)


def in_quantum_sextic(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """Quantum set via the degree-six disjunction, implemented verbatim.

    The point is inside when at least one of the two chains holds:

      (a)  0 <= (c01 c10 - c00 c11)(c00 c01 - c10 c11)(c00 c10 - c01 c11)
               <= (1/4)(sum c^2)^2 - (1/2) sum c^4 - 2 prod c,
      (b)  0 <= 2 max c^4 - (max c^2)(sum c^2) + 2 prod c.

    The margin of a chain is the minimum of its slacks; the overall margin
    is the larger of the two chain margins (disjunction semantics).  This
    form is kept for cross-checking only; the arcsin oracle is canonical.
    """
    c00, c01, c10, c11 = _coords(p)
    c = (c00, c01, c10, c11)
    triple = (c01 * c10 - c00 * c11) * (c00 * c01 - c10 * c11) * (c00 * c10 - c01 * c11)
    sum_sq = sum(v * v for v in c)
    sum_q = sum(v ** 4 for v in c)
    prod = c00 * c01 * c10 * c11
    quartic = 0.25 * sum_sq * sum_sq - 0.5 * sum_q - 2.0 * prod
    margin_a = min(triple, quartic - triple)
    max_sq = max(v * v for v in c)
    margin_b = 2.0 * max_sq * max_sq - max_sq * sum_sq + 2.0 * prod
    return _result(RegionId.QUANTUM_Q, max(margin_a, margin_b), tol,
                   QCharacterization.SEXTIC)


_QUANTUM_ORACLES = {
    QCharacterization.ARCSIN: in_quantum_arcsin,
    QCharacterization.LANDAU: in_quantum_landau,
    QCharacterization.SEXTIC: in_quantum_sextic,
}


def in_quantum(p: PointLike, characterization: QCharacterization = QCharacterization.ARCSIN,
               tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """Quantum membership under the chosen characterization (arcsin default)."""
    return _QUANTUM_ORACLES[characterization](p, tol)


@dataclass(frozen=True)
class MembershipProfile:
    """Verdicts for all five regions, the quantum one under all three forms."""

    local: MembershipResult
    quantum_arcsin: MembershipResult
    quantum_landau: MembershipResult
    quantum_sextic: MembershipResult
    uffink: MembershipResult
    tsirelson: MembershipResult
    no_signaling: MembershipResult

    def regions(self) -> dict[RegionId, MembershipResult]:
        """One result per region; the quantum entry is the arcsin verdict."""
        return {
            RegionId.LOCAL_C: self.local,
            RegionId.QUANTUM_Q: self.quantum_arcsin,
            RegionId.UFFINK_U: self.uffink,
            RegionId.TSIRELSON_T: self.tsirelson,
            RegionId.NO_SIGNALING_L: self.no_signaling,
        }

    def quantum(self) -> dict[QCharacterization, MembershipResult]:
        return {
            QCharacterization.ARCSIN: self.quantum_arcsin,
            QCharacterization.LANDAU: self.quantum_landau,
            QCharacterization.SEXTIC: self.quantum_sextic,
        }

    def as_dict(self) -> dict:
        d = {rid.value: res.as_dict() for rid, res in self.regions().items()}
        d["Q"] = {ch.value: res.as_dict() for ch, res in self.quantum().items()}
        return d


def membership_profile(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipProfile:
    """Evaluate every oracle on one point."""
    return MembershipProfile(
        local=in_local(p, tol),
        quantum_arcsin=in_quantum_arcsin(p, tol),
        quantum_landau=in_quantum_landau(p, tol),
        quantum_sextic=in_quantum_sextic(p, tol),
        uffink=in_uffink_U(p, tol),
        tsirelson=in_tsirelson_T(p, tol),
        no_signaling=in_box_L(p, tol),
    )


# --------------------------------------------------------------------------
# column kernels: each region's vector formula once, on a (4, m) array
# --------------------------------------------------------------------------

class _Columns:
    """A (4, m) batch of points, one coordinate per row.

    The per-point sum S, minimum and maximum are computed at most once and
    shared by the C, T and L kernels.
    """

    def __init__(self, cols: np.ndarray):
        self.cols = cols

    @functools.cached_property
    def total(self) -> np.ndarray:
        c00, c01, c10, c11 = self.cols
        return c00 + c01 + c10 + c11

    @functools.cached_property
    def low(self) -> np.ndarray:
        return self.cols.min(axis=0)

    @functools.cached_property
    def high(self) -> np.ndarray:
        return self.cols.max(axis=0)

    @functools.cached_property
    def chsh_max_abs(self) -> np.ndarray:
        """max_ij |S - 2 c_ij| as max(S - 2 min c, 2 max c - S).

        S - 2c is decreasing in c and rounding is monotone, so the identity
        holds exactly in floating point.
        """
        return np.maximum(self.total - 2.0 * self.low,
                          2.0 * self.high - self.total)


def _quantum_kernel(characterization: QCharacterization,
                    batch: _Columns) -> np.ndarray:
    cols = batch.cols
    if characterization is QCharacterization.ARCSIN:
        arcsin = _Columns(np.arcsin(np.clip(cols, -1.0, 1.0)))
        return math.pi - arcsin.chsh_max_abs
    c00, c01, c10, c11 = cols
    if characterization is QCharacterization.LANDAU:
        lhs = np.abs(c00 * c01 - c10 * c11)
        one = np.clip(1.0 - cols * cols, 0.0, None)
        return np.sqrt(one[0] * one[1]) + np.sqrt(one[2] * one[3]) - lhs
    if characterization is QCharacterization.SEXTIC:
        triple = ((c01 * c10 - c00 * c11) * (c00 * c01 - c10 * c11)
                  * (c00 * c10 - c01 * c11))
        sq = cols * cols
        sum_sq = sq.sum(axis=0)
        prod = c00 * c01 * c10 * c11
        quartic = 0.25 * sum_sq ** 2 - 0.5 * (sq * sq).sum(axis=0) - 2.0 * prod
        margin_a = np.minimum(triple, quartic - triple)
        max_sq = sq.max(axis=0)
        margin_b = 2.0 * max_sq ** 2 - max_sq * sum_sq + 2.0 * prod
        return np.maximum(margin_a, margin_b)
    raise ValueError(f"unknown characterization {characterization!r}")


def _region_kernel(region: RegionId, batch: _Columns,
                   characterization: QCharacterization) -> np.ndarray:
    if region is RegionId.LOCAL_C:
        return 2.0 - batch.chsh_max_abs
    if region is RegionId.TSIRELSON_T:
        return TSIRELSON_BOUND - batch.chsh_max_abs
    if region is RegionId.NO_SIGNALING_L:
        return 1.0 - np.maximum(batch.high, -batch.low)
    if region is RegionId.UFFINK_U:
        c00, c01, c10, c11 = batch.cols
        lhs1 = (c00 + c11) ** 2 + (c01 - c10) ** 2
        lhs2 = (c00 - c11) ** 2 + (c01 + c10) ** 2
        return 4.0 - np.maximum(lhs1, lhs2)
    if region is RegionId.QUANTUM_Q:
        return _quantum_kernel(characterization, batch)
    raise ValueError(f"unknown region {region!r}")


def column_margins(regions: Sequence[RegionId], cols: np.ndarray,
                   characterization: QCharacterization = QCharacterization.ARCSIN
                   ) -> list[np.ndarray]:
    """Signed margins of each of ``regions`` for each column of a (4, m)
    array, with the work the kernels have in common done once."""
    batch = _Columns(cols)
    return [_region_kernel(r, batch, characterization) for r in regions]


def _as_columns(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"expected (n, 4) array, got {pts.shape}")
    return np.ascontiguousarray(pts.T)


def region_margins(region: RegionId, pts: np.ndarray,
                   characterization: QCharacterization = QCharacterization.ARCSIN
                   ) -> np.ndarray:
    """Signed margins of ``region`` for each row of an (n, 4) array."""
    return column_margins([region], _as_columns(pts), characterization)[0]


def quantum_margins(characterization: QCharacterization, pts: np.ndarray) -> np.ndarray:
    """Vectorized quantum margins under one characterization."""
    return _quantum_kernel(characterization, _Columns(_as_columns(pts)))


def region_mask(region: RegionId, pts: np.ndarray, tol: float = DEFAULT_TOLERANCE,
                characterization: QCharacterization = QCharacterization.ARCSIN
                ) -> np.ndarray:
    """Boolean membership mask: margin >= -tol, rowwise."""
    return region_margins(region, pts, characterization) >= -tol
