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
All sets are closed; a point is inside iff margin >= -tol, where ``tol`` must
be finite and >= 0 (``check_tolerance``, which returns it as a float, so that
verdicts are Python bools).  Every real argument of the package, a point
field or a tolerance among them, is read by one helper, ``_real``, as every
integer is by ``_index`` and the sequences the polytope and toggle records
take by ``_items``.

Each region's margin is written once, as a kernel on a batch held one
coordinate per row: four floats for the scalar oracles, or a (4, m) array for
the vector entry points.  An op table supplies the few operations spelled
differently (builtins and ``math``, or numpy).  The CHSH quantities, the
sum S, the minimum and maximum coordinate and max_ij |S - 2 c_ij|, are
written once, in ``_chsh``: C, T and L read them from the point's batch,
which computes all four when it is made, and Q's arcsin form is pi minus
the last of them taken on the arcsin of the coordinates, with no second
batch.
One table maps each (``RegionId``, ``QCharacterization`` or None) to its
kernel.  A str enum hashes and compares as its value, so every entry point
that takes a region or characterization key checks it with one helper,
``_member``, which refuses a key that is not an enum member, such as "C" or
"landau", with ``ValueError``.  Reading one region's margin, from the table or from a
profile, takes one rule (``_slot``): only Q has a characterization, and Q
without one is its arcsin form.  A
:class:`MembershipProfile` holds the seven margins of ``PROFILE_ORDER`` and
the tolerance: ``membership_profile`` gives floats for one point, running the
table's seven kernels with no dispatch per margin, ``membership_profiles``
(n,) arrays for the rows of an (n, 4) array, and verdicts and results are
derived from the margins when read.  ``region_margins`` and ``region_mask``
score one region on such an array; the Monte Carlo stream's in-place
verdict kernels, which repeat these kernels, live in :mod:`bellvol.volumes`.
Every entry point refuses a point that is not four finite numbers in
[-1, 1] with ``ValueError``, the message that of ``_coords``, which
``_as_columns`` hands an array's first bad row.

The records, :class:`CorrelationPoint`, :class:`MembershipResult` and
:class:`MembershipProfile`, are NamedTuples, as is every record of the
package but ``estimates.VolumeEstimate``: a tuple of its fields, equal to a
plain tuple of its values, whose fields raise ``AttributeError`` when set.
A record with a contract, a point among them, checks it in ``__new__``,
which ``pickle``, ``copy`` and, through ``_Record``, ``_make`` and
``_replace`` call, so it holds however the record is built.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

#: Absolute tolerance used for boundary comparisons unless overridden.
DEFAULT_TOLERANCE = 1e-12

#: Largest CHSH functional value reachable by quantum states.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: The field names of a point, in coordinate order.
_FIELDS = ("c00", "c01", "c10", "c11")


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


class _Record:
    """``_make``, and so ``_replace``, through ``__new__``, which a NamedTuple's skips."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CorrelationPoint(_Record, NamedTuple("_Point", [(f, float) for f in _FIELDS])):
    """Four product expectations c_ij = <A_i B_j>, each in [-1, 1]: a tuple
    of four floats that holds the point contract (``_coords``) however it
    is built, by the constructor, ``_make``, ``_replace``, ``pickle`` or
    ``copy``."""

    __slots__ = ()

    def __new__(cls, c00: float, c01: float, c10: float, c11: float):
        return tuple.__new__(cls, _coords((c00, c01, c10, c11)))


PointLike = Union[CorrelationPoint, Sequence[float]]


def _coords(p: PointLike) -> tuple[float, float, float, float]:
    """Extract 4 finite coordinates, each in [-1, 1]: the point contract.
    Four floats pass by one chained comparison, which NaN and +-inf fail
    too; any other point is read field by field in order by ``_real``.
    ValueError, not ``tuple``'s TypeError, for a point that cannot be
    iterated, such as ``None`` or a number."""
    try:
        values = tuple(p)
    except TypeError:
        raise ValueError(f"a point must be a sequence of 4 correlations,"
                         f" got {p!r}") from None
    if len(values) != 4:
        raise ValueError(f"expected 4 correlations, got {len(values)}")
    c00, c01, c10, c11 = values
    if (type(c00) is type(c01) is type(c10) is type(c11) is float
            and -1.0 <= c00 <= 1.0 >= c01 >= -1.0 <= c10 <= 1.0 >= c11 >= -1.0):
        return values
    return tuple([_real(f"point field '{name}'", v, -1, 1)
                  for name, v in zip(_FIELDS, values)])


class MembershipResult(NamedTuple):
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
        char = self.characterization
        return _result_record(self.region.value, char and char.value,
                              self.inside, self.margin)


def _result_record(region: str, char: str | None,
                   inside: bool, margin: float) -> dict:
    d = {"region": region, "inside": inside, "margin": margin}
    if char is not None:
        d["characterization"] = char
    return d


# margin kernels: each region's formula once, on floats or on (4, m) arrays

class _Ops(NamedTuple):
    """The operations the kernels spell differently for floats and arrays."""

    maximum: Callable  # elementwise, two arguments
    minimum: Callable
    sqrt: Callable
    low: Callable      # min over the four coordinates
    high: Callable     # max over the four coordinates
    arcsin: Callable   # arcsin of the four coordinates


_SCALAR_OPS = _Ops(max, min, math.sqrt, min, max,
                   lambda c: tuple(map(math.asin, c)))


@functools.cache
def _array_ops() -> _Ops:
    """The numpy op table, built on first use: the scalar oracles, and so
    the commands that need no arrays, never load numpy."""
    import numpy as np

    return _Ops(np.maximum, np.minimum, np.sqrt,
                lambda c: np.min(c, axis=0), lambda c: np.max(c, axis=0),
                np.arcsin)


def _chsh(ops: _Ops, cols):
    """The CHSH quantities of a batch's columns ``cols``: the sum S, the
    minimum and the maximum over the four coordinates, and
    max_ij |S - 2 c_ij| as max(S - 2 min c, 2 max c - S), exact in floating
    point, as S - 2c is decreasing in c and rounding monotone."""
    c00, c01, c10, c11 = cols
    total, low, high = c00 + c01 + c10 + c11, ops.low(cols), ops.high(cols)
    return total, low, high, ops.maximum(total - 2.0 * low, 2.0 * high - total)


class _Columns:
    """A batch of points, one coordinate per row: a 4-tuple of floats (one
    point) or a (4, m) array (one point per column), with its op table and
    the four quantities of ``_chsh`` that the C, T and L kernels share:
    ``total``, ``low``, ``high`` and ``chsh_max_abs``, computed once when
    the batch is made."""

    def __init__(self, cols, ops: _Ops):
        self.cols, self.ops = cols, ops
        self.total, self.low, self.high, self.chsh_max_abs = _chsh(ops, cols)


def _arcsin(batch: _Columns):
    ops = batch.ops
    return math.pi - _chsh(ops, ops.arcsin(batch.cols))[3]


def _landau(batch: _Columns):
    c00, c01, c10, c11 = batch.cols
    sqrt = batch.ops.sqrt
    lhs = abs(c00 * c01 - c10 * c11)
    # |c| <= 1, so c * c rounds to at most 1 and each factor is >= +0.0
    return (sqrt((1.0 - c00 * c00) * (1.0 - c01 * c01))
            + sqrt((1.0 - c10 * c10) * (1.0 - c11 * c11)) - lhs)


def _sextic(batch: _Columns):
    ops = batch.ops
    c00, c01, c10, c11 = batch.cols
    triple = ((c01 * c10 - c00 * c11) * (c00 * c01 - c10 * c11)
              * (c00 * c10 - c01 * c11))
    s00, s01, s10, s11 = c00 * c00, c01 * c01, c10 * c10, c11 * c11
    sum_sq = s00 + s01 + s10 + s11
    sum_q = s00 * s00 + s01 * s01 + s10 * s10 + s11 * s11
    prod = c00 * c01 * c10 * c11
    quartic = 0.25 * sum_sq * sum_sq - 0.5 * sum_q - 2.0 * prod
    margin_a = ops.minimum(triple, quartic - triple)
    max_sq = ops.high((s00, s01, s10, s11))
    margin_b = 2.0 * max_sq * max_sq - max_sq * sum_sq + 2.0 * prod
    return ops.maximum(margin_a, margin_b)


def _uffink(batch: _Columns):
    c00, c01, c10, c11 = batch.cols
    lhs1 = (c00 + c11) ** 2 + (c01 - c10) ** 2
    lhs2 = (c00 - c11) ** 2 + (c01 + c10) ** 2
    return 4.0 - batch.ops.maximum(lhs1, lhs2)


#: The margin kernel of each (region, characterization), in profile order.
_KERNELS = {
    (RegionId.LOCAL_C, None): lambda batch: 2.0 - batch.chsh_max_abs,
    (RegionId.QUANTUM_Q, QCharacterization.ARCSIN): _arcsin,
    (RegionId.QUANTUM_Q, QCharacterization.LANDAU): _landau,
    (RegionId.QUANTUM_Q, QCharacterization.SEXTIC): _sextic,
    (RegionId.UFFINK_U, None): _uffink,
    (RegionId.TSIRELSON_T, None): lambda batch: TSIRELSON_BOUND - batch.chsh_max_abs,
    (RegionId.NO_SIGNALING_L, None):
        lambda batch: 1.0 - batch.ops.maximum(batch.high, -batch.low),
}

#: The seven margins of a profile, in order: the five regions, Q under
#: each of its three characterizations after C.
PROFILE_ORDER = tuple(_KERNELS)
_PROFILE_KERNELS = tuple(_KERNELS.values())

# the slot of each (region, characterization) in PROFILE_ORDER; Q alone
# reads as its arcsin form, slot 1
_SLOTS = {**{key: k for k, key in enumerate(PROFILE_ORDER)},
          (RegionId.QUANTUM_Q, None): 1}


def _member(kind: type[Enum], key):
    """``key`` if it is a member of ``kind``, ``RegionId`` or
    ``QCharacterization``; ValueError (``unknown region 'C'``) otherwise.
    A str equal to a member is refused too, though a str enum hashes and
    compares as its value: the one check of every region or
    characterization key."""
    if type(key) is not kind:
        noun = "region" if kind is RegionId else "characterization"
        raise ValueError(f"unknown {noun} {key!r}")
    return key


def _slot(region: RegionId, char: QCharacterization | None = None) -> int:
    """The index in ``PROFILE_ORDER`` of ``region`` under ``char``: the key
    rule of every entry point that reads one region's margin.  ``region``
    and a ``char`` that is not None pass ``_member``; only Q takes a
    characterization, and Q without one is its arcsin form.  ValueError
    otherwise."""
    _member(RegionId, region)
    if char is not None:
        _member(QCharacterization, char)
    k = _SLOTS.get((region, char))
    if k is None:
        raise ValueError(f"no profile entry for {region!r} under {char!r}")
    return k


def _kernel(region: RegionId, char: QCharacterization | None = None) -> Callable:
    """The kernel of ``region`` under ``char``, by the key rule of ``_slot``."""
    return _PROFILE_KERNELS[_slot(region, char)]


def _is_bool(value) -> bool:
    """A Python or numpy bool: no number by any contract, though True == 1."""
    np = sys.modules.get("numpy")  # a numpy bool needs numpy loaded
    return isinstance(value, (bool, np.bool_) if np else bool)


def _is_complex(value) -> bool:
    """A complex number that is no real one, such as ``1j`` or numpy's
    ``complex128(1)``, whose imaginary part ``float()`` and ``int()`` drop."""
    import numbers
    return (isinstance(value, numbers.Complex)
            and not isinstance(value, numbers.Real))


def _real(name: str, value, low: float, high: float) -> float:
    """``value`` as a float in [low, high]: the contract of every real
    argument.  A float is taken as it is; any other value must convert by
    ``float()`` and be neither text, a bool nor complex, and an integer or
    fraction past the floats reads as +-inf.  ValueError naming ``name`` for
    a value that is not a number, not finite or outside [low, high], in
    that order."""
    if type(value) is not float:
        try:
            # float() parses text, True == 1 and numpy's complex is real
            if (isinstance(value, (str, bytes, bytearray)) or _is_bool(value)
                    or _is_complex(value)):
                raise TypeError
            value = float(value)
        except OverflowError:  # an integer or fraction past the floats
            value = math.inf if value > 0 else -math.inf
        except (TypeError, ValueError):
            raise ValueError(f"{name} is not a number: {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite: {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} is outside [{low}, {high}]: {value!r}")
    return value


def check_tolerance(tol: float) -> float:
    """``tol`` as a float by ``_real``'s contract, finite and >= 0.  A float
    in [0, inf) passes by one test; any other value is read in full, so
    verdicts are Python bools."""
    if type(tol) is float and 0.0 <= tol < math.inf:
        return tol
    return _real("tolerance", tol, 0, math.inf)


def _index(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` in [low, high), or >= low when ``high`` is
    None: the contract of every count, seed and setting index.  Python and
    numpy integers pass; a bool, a float or a value out of range raises
    ValueError naming ``name``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low or (high is not None and value >= high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def _items(name: str, value) -> tuple:
    """``value`` as a tuple; ValueError, not ``tuple``'s TypeError, for
    a value that cannot be iterated, such as ``None`` or a number."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None


# scalar oracles: one point as a batch of four floats

def _point(p: PointLike) -> _Columns:
    return _Columns(_coords(p), _SCALAR_OPS)


def _result(region: RegionId, p: PointLike, tol: float,
            char: QCharacterization | None = None) -> MembershipResult:
    """One oracle call: the tolerance checked, the point scored."""
    tol = check_tolerance(tol)
    margin = _kernel(region, char)(_point(p))
    return MembershipResult(region, margin >= -tol, margin, char, tol)


def chsh_value(p: PointLike, i: int, j: int) -> float:
    """CHSH functional S - 2*c_ij with S = c00 + c01 + c10 + c11."""
    i, j = _index("setting i", i, 0, 2), _index("setting j", j, 0, 2)
    batch = _point(p)
    return batch.total - 2.0 * batch.cols[2 * i + j]


def in_local(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """All eight CHSH inequalities |S - 2 c_ij| <= 2."""
    return _result(RegionId.LOCAL_C, p, tol)


def in_box_L(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """The cube |c_ij| <= 1."""
    return _result(RegionId.NO_SIGNALING_L, p, tol)


def in_tsirelson_T(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """The eight linear inequalities |S - 2 c_ij| <= 2*sqrt(2)."""
    return _result(RegionId.TSIRELSON_T, p, tol)


def in_uffink_U(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """The two quadratic inequalities (c00 +/- c11)^2 + (c01 -/+ c10)^2 <= 4."""
    return _result(RegionId.UFFINK_U, p, tol)


def in_quantum_arcsin(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """Quantum set via |sum_kl arcsin(c_kl) - 2 arcsin(c_ij)| <= pi for all ij.

    This is the canonical quantum oracle of the package; the margin is
    reported in radians.
    """
    return _result(RegionId.QUANTUM_Q, p, tol, QCharacterization.ARCSIN)


def in_quantum_landau(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipResult:
    """Quantum set via the single product-vs-geometric-mean inequality.

    |c00*c01 - c10*c11| <= sqrt(1-c00^2)sqrt(1-c01^2) + sqrt(1-c10^2)sqrt(1-c11^2)
    """
    return _result(RegionId.QUANTUM_Q, p, tol, QCharacterization.LANDAU)


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
    return _result(RegionId.QUANTUM_Q, p, tol, QCharacterization.SEXTIC)


class MembershipProfile(NamedTuple):
    """Every oracle on one point or a batch: the seven ``margins`` in
    ``PROFILE_ORDER`` (floats, or (n,) arrays for the rows of a batch) and
    the ``tolerance``.  Verdicts and results are derived when read."""

    margins: tuple
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def inside(self) -> tuple:
        """The seven verdicts, margin >= -tolerance, in ``PROFILE_ORDER``."""
        return tuple(m >= -self.tolerance for m in self.margins)

    def result(self, region: RegionId,
               characterization: QCharacterization | None = None
               ) -> MembershipResult:
        """The result of one oracle, by the key rule of ``_slot``: Q without
        a characterization is the arcsin form, and a key that is not an
        enum member, a str equal to one included, is refused."""
        k = _slot(region, characterization)
        region, char = PROFILE_ORDER[k]
        margin = self.margins[k]
        return MembershipResult(region, margin >= -self.tolerance, margin,
                                char, self.tolerance)

    def regions(self) -> dict[RegionId, MembershipResult]:
        """One result per region; the quantum entry is the arcsin verdict."""
        return {region: self.result(region) for region in REGION_CHAIN}

    def quantum(self) -> dict[QCharacterization, MembershipResult]:
        return {char: self.result(RegionId.QUANTUM_Q, char)
                for char in QCharacterization}

    def as_dict(self) -> dict:
        return profile_record(zip(self.inside, self.margins))


def profile_record(verdicts) -> dict:
    """The JSON record of one membership profile, built from its seven
    (inside, margin) pairs in ``PROFILE_ORDER``: one entry per region, the
    quantum entry holding one per characterization."""
    local, arcsin, landau, sextic, uffink, tsirelson, box = [
        _result_record(region.value, char and char.value, inside, margin)
        for (region, char), (inside, margin) in zip(PROFILE_ORDER, verdicts)]
    return {"C": local, "Q": {"arcsin": arcsin, "landau": landau,
                              "sextic": sextic},
            "U": uffink, "T": tsirelson, "L": box}


def _profile(batch: _Columns, tol: float) -> MembershipProfile:
    tol = check_tolerance(tol)
    return MembershipProfile(tuple([kernel(batch) for kernel in _PROFILE_KERNELS]), tol)


def membership_profile(p: PointLike, tol: float = DEFAULT_TOLERANCE) -> MembershipProfile:
    """Evaluate every oracle on one point."""
    return _profile(_point(p), tol)


# vector entry points: (4, m) columns or the rows of an (n, 4) array

def _as_columns(pts) -> np.ndarray:
    """The rows of an (n, 4) array of points as (4, n) columns; ValueError
    for another shape, a bool or text, or a row outside the point contract.

    An integer or float ndarray is cast whole and tested by |c| <= 1, which
    NaN and +-inf fail too.  Anything else, a nested list or an object
    array, is read row by row by ``_coords``, as numpy's cast would read
    True as 1 and parse text."""
    import numpy as np

    if not isinstance(pts, np.ndarray) or pts.dtype == object:
        pts = np.asarray(pts, dtype=object)
        if pts.ndim == 2 and pts.shape[1] == 4:
            pts = np.array([_coords(row) for row in pts]).reshape(-1, 4)
    elif pts.dtype.kind not in "fiu":
        raise ValueError(f"points must be real numbers, got {pts.dtype}")
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"expected (n, 4) array, got {pts.shape}")
    pts = pts.astype(np.float64, copy=False)
    within = (np.abs(pts) <= 1.0).all(axis=1)
    if not within.all():
        _coords(pts[within.argmin()])  # raises for its first bad field
    return np.ascontiguousarray(pts.T)


def membership_profiles(pts: np.ndarray,
                        tol: float = DEFAULT_TOLERANCE) -> MembershipProfile:
    """Every oracle on each row of an (n, 4) array: the profile of
    :func:`membership_profile` with (n,) arrays for margins, from the same
    kernels."""
    return _profile(_Columns(_as_columns(pts), _array_ops()), tol)


def region_margins(region: RegionId, pts: np.ndarray,
                   characterization: QCharacterization | None = None
                   ) -> np.ndarray:
    """Signed margins of ``region`` for each row of an (n, 4) array, the
    key read by ``_slot``'s rule, as ``MembershipProfile.result`` reads it."""
    batch = _Columns(_as_columns(pts), _array_ops())
    return _kernel(region, characterization)(batch)


def region_mask(region: RegionId, pts: np.ndarray, tol: float = DEFAULT_TOLERANCE,
                characterization: QCharacterization | None = None
                ) -> np.ndarray:
    """Boolean membership mask: margin >= -tol, rowwise."""
    tol = check_tolerance(tol)
    return region_margins(region, pts, characterization) >= -tol
