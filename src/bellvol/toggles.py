"""Toggle distance between correlations and its finite-sample realization.

The distance between two values of one correlation is the minimum number of
local results one party must flip, per repetition of the experiment, to turn
one empirical correlation into the other.  Flipping one of Alice's results
in a run of N experiments moves the correlation by exactly +/-2/N (a matched
pair becomes mismatched or vice versa), so the per-experiment cost of moving
a correlation from p to q is |p - q| / 2, independently of where p sits in
[-1, 1].  That flat cost is what makes plain Lebesgue measure on the
correlation cube the natural one for all the volume comparisons elsewhere
in this package.

No canonical aggregation of the four per-coordinate distances into a single
number is adopted; :class:`ToggleDistance` exposes the vector plus max/sum
conveniences that are labels only.  Both records are NamedTuples checked in
``__new__``, as ``regions``' are.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .regions import (_FIELDS, PointLike, _coords, _is_bool, _is_complex,
                      _items, _real, _Record)


class TargetUnreachable(ValueError):
    """Raised when no toggle set can reach the requested correlation."""


class OutcomeSequence(_Record, NamedTuple("_Outcomes", [
        ("alice", tuple), ("bob", tuple)])):
    """Aligned +/-1 outcome lists for Alice and Bob over N runs: a pair of
    tuples of ints, whose ``len()`` is N, the number of runs."""

    __slots__ = ()

    def __new__(cls, alice, bob):
        alice, bob = _items("alice", alice), _items("bob", bob)
        if len(alice) != len(bob):
            raise ValueError("outcome lists must have equal length")
        if not alice:
            raise ValueError("outcome lists must be nonempty")
        # check the raw values: int() takes 1.5 and True alike for 1, and
        # drops the imaginary part of numpy's complex
        if any(v not in (-1, 1) or type(v) is not int and (
                _is_bool(v) or _is_complex(v)) for v in alice + bob):
            raise ValueError("outcomes must be +1 or -1")
        return tuple.__new__(cls, (tuple(map(int, alice)),
                                   tuple(map(int, bob))))

    def __len__(self) -> int:
        return len(self.alice)

    def __reversed__(self):  # reversed() would trust len() with the items
        return reversed(tuple(self))

    @property
    def correlation(self) -> Fraction:
        """Empirical correlation (matched - mismatched) / N, exact."""
        return Fraction(sum(a * b for a, b in zip(self.alice, self.bob)), len(self))


class ToggleDistance(_Record, NamedTuple("_Distance", [
        ("per_coordinate", tuple)])):
    """Per-coordinate toggle costs |p_ij - q_ij| / 2: four floats, each in
    [0, 1] by ``regions._real``'s contract."""

    __slots__ = ()

    def __new__(cls, per_coordinate):
        costs = _items("per-coordinate costs", per_coordinate)
        if len(costs) != 4:
            raise ValueError(f"expected 4 per-coordinate costs, got {len(costs)}")
        return tuple.__new__(cls, (tuple([
            _real(f"per-coordinate cost '{name}'", v, 0, 1)
            for name, v in zip(_FIELDS, costs)]),))

    @property
    def max_component(self) -> float:
        """Convenience aggregate (not a canonical metric)."""
        return max(self.per_coordinate)

    @property
    def sum_components(self) -> float:
        """Convenience aggregate (not a canonical metric)."""
        return sum(self.per_coordinate)

    def as_dict(self) -> dict:
        return {
            "per_coordinate": dict(zip(_FIELDS, self.per_coordinate)),
            "max": self.max_component,
            "sum": self.sum_components,
        }


def toggle_distance(p: PointLike, q: PointLike) -> ToggleDistance:
    """Coordinatewise toggle cost between two correlation points; ValueError
    for a point outside the point contract of ``regions``."""
    cp, cq = _coords(p), _coords(q)
    return ToggleDistance(tuple(abs(a - b) / 2.0 for a, b in zip(cp, cq)))


class MinToggleResult(NamedTuple):
    count: int
    achieved: Fraction


def min_toggles(seq: OutcomeSequence, target: float) -> MinToggleResult:
    """Fewest Alice-side flips moving the empirical correlation to ``target``.

    Finite N quantizes the reachable correlations to the grid r + 2k/N
    around the empirical value r; an off-grid target snaps to the nearest
    grid point (ties resolved toward fewer toggles).  Flipping a matched
    pair moves the correlation by -2/N, a mismatched pair by +2/N, so the
    minimum count for a reachable value t is N * |t - r| / 2 and the
    achieved correlation is exact.  ``target`` must be a real in [-1, 1] by
    the contract of ``regions._real`` (no bool, though ``True == 1``; an
    integer past the floats is not finite), or :class:`TargetUnreachable`, a
    ValueError, carries ``_real``'s message.  An accepted target, numpy's
    reals included, is read exactly, as the integer or ratio it equals.
    ``seq`` must be an :class:`OutcomeSequence`.
    """
    if not isinstance(seq, OutcomeSequence):
        raise ValueError(f"seq is not an OutcomeSequence: {seq!r}")
    n = len(seq)
    try:
        _real("target", target, -1, 1)
    except ValueError as err:
        raise TargetUnreachable(str(err)) from None
    # Fraction keeps numpy's integer type and refuses numpy's float32:
    # read each real as the Python integer or exact ratio it equals
    try:
        target = Fraction(operator.index(target))
    except TypeError:
        target = Fraction(*target.as_integer_ratio())
    r = seq.correlation
    steps = (target - r) * n / 2          # exact, possibly non-integer
    k = math.ceil(abs(steps) - Fraction(1, 2))   # nearest, ties toward zero
    if steps < 0:
        k = -k
    matched = (n + sum(a * b for a, b in zip(seq.alice, seq.bob))) // 2
    mismatched = n - matched
    # reachable for all targets in [-1, 1]: k in [-matched, +mismatched]
    if not -matched <= k <= mismatched:
        raise TargetUnreachable(
            f"need {k} signed toggles but only {matched} matched /"
            f" {mismatched} mismatched pairs exist")
    achieved = r + Fraction(2 * k, n)
    return MinToggleResult(count=abs(k), achieved=achieved)
