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
conveniences that are labels only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .regions import PointLike, _coords


class TargetUnreachable(ValueError):
    """Raised when no toggle set can reach the requested correlation."""


@dataclass(frozen=True)
class OutcomeSequence:
    """Aligned +/-1 outcome lists for Alice and Bob over N runs."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self):
        alice, bob = tuple(self.alice), tuple(self.bob)
        if len(alice) != len(bob):
            raise ValueError("outcome lists must have equal length")
        if not alice:
            raise ValueError("outcome lists must be nonempty")
        # check the raw values: int() would truncate 1.5 to an accepted 1
        if any(v not in (-1, 1) for v in alice + bob):
            raise ValueError("outcomes must be +1 or -1")
        object.__setattr__(self, "alice", tuple(int(a) for a in alice))
        object.__setattr__(self, "bob", tuple(int(b) for b in bob))

    def __len__(self) -> int:
        return len(self.alice)

    @property
    def correlation(self) -> Fraction:
        """Empirical correlation (matched - mismatched) / N, exact."""
        return Fraction(sum(a * b for a, b in zip(self.alice, self.bob)), len(self))


@dataclass(frozen=True)
class ToggleDistance:
    """Per-coordinate toggle costs |p_ij - q_ij| / 2, each in [0, 1]."""

    per_coordinate: tuple[float, float, float, float]

    def __post_init__(self):
        for v in self.per_coordinate:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"per-coordinate cost {v!r} outside [0, 1]")

    @property
    def max_component(self) -> float:
        """Convenience aggregate (not a canonical metric)."""
        return max(self.per_coordinate)

    @property
    def sum_components(self) -> float:
        """Convenience aggregate (not a canonical metric)."""
        return sum(self.per_coordinate)

    def as_dict(self) -> dict:
        keys = ("c00", "c01", "c10", "c11")
        return {
            "per_coordinate": dict(zip(keys, self.per_coordinate)),
            "max": self.max_component,
            "sum": self.sum_components,
        }


def toggle_distance(p: PointLike, q: PointLike) -> ToggleDistance:
    """Coordinatewise toggle cost between two correlation points."""
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
    achieved correlation is exact.  A target that is not finite or lies
    outside [-1, 1] raises :class:`TargetUnreachable`.
    """
    n = len(seq)
    if not isinstance(target, Fraction):
        if not math.isfinite(target):
            raise TargetUnreachable(f"target {target!r} is not finite")
        target = Fraction(target)
    if not -1 <= target <= 1:
        raise TargetUnreachable(f"target {target} outside [-1, 1]")
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
