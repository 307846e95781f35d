import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellvol.regions import RegionId
from bellvol.toggles import (
    MinToggleResult,
    OutcomeSequence,
    TargetUnreachable,
    ToggleDistance,
    min_toggles,
    toggle_distance,
)
from bellvol.volumes import EstimatorConfig, ratio_estimate


def sequence_with_correlation(n, matched, seed=None):
    """A length-n sequence with exactly ``matched`` agreeing pairs."""
    alice = [1] * n
    bob = [1] * matched + [-1] * (n - matched)
    return OutcomeSequence(alice=tuple(alice), bob=tuple(bob))


class TestToggleDistance:
    def test_uncorrelated_to_half(self):
        d = toggle_distance((0, 0, 0, 0), (0.5, 0, 0, 0))
        assert d.per_coordinate[0] == pytest.approx(0.25)

    def test_seven_tenths_down_to_one_tenth(self):
        d = toggle_distance((0.7, 0, 0, 0), (0.1, 0, 0, 0))
        assert d.per_coordinate[0] == pytest.approx(0.3)

    def test_identical_points(self):
        d = toggle_distance((0.3, -0.2, 0.9, -1), (0.3, -0.2, 0.9, -1))
        assert d.per_coordinate == (0, 0, 0, 0)

    def test_aggregates_are_conveniences(self):
        d = toggle_distance((1, -1, 0, 0), (-1, 1, 0, 0))
        assert d.per_coordinate == (1.0, 1.0, 0.0, 0.0)
        assert d.max_component == 1.0
        assert d.sum_components == 2.0
        as_dict = d.as_dict()
        assert as_dict["per_coordinate"]["c01"] == 1.0

    @pytest.mark.parametrize("p,q", [
        ((1.5, 0, 0, 0), (1.5, 0, 0, 0)),
        ((2, 0, 0, 0), (-2, 0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 0, -1.01))])
    def test_points_outside_the_cube_are_rejected(self, p, q):
        with pytest.raises(ValueError, match="outside \\[-1, 1\\]: "):
            toggle_distance(p, q)

    def test_components_bounded(self):
        with pytest.raises(ValueError):
            ToggleDistance((1.5, 0, 0, 0))

    @pytest.mark.parametrize("bad", [True, np.True_, "a", None],
                             ids=["True", "np.True_", "text", "None"])
    def test_a_cost_that_is_no_number_is_refused(self, bad):
        with pytest.raises(ValueError) as err:
            ToggleDistance((0.0, 0.0, bad, 0.0))
        assert str(err.value) == f"per-coordinate cost 'c10' is not a number: {bad!r}"

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_costs_are_exactly_four(self, count):
        with pytest.raises(ValueError) as err:
            ToggleDistance((0.0,) * count)
        assert str(err.value) == f"expected 4 per-coordinate costs, got {count}"

    @pytest.mark.parametrize("bad", [None, 5, 0.5], ids=repr)
    def test_costs_that_are_no_sequence_are_refused(self, bad):
        with pytest.raises(ValueError) as err:
            ToggleDistance(bad)
        assert str(err.value) == (
            f"per-coordinate costs must be a sequence, got {bad!r}")

    def test_costs_are_stored_as_floats(self):
        d = ToggleDistance((1, np.float32(0.5), Fraction(1, 4), 0))
        assert d.per_coordinate == (1.0, 0.5, 0.25, 0.0)
        assert [type(v) for v in d.per_coordinate] == [float] * 4


class TestOutcomeSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomeSequence(alice=(1, -1), bob=(1,))
        with pytest.raises(ValueError):
            OutcomeSequence(alice=(1, 2), bob=(1, 1))
        with pytest.raises(ValueError):
            OutcomeSequence(alice=(), bob=())

    @pytest.mark.parametrize("alice, bob", [
        ((1.5, -1.9), (1, 1)),      # int() would truncate to (1, -1)
        ((1, -1), (0.999, -1)),
        ((1, -1), (1, -1.0000001)),
        # True == 1, but a bool is no outcome
        ((True, 1.0, -1), (1, -1.0, -1)),
        ((1, -1), (1, np.True_)),
        # 1 + 0j == 1, but a complex is no outcome; int() of numpy's drops
        # its imaginary part
        ((1 + 0j, -1), (1, 1)),
        ((np.complex128(1), -1), (1, 1)),
        ((1, -1), (1, np.complex64(-1))),
    ])
    def test_rejects_non_integer_outcomes(self, alice, bob):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            OutcomeSequence(alice=alice, bob=bob)

    @pytest.mark.parametrize("alice, bob, name", [
        (None, None, "alice"), (5, 5, "alice"), ((1, -1), None, "bob"),
        ((1, -1), 1.0, "bob")], ids=["None", "int", "bob-None", "bob-float"])
    def test_outcomes_that_are_no_sequence_are_refused(self, alice, bob,
                                                       name):
        with pytest.raises(ValueError) as err:
            OutcomeSequence(alice, bob)
        bad = {"alice": alice, "bob": bob}[name]
        assert str(err.value) == f"{name} must be a sequence, got {bad!r}"

    def test_len_is_the_number_of_runs(self):
        seq = OutcomeSequence(alice=(1, -1, 1), bob=(1, 1, 1))
        assert len(seq) == 3 and tuple(seq) == ((1, -1, 1), (1, 1, 1))
        assert seq == ((1, -1, 1), (1, 1, 1))
        assert tuple(reversed(seq)) == ((1, 1, 1), (1, -1, 1))

    def test_integral_floats_become_ints(self):
        seq = OutcomeSequence(alice=(1.0, -1.0), bob=(1, -1))
        assert seq.alice == (1, -1) and type(seq.alice[0]) is int

    def test_correlation_is_exact(self):
        seq = OutcomeSequence(alice=(1, 1, -1, -1), bob=(1, -1, -1, 1))
        assert seq.correlation == Fraction(0)
        seq = OutcomeSequence(alice=(1, 1, 1), bob=(1, 1, -1))
        assert seq.correlation == Fraction(1, 3)


class TestMinToggles:
    def test_million_runs_quarter_per_experiment(self):
        seq = sequence_with_correlation(1_000_000, 500_000)
        assert seq.correlation == 0
        res = min_toggles(seq, 0.5)
        assert res.count == 250_000
        assert res.achieved == Fraction(1, 2)

    def test_already_at_target(self):
        seq = sequence_with_correlation(10, 10)
        assert seq.correlation == 1
        assert min_toggles(seq, 1) == MinToggleResult(0, Fraction(1))

    def test_four_runs_to_perfect_correlation(self):
        seq = sequence_with_correlation(4, 2)
        res = min_toggles(seq, 1)
        assert res.count == 2 and res.achieved == 1

    def test_downward_move(self):
        seq = sequence_with_correlation(10, 10)
        res = min_toggles(seq, -1)
        assert res.count == 10 and res.achieved == -1

    def test_snapping_to_grid(self):
        seq = sequence_with_correlation(4, 2)   # r = 0, grid step 1/2
        res = min_toggles(seq, 0.3)
        assert res.achieved == Fraction(1, 2) and res.count == 1
        res = min_toggles(seq, 0.2)
        assert res.achieved == Fraction(0) and res.count == 0

    def test_tie_prefers_fewer_toggles(self):
        seq = sequence_with_correlation(4, 2)   # reachable: -1, -1/2, 0, 1/2, 1
        res = min_toggles(seq, 0.25)            # tie between 0 and 1/2
        assert res.count == 0 and res.achieved == 0

    @pytest.mark.parametrize("seq", [None, ([1], [1]), "ab"],
                             ids=["None", "pair", "text"])
    def test_a_sequence_that_is_no_outcome_sequence_is_refused(self, seq):
        with pytest.raises(ValueError) as err:
            min_toggles(seq, 0.5)
        assert not isinstance(err.value, TargetUnreachable)
        assert str(err.value) == f"seq is not an OutcomeSequence: {seq!r}"

    def test_target_out_of_range(self):
        with pytest.raises(TargetUnreachable):
            min_toggles(sequence_with_correlation(4, 2), 1.5)

    @pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
    def test_non_finite_target_is_unreachable(self, target):
        with pytest.raises(TargetUnreachable, match="not finite"):
            min_toggles(sequence_with_correlation(4, 2), target)

    @pytest.mark.parametrize("target", [
        True, False, np.True_, np.False_, "0.5", b"1", None, 1j, object()])
    def test_non_number_target_is_refused(self, target):
        # True == 1, yet a bool is no target, as it is no outcome or point
        with pytest.raises(TargetUnreachable, match="is not a number"):
            min_toggles(sequence_with_correlation(4, 2), target)

    @pytest.mark.parametrize("target, count, achieved", [
        (np.float32(0.5), 1, Fraction(1, 2)),
        (np.float16(-0.25), 0, Fraction(0)),
        (np.longdouble(0.3), 1, Fraction(1, 2)),
        (np.int64(1), 2, Fraction(1)),
        (np.uint8(1), 2, Fraction(1)),
        (np.int32(-1), 2, Fraction(-1)),
    ])
    def test_numpy_reals_are_read_as_python_numbers(self, target, count,
                                                    achieved):
        res = min_toggles(sequence_with_correlation(4, 2), target)
        assert res == (count, achieved)
        assert type(res.count) is int
        assert type(res.achieved.numerator) is int
        assert type(res.achieved.denominator) is int

    def test_huge_integer_target_is_not_finite(self):
        # read as +-inf, as a point field past the floats is
        for target, read in ((10 ** 400, "inf"), (-10 ** 400, "-inf")):
            with pytest.raises(TargetUnreachable) as err:
                min_toggles(sequence_with_correlation(4, 2), target)
            assert str(err.value) == f"target is not finite: {read}"


outcomes = st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=12)


@st.composite
def sequences_and_targets(draw):
    alice = draw(outcomes)
    bob = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(alice),
                        max_size=len(alice)))
    # grid fractions hit the ties between two reachable values
    target = draw(st.one_of(
        st.floats(-1, 1),
        st.integers(-4 * len(alice), 4 * len(alice)).map(
            lambda k, n=len(alice): Fraction(k, 4 * n))))
    return OutcomeSequence(alice=tuple(alice), bob=tuple(bob)), target


@given(sequences_and_targets())
def test_min_toggles_matches_search_over_every_signed_count(case):
    """Nearest reachable correlation r + 2k/N, ties to the smaller |k|."""
    seq, target = case
    n = len(seq)
    r = seq.correlation
    matched = sum(a == b for a, b in zip(seq.alice, seq.bob))
    k = min(range(-matched, n - matched + 1),
            key=lambda k: (abs(r + Fraction(2 * k, n) - Fraction(target)),
                           abs(k)))
    assert min_toggles(seq, target) == (abs(k), r + Fraction(2 * k, n))


def exhaustive_minimum(seq: OutcomeSequence, target: float):
    """Brute force over all 2^N toggle subsets of Alice's outcomes."""
    n = len(seq)
    products = np.array([a * b for a, b in zip(seq.alice, seq.bob)], dtype=np.int64)
    masks = np.arange(2 ** n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int64)
    # toggling index i flips the product p_i
    achieved = (products.sum() - 2 * bits @ products) / n
    counts = bits.sum(axis=1)
    error = np.abs(achieved - float(target))
    best = error.min()
    eligible = error <= best + 1e-15
    k = counts[eligible].min()
    values = {Fraction(int(products.sum() - 2 * int(bits[i] @ products)), n)
              for i in np.where(eligible)[0] if counts[i] == k}
    return int(k), values


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            alice = tuple(int(v) for v in rng.choice((-1, 1), size=n))
            bob = tuple(int(v) for v in rng.choice((-1, 1), size=n))
            seq = OutcomeSequence(alice=alice, bob=bob)
            for target in (-1.0, -0.6, 0.0, 0.37, 0.5, 1.0,
                           float(rng.uniform(-1, 1))):
                greedy = min_toggles(seq, target)
                count, achieved_set = exhaustive_minimum(seq, target)
                assert greedy.count == count, (alice, bob, target)
                assert greedy.achieved in achieved_set


class TestMetricAxioms:
    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = tuple(rng.uniform(-1, 1, size=4))
            q = tuple(rng.uniform(-1, 1, size=4))
            assert toggle_distance(p, q).per_coordinate \
                == toggle_distance(q, p).per_coordinate
            assert toggle_distance(p, p).per_coordinate == (0, 0, 0, 0)
            if p != q:
                assert toggle_distance(p, q).max_component > 0

    def test_triangle_inequality_per_coordinate(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p, q, r = (tuple(rng.uniform(-1, 1, size=4)) for _ in range(3))
            dpq = toggle_distance(p, q).per_coordinate
            dqr = toggle_distance(q, r).per_coordinate
            dpr = toggle_distance(p, r).per_coordinate
            for a, b, c in zip(dpr, dpq, dqr):
                assert a <= b + c + 1e-15


def test_flat_measure_links_hit_rates_to_volume_ratios():
    # the toggle cost |dc|/2 is position-independent, so uniform sampling is
    # the matching measure and hit-rate ratios estimate volume ratios
    est = ratio_estimate(RegionId.LOCAL_C, RegionId.NO_SIGNALING_L,
                         EstimatorConfig(sample_count=200_000, seed=21))
    assert abs(est.value - 2.0 / 3.0) < 5.0 * est.std_error
