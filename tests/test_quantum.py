import math

import numpy as np
import pytest

from bellvol.quantum import (
    X_DIR,
    Y_DIR,
    Z_DIR,
    BlochDirection,
    MeasurementSettings,
    TwoQubitState,
    chsh_optimal_settings,
    correlation_expectation,
    correlation_point,
    random_direction,
    random_pure_state,
    sample_quantum_points,
    singlet,
    spin_observable,
)
from bellvol.regions import (
    TSIRELSON_BOUND,
    QCharacterization,
    chsh_value,
    in_local,
    in_quantum_arcsin,
    region_margins,
    RegionId,
)

SQRT2 = math.sqrt(2.0)


def rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))


class TestTypes:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            BlochDirection(1.0, 1.0, 0.0)

    def test_normalized_factory(self):
        d = BlochDirection.normalized(3.0, 4.0, 0.0)
        assert (d.x, d.y) == pytest.approx((0.6, 0.8))

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            BlochDirection.normalized(0.0, 0.0, 0.0)

    def test_direction_must_be_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            BlochDirection(math.nan, 0.0, 0.0)

    def test_normalized_rejects_infinite_components(self):
        with pytest.raises(ValueError, match="not finite"):
            BlochDirection.normalized(math.inf, 0.0, 0.0)

    def test_state_must_be_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            TwoQubitState(rho)

    def test_state_must_have_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitState(np.eye(4, dtype=complex))

    def test_state_must_be_psd(self):
        rho = np.diag([0.75, 0.75, 0.0, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            TwoQubitState(rho)

    def test_state_entries_must_be_finite(self):
        # numpy's LinAlgError is a ValueError too, so pin the message
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            TwoQubitState(rho)

    def test_pure_state_vector_must_be_nonzero(self):
        with pytest.raises(ValueError, match="nonzero norm"):
            TwoQubitState.pure(np.zeros(4))

    def test_spin_observable_is_involutive(self):
        for d in (X_DIR, Y_DIR, Z_DIR, random_direction(rng(1))):
            op = spin_observable(d)
            assert np.allclose(op @ op, np.eye(2), atol=1e-12)


class TestSinglet:
    def test_trace_and_purity(self):
        rho = singlet().rho
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation_along_equal_axes(self):
        s = singlet()
        assert correlation_expectation(s, Z_DIR, Z_DIR) == pytest.approx(-1.0)
        for seed in range(5):
            d = random_direction(rng(seed))
            assert correlation_expectation(s, d, d) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_axes_uncorrelated(self):
        assert correlation_expectation(singlet(), X_DIR, Y_DIR) \
            == pytest.approx(0.0, abs=1e-12)

    def test_singlet_law(self):
        s = singlet()
        g = rng(2)
        for _ in range(20):
            a, b = random_direction(g), random_direction(g)
            dot = a.x * b.x + a.y * b.y + a.z * b.z
            assert correlation_expectation(s, a, b) \
                == pytest.approx(-dot, abs=1e-12)

    def test_tilted_axis_value(self):
        b = BlochDirection.normalized(1.0, 0.0, 1.0)  # (z + x)/sqrt2
        assert correlation_expectation(singlet(), Z_DIR, b) \
            == pytest.approx(-1.0 / SQRT2, abs=1e-12)


class TestProductState:
    def test_aligned_product_state(self):
        e0 = np.array([1.0, 0.0])
        state = TwoQubitState.pure(np.kron(e0, e0))
        assert correlation_expectation(state, Z_DIR, Z_DIR) == pytest.approx(1.0)


class TestOptimalSettings:
    def test_correlation_point(self):
        pt = correlation_point(singlet(), chsh_optimal_settings())
        expected = (1 / SQRT2, 1 / SQRT2, 1 / SQRT2, -1 / SQRT2)
        assert pt.as_tuple() == pytest.approx(expected, abs=1e-12)

    def test_chsh_reaches_the_quantum_maximum(self):
        pt = correlation_point(singlet(), chsh_optimal_settings())
        assert chsh_value(pt, 1, 1) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_point_sits_on_the_quantum_boundary(self):
        pt = correlation_point(singlet(), chsh_optimal_settings())
        assert abs(in_quantum_arcsin(pt).margin) <= 1e-9


class TestSampling:
    def test_single_point_is_valid(self):
        (pt,) = sample_quantum_points(1, rng(3))
        assert in_quantum_arcsin(pt).inside

    def test_bulk_points_inside_quantum_set(self):
        pts = sample_quantum_points(20_000, rng(4))
        margins = region_margins(RegionId.QUANTUM_Q, pts,
                                 QCharacterization.ARCSIN)
        assert margins.min() >= -1e-9

    def test_no_sample_beats_the_linear_bound(self):
        pts = sample_quantum_points(20_000, rng(5))
        chsh_max = TSIRELSON_BOUND - region_margins(RegionId.TSIRELSON_T, pts)
        assert chsh_max.max() <= TSIRELSON_BOUND + 1e-9

    def test_some_samples_violate_the_local_bound(self):
        pts = sample_quantum_points(20_000, rng(6))
        fraction = (region_margins(RegionId.LOCAL_C, pts) < 0).mean()
        assert fraction > 0.0

    def test_batching_does_not_change_the_stream(self):
        a = sample_quantum_points(500, rng(7))
        gen = rng(7)
        b = np.concatenate([sample_quantum_points(123, gen),
                            sample_quantum_points(377, gen)])
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_quantum_points(0, rng(8))

    @pytest.mark.parametrize("n", [2.5, True, 3.0])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="integer"):
            sample_quantum_points(n, rng(8))

    def test_accepts_numpy_integer_n(self):
        assert np.array_equal(sample_quantum_points(np.int64(3), rng(9)),
                              sample_quantum_points(3, rng(9)))


class TestMixing:
    def test_correlations_are_linear_in_the_state(self):
        g = rng(9)
        s1, s2 = random_pure_state(g), random_pure_state(g)
        settings = MeasurementSettings(random_direction(g), random_direction(g),
                                       random_direction(g), random_direction(g))
        p1 = correlation_point(s1, settings).as_tuple()
        p2 = correlation_point(s2, settings).as_tuple()
        for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = s1.mixed_with(s2, lam)
            got = correlation_point(mix, settings).as_tuple()
            want = tuple(lam * a + (1 - lam) * b for a, b in zip(p1, p2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_mixing_weight_validated(self):
        g = rng(10)
        with pytest.raises(ValueError):
            random_pure_state(g).mixed_with(random_pure_state(g), 1.5)


def _su2(axis: np.ndarray, angle: float) -> np.ndarray:
    n = axis / np.linalg.norm(axis)
    sigma = (n[0] * np.array([[0, 1], [1, 0]], complex)
             + n[1] * np.array([[0, -1j], [1j, 0]], complex)
             + n[2] * np.array([[1, 0], [0, -1]], complex))
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * sigma


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    n = axis / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


class TestLocalUnitaryInvariance:
    def test_conjugation_with_counter_rotation_fixes_correlations(self):
        g = rng(11)
        for _ in range(10):
            state = random_pure_state(g)
            settings = [random_direction(g) for _ in range(4)]
            axis_a, axis_b = g.standard_normal(3), g.standard_normal(3)
            ang_a, ang_b = g.uniform(0, 2 * math.pi, size=2)
            ua, ub = _su2(axis_a, ang_a), _su2(axis_b, ang_b)
            ra, rb = _rotation(axis_a, ang_a), _rotation(axis_b, ang_b)
            u = np.kron(ua, ub)
            rotated = TwoQubitState(u @ state.rho @ u.conj().T)
            for k, (da, db) in enumerate(((0, 2), (0, 3), (1, 2), (1, 3))):
                a, b = settings[da], settings[db]
                a_rot = BlochDirection.normalized(*(ra @ a.as_array()))
                b_rot = BlochDirection.normalized(*(rb @ b.as_array()))
                before = correlation_expectation(state, a, b)
                after = correlation_expectation(rotated, a_rot, b_rot)
                assert after == pytest.approx(before, abs=1e-10)
