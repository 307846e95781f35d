import copy
import math
import pickle

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
    correlation_point,
    sample_quantum_points,
    singlet,
)
from bellvol.quantum import _SIGMA, _correlations
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


def spin_observable(d: BlochDirection) -> np.ndarray:
    """The +/-1-valued observable d . sigma."""
    return np.einsum("k,kij->ij", np.array(d), _SIGMA)


def correlation_expectation(rho: TwoQubitState, a: BlochDirection,
                            b: BlochDirection) -> float:
    """tr(rho (a.sigma x b.sigma)): the 00 entry of ``correlation_point``."""
    return correlation_point(rho, MeasurementSettings(a, a, b, b)).c00


def random_direction(rng: np.random.Generator) -> BlochDirection:
    """Uniform unit vector (normalized 3D Gaussian)."""
    v = rng.standard_normal(3)
    return BlochDirection.normalized(*v)


def random_pure_state(rng: np.random.Generator) -> TwoQubitState:
    """Pure state with Gaussian amplitudes, normalized."""
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return TwoQubitState.pure(psi)


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

    @pytest.mark.parametrize("build", [BlochDirection,
                                       BlochDirection.normalized],
                             ids=["init", "normalized"])
    @pytest.mark.parametrize("bad, kind", [
        (math.nan, "not finite"), (math.inf, "not finite"),
        (True, "not a number"), (np.True_, "not a number"),
        (None, "not a number"), ("1", "not a number")],
        ids=["nan", "inf", "True", "np.True_", "None", "text"])
    def test_a_direction_component_keeps_the_real_contract(self, build, bad,
                                                           kind):
        # True == 1 and hypot(True, 0, 0) == 1, yet a bool is no component
        with pytest.raises(ValueError) as err:
            build(0.0, bad, 0.0)
        assert str(err.value) == f"direction component 'y' is {kind}: {bad!r}"

    def test_components_are_stored_as_floats(self):
        for d in (BlochDirection(1, 0, np.float64(0.0)),
                  BlochDirection.normalized(np.int64(3), 4, np.float32(0.0))):
            assert [type(c) for c in (d.x, d.y, d.z)] == [float] * 3
        assert BlochDirection(1, 0, 0) == X_DIR

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalized_takes_extreme_components(self, scale):
        # the squares of these components overflow to inf or underflow to 0
        assert BlochDirection.normalized(scale, 0.0, 0.0) == X_DIR
        d = BlochDirection.normalized(0.0, 3 * scale, 4 * scale)
        assert (d.x, d.y, d.z) == pytest.approx((0.0, 0.6, 0.8))

    @pytest.mark.parametrize("psi,diagonal", [
        ([1e200, 0, 0, 0], [1, 0, 0, 0]),
        ([1e200, 1e200, 0, 0], [0.5, 0.5, 0, 0]),
        ([1e-200, 0, 0, 0], [1, 0, 0, 0]),
        ([0, 0, 1e200j, -1e200], [0, 0, 0.5, 0.5])])
    def test_pure_takes_extreme_amplitudes(self, psi, diagonal):
        rho = TwoQubitState.pure(np.array(psi)).rho
        assert np.allclose(rho.diagonal(), diagonal, rtol=0, atol=1e-15)
        assert np.allclose(rho, rho @ rho, rtol=0, atol=1e-15)

    def test_pure_state_vector_must_be_nonzero(self):
        with pytest.raises(ValueError, match="nonzero norm"):
            TwoQubitState.pure(np.zeros(4))

    def test_a_state_equals_and_hashes_as_itself_alone(self):
        # a state holds an array: tuple equality would compare matrices
        s = singlet()
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert type(twin) is TwoQubitState and twin is not s
            assert np.array_equal(twin.rho, s.rho)
            assert s == s and not s != s
            assert twin != s and not twin == s
        assert s != (s.rho,) and (s.rho,) != s and not s == (s.rho,)
        assert len({s, s, copy.copy(s)}) == 2

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
        assert tuple(pt) == pytest.approx(expected, abs=1e-12)

    def test_chsh_reaches_the_quantum_maximum(self):
        pt = correlation_point(singlet(), chsh_optimal_settings())
        assert chsh_value(pt, 1, 1) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_point_sits_on_the_quantum_boundary(self):
        pt = correlation_point(singlet(), chsh_optimal_settings())
        assert abs(in_quantum_arcsin(pt).margin) <= 1e-9

    @pytest.mark.parametrize("rho", [None, singlet().rho, "singlet"],
                             ids=["None", "matrix", "text"])
    def test_a_state_that_is_no_state_is_refused(self, rho):
        with pytest.raises(ValueError) as err:
            correlation_point(rho, chsh_optimal_settings())
        assert str(err.value) == f"rho is not a TwoQubitState: {rho!r}"

    @pytest.mark.parametrize("settings", [
        None, tuple(chsh_optimal_settings()), "chsh"],
        ids=["None", "tuple", "text"])
    def test_settings_that_are_no_settings_are_refused(self, settings):
        with pytest.raises(ValueError) as err:
            correlation_point(singlet(), settings)
        assert str(err.value) == \
            f"settings is not a MeasurementSettings: {settings!r}"


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

    @pytest.mark.parametrize("bad", [None, 3, np.random.RandomState(0)],
                             ids=["None", "seed", "RandomState"])
    def test_rejects_what_is_no_generator(self, bad):
        with pytest.raises(ValueError) as err:
            sample_quantum_points(3, bad)
        assert str(err.value) == f"rng is not a numpy Generator: {bad!r}"

    def test_rows_match_the_scalar_path_on_the_same_draws(self):
        # a row's 20 normals, read in order, are the draws of one
        # random_pure_state and then four random_direction calls
        pts = sample_quantum_points(300, rng(12))
        h = rng(12)
        for row in pts:
            state = random_pure_state(h)
            settings = MeasurementSettings(
                *(random_direction(h) for _ in range(4)))
            want = tuple(correlation_point(state, settings))
            assert np.abs(row - want).max() <= 2e-15


class TestMixing:
    def test_correlations_are_linear_in_the_state(self):
        g = rng(9)
        s1, s2 = random_pure_state(g), random_pure_state(g)
        settings = MeasurementSettings(random_direction(g), random_direction(g),
                                       random_direction(g), random_direction(g))
        p1 = tuple(correlation_point(s1, settings))
        p2 = tuple(correlation_point(s2, settings))
        for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = s1.mixed_with(s2, lam)
            got = tuple(correlation_point(mix, settings))
            want = tuple(lam * a + (1 - lam) * b for a, b in zip(p1, p2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_mixing_weight_validated(self):
        g = rng(10)
        with pytest.raises(ValueError):
            random_pure_state(g).mixed_with(random_pure_state(g), 1.5)

    @pytest.mark.parametrize("weight", [True, np.True_, "0.5", None],
                             ids=["True", "np.True_", "text", "None"])
    def test_a_mixing_weight_that_is_no_number_is_refused(self, weight):
        # True == 1, yet a bool is no weight; text and None are ValueErrors
        with pytest.raises(ValueError) as err:
            singlet().mixed_with(singlet(), weight)
        assert str(err.value) == f"mixing weight is not a number: {weight!r}"


    @pytest.mark.parametrize("other", [None, singlet().rho, "singlet"],
                             ids=["None", "matrix", "text"])
    def test_a_partner_that_is_no_state_is_refused(self, other):
        with pytest.raises(ValueError) as err:
            singlet().mixed_with(other, 0.5)
        assert str(err.value) == f"other is not a TwoQubitState: {other!r}"


PAULI = (np.array([[0, 1], [1, 0]], complex),
         np.array([[0, -1j], [1j, 0]], complex),
         np.array([[1, 0], [0, -1]], complex))


def _kron_trace(rho: np.ndarray, a: BlochDirection, b: BlochDirection) -> float:
    """tr(rho (a.sigma x b.sigma)) written out: the textbook reference."""
    op_a = sum(c * s for c, s in zip(np.array(a), PAULI))
    op_b = sum(c * s for c, s in zip(np.array(b), PAULI))
    return np.trace(rho @ np.kron(op_a, op_b)).real


class TestBornRule:
    def test_matches_the_kronecker_trace_on_mixed_states(self):
        g = rng(13)
        for _ in range(200):
            weights = g.dirichlet(np.ones(3))
            rho = sum(w * random_pure_state(g).rho for w in weights)
            state = TwoQubitState(rho)
            a, b = random_direction(g), random_direction(g)
            assert correlation_expectation(state, a, b) \
                == pytest.approx(_kron_trace(state.rho, a, b), abs=1e-15)

    def test_point_orders_the_settings_00_01_10_11(self):
        g = rng(14)
        state = random_pure_state(g)
        dirs = [random_direction(g) for _ in range(4)]
        pt = correlation_point(state, MeasurementSettings(*dirs))
        want = [_kron_trace(state.rho, dirs[i], dirs[2 + j])
                for i in (0, 1) for j in (0, 1)]
        assert tuple(pt) == pytest.approx(want, abs=1e-15)

    def test_spin_observable_is_the_pauli_combination(self):
        d = random_direction(rng(15))
        want = sum(c * s for c, s in zip(np.array(d), PAULI))
        assert np.array_equal(spin_observable(d), want)

    def test_kernel_rejects_a_complex_expectation(self):
        # tr(i |00><00| (z.sigma x z.sigma)) = i; a TwoQubitState is
        # Hermitian, so only a raw array reaches the kernel's check
        rho = np.zeros((1, 4, 4), complex)
        rho[0, 0, 0] = 1j
        axes = np.tile(np.array(Z_DIR), (1, 4, 1))
        with pytest.raises(ValueError, match="imaginary part"):
            _correlations(rho, axes)


def _su2(axis: np.ndarray, angle: float) -> np.ndarray:
    n = axis / np.linalg.norm(axis)
    sigma = sum(c * s for c, s in zip(n, PAULI))
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
                a_rot = BlochDirection.normalized(*(ra @ np.array(a)))
                b_rot = BlochDirection.normalized(*(rb @ np.array(b)))
                before = correlation_expectation(state, a, b)
                after = correlation_expectation(rotated, a_rot, b_rot)
                assert after == pytest.approx(before, abs=1e-10)
