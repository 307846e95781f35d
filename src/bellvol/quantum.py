"""Two-qubit states and spin measurements realizing quantum correlation points.

Used to witness that the quantum region is actually populated: the maximally
entangled singlet with the standard optimal settings saturates the CHSH value
2*sqrt(2), and randomly sampled pure states with random projective spin
measurements always land inside the arcsin membership oracle.

All observables are dichotomic spin measurements n . sigma along unit Bloch
directions, so every correlation is <psi| (a.sigma) x (b.sigma) |psi> (or the
corresponding trace for mixed states).  The three records are NamedTuples
checked in ``__new__``, as ``regions``' are; a state compares by identity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .regions import CorrelationPoint, _index, _real, _Record

#: The Pauli matrices sigma_x, sigma_y, sigma_z as one (3, 2, 2) array.
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

_UNIT_NORM_TOL = 1e-12
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10


def _components(x, y, z) -> tuple[float, float, float]:
    """A direction's components, each a finite float by ``regions._real``."""
    return tuple([_real(f"direction component '{name}'", v, -math.inf, math.inf)
                  for name, v in zip("xyz", (x, y, z))])


class BlochDirection(_Record, NamedTuple("_Direction", [
        (c, float) for c in "xyz"])):
    """A unit vector on the Bloch sphere (measurement axis): a tuple of
    three floats."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        components = _components(x, y, z)
        n = math.hypot(*components)
        if abs(n - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"direction norm {n!r} is not 1 within {_UNIT_NORM_TOL}")
        return tuple.__new__(cls, components)

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "BlochDirection":
        x, y, z = _components(x, y, z)
        n = math.hypot(x, y, z)  # hypot: no overflow or underflow
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)


X_DIR = BlochDirection(1.0, 0.0, 0.0)
Y_DIR = BlochDirection(0.0, 1.0, 0.0)
Z_DIR = BlochDirection(0.0, 0.0, 1.0)


class MeasurementSettings(_Record, NamedTuple("_Settings", [
        (axis, BlochDirection) for axis in ("a0", "a1", "b0", "b1")])):
    """Two measurement axes per party, each a :class:`BlochDirection`."""

    __slots__ = ()

    def __new__(cls, a0, a1, b0, b1):
        axes = (a0, a1, b0, b1)
        for name, d in zip(cls._fields, axes):
            if not isinstance(d, BlochDirection):
                raise ValueError(f"axis {name} is not a BlochDirection: {d!r}")
        return tuple.__new__(cls, axes)


class TwoQubitState(_Record, NamedTuple("_State", [("rho", np.ndarray)])):
    """A 4x4 density matrix: Hermitian, unit trace, positive semidefinite.
    A state holds an array, so it equals and hashes as itself alone."""

    __slots__ = ()

    def __new__(cls, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix entries must be finite")
        if np.abs(rho - rho.conj().T).max() > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(rho.trace() - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {rho.trace()!r} is not 1")
        eig = np.linalg.eigvalsh(rho)
        if eig.min() < _PSD_TOL:
            raise ValueError(f"negative eigenvalue {eig.min()!r}")
        return tuple.__new__(cls, (rho,))

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__

    @classmethod
    def pure(cls, psi: np.ndarray) -> "TwoQubitState":
        psi = np.asarray(psi, dtype=complex).reshape(4)
        norm = math.hypot(*np.abs(psi))  # hypot: no overflow or underflow
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError(
                f"state vector needs a finite nonzero norm, got {norm!r}")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))

    def mixed_with(self, other: "TwoQubitState", weight: float) -> "TwoQubitState":
        """Convex mixture weight*self + (1-weight)*other, ``other`` a
        TwoQubitState and ``weight`` a real in [0, 1] by the contract of
        ``regions._real``."""
        if not isinstance(other, TwoQubitState):
            raise ValueError(f"other is not a TwoQubitState: {other!r}")
        weight = _real("mixing weight", weight, 0, 1)
        return TwoQubitState(weight * self.rho + (1.0 - weight) * other.rho)


def _correlations(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """The one Born-rule kernel: tr(rho (a.sigma x b.sigma)) for an (m, 4, 4)
    stack of states and their (m, 4, 3) axes a0, a1, b0, b1, as the (m, 4)
    correlations (00, 01, 10, 11), checked real and clipped to [-1, 1]."""
    ops = np.tensordot(axes, _SIGMA, 1)  # the (m, 4, 2, 2) a.sigma
    # rho_(ij),(kl) with i, k on A's qubit: tr(rho (A x B)) = rho_ijkl A_ki B_lj
    corr = np.einsum("mijkl,muki,mvlj->muv", rho.reshape(-1, 2, 2, 2, 2),
                     ops[:, :2], ops[:, 2:]).reshape(-1, 4)
    imag = np.abs(corr.imag).max()
    if imag > 1e-12:
        raise ValueError(f"expectation has imaginary part {imag!r}")
    return np.clip(corr.real, -1.0, 1.0)


def singlet() -> TwoQubitState:
    """The maximally entangled state with E(a, b) = -a.b for all axes."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return TwoQubitState.pure(psi)


def chsh_optimal_settings() -> MeasurementSettings:
    """Measurement axes for which the singlet reaches CHSH value 2*sqrt(2).

    a0 = z, a1 = x, b0 = -(z+x)/sqrt2, b1 = -(z-x)/sqrt2; with the singlet
    law E = -a.b this yields the correlation point
    (1, 1, 1, -1)/sqrt2 and the (1,1) CHSH functional equals +2*sqrt(2).
    """
    s = 1.0 / math.sqrt(2.0)
    return MeasurementSettings(
        a0=Z_DIR,
        a1=X_DIR,
        b0=BlochDirection.normalized(-s, 0.0, -s),
        b1=BlochDirection.normalized(s, 0.0, -s),
    )


def correlation_point(rho: TwoQubitState,
                      settings: MeasurementSettings) -> CorrelationPoint:
    """The four correlations of a state under the given settings: ``rho``
    a TwoQubitState and ``settings`` a MeasurementSettings."""
    if not isinstance(rho, TwoQubitState):
        raise ValueError(f"rho is not a TwoQubitState: {rho!r}")
    if not isinstance(settings, MeasurementSettings):
        raise ValueError(f"settings is not a MeasurementSettings: {settings!r}")
    return CorrelationPoint(*_correlations(rho.rho[None], np.array([settings]))[0])


# --------------------------------------------------------------------------
# random sampling
# --------------------------------------------------------------------------

def sample_quantum_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 4) array of correlation points from random states and settings.

    Each row uses an independent random pure two-qubit state and four
    independent uniform measurement axes (two per party), scored by the
    same kernel as ``correlation_point`` on the pure state psi psi^dagger.
    Each point takes one contiguous block of 20 normals from ``rng``, so
    draws of m and then n - m points equal one draw of n.  ``n`` >= 1
    follows the integer contract of ``regions._index``, and ``rng`` must be
    a numpy ``Generator``.
    """
    n = _index("n", n, 1)
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng is not a numpy Generator: {rng!r}")
    draw = rng.standard_normal((n, 20))
    psi = draw[:, 0:4] + 1j * draw[:, 4:8]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    axes = draw[:, 8:20].reshape(n, 4, 3)
    axes = axes / np.linalg.norm(axes, axis=2, keepdims=True)
    return _correlations(psi[:, :, None] * psi[:, None, :].conj(), axes)
