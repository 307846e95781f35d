"""Two-qubit states and spin measurements realizing quantum correlation points.

Used to witness that the quantum region is actually populated: the maximally
entangled singlet with the standard optimal settings saturates the CHSH value
2*sqrt(2), and randomly sampled pure states with random projective spin
measurements always land inside the arcsin membership oracle.

All observables are dichotomic spin measurements n . sigma along unit Bloch
directions, so every correlation is <psi| (a.sigma) x (b.sigma) |psi> (or the
corresponding trace for mixed states).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .regions import CorrelationPoint

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGMA = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

_UNIT_NORM_TOL = 1e-12
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10


@dataclass(frozen=True)
class BlochDirection:
    """A unit vector on the Bloch sphere (measurement axis)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError(f"direction ({self.x!r}, {self.y!r}, {self.z!r})"
                             " is not finite")
        n = math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)
        if abs(n - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"direction norm {n!r} is not 1 within {_UNIT_NORM_TOL}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "BlochDirection":
        if not all(map(math.isfinite, (x, y, z))):
            raise ValueError(f"direction ({x!r}, {y!r}, {z!r}) is not finite")
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


X_DIR = BlochDirection(1.0, 0.0, 0.0)
Y_DIR = BlochDirection(0.0, 1.0, 0.0)
Z_DIR = BlochDirection(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class MeasurementSettings:
    """Two measurement axes per party."""

    a0: BlochDirection
    a1: BlochDirection
    b0: BlochDirection
    b1: BlochDirection


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A 4x4 density matrix: Hermitian, unit trace, positive semidefinite."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
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
        object.__setattr__(self, "rho", rho)

    @classmethod
    def pure(cls, psi: np.ndarray) -> "TwoQubitState":
        psi = np.asarray(psi, dtype=complex).reshape(4)
        norm = float(np.linalg.norm(psi))
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError(
                f"state vector needs a finite nonzero norm, got {norm!r}")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))

    def mixed_with(self, other: "TwoQubitState", weight: float) -> "TwoQubitState":
        """Convex mixture weight*self + (1-weight)*other."""
        if not 0.0 <= weight <= 1.0:
            raise ValueError("mixing weight must be in [0, 1]")
        return TwoQubitState(weight * self.rho + (1.0 - weight) * other.rho)


def spin_observable(d: BlochDirection) -> np.ndarray:
    """The +/-1-valued observable d . sigma."""
    return d.x * SIGMA_X + d.y * SIGMA_Y + d.z * SIGMA_Z


def correlation_expectation(rho: TwoQubitState, a: BlochDirection,
                            b: BlochDirection) -> float:
    """tr(rho (a.sigma x b.sigma)), checked real and clipped to [-1, 1]."""
    op = np.kron(spin_observable(a), spin_observable(b))
    val = np.trace(rho.rho @ op)
    if abs(val.imag) > 1e-12:
        raise ValueError(f"expectation has imaginary part {val.imag!r}")
    return float(min(1.0, max(-1.0, val.real)))


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
    """The four correlations of a state under the given settings."""
    return CorrelationPoint.clamped(
        correlation_expectation(rho, settings.a0, settings.b0),
        correlation_expectation(rho, settings.a0, settings.b1),
        correlation_expectation(rho, settings.a1, settings.b0),
        correlation_expectation(rho, settings.a1, settings.b1),
    )


# --------------------------------------------------------------------------
# random sampling
# --------------------------------------------------------------------------

def random_direction(rng: np.random.Generator) -> BlochDirection:
    """Uniform unit vector (normalized 3D Gaussian)."""
    v = rng.standard_normal(3)
    return BlochDirection.normalized(*v)


def random_pure_state(rng: np.random.Generator) -> TwoQubitState:
    """Pure state with Gaussian amplitudes, normalized."""
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return TwoQubitState.pure(psi)


def sample_quantum_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 4) array of correlation points from random states and settings.

    Each row uses an independent random pure two-qubit state and four
    independent uniform measurement axes (two per party).  Entries are
    clipped to [-1, 1] to absorb representation error at the boundary.
    Each point takes one contiguous block of 20 normals from ``rng``, so
    draws of m and then n - m points equal one draw of n.  ``n`` is an
    integer (numpy integers are accepted); a float or a bool raises
    ``ValueError``.
    """
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    draw = rng.standard_normal((n, 20))
    psi = draw[:, 0:4] + 1j * draw[:, 4:8]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    axes = draw[:, 8:20].reshape(n, 4, 3).copy()
    axes /= np.linalg.norm(axes, axis=2, keepdims=True)
    # observables: (n, 2, 2, 2) for each party's two settings
    a_ops = np.einsum("msk,kij->msij", axes[:, :2], _SIGMA)
    b_ops = np.einsum("msk,kij->msij", axes[:, 2:], _SIGMA)
    m_psi = psi.reshape(n, 2, 2)
    # <psi| A_s x B_t |psi> = sum conj(psi_ij) A_ik B_jl psi_kl
    corr = np.einsum("mij,msik,mtjl,mkl->mst",
                     m_psi.conj(), a_ops, b_ops, m_psi).real
    return np.clip(corr.reshape(n, 4), -1.0, 1.0)  # order (00, 01, 10, 11)
