"""Two-spin operator algebra: Pauli embeddings, the weak-coupling Hamiltonian,
and ideal rf pulse / free-evolution unitaries.

Conventions: tensor ordering is spin 1 (x) spin 2, computational basis
|00>, |01>, |10>, |11>.  Hamiltonians are stored in rad/s; user-facing
frequencies are in Hz.  Pulses are ideal instantaneous rotations
U = exp(-i * angle * I_axis) with perfect spin selectivity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_EYE2 = np.eye(2, dtype=complex)

AXES = ("x", "y", "z")
PULSE_AXES = ("x", "-x", "y", "-y")
TARGETS = ("spin1", "spin2", "both")

# Chemical-shift difference below this multiple of J triggers the
# weak-coupling warning (the diagonal Hamiltonian is then a poor model).
WEAK_COUPLING_FACTOR = 10.0


@dataclass(frozen=True)
class SpinSystem:
    """Chemical shifts (Hz) and scalar coupling (Hz) of a homonuclear pair."""

    nu1: float
    nu2: float
    j12: float
    name: str = ""

    def __post_init__(self):
        for field in ("nu1", "nu2", "j12"):
            if not np.isfinite(getattr(self, field)):
                raise ValueError(f"SpinSystem.{field} must be finite")
        if self.nu1 == self.nu2:
            raise ValueError("chemically shifted pair requires nu1 != nu2")
        if abs(self.nu1 - self.nu2) < WEAK_COUPLING_FACTOR * abs(self.j12):
            warnings.warn(
                f"|nu1 - nu2| = {abs(self.nu1 - self.nu2):g} Hz is not large "
                f"compared to J12 = {self.j12:g} Hz; the weak-coupling "
                "Hamiltonian may be inaccurate",
                stacklevel=2,
            )


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices, bit for bit: each entry is one product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def pauli(spin: int, axis: str) -> np.ndarray:
    """Pauli operator of the given spin (1 or 2), tensored with identity."""
    if spin not in (1, 2):
        raise ValueError(f"spin must be 1 or 2, got {spin!r}")
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if spin == 1:
        return _kron2(SIGMA[axis], _EYE2)
    return _kron2(_EYE2, SIGMA[axis])


def angular_momentum(spin: int, axis: str) -> np.ndarray:
    """Spin angular momentum component I = sigma / 2 on the given spin."""
    return 0.5 * pauli(spin, axis)


# The Hamiltonian's fixed operators, built once: I1z, I2z and I1z I2z.
_I1Z = angular_momentum(1, "z")
_I2Z = angular_momentum(2, "z")
_I1Z_I2Z = _I1Z @ _I2Z


def hamiltonian(system: SpinSystem, nu_rf: float) -> np.ndarray:
    """Weak-coupling Hamiltonian in a frame rotating at nu_rf, in rad/s.

    H = -(w1 - w_rf) I1z - (w2 - w_rf) I2z + 2 pi J12 I1z I2z with all
    angular frequencies w = 2 pi nu.  Diagonal in the computational basis.
    """
    if not np.isfinite(nu_rf):
        raise ValueError("nu_rf must be finite")
    two_pi = 2.0 * np.pi
    h = (
        -two_pi * (system.nu1 - nu_rf) * _I1Z
        - two_pi * (system.nu2 - nu_rf) * _I2Z
        + two_pi * system.j12 * _I1Z_I2Z
    )
    return h


def _single_spin_rotation(angle: float, axis: str) -> np.ndarray:
    """exp(-i * angle * sigma_axis / 2) with '-x'/'-y' meaning a flipped axis."""
    sign = -1.0 if axis.startswith("-") else 1.0
    sigma = SIGMA[axis.lstrip("-")]
    half = 0.5 * angle * sign
    return np.cos(half) * _EYE2 - 1j * np.sin(half) * sigma


def pulse(angle: float, phase_axis: str, target: str) -> np.ndarray:
    """Ideal rf pulse U = exp(-i * angle * I_axis) on the chosen target.

    Spin-selective pulses act as the identity on the other spin; target
    'both' rotates the two spins simultaneously about the same axis.
    """
    if not np.isfinite(angle):
        raise ValueError("pulse angle must be finite")
    if phase_axis not in PULSE_AXES:
        raise ValueError(f"phase_axis must be one of {PULSE_AXES}, got {phase_axis!r}")
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    r = _single_spin_rotation(angle, phase_axis)
    if target == "spin1":
        return _kron2(r, _EYE2)
    if target == "spin2":
        return _kron2(_EYE2, r)
    return _kron2(r, r)


def free_evolution(h: np.ndarray, tau: float) -> np.ndarray:
    """Free-evolution unitary U = exp(-i H tau) for a Hermitian H in rad/s.

    Requires 0 <= tau < inf, and H equal to its adjoint within 1e-10 rad/s
    in every entry (absolute, so a nan entry fails too).
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, got {tau}")
    h = np.asarray(h, dtype=complex)
    if not np.abs(h - h.conj().T).max() <= 1e-10:
        raise ValueError("free_evolution requires a Hermitian generator")
    eigvals, eigvecs = np.linalg.eigh(h)
    phases = np.exp(-1j * eigvals * tau)
    return (eigvecs * phases) @ eigvecs.conj().T
