"""Two-spin state construction: thermal and pseudopure states, pure
multiple-quantum coherence states, coherence-order decomposition, and the
echo-based preparation sequence under ideal pulses.
"""

from __future__ import annotations

import warnings

import numpy as np

from .spinops import SpinSystem, angular_momentum, free_evolution, hamiltonian, pulse

# Magnetic quantum number of each basis state |00>,|01>,|10>,|11>, in units
# of single-spin flips; the coherence order of element (r, s) is M[r] - M[s].
_M_VALUES = (1, 0, 0, -1)

COHERENCE_KINDS = ("ZQ", "DQ", "SQ1", "SQ2")

_KET = {
    "ZQ": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "DQ": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "SQ1": np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2),
    "SQ2": np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2),
}

MAXIMALLY_MIXED = np.eye(4, dtype=complex) / 4.0


def validate_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    finite = np.isfinite(rho)
    if not finite.all():
        bad = [(int(r), int(s)) for r, s in np.argwhere(~finite)]
        raise ValueError(f"density matrix has non-finite entries at {bad}")
    herm_dev = float(np.abs(rho - rho.conj().T).max())
    if herm_dev > herm_tol:
        raise ValueError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > trace_tol:
        raise ValueError(f"density matrix trace != 1 (deviation {trace_dev:.3e})")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < eig_floor:
        raise ValueError(f"density matrix not positive semidefinite (min eig {min_eig:.3e})")
    return rho


def _check_epsilon(epsilon: float) -> float:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return float(epsilon)


def thermal_state(epsilon: float) -> np.ndarray:
    """High-temperature equilibrium state (identity + epsilon * (I1z + I2z)) / 4."""
    epsilon = _check_epsilon(epsilon)
    deviation = angular_momentum(1, "z") + angular_momentum(2, "z")
    return (np.eye(4, dtype=complex) + epsilon * deviation) / 4.0


def pseudopure_00(epsilon: float) -> np.ndarray:
    """Pseudopure |00> state (1 - epsilon) I/4 + epsilon |00><00|."""
    epsilon = _check_epsilon(epsilon)
    rho = (1.0 - epsilon) * np.eye(4, dtype=complex) / 4.0
    rho[0, 0] += epsilon
    return rho


def coherence_state(kind: str) -> np.ndarray:
    """Pure density matrix of the named coherence state.

    ZQ = (|01>+|10>)/sqrt2, DQ = (|00>+|11>)/sqrt2,
    SQ1 = (|00>+|10>)/sqrt2, SQ2 = (|00>+|01>)/sqrt2.
    """
    if kind not in COHERENCE_KINDS:
        raise ValueError(f"kind must be one of {COHERENCE_KINDS}, got {kind!r}")
    ket = _KET[kind]
    return np.outer(ket, ket.conj())


def coherence_spectrum(rho: np.ndarray) -> dict[int, float]:
    """Squared-magnitude weight of rho by coherence order n in {-2..+2}.

    Element (r, s) contributes |rho_rs|^2 to the order M[r] - M[s]; the
    diagonal falls in order 0.
    """
    rho = validate_density_matrix(rho)
    weights = {n: 0.0 for n in (-2, -1, 0, 1, 2)}
    for r in range(4):
        for s in range(4):
            order = _M_VALUES[r] - _M_VALUES[s]
            weights[order] += float(abs(rho[r, s]) ** 2)
    return weights


def prepare_via_sequence(
    target: str, system: SpinSystem, epsilon: float, nu_rf: float | None = None
) -> np.ndarray:
    """Prepare the ZQ or DQ coherence state from pseudopure |00> with ideal pulses.

    Sequence: non-selective pi/2 pulse along y; a 1/(2 J12) delay with
    refocusing pi pulses (along x, on both spins) at its center and end, which
    cancels the chemical-shift evolution and leaves the pure J coupling; then
    a spin-1-selective pi/2 pulse along -x (ZQ) or x (DQ).

    nu_rf is the rotating-frame frequency (Hz); the default is the midpoint
    of the two shifts.  The echo makes the prepared state independent of it.
    """
    if target not in ("ZQ", "DQ"):
        raise ValueError(f"target must be 'ZQ' or 'DQ', got {target!r}")
    if system.j12 == 0:
        raise ValueError("preparation delay 1/(2 J12) undefined for J12 = 0")
    epsilon = _check_epsilon(epsilon)

    if nu_rf is None:
        nu_rf = 0.5 * (system.nu1 + system.nu2)
    h = hamiltonian(system, nu_rf)
    tau = 1.0 / (2.0 * abs(system.j12))
    half_delay = free_evolution(h, tau / 2.0)
    refocus = pulse(np.pi, "x", "both")
    excite = pulse(np.pi / 2.0, "y", "both")
    select = pulse(np.pi / 2.0, "-x" if target == "ZQ" else "x", "spin1")

    u = select @ refocus @ half_delay @ refocus @ half_delay @ excite
    rho = pseudopure_00(epsilon)
    return u @ rho @ u.conj().T


def sq_preparation(kind: str, epsilon: float) -> np.ndarray:
    """Prepare SQ1 or SQ2 by a selective pi/2 pulse along y from pseudopure |00>."""
    if kind not in ("SQ1", "SQ2"):
        raise ValueError(f"kind must be 'SQ1' or 'SQ2', got {kind!r}")
    epsilon = _check_epsilon(epsilon)
    u = pulse(np.pi / 2.0, "y", "spin1" if kind == "SQ1" else "spin2")
    rho = pseudopure_00(epsilon)
    return u @ rho @ u.conj().T


def prepare_target(
    kind: str, system: SpinSystem, epsilon: float, nu_rf: float | None = None
) -> np.ndarray:
    """Prepare any of the four coherence states by its pulse sequence."""
    if epsilon == 0.0:
        warnings.warn(
            "epsilon = 0: the deviation part is empty and the prepared state "
            "is the maximally mixed state",
            stacklevel=2,
        )
    if kind in ("ZQ", "DQ"):
        return prepare_via_sequence(kind, system, epsilon, nu_rf)
    return sq_preparation(kind, epsilon)
