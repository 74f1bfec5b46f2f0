"""Two-spin state construction: the pseudopure |00> state, pure
multiple-quantum coherence states, and the preparation of each coherence
from pseudopure |00> by ideal pulses: the echo sequence in the
shift-midpoint frame for ZQ and DQ, one selective pulse for SQ1 and SQ2.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .spinops import SpinSystem, hamiltonian, pulse

COHERENCE_KINDS = ("ZQ", "DQ", "SQ1", "SQ2")

_KET = {
    "ZQ": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "DQ": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "SQ1": np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2),
    "SQ2": np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2),
}

MAXIMALLY_MIXED = np.eye(4, dtype=complex) / 4.0

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10

# Largest phase (rad) one half of the ZQ/DQ preparation delay may turn.  The
# echo cancels the shift phases only down to their rounding error: on btc DQ
# the prepared state moves 7e-12 at 3.7e5 rad and 2e-9 at 3.7e7 rad; the
# presets turn 59 to 102 rad.
MAX_HALF_DELAY_PHASE = 2.0**20

# The fixed pulses, built once: the refocusing pi and exciting pi/2 pulses of
# the ZQ/DQ sequence on both spins, and the selective pi/2 that ends each
# target's preparation.
_REFOCUS = pulse(np.pi, "x", "both")
_EXCITE = pulse(np.pi / 2.0, "y", "both")
_SELECT = {"ZQ": pulse(np.pi / 2.0, "-x", "spin1"), "DQ": pulse(np.pi / 2.0, "x", "spin1"),
           "SQ1": pulse(np.pi / 2.0, "y", "spin1"), "SQ2": pulse(np.pi / 2.0, "y", "spin2")}


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace, and positivity of one
    (4, 4) matrix; return it as a complex array.

    One pass: a nan or inf entry makes the Hermiticity deviation
    non-finite, so finiteness is scanned only once that check fails (an inf
    entry may also emit numpy's "invalid value" RuntimeWarning on the way).
    An exactly Hermitian rho equals its Hermitian part bit for bit and goes
    to eigvalsh as it is.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    rho_h = rho.conj().T
    herm_dev = float(np.abs(rho - rho_h).max())
    if not herm_dev <= HERM_TOL:
        finite = np.isfinite(rho)
        if not finite.all():
            bad = [(int(r), int(s)) for r, s in np.argwhere(~finite)]
            raise ValueError(f"density matrix has non-finite entries at {bad}")
        raise ValueError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
    # Summed pairwise, in the order ndarray.trace adds four entries.
    trace_dev = abs((rho[0, 0] + rho[1, 1]) + (rho[2, 2] + rho[3, 3]) - 1.0)
    if trace_dev > TRACE_TOL:
        raise ValueError(f"density matrix trace != 1 (deviation {trace_dev:.3e})")
    hermitian = rho if herm_dev == 0.0 else 0.5 * (rho + rho_h)
    min_eig = float(np.linalg.eigvalsh(hermitian)[0])
    if min_eig < EIG_FLOOR:
        raise ValueError(f"density matrix not positive semidefinite (min eig {min_eig:.3e})")
    return rho


def pseudopure_00(epsilon: float) -> np.ndarray:
    """Pseudopure |00> state (1 - epsilon) I/4 + epsilon |00><00|."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    epsilon = float(epsilon)
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


def prepare_target(kind: str, system: SpinSystem, epsilon: float) -> np.ndarray:
    """Prepare any of the four coherence states from pseudopure |00> with ideal pulses.

    SQ1 and SQ2 take one pi/2 pulse along y on spin 1 or spin 2.  ZQ and DQ
    take the echo sequence: a non-selective pi/2 pulse along y; a 1/(2 J12)
    delay with refocusing pi pulses (along x, on both spins) at its center
    and end, which cancels the chemical-shift evolution and leaves the pure
    J coupling; then a spin-1-selective pi/2 pulse along -x (ZQ) or x (DQ).

    The delay runs in the frame at the shift midpoint.  The weak-coupling
    Hamiltonian is diagonal, so each half of the delay is the elementwise
    phase exp(-i H_kk tau / 2) of its diagonal.  The echo cancels the shift
    phases only down to rounding, so each half may turn at most
    MAX_HALF_DELAY_PHASE: this rules out J12 = 0, a tiny J12 and shifts far
    apart relative to J12.  Checks fail in this order: the kind, the ZQ/DQ
    phase rule, then epsilon; only a call that passes them all issues the
    epsilon = 0 warning.
    """
    if kind not in COHERENCE_KINDS:
        raise ValueError(f"kind must be one of {COHERENCE_KINDS}, got {kind!r}")
    u = _SELECT[kind]
    if kind in ("ZQ", "DQ"):
        # 2 pi (nu1 - frame) still overflows at |nu| near 1e308.
        with np.errstate(over="ignore", invalid="ignore"):
            h = hamiltonian(system, 0.5 * system.nu1 + 0.5 * system.nu2)
            largest = float(np.abs(h).max())
        tau = 1.0 / (2.0 * abs(system.j12)) if system.j12 else math.inf
        # Python floats overflow to inf quietly, and 0 * inf is nan, which fails <=.
        if not largest * (tau / 2.0) <= MAX_HALF_DELAY_PHASE:
            raise ValueError(f"{kind} preparation evolves freely for 1/(2 |J12|) and the phase of each "
                             f"half must be at most {MAX_HALF_DELAY_PHASE:.0f} rad (J12 = {system.j12:g}, "
                             f"nu1 = {system.nu1:g}, nu2 = {system.nu2:g} Hz)")
        # Kept as matrix products: with this exact diagonal they round like an
        # eigh-based exp(-i H tau / 2), which a broadcast multiply might not.
        half_delay = np.diag(np.exp(-1j * h.diagonal().real * (tau / 2.0)))
        u = u @ _REFOCUS @ half_delay @ _REFOCUS @ half_delay @ _EXCITE
    rho = pseudopure_00(epsilon)
    if epsilon == 0.0:
        warnings.warn(
            "epsilon = 0: the deviation part is empty and the prepared state "
            "is the maximally mixed state",
            stacklevel=2,
        )
    return u @ rho @ u.conj().T
