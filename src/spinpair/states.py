"""Two-spin state construction: thermal and pseudopure states, pure
multiple-quantum coherence states, coherence-order decomposition, and the
echo-based preparation sequence under ideal pulses.
"""

from __future__ import annotations

import math
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

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10

# Largest phase (rad) one half of the ZQ/DQ preparation delay may turn.  The
# echo cancels the shift phases only down to their rounding error: on btc DQ
# the prepared state moves 7e-12 at 3.7e5 rad and 2e-9 at 3.7e7 rad; the
# presets turn 59 to 102 rad.
MAX_HALF_DELAY_PHASE = 2.0**20

# The fixed pulses of the ZQ/DQ sequence, built once: the refocusing pi and
# exciting pi/2 pulses on both spins, and the spin-1-selective pi/2 per target.
_REFOCUS = pulse(np.pi, "x", "both")
_EXCITE = pulse(np.pi / 2.0, "y", "both")
_SELECT = {"ZQ": pulse(np.pi / 2.0, "-x", "spin1"), "DQ": pulse(np.pi / 2.0, "x", "spin1")}


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace, and positivity; return as
    complex array.

    rho is one (4, 4) matrix or an (N, 4, 4) stack of them.  One matrix takes
    one pass: a nan or inf entry makes the Hermiticity deviation non-finite,
    so finiteness is scanned only once that check fails (an inf entry may
    also emit numpy's "invalid value" RuntimeWarning on the way).  An
    exactly Hermitian rho equals its Hermitian part bit for bit and goes to
    eigvalsh as it is.

    A stack is accepted in one vectorized pass of the same checks, with one
    eigvalsh call for all N states, exactly when each state would be
    accepted on its own.  On any failure the states are checked one by one,
    and the error of the first failing state k reads "state k: " plus its
    single-matrix message.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 3 and rho.shape[1:] == (4, 4):
        _validate_stack(rho)
        return rho
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


def _validate_stack(rho: np.ndarray) -> None:
    """The checks of validate_density_matrix over an (N, 4, 4) stack.

    The pass accepts only when every state passes each check with the
    single-matrix arithmetic (a nan fails every comparison here); anything
    else is settled state by state, so the verdict is always the per-state one.
    """
    if not len(rho):
        return
    rho_h = rho.conj().transpose(0, 2, 1)
    herm_dev = np.abs(rho - rho_h)
    herm_max = herm_dev.max()
    # The single check's arithmetic: ndarray.trace adds left to right on a
    # non-contiguous stack, and np.abs of a complex array may round the
    # modulus differently from abs of one complex scalar, which is hypot.
    trace_dev = ((rho[:, 0, 0] + rho[:, 1, 1]) + (rho[:, 2, 2] + rho[:, 3, 3])) - 1.0
    if herm_max <= HERM_TOL and np.hypot(trace_dev.real, trace_dev.imag).max() <= TRACE_TOL:
        hermitian = rho
        if herm_max != 0.0:
            exact = herm_dev.max(axis=(1, 2), keepdims=True) == 0.0
            hermitian = np.where(exact, rho, 0.5 * (rho + rho_h))
        if np.linalg.eigvalsh(hermitian).min() >= EIG_FLOOR:
            return
    for k, state in enumerate(rho):
        try:
            validate_density_matrix(state)
        except ValueError as exc:
            raise ValueError(f"state {k}: {exc}") from None


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
    if np.ndim(rho) != 2:
        raise ValueError(f"density matrix must be 4x4, got shape {np.shape(rho)}")
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
    of the two shifts.  The echo makes the prepared state independent of it,
    but only down to the rounding error of the phases it cancels.  So the
    largest phase each half of the delay turns must be at most
    MAX_HALF_DELAY_PHASE, which rules out J12 = 0, a tiny J12 and a large
    frame frequency.
    """
    if target not in ("ZQ", "DQ"):
        raise ValueError(f"target must be 'ZQ' or 'DQ', got {target!r}")
    if nu_rf is None:
        nu_rf = 0.5 * (system.nu1 + system.nu2)
    with np.errstate(over="ignore", invalid="ignore"):
        h = hamiltonian(system, nu_rf) if math.isfinite(nu_rf) else np.full((4, 4), np.inf)
        largest = float(np.abs(h).max())
    tau = 1.0 / (2.0 * abs(system.j12)) if system.j12 else math.inf
    # Python floats overflow to inf quietly, and 0 * inf is nan, which fails <=.
    if not largest * (tau / 2.0) <= MAX_HALF_DELAY_PHASE:
        raise ValueError(f"{target} preparation evolves freely for 1/(2 |J12|) and the phase of each "
                         f"half must be at most {MAX_HALF_DELAY_PHASE:.0f} rad (J12 = {system.j12:g}, "
                         f"nu1 = {system.nu1:g}, nu2 = {system.nu2:g}, nu_rf = {nu_rf:g} Hz)")
    epsilon = _check_epsilon(epsilon)

    half_delay = free_evolution(h, tau / 2.0)
    u = _SELECT[target] @ _REFOCUS @ half_delay @ _REFOCUS @ half_delay @ _EXCITE
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
