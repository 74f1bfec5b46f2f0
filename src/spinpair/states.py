"""Two-spin state construction: the pseudopure |00> state, pure
multiple-quantum coherence states, and the preparation of each coherence
from pseudopure |00> by ideal pulses: the echo sequence in the
shift-midpoint frame for ZQ and DQ, one selective pulse for SQ1 and SQ2.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .spinops import SpinSystem, _finite_real, hamiltonian, pulse

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
# the ZQ/DQ sequence on both spins, the selective pi/2 that ends each
# target's preparation, and the ZQ/DQ echo's constant left factor.
_REFOCUS = pulse(np.pi, "x", "both")
_EXCITE = pulse(np.pi / 2.0, "y", "both")
_SELECT = {"ZQ": pulse(np.pi / 2.0, "-x", "spin1"), "DQ": pulse(np.pi / 2.0, "x", "spin1"),
           "SQ1": pulse(np.pi / 2.0, "y", "spin1"), "SQ2": pulse(np.pi / 2.0, "y", "spin2")}
_SELECT_REFOCUS = {kind: _SELECT[kind] @ _REFOCUS for kind in ("ZQ", "DQ")}


# Python's abs(complex) is libm's hypot, and numpy's array abs may differ
# from it by 2 ulps: the pure-Python pass passes Hermiticity only when its
# deviations sum to at most this, and leaves the rest to numpy's deviation.
_HERM_SURE = HERM_TOL * (1.0 - 2.0**-40)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace, and positivity of one
    (4, 4) matrix; return it as a complex array.

    Checks fail in this order: the shape, non-finite entries, Hermiticity,
    the trace, then positivity.  One pure-Python pass over the entries takes
    the Hermiticity deviations |rho_rs - conj(rho_sr)|, the trace, and the
    least lower edge of the Gershgorin discs,
    bound = min_r (Re rho_rr - sum_{s != r} |rho_rs|).  A nan or inf entry
    makes a deviation non-finite, so finiteness is scanned only once the
    pass cannot certify Hermiticity; numpy's deviation then decides, as it
    always has.  An entry whose modulus overflows counts as an infinite
    deviation or an undecided disc.  No input makes the check warn.

    Positivity is proved without eigenvalues when bound >= EIG_FLOOR / 2
    (Varga, "Gersgorin and His Circles", Springer 2004), and eigvalsh
    decides otherwise.  The discs accept only what eigvalsh would accept:
    - eigvalsh is given the Hermitian part H, whose diagonal is Re rho_rr
      and whose entries exceed |rho_rs| by at most HERM_TOL / 2, so H's
      discs are at most 1.5 HERM_TOL wider than rho's;
    - a passing bound with the trace at 1 keeps every disc within about
      [EIG_FLOOR / 2, 2], so eigvalsh rounds by about 1e-15, against the
      5e-11 between EIG_FLOOR / 2 - 1.5 HERM_TOL and EIG_FLOOR.
    An exactly Hermitian rho equals its Hermitian part bit for bit and goes
    to eigvalsh as it is.  Otherwise the part is 0.5 rho + 0.5 rho^H, whose
    halves cannot overflow where the sum rho + rho^H can.  A least
    eigenvalue of nan, which LAPACK returns when the norm overflows, fails,
    and so does an eigvalsh that does not converge.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = rho.tolist()
    try:
        devs = (abs(a - a.conjugate()), abs(b - e.conjugate()), abs(c - i.conjugate()),
                abs(d - m.conjugate()), abs(f - f.conjugate()), abs(g - j.conjugate()),
                abs(h - n.conjugate()), abs(k - k.conjugate()), abs(l - o.conjugate()),
                abs(p - p.conjugate()))
    except OverflowError:
        devs = (math.inf,)
    # A sum rather than max(): a nan deviation must fail, and max() may drop it.
    if not sum(devs) <= _HERM_SURE:
        finite = np.isfinite(rho)
        if not finite.all():
            bad = [(int(r), int(s)) for r, s in np.argwhere(~finite)]
            raise ValueError(f"density matrix has non-finite entries at {bad}")
        with np.errstate(over="ignore"):
            herm_dev = float(np.abs(rho - rho.conj().T).max())
        if not herm_dev <= HERM_TOL:
            raise ValueError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
    # Summed pairwise, in the order ndarray.trace adds four entries.
    try:
        trace_dev = abs((a + f) + (k + p) - 1.0)
    except OverflowError:
        trace_dev = math.inf
    if trace_dev > TRACE_TOL:
        raise ValueError(f"density matrix trace != 1 (deviation {trace_dev:.3e})")
    try:
        bound = min(a.real - (abs(b) + abs(c) + abs(d)), f.real - (abs(e) + abs(g) + abs(h)),
                    k.real - (abs(i) + abs(j) + abs(l)), p.real - (abs(m) + abs(n) + abs(o)))
    except OverflowError:
        bound = -math.inf
    if bound >= 0.5 * EIG_FLOOR:
        return rho
    if any(devs):
        hermitian = 0.5 * rho + 0.5 * rho.conj().T
    else:
        hermitian = rho
    try:
        min_eig = float(np.linalg.eigvalsh(hermitian).min())
    except np.linalg.LinAlgError:
        min_eig = math.nan
    if not min_eig >= EIG_FLOOR:
        raise ValueError(f"density matrix not positive semidefinite (min eig {min_eig:.3e})")
    return rho


def pseudopure_00(epsilon: float) -> np.ndarray:
    """Pseudopure |00> state (1 - epsilon) I/4 + epsilon |00><00|."""
    weight = _finite_real(epsilon, "epsilon")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    rho = (1.0 - weight) * np.eye(4, dtype=complex) / 4.0
    rho[0, 0] += weight
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
        # hamiltonian raises where 2 pi (nu1 - frame) overflows, at |nu| near
        # 1e308: the phase is then infinite, and the phase rule names the system.
        try:
            h = hamiltonian(system, 0.5 * system.nu1 + 0.5 * system.nu2)
            largest = float(np.abs(h).max())
        except ValueError:
            largest = math.inf
        tau = 1.0 / (2.0 * abs(system.j12)) if system.j12 else math.inf
        # Python floats overflow to inf quietly, and 0 * inf is nan, which fails <=.
        if not largest * (tau / 2.0) <= MAX_HALF_DELAY_PHASE:
            raise ValueError(f"{kind} preparation evolves freely for 1/(2 |J12|) and the phase of each "
                             f"half must be at most {MAX_HALF_DELAY_PHASE:.0f} rad (J12 = {system.j12:g}, "
                             f"nu1 = {system.nu1:g}, nu2 = {system.nu2:g} Hz)")
        # Kept as matrix products: with this exact diagonal they round like an
        # eigh-based exp(-i H tau / 2), which a broadcast multiply might not.
        half_delay = np.diag(np.exp(-1j * h.diagonal().real * (tau / 2.0)))
        u = _SELECT_REFOCUS[kind] @ half_delay @ _REFOCUS @ half_delay @ _EXCITE
    rho = pseudopure_00(epsilon)
    if epsilon == 0.0:
        warnings.warn(
            "epsilon = 0: the deviation part is empty and the prepared state "
            "is the maximally mixed state",
            stacklevel=2,
        )
    return u @ rho @ u.conj().T
