"""Kraus maps and Lindblad generators for the two-spin noise model.

Single-spin phase damping and generalized amplitude damping are given as
maps and generators; the two-spin model, correlated dephasing plus
generalized amplitude damping of each spin, is one Lindbladian built from
its jump operators.

Superoperators act on the row-major vectorization of the density matrix,
vec(rho)[4 r + s] = rho[r, s]; single-spin generators use the analogous
4-vector (rho00, rho01, rho10, rho11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinops import pauli
from .states import validate_density_matrix

KRAUS_COMPLETENESS_TOL = 1e-10


class NotCompletelyPositive(ValueError):
    """Rates whose dephasing rate matrix is indefinite: |gamma3| > 2 sqrt(gamma1 gamma2)."""


@dataclass(frozen=True)
class NoiseParams:
    """Decay rates (1/s) of the two-spin noise model.

    gamma1/gamma2 are the independent dephasing rates, gamma3 the correlated
    dephasing rate (may be negative), Gamma1/Gamma2 the amplitude-damping
    rates of each spin.  nbar is the reservoir temperature parameter; the
    closed-form propagator models only the infinite-temperature limit nbar = 1/2.

    The constructor is the one place that decides which rates are
    admissible: finite, non-negative damping and independent dephasing
    rates, nbar = 1/2, and a completely positive generator.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    Gamma1: float
    Gamma2: float
    nbar: float = 0.5

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2", "nbar"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"NoiseParams.{name} must be finite")
        for name in ("gamma1", "gamma2", "Gamma1", "Gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"NoiseParams.{name} must be non-negative")
        if self.nbar != 0.5:
            raise ValueError(f"nbar = {self.nbar} is not supported: the generator models the "
                             "infinite-temperature limit nbar = 0.5")
        # Implied by the rule below in exact arithmetic, but not in floating
        # point: at gamma1 = gamma2 = 2, 2 sqrt(2) sqrt(2) = 4.000000000000001.
        # It keeps the ZQ and DQ rates gamma1 + gamma2 -/+ gamma3 of the rate
        # table non-negative, so no closed-form coherence grows.
        if self.gamma1 + self.gamma2 - self.gamma3 < 0 or self.gamma1 + self.gamma2 + self.gamma3 < 0:
            raise ValueError(
                "correlated dephasing rate gamma3 yields a negative diagonal "
                "decay rate (|gamma3| > gamma1 + gamma2): generator is not "
                "completely positive"
            )
        # Complete positivity: the 2x2 dephasing rate matrix is positive
        # semidefinite.  Two square roots, rather than gamma3^2 <= 4 gamma1
        # gamma2, so rates near 1e-308 do not underflow and 1e300 does not
        # overflow.  Tiny rates are first scaled by 2**600, which is exact and
        # leaves the homogeneous rule unchanged, so that a subnormal bound is
        # not rounded to the coarse subnormal grid.
        g1, g2, g3 = self.gamma1, self.gamma2, abs(self.gamma3)
        if max(g1, g2, g3) < 2.0**-400:
            g1, g2, g3 = g1 * 2.0**600, g2 * 2.0**600, g3 * 2.0**600
        if g3 > 2.0 * math.sqrt(g1) * math.sqrt(g2):
            raise NotCompletelyPositive(f"|gamma3| = {abs(self.gamma3):g} exceeds 2 sqrt(gamma1 gamma2), "
                                        "so the generator is not completely positive")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of vectorize for a square matrix."""
    vec = np.asarray(vec)
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape(dim, dim)


def apply_kraus(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """Apply the operator-sum map sum_k E_k rho E_k+ after checking completeness."""
    if np.ndim(rho) != 2:
        raise ValueError(f"density matrix must be 4x4, got shape {np.shape(rho)}")
    rho = validate_density_matrix(rho)
    _check_completeness(kraus, rho.shape[0])
    out = np.zeros_like(rho)
    for e in kraus:
        e = np.asarray(e, dtype=complex)
        out += e @ rho @ e.conj().T
    return out


def _check_completeness(kraus: list[np.ndarray], dim: int) -> None:
    total = np.zeros((dim, dim), dtype=complex)
    for e in kraus:
        e = np.asarray(e, dtype=complex)
        total += e.conj().T @ e
    dev = float(np.abs(total - np.eye(dim)).max())
    if dev > KRAUS_COMPLETENESS_TOL:
        raise ValueError(f"Kraus set violates completeness, sum E+E deviates by {dev:.3e}")


def correlated_mixture(
    rho: np.ndarray,
    uncorrelated_kraus: list[np.ndarray],
    correlated_kraus: list[np.ndarray],
    mu: float,
) -> np.ndarray:
    """Convex mixture of an uncorrelated and a correlated Kraus channel.

    Returns (1 - mu) * sum_ij E_ij rho E_ij+ + mu * sum_k E_kk rho E_kk+,
    where mu is the probability for the noise to be correlated.  Both
    families must individually satisfy the completeness relation.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    product_part = apply_kraus(rho, uncorrelated_kraus)
    correlated_part = apply_kraus(rho, correlated_kraus)
    return (1.0 - mu) * product_part + mu * correlated_part


# ----------------------------------------------------------------------
# Single-spin channels
# ----------------------------------------------------------------------


def phase_damping_apply(rho: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """Single-spin phase damping: off-diagonals scaled by exp(-gamma t)."""
    if gamma < 0 or t < 0:
        raise ValueError("gamma and t must be non-negative")
    rho = np.asarray(rho, dtype=complex)
    decay = np.exp(-gamma * t)
    out = rho.copy()
    out[0, 1] *= decay
    out[1, 0] *= decay
    return out


def phase_damping_generator(gamma: float) -> np.ndarray:
    """Single-spin dephasing generator diag(0, -gamma, -gamma, 0) on the 4-vector."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return np.diag([0.0, -gamma, -gamma, 0.0]).astype(complex)


def gad_apply(rho: np.ndarray, rate: float, nbar: float, t: float) -> np.ndarray:
    """Single-spin generalized amplitude damping at temperature parameter nbar.

    Populations mix toward the thermal fixed point diag(1 - nbar, nbar);
    coherences decay as exp(-rate t / 2).
    """
    if rate < 0 or t < 0:
        raise ValueError("rate and t must be non-negative")
    if not 0.0 <= nbar <= 1.0:
        raise ValueError("nbar must lie in [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    depletion = 1.0 - np.exp(-rate * t)
    k2 = (1.0 - nbar) * depletion
    k3 = nbar * depletion
    k1 = 1.0 - k3
    k4 = 1.0 - k2
    coherence_decay = np.exp(-rate * t / 2.0)
    out = np.empty_like(rho)
    out[0, 0] = k1 * rho[0, 0] + k2 * rho[1, 1]
    out[1, 1] = k3 * rho[0, 0] + k4 * rho[1, 1]
    out[0, 1] = coherence_decay * rho[0, 1]
    out[1, 0] = coherence_decay * rho[1, 0]
    return out


def gad_generator_single(rate: float) -> np.ndarray:
    """Infinite-temperature amplitude-damping generator on one spin's 4-vector."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    half = 0.5 * rate
    return np.array(
        [
            [-half, 0.0, 0.0, half],
            [0.0, -half, 0.0, 0.0],
            [0.0, 0.0, -half, 0.0],
            [half, 0.0, 0.0, -half],
        ],
        dtype=complex,
    )


# ----------------------------------------------------------------------
# Two-spin generator
# ----------------------------------------------------------------------


def jump_operators(params: NoiseParams) -> list[np.ndarray]:
    """Lindblad operators of the two-spin noise model.

    Correlated dephasing has the Kossakowski matrix
    K = [[gamma1/2, gamma3/4], [gamma3/4, gamma2/2]] on (sigma_z^1, sigma_z^2),
    which is positive semidefinite exactly when |gamma3| <= 2 sqrt(gamma1 gamma2),
    the constructor's rule.  Its eigenpairs give the operators
    sqrt(lambda_k) (V_1k sigma_z^1 + V_2k sigma_z^2); on the boundary eigh may
    return lambda_min a few ulps below zero, which is clamped.  Generalized
    amplitude damping of spin i adds sqrt((1 - nbar) Gamma_i) sigma_-^i and
    sqrt(nbar Gamma_i) sigma_+^i, with sigma_- = |0><1|.
    """
    kossakowski = np.array([[params.gamma1 / 2.0, params.gamma3 / 4.0],
                            [params.gamma3 / 4.0, params.gamma2 / 2.0]])
    eigenvalues, vectors = np.linalg.eigh(kossakowski)
    sz1, sz2 = pauli(1, "z"), pauli(2, "z")
    ops = [math.sqrt(max(lam, 0.0)) * (v1 * sz1 + v2 * sz2) for lam, (v1, v2) in zip(eigenvalues, vectors.T)]
    for spin, rate in ((1, params.Gamma1), (2, params.Gamma2)):
        lower = 0.5 * (pauli(spin, "x") + 1j * pauli(spin, "y"))
        ops.append(math.sqrt((1.0 - params.nbar) * rate) * lower)
        ops.append(math.sqrt(params.nbar * rate) * lower.conj().T)
    return ops


def full_generator(params: NoiseParams) -> np.ndarray:
    """Full two-spin decoherence generator: correlated dephasing plus
    generalized amplitude damping on each spin, in Lindblad form."""
    return lindblad_generator(jump_operators(params))


def lindblad_generator(ops: list[np.ndarray]) -> np.ndarray:
    """Generator sum_k [L rho L+ - (L+L rho + rho L+L)/2] in row-major vec form."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    dim = ops[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in ops:
        opd_op = op.conj().T @ op
        gen += np.kron(op, op.conj())
        gen -= 0.5 * (np.kron(opd_op, eye) + np.kron(eye, opd_op.T))
    return gen


# ----------------------------------------------------------------------
# Generator diagnostics
# ----------------------------------------------------------------------


def trace_functional(dim: int) -> np.ndarray:
    """Row vector summing the vec positions that hold diag(rho)."""
    w = np.zeros(dim * dim)
    w[:: dim + 1] = 1.0
    return w


def is_trace_preserving_generator(gen: np.ndarray) -> bool:
    """The trace functional must be a left null vector of the generator, to
    1e-12 in every entry."""
    gen = np.asarray(gen)
    dim = int(round(np.sqrt(gen.shape[0])))
    return float(np.abs(trace_functional(dim) @ gen).max()) <= 1e-12


def preserves_hermiticity(gen: np.ndarray, rho: np.ndarray) -> bool:
    """Check Z(rho) is Hermitian, to 1e-12 in every entry, for a Hermitian rho."""
    out = devectorize(np.asarray(gen) @ vectorize(rho))
    return float(np.abs(out - out.conj().T).max()) <= 1e-12


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix C[(i,k),(j,l)] = E(|i><j|)[k,l] of a vec-form superoperator."""
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    return superop.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1).reshape(dim**2, dim**2)
