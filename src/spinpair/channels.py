"""Lindblad generators for the two-spin noise model.

Every generator is `lindblad_generator` of its jump operators: single-spin
phase damping at rate gamma has sqrt(gamma / 2) sigma_z, amplitude damping
at rate Gamma has sqrt((1 - nbar) Gamma) sigma_- and sqrt(nbar Gamma)
sigma_+, and the two-spin model is `full_generator`.

Superoperators act on the row-major vectorization of a d x d density
matrix, vec(rho)[d r + s] = rho[r, s].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinops import _finite_real, pauli


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
            object.__setattr__(self, name, _finite_real(getattr(self, name), f"NoiseParams.{name}"))
        for name in ("gamma1", "gamma2", "Gamma1", "Gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"NoiseParams.{name} must be non-negative")
        if self.nbar != 0.5:
            raise ValueError(f"nbar = {self.nbar} is not supported: the closed-form propagator "
                             "models only the infinite-temperature limit nbar = 0.5")
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

    @property
    def _coherence_rates(self) -> tuple[float, float]:
        """The ZQ and DQ decay rates of `estimation.rate_for_kind`, evaluated
        once per instance and kept outside the fields that ==, hash, repr,
        asdict and replace read.  Not a functools.cached_property: it writes
        through the instance's __dict__, after which CPython 3.11 reads every
        rate of the instance about half again slower, and the propagator
        reads six per time point."""
        try:
            return self._coherence_rates_memo
        except AttributeError:
            from .estimation import KIND_DQ, KIND_ZQ, rate_for_kind

            rates = rate_for_kind(KIND_ZQ, self), rate_for_kind(KIND_DQ, self)
            object.__setattr__(self, "_coherence_rates_memo", rates)
            return rates


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


# ----------------------------------------------------------------------
# Lindblad generators
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
