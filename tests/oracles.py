"""References the tests compare the product against.

The product states each channel once, by its jump operators.  These are the
textbook descriptions of the same channels: the operator-sum map and the
closed-form single-spin phase damping and generalized amplitude damping
(Nielsen & Chuang, sections 8.3.5-8.3.6).  Next to them are the Choi matrix
that complete positivity is read from, the linear time grid the fits are
sampled on, the fidelity with one eigendecomposition per input, and the
propagator as it was first assembled, which the product must match bit for
bit.
"""

import numpy as np

from spinpair.channels import vectorize
from spinpair.estimation import KIND_DQ, KIND_ZQ, rate_for_kind
from spinpair.evolution import _BASIS, _block_values
from spinpair.states import validate_density_matrix
from spinpair.tomography import PSD_CLAMP_TOL


def kraus_sum(rho, kraus):
    """Operator-sum map sum_k E_k rho E_k+."""
    return sum(e @ rho @ e.conj().T for e in kraus)


def phase_damping_apply(rho, gamma, t):
    """Single-spin phase damping: off-diagonals scaled by exp(-gamma t)."""
    out = np.array(rho, dtype=complex)
    decay = np.exp(-gamma * t)
    out[0, 1] *= decay
    out[1, 0] *= decay
    return out


def gad_apply(rho, rate, nbar, t):
    """Single-spin generalized amplitude damping at temperature parameter nbar.

    Populations mix toward the thermal fixed point diag(1 - nbar, nbar);
    coherences decay as exp(-rate t / 2).
    """
    rho = np.asarray(rho, dtype=complex)
    depletion = 1.0 - np.exp(-rate * t)
    up, down = nbar * depletion, (1.0 - nbar) * depletion
    coherence_decay = np.exp(-rate * t / 2.0)
    return np.array([[(1.0 - up) * rho[0, 0] + down * rho[1, 1], coherence_decay * rho[0, 1]],
                     [coherence_decay * rho[1, 0], up * rho[0, 0] + (1.0 - down) * rho[1, 1]]])


def choi_matrix(superop):
    """Choi matrix C[(i,k),(j,l)] = E(|i><j|)[k,l] of a row-major vec-form superoperator."""
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    return superop.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1).reshape(dim**2, dim**2)


def suggested_times(kind, params, points=24, decades=3.0):
    """Linear sample grid covering about `decades` e-foldings of the kind's decay."""
    rate = max(rate_for_kind(kind, params), 1e-6)
    return np.linspace(0.0, decades / rate, points)


def _psd_sqrt(rho):
    """Hermitian square root with small negative eigenvalues clamped to zero."""
    eigvals, eigvecs = np.linalg.eigh(rho)
    if eigvals.min() < -1e-8:
        raise ValueError(f"matrix is significantly non-PSD (min eig {eigvals.min():.3e})")
    clamped = np.where(eigvals > PSD_CLAMP_TOL, eigvals, 0.0)
    return (eigvecs * np.sqrt(clamped)) @ eigvecs.conj().T


def fidelity(rho_a, rho_b):
    """Jozsa-Uhlmann fidelity as the squared trace norm of sqrt(a) sqrt(b),
    each square root from its own eigh call, a's checks before b's."""
    shape = np.shape(rho_a)
    if shape != np.shape(rho_b):
        raise ValueError(f"fidelity requires inputs of one shape, got {shape} and {np.shape(rho_b)}")
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError(f"fidelity requires non-empty square matrices, got shape {shape}")
    for rho in (rho_a, rho_b):
        rho = np.asarray(rho)
        # A nan or inf entry makes the deviation nan or inf, failing the test.
        if not float(np.abs(rho - rho.conj().T).max()) <= 1e-10:
            if not np.isfinite(rho).all():
                raise ValueError("fidelity requires finite inputs")
            raise ValueError("fidelity requires Hermitian inputs")
    sqrt_a = _psd_sqrt(np.asarray(rho_a, dtype=complex))
    sqrt_b = _psd_sqrt(np.asarray(rho_b, dtype=complex))
    singular_values = np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False)
    value = float(singular_values.sum() ** 2)
    # value is a Python float; a nan stays nan.
    return min(max(value, 0.0), 1.0)


def superoperator_by_basis(params, times):
    """exp(Z t) as a (T, 16, 16) float stack placed by the matmul values @ _BASIS,
    which copies each closed-form value: no two rows of the 0/1 basis share
    an entry, and every value is finite and >= 0."""
    times = np.asarray(times).reshape(-1).astype(float)
    zq_rate, dq_rate = rate_for_kind(KIND_ZQ, params), rate_for_kind(KIND_DQ, params)
    values = np.array([_block_values(params, zq_rate, dq_rate, t)[:len(_BASIS)] for t in times.tolist()])
    return (values.reshape(times.size, len(_BASIS)) @ _BASIS).reshape(-1, 16, 16)


def propagate_by_basis(rho0, params, t):
    """The states at t from the float stack of superoperator_by_basis, cast to
    complex by numpy for the product with vec rho0."""
    rho0 = validate_density_matrix(rho0)
    t = np.asarray(t)
    states = (superoperator_by_basis(params, t) @ vectorize(rho0)).reshape(-1, 4, 4)
    return states if t.ndim else states[0]
