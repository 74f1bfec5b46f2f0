"""Simulated reduced state tomography with the {II, IX, IY, XX} readout set,
linear least-squares density-matrix reconstruction, and the Jozsa-Uhlmann
fidelity between density matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .states import MAXIMALLY_MIXED, validate_density_matrix
from .spinops import pulse

SETTINGS = ("II", "IX", "IY", "XX")

# NMR-detectable single-quantum elements read after each setting's rotation:
# spin-1 coherences (0,2), (1,3) and spin-2 coherences (0,1), (2,3).
DETECTED_ELEMENTS = ((0, 2), (1, 3), (0, 1), (2, 3))
_DETECTED_ROWS, _DETECTED_COLS = np.array(DETECTED_ELEMENTS).T


@dataclass(frozen=True)
class TomographyRecord:
    """Real/imaginary parts of the detected elements for one readout setting."""

    setting: str
    observables: tuple[float, ...]


def _unknown_setting(setting) -> ValueError:
    return ValueError(f"setting must be one of {SETTINGS}, got {setting!r}")


def readout_unitary(setting: str) -> np.ndarray:
    """Rotation applied before detection: identity, pi/2 x or y on spin 2,
    or pi/2 x on both spins."""
    if setting == "II":
        return np.eye(4, dtype=complex)
    if setting == "IX":
        return pulse(np.pi / 2.0, "x", "spin2")
    if setting == "IY":
        return pulse(np.pi / 2.0, "y", "spin2")
    if setting == "XX":
        return pulse(np.pi / 2.0, "x", "both")
    raise _unknown_setting(setting)


# Each setting's readout rotation u and its adjoint u^H, built once.
_READOUT = {s: (u, u.conj().T) for s in SETTINGS for u in (readout_unitary(s),)}


def _detected_observables(rho: np.ndarray, setting: str) -> list[float]:
    try:
        u, u_h = _READOUT[setting]
    except (KeyError, TypeError):
        raise _unknown_setting(setting) from None
    rotated = u @ rho @ u_h
    # Viewed as floats, the complex elements read re, im, re, im, ...
    return rotated[_DETECTED_ROWS, _DETECTED_COLS].view(float).tolist()


def simulate_readout(rho: np.ndarray, setting: str) -> TomographyRecord:
    """Expectation values observable in one tomography experiment."""
    rho = validate_density_matrix(rho)
    return TomographyRecord(setting, tuple(_detected_observables(rho, setting)))


def _deviation_basis() -> np.ndarray:
    """15 traceless Hermitian matrices spanning the unit-trace manifold's
    tangent, as a (15, 4, 4) stack."""
    basis = np.zeros((15, 4, 4), dtype=complex)
    for k, (r, s) in enumerate(itertools.combinations(range(4), 2)):
        basis[2 * k, r, s] = basis[2 * k, s, r] = 1.0
        basis[2 * k + 1, r, s], basis[2 * k + 1, s, r] = -1j, 1j
    for k in range(3):
        basis[12 + k, k, k], basis[12 + k, k + 1, k + 1] = 1.0, -1.0
    return basis


def _design_matrix() -> tuple[np.ndarray, np.ndarray]:
    """Observable response of each deviation-basis element under every setting.

    Row pair (re, im) per setting and detected element (r, s): the element
    (u b u^H)[r, s] is row r*4 + s of kron(u, conj(u)) applied to vec(b).
    """
    basis = _deviation_basis()
    u = np.stack([_READOUT[s][0] for s in SETTINGS])
    rows = [4 * r + s for r, s in DETECTED_ELEMENTS]
    kron = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(-1, 16, 16)
    response = kron[:, rows].reshape(-1, 16) @ basis.reshape(15, 16).T
    return np.stack([response.real, response.imag], axis=1).reshape(-1, 15), basis


def _reconstruction_map() -> np.ndarray:
    """The (16, 32) map from observables to the flattened deviation from I/4:
    B (D^T D)^-1 D^T, with the basis matrices as the columns of B."""
    design, basis = _design_matrix()
    return basis.reshape(15, 16).T @ np.linalg.solve(design.T @ design, design.T)


_RECONSTRUCTION = _reconstruction_map()


def reconstruct(records: list[TomographyRecord]) -> np.ndarray:
    """Least-squares reconstruction of the state from exactly one record per setting.

    Solves for the 15 real degrees of freedom of a unit-trace Hermitian
    matrix from the collected observables with a precomputed linear map,
    then trace-normalizes the result.  The result is exactly Hermitian: the
    map's rows for entries (r, s) and (s, r) are exact complex conjugates,
    since the basis entries are 0, +-1 and +-i.
    """
    by_setting = {}
    for rec in records:
        if rec.setting not in SETTINGS:
            raise _unknown_setting(rec.setting)
        if rec.setting in by_setting:
            raise ValueError(f"need one record per setting; {rec.setting!r} appears twice")
        by_setting[rec.setting] = rec
    if len(by_setting) != len(SETTINGS):
        missing = sorted(set(SETTINGS) - set(by_setting))
        raise ValueError(f"need one record per setting; missing {missing}")

    observed = np.array([v for s in SETTINGS for v in by_setting[s].observables])
    rho = MAXIMALLY_MIXED + (_RECONSTRUCTION @ observed).reshape(4, 4)
    return rho / rho.trace().real


PSD_CLAMP_TOL = 1e-12


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root with small negative eigenvalues clamped to zero."""
    eigvals, eigvecs = np.linalg.eigh(rho)
    if eigvals.min() < -1e-8:
        raise ValueError(f"matrix is significantly non-PSD (min eig {eigvals.min():.3e})")
    clamped = np.where(eigvals > PSD_CLAMP_TOL, eigvals, 0.0)
    return (eigvecs * np.sqrt(clamped)) @ eigvecs.conj().T


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Jozsa-Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, in [0, 1].

    Evaluated as the squared trace norm of sqrt(a) sqrt(b): the singular
    values are the eigenvalue square roots, so rank-deficient states do not
    suffer the sqrt amplification of eigenvalue-level noise.
    """
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
