"""Time propagation of two-spin states by the exact closed-form exponential
of the full decoherence generator.

The generator splits into nine invariant blocks: the four ZQ/DQ elements,
four single-quantum pairs that amplitude damping of the other spin couples,
and the population block, the tensor product of the two single-spin
amplitude-damping blocks.  Each block has a closed-form exponential.
Generalized amplitude damping acts on each spin alone (Nielsen & Chuang
§8.3.5), so the pattern of exp(Z t) is built from one 0/1 part per spin;
only the ZQ and DQ values, which correlated dephasing couples, do not
factor.  The Pade-13 `matrix_exp` stays as the independent numeric
reference the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import NoiseParams
from .spinops import _finite_real
from .states import validate_density_matrix

# Pade-13 numerator coefficients for the scaling-and-squaring exponential.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by Pade-13 scaling and squaring."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix_exp requires a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp requires finite entries")
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        m = m / (2.0**squarings)
    b = _PADE13
    eye = np.eye(m.shape[0], dtype=complex)
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


# Each spin's part of exp(Z t), on its vec index 2 r + s, is a 0/1 pattern
# [out, in]: its population kept or flipped, or its coherence |0><1| (UP) or
# |1><0| (DOWN) kept.
_KEEP = np.diag([1.0, 0.0, 0.0, 1.0])
_FLIP = np.fliplr(_KEEP)
_UP = np.diag([0.0, 1.0, 0.0, 0.0])
_DOWN = np.diag([0.0, 0.0, 1.0, 0.0])


def _pair(spin1: np.ndarray, spin2: np.ndarray) -> np.ndarray:
    """The two-spin product of one part per spin, flat over the (n, m) entries
    of exp(Z t), where index n = 8 r1 + 4 r2 + 2 s1 + s2 holds rho[2 r1 + r2, 2 s1 + s2]."""
    return np.einsum("ijkl,mnop->imjnkolp", spin1.reshape(2, 2, 2, 2), spin2.reshape(2, 2, 2, 2)).ravel()


# _BASIS[v, 16 n + m] is 1 where exp(Z t)[n, m] takes the v-th value of
# _block_values, else 0: the population block, the single-quantum pairs of
# each spin, and the ZQ and DQ elements.  No two rows share an entry, so
# _SLOT[n, m] names the one value at (n, m), or the trailing 0.0 of
# _block_values where no row is 1, and exp(Z t) is a gather of the values.
_BASIS = np.array(
    [_pair(a, b) for a in (_KEEP, _FLIP) for b in (_KEEP, _FLIP)]
    + [_pair(_UP + _DOWN, b) for b in (_KEEP, _FLIP)]
    + [_pair(a, _UP + _DOWN) for a in (_KEEP, _FLIP)]
    + [_pair(_UP, _DOWN) + _pair(_DOWN, _UP), _pair(_UP, _UP) + _pair(_DOWN, _DOWN)]
)
_SLOT = np.where(_BASIS.any(axis=0), _BASIS.argmax(axis=0), len(_BASIS)).reshape(16, 16)


def _block_values(params: NoiseParams, zq_rate: float, dq_rate: float, t: float) -> list[float]:
    """The ten distinct entries of exp(Z t), from six scalar exponentials,
    and the 0.0 of every other entry.

    Python floats let rate * t overflow to inf quietly, and exp(-inf) = 0.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    flip1 = -0.5 * math.expm1(-params.Gamma1 * t)
    flip2 = -0.5 * math.expm1(-params.Gamma2 * t)
    same1, same2 = 1.0 - flip1, 1.0 - flip2
    sq1 = math.exp(-(params.gamma1 + 0.5 * params.Gamma1) * t)
    sq2 = math.exp(-(params.gamma2 + 0.5 * params.Gamma2) * t)
    return [
        same1 * same2, same1 * flip2, flip1 * same2, flip1 * flip2,
        sq1 * same2, sq1 * flip2,
        sq2 * same1, sq2 * flip1,
        math.exp(-zq_rate * t), math.exp(-dq_rate * t),
        0.0,
    ]


def _flow(params: NoiseParams, times, dtype: type) -> np.ndarray:
    """exp(Z t) in dtype and in the shape of the times: (16, 16) at a scalar
    time, (T, 16, 16) on a 1-D array of T times, gathered from _block_values
    built in that dtype."""
    times = np.asarray(times)
    if times.dtype.kind not in "biuf":
        raise ValueError(f"t must be real (bool, integer or float), got dtype {times.dtype}")
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D array of times, got shape {times.shape}")
    zq_rate, dq_rate = params._coherence_rates
    t = times.astype(float, copy=False).tolist()
    if times.ndim:
        # Rows of 11 keep an empty grid two-dimensional.
        values = np.array([_block_values(params, zq_rate, dq_rate, time) for time in t], dtype=dtype)
        values = values.reshape(-1, len(_BASIS) + 1)
    else:
        # No stack of one around a scalar: a sweep point by point pays for it at every point.
        values = np.array(_block_values(params, zq_rate, dq_rate, t), dtype=dtype)
    # take, not values[..., _SLOT]: fancy indexing returns an F-ordered
    # stack, on which matmul skips BLAS and rounds differently.
    return values.take(_SLOT, axis=-1)


def superoperator(params: NoiseParams, times) -> np.ndarray:
    """Exact exp(Z t) of the full generator at each of a 1-D array of times,
    as a (T, 16, 16) real stack; a scalar time gives a stack of one,
    (1, 16, 16), where `propagate` returns a single state.  Times of any
    dtype but bool, integer or float raise, so a complex time cannot lose
    its imaginary part."""
    return _flow(params, np.atleast_1d(times), float)


def propagate(rho0: np.ndarray, params: NoiseParams, t) -> np.ndarray:
    """Evolve rho0 under the full decoherence generator.

    The states come in the shape of t: a scalar t returns the (4, 4) state
    at t, a 1-D array of T times the (T, 4, 4) stack of states.  Checks fail
    in this order: the shape of rho0, its content, then t.  rho0 is the one
    input validated: NoiseParams admits only completely positive rates at
    nbar = 1/2, under which the exact closed-form flow maps density matrices
    to density matrices, so the outputs are not checked again.  Rounding
    moves their trace by a few ulps, which can carry the outputs of a rho0
    at the trace tolerance just past it.
    """
    rho0 = validate_density_matrix(rho0)
    flow = _flow(params, t, complex)
    return (flow @ rho0.reshape(-1)).reshape(flow.shape[:-2] + (4, 4))


def default_time_grid(start: float = 1e-3, stop: float = 10.0, points: int = 64) -> np.ndarray:
    """Log-spaced sweep grid with a leading t = 0 sample."""
    start, stop = _finite_real(start, "start"), _finite_real(stop, "stop")
    if start <= 0 or stop <= start or points < 2:
        raise ValueError("need 0 < start < stop and at least 2 points")
    return np.concatenate(([0.0], np.geomspace(start, stop, points)))
