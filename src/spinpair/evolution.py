"""Time propagation of two-spin states by the exact closed-form exponential
of the full decoherence generator.

The generator splits into nine invariant blocks: the four ZQ/DQ elements,
four single-quantum pairs that amplitude damping of the other spin couples,
and the population block, the tensor product of the two single-spin
amplitude-damping blocks.  Each block has a closed-form exponential, so
exp(Z t) is written entry by entry.  The Pade-13 `matrix_exp` stays as the
independent numeric reference the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import NoiseParams, vectorize
from .estimation import KIND_DQ, KIND_ZQ, rate_for_kind
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


# The ten distinct non-zero entries of exp(Z t), in the order _block_values
# returns them: the population block (same/flip per spin), the single-quantum
# pairs of each spin (same/flip of the other spin), and the ZQ and DQ elements.
_POPULATION, _SQ1, _SQ2, _ZQ, _DQ = 0, 4, 6, 8, 9
_N_VALUES = 10
_COHERENT = -1


def _spin_part(out_pair: tuple[int, int], in_pair: tuple[int, int]) -> int | None:
    """One spin's part of the entry mapping its (r, s) input pair to its output
    pair: _COHERENT, 0 (same population), 1 (flipped population) or None (zero)."""
    r, s = out_pair
    if r != s:
        return _COHERENT if in_pair == out_pair else None
    if in_pair[0] != in_pair[1]:
        return None
    return int(in_pair[0] != r)


def _entry_value(n: int, m: int) -> int | None:
    """Index into _block_values of exp(Z t)[n, m], or None where the entry is zero.

    Index n = 8 r1 + 4 r2 + 2 s1 + s2 holds rho[2 r1 + r2, 2 s1 + s2].
    """
    r1, r2, s1, s2 = (n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1
    q1, q2, p1, p2 = (m >> 3) & 1, (m >> 2) & 1, (m >> 1) & 1, m & 1
    spin1 = _spin_part((r1, s1), (q1, p1))
    spin2 = _spin_part((r2, s2), (q2, p2))
    if spin1 is None or spin2 is None:
        return None
    if spin1 == _COHERENT and spin2 == _COHERENT:
        return _ZQ if r1 != r2 else _DQ
    if spin1 == _COHERENT:
        return _SQ1 + spin2
    if spin2 == _COHERENT:
        return _SQ2 + spin1
    return _POPULATION + 2 * spin1 + spin2


# _BASIS[v, 16 n + m] is 1 where exp(Z t)[n, m] takes the v-th value, else 0
# (a zero entry's None becomes nan, which equals no index).  Every value is
# finite and >= 0, so values @ _BASIS places each one bit for bit.
_INDEX = np.array([_entry_value(n, m) for n in range(16) for m in range(16)], dtype=float)
_BASIS = (np.arange(_N_VALUES)[:, None] == _INDEX).astype(float)


def _block_values(params: NoiseParams, zq_rate: float, dq_rate: float, t: float) -> list[float]:
    """The ten distinct entries of exp(Z t), from six scalar exponentials.

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
    ]


def superoperator(params: NoiseParams, times) -> np.ndarray:
    """Exact exp(Z t) of the full generator at each of a 1-D array of times,
    as a (T, 16, 16) real stack; a scalar time gives a stack of one."""
    times = np.array(times, dtype=float, ndmin=1)
    if times.ndim != 1:
        raise ValueError(f"t must be a scalar or a 1-D array of times, got shape {times.shape}")
    zq_rate, dq_rate = rate_for_kind(KIND_ZQ, params), rate_for_kind(KIND_DQ, params)
    values = np.array([_block_values(params, zq_rate, dq_rate, t) for t in times.tolist()])
    return (values.reshape(times.size, _N_VALUES) @ _BASIS).reshape(-1, 16, 16)


def propagate(rho0: np.ndarray, params: NoiseParams, t) -> np.ndarray:
    """Evolve rho0 under the full decoherence generator.

    A scalar t returns the (4, 4) state at t; a 1-D array of T times returns
    the (T, 4, 4) stack of states.  Checks fail in this order: the shape of
    rho0, its content, then t.  rho0 is the one input validated: NoiseParams
    admits only completely positive rates at nbar = 1/2, under which the
    exact closed-form flow maps density matrices to density matrices, so
    the outputs are not checked again.  Rounding moves their trace by a few
    ulps, which can carry the outputs of a rho0 at the trace tolerance just
    past it.
    """
    rho0 = validate_density_matrix(rho0)
    states = (superoperator(params, t) @ vectorize(rho0)).reshape(-1, 4, 4)
    return states if np.ndim(t) else states[0]


def default_time_grid(start: float = 1e-3, stop: float = 10.0, points: int = 64) -> np.ndarray:
    """Log-spaced sweep grid with a leading t = 0 sample."""
    if start <= 0 or stop <= start or points < 2:
        raise ValueError("need 0 < start < stop and at least 2 points")
    return np.concatenate(([0.0], np.geomspace(start, stop, points)))
