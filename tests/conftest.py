import math
import time

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from spinpair import NoiseParams


def pytest_configure(config):
    config._suite_start = time.perf_counter()


def pytest_collection_modifyitems(items):
    # Acceptance criteria run last so the suite-runtime criterion sees the
    # whole run (stable sort keeps the original order otherwise).
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


@pytest.fixture
def suite_start(request):
    return request.config._suite_start


def random_density_matrix(rng, dim=4):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def random_cp_params(rng, rate_scale=3.0):
    """NoiseParams sampled inside the strictly completely positive region
    (dephasing rate matrix positive semidefinite)."""
    gamma1 = rng.uniform(0.05, 1.0) * rate_scale
    gamma2 = rng.uniform(0.05, 1.0) * rate_scale
    gamma3 = rng.uniform(-0.95, 0.95) * 2.0 * np.sqrt(gamma1 * gamma2)
    return NoiseParams(
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        Gamma1=rng.uniform(0.0, 1.0),
        Gamma2=rng.uniform(0.0, 1.0),
    )


# Rates over four decades, 1e-2 to 1e2 1/s; gamma3 often exactly on the CP
# boundary |gamma3| = 2 sqrt(gamma1) sqrt(gamma2), which no random_cp_params
# draw reaches.
_decade_rate = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def admissible_params(draw):
    g1, g2 = draw(_decade_rate), draw(_decade_rate)
    fraction = draw(st.sampled_from([1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12), 0.0]) | st.floats(-1.0, 1.0))
    g3 = fraction * 2.0 * math.sqrt(g1) * math.sqrt(g2)
    damping = st.just(0.0) | _decade_rate
    try:
        return NoiseParams(g1, g2, g3, draw(damping), draw(damping))
    except ValueError:  # the diagonal clause, where the boundary rounds up
        assume(False)


# Diagonal states whose trace deviation sits on the validator's tolerance, so
# that only its own arithmetic gives its verdict, which is to reject both.
# The first is over it summed pairwise (1.00009e-12) but under it summed left
# to right (0.99987e-12).  The second is over it by hypot, as abs of one
# complex scalar rounds, but np.abs of a complex array rounds its deviation
# to exactly 1e-12.
TRACE_EDGES = (
    np.diag([0.15214618998111995, 0.1811666817173778, 0.5956312448981398, 0.0710558834043624]) + 0j,
    np.diag([0.250000000000009, 0.25, 0.25, 0.25]) + 2.499901390442079e-13j * np.eye(4),
)
