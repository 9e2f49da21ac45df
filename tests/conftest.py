import numpy as np
from hypothesis import HealthCheck, settings

from wcosym.mobius import cowen_stack, quadruple_gap

# reproducible runs: property tests draw the same examples every time,
# matching the byte-determinism the report pipeline promises
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def stack(*quads):
    """The complex (B, 4) stack of the given quadruples."""
    return np.array(quads, dtype=complex)


def gap(m1, m2):
    """quadruple_gap of two single quadruples, as stacks of one."""
    return quadruple_gap(stack(m1), stack(m2))[0]


def rational(quad, z):
    """The value at z of the weight (n0 + n1 z) / (d0 + d1 z), quad = (n0, n1, d0, d1)."""
    n0, n1, d0, d1 = quad
    return (n0 + n1 * z) / (d0 + d1 * z)


def mobius(quad, z):
    """The value at z of the map (az + b) / (cz + d), quad = (a, b, c, d)."""
    a, b, c, d = quad
    return (a * z + b) / (c * z + d)


def first(psi, phi):
    """The weight and the map of row 0 of two (B, 4) stacks."""
    return psi[0], phi[0]


def cowen(m, sigma_sign=-1):
    """The (g, sigma, h) quadruples of cowen_stack for one map."""
    return tuple(quads[0] for quads in cowen_stack(np.array([m], dtype=complex), sigma_sign))
