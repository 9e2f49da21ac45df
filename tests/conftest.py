import numpy as np
from hypothesis import HealthCheck, settings

from wcosym.cli import REPORT_SCHEMA
from wcosym.mobius import cowen_stack, quadruple_gap
from wcosym.series import quotient_series

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


def psi_series(psi, n):
    """The first n Taylor coefficients of a weight."""
    return quotient_series([psi], n)[0]


def phi_series(phi, n):
    """The first n Taylor coefficients of a Mobius map or a constant (0, v, 0, d)."""
    a, b, c, d = phi
    if a == c == 0:
        return np.eye(1, n, dtype=complex)[0] * (b / d)
    return quotient_series([(b, a, d, c)], n)[0]


def convolution_columns(psi_s, phi, n, cols=None):
    """Reference build at any N: column j < cols (default n) = psi phi^j by Cauchy products."""
    phi_s = phi_series(phi, n)
    cols = n if cols is None else cols
    mat = np.zeros((n, cols), dtype=complex)
    mat[:, 0] = psi_s
    for j in range(1, cols):
        mat[:, j] = np.convolve(mat[:, j - 1], phi_s)[:n]
    return mat


def normality_defect(t, k):
    """|| T*T - TT* || on the leading k x k block of a whole matrix T."""
    return np.linalg.norm(t[:, :k].conj().T @ t[:, :k] - t[:k] @ t[:k].conj().T)


def symmetry_defect(t, u, k):
    """|| U conj(T) - T^H U || on the leading k x k block of whole matrices
    T and U: for the conjugation x -> U conj(x), zero iff T is C-symmetric."""
    return np.linalg.norm(u[:k] @ t[:, :k].conj() - t[:, :k].conj().T @ u[:, :k])


def validate_report_dict(doc):
    """The problems of a report document against REPORT_SCHEMA, the schema
    that `wcosym --print-schema` prints: a structural check."""
    problems = []
    for key in REPORT_SCHEMA["properties"]["config"]["required"]:
        if key not in doc.get("config", {}):
            problems.append(f"config missing {key}")
    for key in REPORT_SCHEMA["required"]:
        if key not in doc:
            problems.append(f"missing top-level {key}")
    for rec in doc.get("records", []):
        for key in REPORT_SCHEMA["properties"]["records"]["items"]["required"]:
            if key not in rec:
                problems.append(f"record {rec.get('index')} missing {key}")
        if rec.get("verdict") not in ("pass", "fail", "inconclusive", "discrepancy"):
            problems.append(f"record {rec.get('index')} bad verdict {rec.get('verdict')!r}")
    summary = doc.get("summary", {})
    if summary:
        counted = sum(summary.get(k, 0) for k in ("pass", "fail", "inconclusive", "discrepancy"))
        if counted != summary.get("total"):
            problems.append("summary counts do not sum to total")
    return problems
