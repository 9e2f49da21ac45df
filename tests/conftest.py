from hypothesis import HealthCheck, settings

from wcosym.mobius import ConstantMap, MobiusMap
from wcosym.series import RationalSymbol

# reproducible runs: property tests draw the same examples every time,
# matching the byte-determinism the report pipeline promises
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def symbols(psi, phi):
    """The weight and the map of row 0 of (B, 4) quadruple stacks, as the
    RationalSymbol and the MobiusMap or ConstantMap that build_wco and
    classify take; a row (0, v, 0, 1) is the constant map v."""
    a, b, c, d = phi[0].tolist()
    return RationalSymbol(*psi[0].tolist()), ConstantMap(b) if a == 0 and c == 0 else MobiusMap(a, b, c, d)
