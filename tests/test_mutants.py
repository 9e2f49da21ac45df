"""The mutation gate: planted defects that the registered suites must catch.

Each mutant replaces one closed form with a wrong one at every binding of
it in the package (a module that imported the name holds its own binding),
runs every suite at its registry defaults, and asserts that the outcome of
the suites it names moves: a record's verdict, or a run that raises (a
SamplingBudgetError counts).  A defect shared by a family constructor and
the check of the same family would cancel; each row shows that the one
owner of a formula is checked from outside it.
"""

import sys

import numpy as np
import pytest

from wcosym import cli, families, mobius  # noqa: F401 (cli holds bindings of two targets)
from wcosym.errors import SamplingBudgetError, WcoError
from wcosym.verify import SUITES, default_config, run_suite

MODULES = [module for name, module in sorted(sys.modules.items()) if name.split(".")[0] == "wcosym"]


def _conjugated(original):
    return lambda *args: np.conj(original(*args))


def _negated(original):
    return lambda *args: np.logical_not(original(*args))


def _output_changed(index, change):
    """The defect that applies change to output index of the original."""
    def defect(original):
        def mutant(*args):
            out = list(original(*args))
            out[index] = change(out[index])
            return tuple(out)

        return mutant

    return defect


def _pole_flipped(psi):
    """The weights (n0, n1, d0, d1) with d1 negated: the C2 weight d V / (V + T z), say."""
    return psi * np.array([1.0, 1.0, 1.0, -1.0])


# target -> (the defect made of the original, the suites that must move)
MUTANTS = {
    "compose_stack swapped": (
        mobius.compose_stack, lambda original: lambda first, second: original(second, first),
        {"prop21-normal", "ex41-equivalence", "ex51-interior", "ex51-aut-corollary"},
    ),
    "c2_parabolic_dw_point conjugated": (families.c2_parabolic_dw_point, _conjugated, {"ex63-parabolic"}),
    "c2_aut_beta conjugated": (families.c2_aut_beta, _conjugated, {"lemma33-aut"}),
    # cowen_stack is sigma's one writer, so the flip reaches the factorization
    # and the LFT oracle of thm61; prop22 does not move, because its claim
    # (the LFT oracle) and its weight K_{sigma(0)} read the same sigma and flip together
    "cowen_stack sign flipped": (
        mobius.cowen_stack, lambda original: lambda quads, sigma_sign=-1: original(quads, -sigma_sign),
        {"cowen-factorization", "thm61-consistency"},
    ),
    "c2_raw_phi with +W": (
        families.c2_raw_phi, lambda original: lambda alpha, t, u, v, w: original(alpha, t, u, v, -w),
        {"c2sym-form", "ex61-interior", "ex63-parabolic", "lemma33-aut", "thm61-consistency"},
    ),
    "j_normal_expression Im(conj(a0) a1) negated": (
        families.j_normal_expression,
        lambda original: lambda a0, a1: a0.imag * (1.0 - abs(a0) ** 2) - (a0.conjugate() * a1).imag,
        {"prop41-iff", "cor41-aut"},
    ),
    # the iff suites share one recorder, which must read the predicate each
    # suite passes it at run time, not a function object held since import
    "j_normal_predicate negated": (families.j_normal_predicate, _negated, {"prop41-iff"}),
    "c1_normal_predicate negated": (families.c1_normal_predicate, _negated, {"thm51-iff"}),
    "interior_quadruples with conj(delta)": (
        families.interior_quadruples,
        lambda original: lambda p, delta, gamma=1.0: original(p, np.conj(delta), gamma),
        {"ex41-equivalence", "ex51-interior"},
    ),
    "C2 weight with -T": (
        families.c2_quadruples, _output_changed(0, _pole_flipped),
        {"c2sym-form", "ex61-interior", "ex63-parabolic", "thm61-consistency"},
    ),
    # the closed forms that the automorphism lemmas, the parabolic examples
    # and cor62 read, each checked from outside its owner
    "c1_aut_forms with gamma conjugated": (
        families.c1_aut_forms, _output_changed(2, np.conj), {"lemma31-aut", "lemma32-aut"},
    ),
    "c2_params_from_aut with conj(beta)": (
        families.c2_params_from_aut,
        lambda original: lambda alpha, beta, gamma, c1: original(alpha, np.conj(beta), gamma, c1),
        {"lemma33-aut"},
    ),
    "parabolic_j_quadruples with the weight's pole flipped": (
        families.parabolic_j_quadruples, _output_changed(0, _pole_flipped), {"ex44-parabolic"},
    ),
    "c1_parabolic_quadruples with the weight's pole flipped": (
        families.c1_parabolic_quadruples, _output_changed(0, _pole_flipped), {"ex54-parabolic"},
    ),
    "c2_aut_forms reporting DiskForm for NoneType": (
        families.c2_aut_forms,
        _output_changed(0, lambda names: np.where(names == "NoneType", "DiskForm", names)),
        {"cor62-no-aut"},
    ),
    # cor62's moduli-equality draws are built by c2_params_from_tuv; their
    # moduli_gap reads |T|, |U| and |V| back
    "c2_params_from_tuv with U scaled by 1.1": (
        families.c2_params_from_tuv, lambda original: lambda alpha, t, u, v: original(alpha, t, 1.1 * u, v),
        {"cor62-no-aut"},
    ),
}


def _outcomes():
    """Each suite's verdicts, record by record, at its registry defaults, or
    the refusal it raises: a mutant may trade verdicts between records and
    keep the summary (c2_raw_phi with +W turns thm61's 12 case I passes and
    12 interior-normal discrepancies around)."""
    out = {}
    for suite_id in sorted(SUITES):
        try:
            out[suite_id] = [record.verdict for record in run_suite(suite_id, default_config(suite_id)).records]
        except (WcoError, SamplingBudgetError) as exc:
            out[suite_id] = type(exc).__name__
    return out


@pytest.fixture(scope="module")
def baseline():
    return _outcomes()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, baseline, monkeypatch):
    target, defect, suites = MUTANTS[name]
    bindings = [(module, attr) for module in MODULES for attr, value in vars(module).items() if value is target]
    assert bindings
    mutant = defect(target)
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, mutant)
    got = _outcomes()
    moved = {suite_id for suite_id in baseline if got[suite_id] != baseline[suite_id]}
    assert suites <= moved, (name, sorted(moved))
