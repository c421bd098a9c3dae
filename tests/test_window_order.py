"""A safe window listed out of canonical order.

A package keeps its safe window as the positions of its names in the order
given, and every check that quantifies the window walks it in that order:
the input count up to a failure and the witness depend on it.  The
window here is lambda-s1-plus's (omega-s1-plus's for loday-ronco,
lambda-s3's for cc-antisymmetry) at N = 8, reversed, on mutants that fail
each check; the values are those of the library before the window became
positions fixed at construction.
"""

from chainalg import report as rp
from chainalg import scenario as sc
from chainalg.bialgebra import (AXIOM_ORDER, BialgebraData, check_axioms,
                                check_cc_implies_antisymmetry,
                                check_loday_ronco)
from chainalg.cone_product import (check_assoc_implies_infinitesimal,
                                   cone_data_from_bialgebra,
                                   cross_check_components)
from chainalg.fixtures import (TruncationWindow, flip_structure_constant,
                               make_fixture, mutate_lambda, mutate_mu)
from chainalg.graded import TENSOR_SEP as X, GradedMap, Outcome
from name_keyed import cone_window

W = TruncationWindow(8)

_COASSOC = (
    "-1⊗A*U^2⊗A - 1⊗A*U⊗A*U - 1⊗A⊗A*U^2 + A*U^2⊗1⊗A - A*U^2⊗A⊗1 "
    "+ A*U⊗1⊗A*U - A*U⊗A*U⊗1 {} A*U⊗A⊗U + A*U⊗U⊗A + A⊗1⊗A*U^2 "
    "- A⊗A*U^2⊗1 - A⊗A*U⊗U - A⊗A⊗U^2 + A⊗U^2⊗A {} A⊗U⊗A*U - U^2⊗A⊗A "
    "- U⊗A*U⊗A - U⊗A⊗A*U")

# check -> (status, inputs checked, witness, or the detail of a check whose
# record gives its failing input there)
PINNED = {
    "unit (left)": ("pass", 10, "10 inputs"),
    "unit (right)": ("pass", 10, "10 inputs"),
    "associativity": ("fail", 23, ("U^2⊗U^-1⊗U^-1", "-1", "1")),
    "coassociativity": ("fail", 1, ("U^2", _COASSOC.format("+", "+"),
                                    _COASSOC.format("-", "-"))),
    "unital infinitesimal": ("fail", 3, (
        "U^2⊗U^-1", "-1⊗A*U + A*U⊗1 - A⊗U - U⊗A",
        "-1⊗A*U - A*U⊗1 + A⊗U - U⊗A")),
    "unital anti-symmetry": ("fail", 3, (
        "U^2⊗U^-1", "1⊗A*U + A*U⊗1 - A⊗U + U⊗A",
        "1⊗A*U - A*U⊗1 - A⊗U + U⊗A")),
    "cc-antisymmetry": ("skip", None, (
        "unital infinitesimal relation fails: unital infinitesimal: FAIL at "
        "U^2⊗U^2; lhs = -1⊗A*U^3 + A*U^2⊗U + A*U^3⊗1 + A*U⊗U^2 + A⊗U^3 "
        "- U^2⊗A*U - U^3⊗A - U⊗A*U^2; rhs = -1⊗A*U^3 - A*U^2⊗U + A*U^3⊗1 "
        "+ A*U⊗U^2 - A⊗U^3 - U^2⊗A*U + U^3⊗A + U⊗A*U^2")),
    "loday-ronco": ("fail", 4, (
        "U^2⊗U", "1⊗U^3 + U^2⊗U + U^3⊗1 + U⊗U^2",
        "1⊗U^3 + U^2⊗U + U^3⊗1 - U⊗U^2")),
    "components": ("fail", 400, "; ".join((
        "pm mismatch at +U^2(x)-U^2^ in pm_m: assembled (A | 1^) vs closed "
        "form (A | 0)",
        "pm mismatch at +U^2(x)-U^-2^ in pm_m: assembled (0 | U^-4^) vs "
        "closed form (0 | 0)",
        "pm mismatch at +U^2(x)-U^-1^ in pm_m: assembled (0 | U^-3^) vs "
        "closed form (0 | 0)",
        "pm mismatch at +U^2(x)-U^ in pm_m: assembled (A*U | U^-1^) vs "
        "closed form (A*U | 0)",
        "pm mismatch at +U^2(x)-1^ in pm_m: assembled (0 | U^-2^) vs "
        "closed form (0 | 0)"))),
    "cone associativity": ("fail", 44, "+U^2(x)+U^-1(x)+U: -+U^2 vs +U^2"),
    "assoc-infinitesimal": (
        "fail", 1, "fails at a=U^2, b=U^2, f=U^2^: -2*A*U^2 vs 0"),
    "reverse-coproduct": (
        "fail", None,
        "mismatch at U^2: rebuilt A*U⊗U - 2*A⊗U^2 - U⊗A*U, direct "
        "A*U⊗U - U⊗A*U"),
}


def reversed_window(inst):
    return BialgebraData(inst.module, inst.mu, inst.lam, inst.eta,
                         safe_names=inst.safe_names[::-1], name=inst.name)


def pinned(out: Outcome):
    return out.status, out.inputs_checked, out.witness or out.detail


def test_a_window_out_of_canonical_order_is_walked_in_its_order():
    plus = reversed_window(make_fixture("lambda-s1-plus", W))
    pos = plus.module.index().pos
    assert plus.safe == tuple(pos[n] for n in plus.safe_names)
    assert list(plus.safe) != sorted(plus.safe)
    got = {}
    bad = mutate_lambda(mutate_mu(plus, f"U{X}U^-1", "1"), "U", f"A{X}U")
    for axiom, out in zip(AXIOM_ORDER, check_axioms(bad).results):
        got[axiom] = pinned(out)
    # lambda-s3 with lam(U^2) flipped at A(x)U and U(x)A: cocommutative,
    # and the unital infinitesimal relation fails
    s3 = reversed_window(make_fixture("lambda-s3", W))
    lam = s3.lam
    for out in (f"A{X}U", f"U{X}A"):
        lam = flip_structure_constant(lam, "U^2", out)
    got["cc-antisymmetry"] = pinned(check_cc_implies_antisymmetry(
        BialgebraData(s3.module, s3.mu, lam, s3.eta,
                      safe_names=s3.safe_names)))
    omega = reversed_window(make_fixture("omega-s1-plus", W))
    got["loday-ronco"] = pinned(check_loday_ronco(
        mutate_mu(omega, f"U{X}U", "U^2")))
    # the cone checks: pm_m zeroed, mu(U, U) flipped, and two pm_p
    # constants flipped with associativity kept as passing
    data = cone_data_from_bialgebra(plus, n=1)
    assert data.safe == plus.safe
    pm_m = data.components["pm_m"]
    data.components["pm_m"] = GradedMap.zero(pm_m.source, pm_m.target, 0)
    got["components"] = pinned(cross_check_components(data))
    got["cone associativity"] = pinned(cone_data_from_bialgebra(
        mutate_mu(plus, f"U{X}U", "U^2"), n=1).associativity)
    data = cone_data_from_bialgebra(plus, n=1)
    pm_p = data.components["pm_p"]
    for key, out in ((f"U^2{X}U^2^", "A"), (f"U^-1{X}A^", "U^-1")):
        pm_p = flip_structure_constant(pm_p, key, out)
    data.components["pm_p"] = pm_p
    data.associativity = Outcome("pass", "associative on the safe window")
    got["assoc-infinitesimal"] = pinned(
        check_assoc_implies_infinitesimal(data))
    # two rows of lam flipped: the first in the window's order is named
    rev = mutate_lambda(mutate_lambda(plus, "U", f"A{X}U"), "U^2",
                        f"A{X}U^2")
    scn = sc.Scenario("bialgebra", "lambda-s1-plus", rev.module.ring, rev,
                      (), W)
    [rec] = rp.records(scn, ("reverse-coproduct",), "", False)
    got["reverse-coproduct"] = rec.status, None, rec.detail
    assert got == PINNED


def test_the_cone_window_is_kept_once_in_the_window_order():
    """`ConeProductData.cone_window`, which components and cone
    associativity both read, is the name-keyed window on the cone (each
    "+x", then each "-x^", in the package's order), built once."""
    data = cone_data_from_bialgebra(
        reversed_window(make_fixture("lambda-s1-plus", W)), n=1)
    window = data.cone_window
    assert window == tuple(cone_window(data))
    assert list(window) != sorted(window)
    assert data.cone_window is window
