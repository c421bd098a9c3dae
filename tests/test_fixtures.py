import json
import os
import re

import pytest

from chainalg.rings import ZZ, QQ, GF
from chainalg.graded import Vector, tensor, TENSOR_SEP
from chainalg.bialgebra import (AXIOM_ORDER, check_axioms,
                                 check_cc_implies_antisymmetry)
from chainalg.fixtures import (
    TruncationWindow,
    TruncationOverflow,
    make_fixture,
    fixture_names,
    mutate_lambda,
    mutate_mu,
)
from chainalg import scenario as sc
from random_instances import make_random_instance
from name_keyed import degree, degree_of, is_zero, zero

W = TruncationWindow(12)
DATA = os.path.join(os.path.dirname(__file__), "data")


def T(inst, *pairs):
    """Tensor vector from (coeff, left, right) triples."""
    A2 = tensor(inst.module, inst.module)
    out = {}
    for coeff, left, right in pairs:
        out[f"{left}{TENSOR_SEP}{right}"] = coeff
    return Vector(A2, out)


def test_window_validation():
    with pytest.raises(ValueError):
        TruncationWindow(3)
    assert TruncationWindow(12).safe_radius == 3
    assert TruncationWindow(4).safe_radius == 1


@pytest.mark.parametrize("name,N", [("lambda-s1-minus", 511),
                                    ("omega-s1-plus", 1023),
                                    ("lambda-s3", 1023), ("omega-s3", 2047)])
def test_a_window_at_the_basis_cap_builds_and_one_more_is_refused(name, N):
    # the cap ingest applies to a module, MAX_BASIS basis elements: N is
    # the largest window whose module has at most that many
    inst = make_fixture(name, TruncationWindow(N))
    assert len(inst.module.basis()) <= sc.MAX_BASIS
    with pytest.raises(ValueError, match=f"more than the {sc.MAX_BASIS}"):
        make_fixture(name, TruncationWindow(N + 1))


def test_sphere_product_and_coproduct_values():
    inst = make_fixture("lambda-s3", W)
    # A*A = 0
    assert is_zero(inst.mu.eval_basis(f"A{TENSOR_SEP}A"))
    # lam(U^2) = A(x)U + A*U(x)1 - 1(x)A*U - U(x)A
    assert inst.lam.eval_basis("U^2") == T(
        inst, (1, "A", "U"), (1, "A*U", "1"), (-1, "1", "A*U"), (-1, "U", "A"))
    # lam(1) = 0 (empty sum)
    assert is_zero(inst.lam.eval_basis("1"))
    # degrees: |U| = n-1, |A| = -n
    assert degree_of(inst.module, "U") == 2
    assert degree_of(inst.module, "A") == -3
    assert inst.lam.degree == -5


def test_circle_coproduct_branch_values():
    plus = make_fixture("lambda-s1-plus", W)
    minus = make_fixture("lambda-s1-minus", W)
    # k = 0 cases
    assert plus.lam.eval_basis("1") == T(plus, (1, "A", "1"),
                                         (-1, "1", "A"))
    assert minus.lam.eval_basis("1") == T(minus, (-1, "A", "1"),
                                          (1, "1", "A"))
    # empty-sum branches
    assert is_zero(plus.lam.eval_basis("A*U^-1"))
    assert is_zero(minus.lam.eval_basis("U"))
    # a negative-branch value: lam_plus(U^-2) = -sum_{i=-1}^{-1}(...)
    assert plus.lam.eval_basis("U^-2") == T(plus, (-1, "A*U^-1", "U^-1"),
                                            (1, "U^-1", "A*U^-1"))


def test_based_loop_values():
    s3 = make_fixture("omega-s3", W)
    assert s3.lam.eval_basis("U") == T(s3, (1, "1", "1"))
    assert degree_of(s3.module, "U") == 2
    assert s3.lam.degree == -2

    plus = make_fixture("omega-s1-plus", W)
    assert plus.lam.eval_basis("1") == T(plus, (1, "1", "1"))
    minus = make_fixture("omega-s1-minus", W)
    assert is_zero(minus.lam.eval_basis("U"))
    assert minus.lam.eval_basis("1") == T(minus, (-1, "1", "1"))


@pytest.mark.parametrize("name", [n for n in fixture_names() if n != "tstar-s1"])
def test_truncation_soundness(name):
    # rebuilding with on_overflow="raise" and running every axiom check on
    # the safe window must never touch a dropped structure constant
    inst = make_fixture(name, W, ZZ, on_overflow="raise")
    rep = check_axioms(inst)
    assert [r for r in rep.results if r.status != "pass"] == []


def test_overflow_detection_outside_safe_window():
    inst = make_fixture("lambda-s1-plus", W, on_overflow="raise")
    A2 = tensor(inst.module, inst.module)
    with pytest.raises(TruncationOverflow):
        inst.mu.eval_basis(f"U^12{TENSOR_SEP}U^12")


def _exponents(name):
    """(a, k) of the basis name of A^a U^k, read off the name."""
    a = name.startswith("A")
    rest = name[2:] if name.startswith("A*") else ("1" if name == "A" else name)
    k = {"1": 0, "U": 1}.get(rest)
    return int(a), (int(rest[2:]) if k is None else k)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("name", ["lambda-s3", "lambda-s1-plus", "lambda-s1-minus",
                                  "omega-s3", "omega-s1-plus", "omega-s1-minus"])
def test_loop_mu_rows_match_the_name_formula(name, ring):
    # A^a U^j * A^b U^k = A^{a+b} U^{j+k}: zero when a + b = 2 or when the
    # product is not a basis element (it left the window)
    inst = make_fixture(name, TruncationWindow(8), ring)
    names = inst.module.index().names
    at = {_exponents(n): p for p, n in enumerate(names)}
    for px, x in enumerate(names):
        a, j = _exponents(x)
        for py, y in enumerate(names):
            b, k = _exponents(y)
            p = at.get((a + b, j + k)) if a + b < 2 else None
            want = () if p is None else ((p, ring.one()),)
            assert inst.mu.row(px, py) == want, (x, y)
            assert inst.mu.eval_basis(f"{x}{TENSOR_SEP}{y}") == (
                zero(inst.module) if p is None else inst.module.el(names[p]))

    strict = make_fixture(name, TruncationWindow(8), ring, on_overflow="raise")
    top = "A*U^8" if "A*U^8" in names else "U^8"
    with pytest.raises(TruncationOverflow, match=rf"^U\^8 \* {re.escape(top)} leaves the window$"):
        strict.mu.eval_basis(f"U^8{TENSOR_SEP}{top}")
    with pytest.raises(TruncationOverflow):  # not cached as a zero row
        strict.mu.eval_basis(f"U^8{TENSOR_SEP}{top}")


@pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=repr)
@pytest.mark.parametrize("name", ["lambda-s3", "lambda-s1-plus", "omega-s3",
                                  "omega-s1-minus"])
def test_loop_unit_is_the_row_of_one(name, ring):
    inst = make_fixture(name, TruncationWindow(8), ring)
    assert inst.eta == ((inst.module.index().pos["1"], ring.one()),)


def test_safe_names_are_within_radius():
    inst = make_fixture("lambda-s1-plus", W)
    assert "U^3" in inst.safe_names
    assert "U^4" not in inst.safe_names
    assert "A*U^-3" in inst.safe_names
    assert "U^-4" not in inst.safe_names


def test_mutation_catalog_is_detected_quickly():
    # one spot check per operation; the full sweep lives in acceptance
    inst = make_fixture("omega-s3", W)
    bad = mutate_lambda(inst, "U^2", f"1{TENSOR_SEP}U")
    assert not all(r.status == "pass" for r in check_axioms(bad).results)
    bad2 = mutate_mu(inst, f"U{TENSOR_SEP}U", "U^2")
    assert not all(r.status == "pass" for r in check_axioms(bad2).results)


def test_unknown_fixture_lists_catalog():
    with pytest.raises(KeyError, match="lambda-s3"):
        make_fixture("nope", W)


def test_random_instance_deterministic():
    a = make_random_instance(0, 3)
    b = make_random_instance(0, 3)
    assert sc.export_bialgebra(a) == sc.export_bialgebra(b)
    c = make_random_instance(1, 3)
    assert sc.export_bialgebra(a) != sc.export_bialgebra(c)


def test_random_instance_golden_file():
    doc = sc.export_bialgebra(make_random_instance(0, 3))
    path = os.path.join(DATA, "random_seed0_size3.json")
    with open(path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert doc == golden


def test_random_cone_instance_satisfies_construction_invariants():
    # the cone variant must pass the constructor's invariant checks and
    # be deterministic from the seed
    a = make_random_instance(7, 3, degrees=(0, -1, 1), kind="cone", n=1)
    b = make_random_instance(7, 3, degrees=(0, -1, 1), kind="cone", n=1)
    assert a.lam.degree == -1
    for e in a.A.basis():
        assert a.lam.eval_basis(e.name) == b.lam.eval_basis(e.name)
    assert a.c0 == b.c0 and a.Q0 == b.Q0 and a.B == b.B


def test_random_instance_mu_zero_fails_unit():
    from chainalg.graded import GradedMap
    from chainalg.bialgebra import BialgebraData

    inst = make_random_instance(5, 2)
    A2 = tensor(inst.module, inst.module)
    broken = BialgebraData(inst.module, GradedMap.zero(A2, inst.module, 0),
                           inst.lam, inst.eta)
    rep = check_axioms(broken)
    assert any("unit" in a and r.status != "pass"
               for a, r in zip(AXIOM_ORDER, rep.results))


def test_fixture_rings():
    for ring in (ZZ, QQ, GF(5)):
        inst = make_fixture("lambda-s1-minus", TruncationWindow(6), ring)
        assert all(r.status == "pass"
                   for r in check_axioms(inst).results), ring


def test_cc_antisymmetry_on_circle_plus():
    assert check_cc_implies_antisymmetry(
        make_fixture("lambda-s1-plus", W)).status == "pass"


@pytest.mark.parametrize("name", [n for n in fixture_names() if n != "tstar-s1"])
def test_degree_bookkeeping_on_fixture_operations(name):
    inst = make_fixture(name, W)
    A2 = tensor(inst.module, inst.module)
    for a in inst.safe_names:
        v = inst.lam.eval_basis(a)
        if not is_zero(v):
            assert degree(v) == degree_of(inst.module, a) + inst.lam.degree
        for b in inst.safe_names:
            key = f"{a}{TENSOR_SEP}{b}"
            w = inst.mu.eval_basis(key)
            if not is_zero(w):
                assert degree(w) == degree_of(A2, key) + inst.mu.degree
