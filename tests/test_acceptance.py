"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chainalg
from chainalg.rings import ZZ, QQ, GF
from chainalg.matrices import (
    ExactMatrix,
    smith_normal_form,
    diagonal_of,
)
from chainalg.graded import (Outcome, Vector, _signed_row, tensor,
                             TENSOR_SEP)
from chainalg.complexes import mapping_cone, transition_automorphism
from chainalg.bialgebra import (AXIOM_ORDER, check_axioms, lambda_eta,
                                 secondary_relation_apply)
from chainalg.cone_product import (
    cross_check_components,
    check_cone_associativity,
    check_assoc_implies_infinitesimal,
    cone_data_from_bialgebra,
)
from chainalg import fixtures as fx
from name_keyed import format_vector, is_zero, neg

WINDOW = fx.TruncationWindow(12)
RINGS = (ZZ, QQ, GF(5))
BIALGEBRA_FIXTURES = ("lambda-s3", "lambda-s1-plus", "lambda-s1-minus",
                      "omega-s3", "omega-s1-plus", "omega-s1-minus")


def _report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def test_criterion_1_fixture_suite_all_rings():
    start = time.monotonic()
    total = 0
    for name in BIALGEBRA_FIXTURES:
        for ring in RINGS:
            inst = fx.make_fixture(name, WINDOW, ring)
            rep = check_axioms(inst)
            assert all(r.status == "pass" for r in rep.results), (
                f"{name} over {ring}:\n"
                + "\n".join(f"{a}: {r.status} {r.detail}"
                            for a, r in zip(AXIOM_ORDER, rep.results)))
            total += len(rep.results)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"suite took {elapsed:.1f}s, budget is 60s"
    _report(1, f"{len(BIALGEBRA_FIXTURES)} fixtures x {len(RINGS)} rings, "
               f"{total} axiom checks exact on the safe window, "
               f"{elapsed:.1f}s < 60s")


def test_criterion_2_lambda_eta_values():
    def T(inst, *pairs):
        A2 = tensor(inst.module, inst.module)
        return Vector(A2, {f"{l}{TENSOR_SEP}{r}": c for c, l, r in pairs})

    def value(v):   # the outcome of a twist-symmetric lam(eta) = v
        return Outcome("pass", f"lam(eta) = {format_vector(v)}")

    for ring in RINGS:
        for name in ("lambda-s3", "omega-s3"):
            inst = fx.make_fixture(name, WINDOW, ring)
            assert lambda_eta(inst) == value(T(inst)), (name, ring)
        plus = fx.make_fixture("lambda-s1-plus", WINDOW, ring)
        want = T(plus, (1, "A", "1"), (-1, "1", "A"))
        assert lambda_eta(plus) == value(want), ring
        minus = fx.make_fixture("lambda-s1-minus", WINDOW, ring)
        assert lambda_eta(minus) == value(neg(want)), ring
        oplus = fx.make_fixture("omega-s1-plus", WINDOW, ring)
        one_one = T(oplus, (1, "1", "1"))
        assert lambda_eta(oplus) == value(one_one), ring
        ominus = fx.make_fixture("omega-s1-minus", WINDOW, ring)
        assert lambda_eta(ominus) == value(neg(one_one)), ring
    _report(2, "lam(eta) = 0 on spheres, +-(A(x)1 - 1(x)A) on the free-loop "
               "circle, +-(1(x)1) on the based circle, over Z, Q, GF(5)")


def test_criterion_3_reverse_coproduct_reconstruction():
    checked = 0
    for ring in RINGS:
        for prefix in ("lambda-s1", "omega-s1"):
            plus = fx.make_fixture(f"{prefix}-plus", WINDOW, ring)
            minus = fx.make_fixture(f"{prefix}-minus", WINDOW, ring)
            c = fx.reverse_data_bivector(plus)
            rebuilt = secondary_relation_apply(
                plus.mu, plus.lam, c, _signed_row(c, True, ring.neg))
            for n in plus.safe_names:
                assert rebuilt.eval_basis(n) == minus.lam.eval_basis(n), (ring, n)
                checked += 1
    _report(3, f"lambda-minus reconstructed from lambda-plus with "
               f"c = 1(x)A - A(x)1 (free loops) and c = -(1(x)1) (based), "
               f"{checked} basis values, zero tolerance")


def _cone_fixture_data():
    return (
        ("lambda-s3", cone_data_from_bialgebra(
            fx.make_fixture("lambda-s3", WINDOW), n=3)),
        ("lambda-s1-plus", cone_data_from_bialgebra(
            fx.make_fixture("lambda-s1-plus", WINDOW), n=1)),
    )


def test_criterion_4_cone_components_and_associativity():
    details = []
    for name, data in _cone_fixture_data():
        cc = cross_check_components(data)
        assert cc.status == "pass", f"{name}: {cc.detail}"
        assoc = check_cone_associativity(data)
        assert assoc.status == "pass", f"{name}: {assoc.detail}"
        n_safe = 2 * len(data.safe)
        details.append(f"{name} ({n_safe} safe cone generators)")
    _report(4, "closed-form components equal the assembled blocks and the "
               "cone product is associative for " + ", ".join(details))


def test_criterion_5_associativity_component_identity():
    for name, data in _cone_fixture_data():
        res = check_assoc_implies_infinitesimal(data)
        assert res.status == "pass", f"{name}: {res.detail}"
    _report(5, "the (+,+,-) -> + associativity component equals the unital "
               "infinitesimal defect contracted against the dual input, "
               "exactly, on both cone fixtures")


def test_criterion_6_transition_automorphism():
    for ring in RINGS:
        bundle = fx.make_tstar_s1(ring)
        c = bundle.pair_map
        for e in c.source.module.basis():
            assert is_zero(c.f.eval_basis(e.name))
        res = transition_automorphism(mapping_cone(c), bundle.secondary)
        assert res.unipotent
        assert res.nontrivial_on_homology
    _report(6, "c = 0, the transition automorphism is a unipotent chain "
               "automorphism, and it acts nontrivially on cone homology "
               "(all three rings)")


def test_criterion_7_snf_oracle_equivalence():
    from test_matrices import bareiss, rank_oracle_over_Q

    rng = random.Random(20260809)
    count = 1000
    for i in range(count):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        M = ExactMatrix(ZZ, rows, cols,
                        [rng.randint(-9, 9) for _ in range(rows * cols)])
        U, D, V = smith_normal_form(M)
        assert U * M * V == D, f"matrix {i}"
        assert abs(bareiss(U)[1]) == 1, f"U not unimodular, matrix {i}"
        assert abs(bareiss(V)[1]) == 1, f"V not unimodular, matrix {i}"
        full = diagonal_of(D)
        diag = [d for d in full if d != 0]
        assert full[:len(diag)] == diag, f"zero entries not last, matrix {i}"
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0, f"divisibility fails on matrix {i}"
        assert len(diag) == rank_oracle_over_Q(M.to_rows()), f"rank, matrix {i}"
    _report(7, f"{count} random integer matrices up to 8x8: U*M*V = D, "
               f"U and V unimodular (Bareiss determinants), zero entries "
               f"last, divisibility chain, rank equals the rational "
               f"Gaussian oracle")


@pytest.mark.parametrize("n, entries, seconds, max_bits", [
    (40, [s * a for s in (1, -1) for a in range(2, 10)], 1.0, 20_000),
    (100, range(-9, 10), 60.0, 2_000),
])
def test_criterion_7_snf_stays_polynomial(n, entries, seconds, max_bits):
    # dense seeded matrices; the 40x40 one has no unit entry.  The bounds
    # are on the Smith normal form call alone, the oracle runs after it.
    # Without size reduction the 100x100 certificates reach about 17,000
    # bits; with it they stay near the determinant's size
    from test_matrices import check_snf_certificate

    rng = random.Random(f"criterion 7:{n}")
    entries = list(entries)
    M = ExactMatrix(ZZ, n, n, [rng.choice(entries) for _ in range(n * n)])
    start = time.perf_counter()
    U, D, V = smith_normal_form(M)
    elapsed = time.perf_counter() - start
    bits = max(abs(x).bit_length() for X in (U, V) for x in X.entries)
    check_snf_certificate(M, U, D, V)
    assert elapsed < seconds, f"{n}x{n}: {elapsed:.2f} s"
    assert bits < max_bits, f"{n}x{n}: certificate entries of {bits} bits"
    _report(7, f"dense {n}x{n}: Smith normal form in {elapsed:.2f} s "
               f"(bound {seconds:g} s), certificate entries of {bits} bits "
               f"(bound {max_bits}), the full oracle holds")


def test_criterion_8_mutation_robustness():
    total = 0
    witnesses = 0
    sample = None
    for ring in RINGS:
        for name in BIALGEBRA_FIXTURES:
            inst = fx.make_fixture(name, WINDOW, ring)
            targets = list(fx.mutation_targets(inst, WINDOW))
            assert targets, name
            for op_label, input_name, output_name in targets:
                if op_label == "mu":
                    bad = fx.mutate_mu(inst, input_name, output_name)
                else:
                    bad = fx.mutate_lambda(inst, input_name, output_name)
                rep = check_axioms(bad)
                failures = [(a, r) for a, r in zip(AXIOM_ORDER, rep.results)
                            if r.status == "fail"]
                assert failures, (f"{name} over {ring}: flipping {op_label}"
                                  f"[{input_name} -> {output_name}] went "
                                  f"undetected")
                assert all(r.witness[0] for _, r in failures), name
                total += 1
                witnesses += 1
                if sample is None:
                    axiom, f = failures[0]
                    sample = (f"{name} {op_label}[{input_name}] breaks "
                              f"'{axiom}' at {f.witness[0]}")
    _report(8, f"{total} single-sign flips across 6 fixtures over Z, Q and "
               f"GF(5) all detected with witnesses (e.g. {sample})")


def test_criterion_8_cone_mutation_robustness():
    """The cone package catches single-sign flips of mu and lam as well:
    each flipped copy is rejected by ConeProductData or fails the
    components cross-check or cone associativity."""
    window = fx.TruncationWindow(8)
    rng = random.Random(8)
    caught = {}
    for name, n in (("lambda-s3", 3), ("lambda-s1-plus", 1),
                    ("lambda-s1-minus", 1)):
        inst = fx.make_fixture(name, window)
        targets = list(fx.mutation_targets(inst, window))
        for op_label, input_name, output_name in rng.sample(targets, 8):
            if op_label == "mu":
                bad = fx.mutate_mu(inst, input_name, output_name)
            else:
                bad = fx.mutate_lambda(inst, input_name, output_name)
            flip = f"{name}: flipping {op_label}[{input_name} -> {output_name}]"
            try:
                data = cone_data_from_bialgebra(bad, n=n)
            except ValueError:
                caught["construction"] = caught.get("construction", 0) + 1
                continue
            if cross_check_components(data).status != "pass":
                caught["components"] = caught.get("components", 0) + 1
                continue
            assoc = check_cone_associativity(data)
            assert assoc.status == "fail", f"{flip} went undetected"
            assert assoc.detail, flip
            caught["associativity"] = caught.get("associativity", 0) + 1
    total = sum(caught.values())
    assert total == 24
    by = ", ".join(f"{k} {v}" for k, v in sorted(caught.items()))
    _report("8 (cone)", f"{total} sampled single-sign flips of mu and lam "
                        f"on the 3 lambda fixtures all caught by the cone "
                        f"package ({by})")


def test_criterion_9_report_determinism():
    cli = [sys.executable, "-m", "chainalg.cli"]
    env = dict(os.environ)   # the package the tests import, installed or not
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(chainalg.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)

    def run(*args):
        r = subprocess.run(cli + list(args), capture_output=True, text=True,
                           env=env)
        assert r.returncode == 0, r.stderr
        return r.stdout

    args = ("report", "lambda-s3", "omega-s1-plus", "tstar-s1",
            "--window", "8", "--format", "json")
    first = run(*args)
    second = run(*args)
    assert first == second, "reports differ across runs"
    md_a = run("demo", "lambda-s1-minus", "--window", "8")
    md_b = run("demo", "lambda-s1-minus", "--window", "8")
    assert md_a == md_b
    doc = json.loads(first)
    assert doc["summary"]["fail"] == 0 and doc["summary"]["error"] == 0
    _report(9, "byte-identical JSON and Markdown reports across repeated "
               "runs")
