import json

from chainalg import cone_product as cp
from chainalg import report as rp
from chainalg import scenario as sc
from chainalg.fixtures import TruncationWindow, make_fixture, mutate_lambda
from chainalg.graded import TENSOR_SEP

CONE_CHECKS = ("components", "associativity", "assoc-infinitesimal")


def _counting(monkeypatch, name, calls):
    """Count calls of cone_product.<name>, whichever module calls it."""
    original = getattr(cp, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod in (rp, cp):
        monkeypatch.setattr(mod, name, wrapper)


def test_cone_records_derive_and_check_associativity_once(monkeypatch):
    calls = {"derive_secondary_ops": 0, "check_cone_associativity": 0,
             "closed_form_components": 0}
    for name in calls:
        _counting(monkeypatch, name, calls)
    inst = make_fixture("lambda-s1-plus", TruncationWindow(8))
    data = cp.cone_data_from_bialgebra(inst, n=1)
    records = rp.cone_records(data, CONE_CHECKS, "s1.")
    assert [(r.id, r.status) for r in records] == [
        ("s1.components", "pass"), ("s1.associativity", "pass"),
        ("s1.assoc-infinitesimal", "pass")]
    assert calls == {"derive_secondary_ops": 1, "check_cone_associativity": 1,
                     "closed_form_components": 1}


def test_assoc_infinitesimal_alone_reports_failed_precondition():
    # doubling mu(U, U) breaks associativity: (U U) A = 2 A*U^2 but
    # U (U A) = A*U^2
    inst = make_fixture("lambda-s1-plus", TruncationWindow(8))
    doc = sc.export_bialgebra(inst)
    doubled = 0
    for entry in doc["mu"]["entries"]:
        if entry["in"] == ["U", "U"]:
            entry["out"] = [[str(2 * int(c)), name] for c, name in entry["out"]]
            doubled += 1
    assert doubled == 1
    doc["kind"] = "cone"
    doc["n"] = 1
    doc["Q0"] = [[str(c), name.split(TENSOR_SEP)]
                 for name, c in (-inst.lambda_eta()).coeffs.items()]
    doc["checks"] = ["assoc-infinitesimal"]
    scn = sc.ingest(json.dumps(doc))
    records = rp.cone_records(scn.payload, scn.checks)
    assert len(records) == 1
    assert records[0].status == "fail"
    assert records[0].detail.startswith(
        "precondition: cone product is not associative"), records[0].detail


def test_demo_runs_the_axioms_once(monkeypatch, tmp_path):
    # cc-antisymmetry reads the unital infinitesimal verdict from the
    # report the axioms check already computed
    from chainalg import bialgebra as bl
    from chainalg.cli import main

    calls = []
    original = bl.check_axioms

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for mod in (rp, bl):
        monkeypatch.setattr(mod, "check_axioms", counting)
    out = tmp_path / "report.json"
    assert main(["demo", "lambda-s3", "--window", "8", "--format", "json",
                 "--output", str(out)]) == 0
    records = {r["id"]: r["status"]
               for r in json.loads(out.read_text(encoding="utf-8"))["records"]}
    assert records["lambda-s3.cc-antisymmetry"] == "pass"
    assert len(calls) == 1, calls


def test_reverse_coproduct_names_the_first_mismatching_row():
    # the plus fixture with one lam constant negated rebuilds a minus
    # coproduct that differs from the direct one at that input
    window = TruncationWindow(8)
    plus = make_fixture("lambda-s1-plus", window)
    assert rp._reverse_coproduct("lambda-s1-plus", plus, plus.module.ring,
                                 window)[0] == "pass"
    bad = mutate_lambda(plus, "U", f"A{TENSOR_SEP}U")
    status, detail = rp._reverse_coproduct("lambda-s1-plus", bad,
                                           plus.module.ring, window)
    assert status == "fail"
    assert detail.startswith("mismatch at U: rebuilt ")
    direct = make_fixture("lambda-s1-minus", window).lam.eval_basis("U")
    assert detail.endswith(f", direct {direct}")
