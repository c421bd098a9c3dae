import json
import re
from collections import Counter
from pathlib import Path

from chainalg import cone_product as cp
from chainalg import report as rp
from chainalg import scenario as sc
from chainalg.bialgebra import BialgebraData
from chainalg.fixtures import (TruncationWindow, fixture_names,
                               flip_structure_constant, make_fixture,
                               mutate_lambda, mutate_mu, reverse_data_bivector)
from chainalg.graded import TENSOR_SEP, GradedMap
from name_keyed import named, neg, row_vector

CONE_CHECKS = ("components", "associativity", "assoc-infinitesimal")


def _counting(monkeypatch, name, calls):
    """Count calls of cone_product.<name>: the package's properties call it
    by its module name."""
    original = getattr(cp, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cp, name, wrapper)


def test_cone_records_derive_and_check_associativity_once(monkeypatch):
    calls = {"derive_secondary_ops": 0, "check_cone_associativity": 0,
             "closed_form_components": 0}
    for name in calls:
        _counting(monkeypatch, name, calls)
    inst = make_fixture("lambda-s1-plus", TruncationWindow(8))
    data = cp.cone_data_from_bialgebra(inst, n=1)
    scn = sc.Scenario("cone", "s1", data.complex.ring, data, (), None)
    records = rp.records(scn, CONE_CHECKS, "s1.", False)
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
    minus_lam_eta = neg(named(inst.lam)(row_vector(inst.module, inst.eta)))
    doc["Q0"] = [[str(c), name.split(TENSOR_SEP)]
                 for name, c in minus_lam_eta.coeffs.items()]
    doc["checks"] = ["assoc-infinitesimal"]
    scn = sc.ingest(json.dumps(doc))
    records = rp.records(scn, scn.checks, "", False)
    assert len(records) == 1
    assert records[0].status == "fail"
    assert records[0].detail.startswith(
        "precondition: cone product is not associative"), records[0].detail


def _failing_targets():
    """check -> a scenario on which it fails or skips: lam(eta) broken by
    one flip, omega-s3 (|mu| and |lam| both even), lambda-s3 with lam(U^2)
    flipped at A(x)U and U(x)A (cocommutative, but the unital
    infinitesimal relation fails), the minus variant's bivector supplied
    to the plus variant, a cone package with a zero pm_m closed form, and
    one with mu(U, U) negated (not associative)."""
    w, sep = TruncationWindow(8), TENSOR_SEP
    plus, s3 = make_fixture("lambda-s1-plus", w), make_fixture("lambda-s3", w)
    lam = s3.lam
    for out in (f"A{sep}U", f"U{sep}A"):
        lam = flip_structure_constant(lam, "U^2", out)
    zero_pm_m = cp.cone_data_from_bialgebra(plus, n=1)
    pm_m = zero_pm_m.components["pm_m"]
    zero_pm_m.components["pm_m"] = GradedMap.zero(pm_m.source, pm_m.target, 0)
    nonassoc = cp.cone_data_from_bialgebra(
        mutate_mu(plus, f"U{sep}U", "U^2"), n=1)

    def bialgebra(inst, bivector=None):
        return sc.Scenario("bialgebra", inst.name, inst.module.ring, inst, (),
                           w, reverse_bivector=bivector)

    def cone(data):
        return sc.Scenario("cone", data.name, data.complex.ring, data, (),
                           None)

    return {
        "lambda-eta": bialgebra(mutate_lambda(plus, "1", f"A{sep}1")),
        "involutivity": bialgebra(make_fixture("omega-s3", w)),
        "cc-antisymmetry": bialgebra(BialgebraData(
            s3.module, s3.mu, lam, s3.eta, safe_names=s3.safe_names)),
        "reverse-bivector-gate": bialgebra(plus, reverse_data_bivector(
            make_fixture("lambda-s1-minus", w))),
        "components": cone(zero_pm_m),
        "associativity": cone(nonassoc),
        "assoc-infinitesimal": cone(nonassoc),
    }


_WITNESS = "+A(x)+U(x)+U: +A*U^2 vs -+A*U^2"
PINNED = {
    "lambda-eta": ("fail", "lam(eta) = -1⊗A - A⊗1; twist symmetry fails"),
    "involutivity": (
        "skip", "hypotheses not met: mu and lam do not have opposite parity."
        " raw values: mu lam(1) = 0; mu lam(U) = 1; mu lam(U^2) = 2*U"),
    "cc-antisymmetry": (
        "skip", "unital infinitesimal relation fails: unital infinitesimal: "
        "FAIL at A⊗U^2; lhs = A*U⊗A + A⊗A*U; rhs = -A*U⊗A + A⊗A*U"),
    "reverse-bivector-gate": (
        "fail", "bivector differs from lam(eta) by 2*1⊗A - 2*A⊗1"),
    "components": ("fail", "; ".join(
        f"pm mismatch at +A(x)-{f} in pm_m: assembled (0 | {g}) vs closed "
        f"form (0 | 0)" for f, g in (("A^", "1^"), ("A*U^", "U^"),
                                     ("A*U^-1^", "U^-1^"),
                                     ("A*U^-2^", "U^-2^"),
                                     ("A*U^2^", "U^2^")))),
    "associativity": ("fail", _WITNESS),
    "assoc-infinitesimal": (
        "fail", f"precondition: cone product is not associative: {_WITNESS}"),
}


def test_each_outcome_check_keeps_its_failing_record():
    # the (status, detail) of one failing or skipped input per check that
    # returns an Outcome, as the per-class adapters of the report printed
    # them; components shows its first five mismatches only
    targets = _failing_targets()
    assert {check: [(r.status, r.detail) for r in
                    rp.records(targets[check], (check,), "", False)]
            for check in PINNED} == {c: [want] for c, want in PINNED.items()}


def test_every_fixture_has_a_suite_and_every_variant_an_opposite():
    # `cli` reads a fixture's suites from FIXTURES by its catalog name
    assert set(rp.FIXTURES) == set(fixture_names())
    assert set(rp.OPPOSITE) | {other for other, _ in rp.OPPOSITE.values()} \
        <= set(fixture_names())


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


def test_axiom_records_carry_the_time_check_axioms_measured(monkeypatch):
    # the six records share one report; each reports its own axiom's time
    original = rp.check_axioms

    def timed(inst, **kwargs):
        report = original(inst, **kwargs)
        report.results = [r._replace(elapsed_ms=1000.0 + i)
                          for i, r in enumerate(report.results)]
        return report

    monkeypatch.setattr(rp, "check_axioms", timed)
    inst = make_fixture("omega-s3", TruncationWindow(4))
    scn = sc.Scenario("bialgebra", "omega-s3", inst.module.ring, inst, (),
                      None)
    records = rp.records(scn, ("axioms",), "", True)
    assert [r.elapsed_ms for r in records] == [1000.0 + i for i in range(6)]


def test_reverse_coproduct_names_the_first_mismatching_row():
    # the plus fixture with one lam constant negated rebuilds a minus
    # coproduct that differs from the direct one at that input; the
    # Outcome counts the safe inputs compared, up to that one
    window = TruncationWindow(8)
    plus = make_fixture("lambda-s1-plus", window)

    def reverse_coproduct(inst):
        scn = sc.Scenario("bialgebra", "lambda-s1-plus", inst.module.ring,
                          inst, (), window)
        return rp._reverse_coproduct(rp._Target(scn))

    passed = reverse_coproduct(plus)
    assert (passed.status, passed.inputs_checked) == ("pass", len(plus.safe))
    status, detail, count = reverse_coproduct(
        mutate_lambda(plus, "U", f"A{TENSOR_SEP}U"))[:3]
    assert status == "fail"
    assert count == plus.safe.index(plus.module.index().pos["U"]) + 1
    assert detail.startswith("mismatch at U: rebuilt ")
    direct = make_fixture("lambda-s1-minus", window).lam.eval_basis("U")
    assert detail.endswith(f", direct {direct}")


def test_readme_lists_the_registry_checks_of_each_kind():
    # the bullets of README's scenario section name each kind's checks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    listed = {kind: set(re.findall(r"`([a-z-]+)`",
                                   re.search(r"\{([^}]*)\}", text).group(1)))
              for kind, text in re.findall(r"^\* `(\w+)`:(.*?)(?=^\* |\Z)",
                                           section, re.M | re.S)}
    registry = {}
    for check, (kind, _, _) in rp.CHECKS.items():
        if kind is not None:
            registry.setdefault(kind, set()).add(check)
    assert listed == registry


def _cli_records(tmp_path, argv):
    from chainalg.cli import main

    out = tmp_path / "report.json"
    code = main(argv + ["--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))["records"]


def _demo(tmp_path, name, window):
    return _cli_records(tmp_path, ["demo", name, "--window", str(window)])


def _raising(monkeypatch, modules, name):
    """Make <name> raise in each of `modules`."""
    def broken(*args, **kwargs):
        raise RuntimeError(f"{name} broke")

    for mod in modules:
        monkeypatch.setattr(mod, name, broken)


def test_a_raising_intermediate_errs_each_record_that_reads_it(
        monkeypatch, tmp_path):
    # every record that reads a raising intermediate is an error with its
    # text
    from chainalg import bialgebra as bl

    _raising(monkeypatch, (rp, bl), "check_axioms")
    _raising(monkeypatch, (cp,), "derive_secondary_ops")
    code, records = _demo(tmp_path, "lambda-s3", 8)
    assert code == 1
    status = {r["id"].split(".", 1)[1]: (r["status"], r["detail"])
              for r in records}
    errors = {rid: detail for rid, (s, detail) in status.items()
              if s == "error"}
    assert set(errors) == {f"axioms.{a}" for a in rp.AXIOM_ORDER} | {
        "components", "associativity", "assoc-infinitesimal"}
    assert set(errors.values()) == {"RuntimeError: check_axioms broke",
                                    "RuntimeError: derive_secondary_ops broke"}
    # cc-antisymmetry then checks the unital infinitesimal relation itself
    assert status["cc-antisymmetry"][0] == "pass"


def test_demo_builds_one_pair_kernel_per_package(monkeypatch, tmp_path):
    # lambda-s3's axioms, cc-antisymmetry and cone, and omega-s1-plus's
    # axioms and loday-ronco, each read their package's one kernel
    from chainalg.bialgebra import PairKernel

    built = []
    original = PairKernel.__init__

    def counting(kernel, *args):
        built.append(kernel)
        original(kernel, *args)

    monkeypatch.setattr(PairKernel, "__init__", counting)
    for name, checks in (("lambda-s3", ("axioms.unital infinitesimal",
                                        "cc-antisymmetry",
                                        "assoc-infinitesimal")),
                         ("omega-s1-plus", ("axioms.unital infinitesimal",
                                            "loday-ronco"))):
        built.clear()
        code, records = _demo(tmp_path, name, 8)
        assert code == 0, [r for r in records if r["status"] != "pass"]
        ran = {r["id"].split(".", 1)[1] for r in records}
        assert set(checks) <= ran, name
        assert len(built) == 1, name


def test_demo_forms_each_pair_defect_once(monkeypatch, tmp_path):
    # one kernel per package: the unital infinitesimal difference of each
    # safe pair is summed once, on its row, by the axioms quantifier;
    # cc-antisymmetry reads the verdict the kernel kept, and
    # assoc-infinitesimal the kept defects
    from chainalg.bialgebra import PairKernel

    formed = Counter()
    original = PairKernel._row

    def counting(kernel, identity, i, js):
        if identity in ("unital infinitesimal", "defect"):
            formed.update((i, j) for j in js)
        return original(kernel, identity, i, js)

    monkeypatch.setattr(PairKernel, "_row", counting)
    for name, window in (("lambda-s3", 8), ("lambda-s1-plus", 12)):
        formed.clear()
        code, records = _demo(tmp_path, name, window)
        assert code == 0, [r for r in records if r["status"] != "pass"]
        safe = make_fixture(name, TruncationWindow(window)).safe
        assert set(formed) == {(i, j) for i in safe for j in safe}, name
        assert set(formed.values()) == {1}, name


def test_a_raising_pair_cone_errs_each_record_that_reads_it(monkeypatch,
                                                           tmp_path):
    _raising(monkeypatch, (rp,), "mapping_cone")
    code, records = _cli_records(tmp_path, ["demo", "tstar-s1"])
    assert code == 1
    assert {r["id"]: r["detail"] for r in records if r["status"] == "error"} \
        == {f"tstar-s1.{rid}": "RuntimeError: mapping_cone broke"
            for rid in ("homology.cone", "transition.unipotent",
                        "transition.homology-action")}
