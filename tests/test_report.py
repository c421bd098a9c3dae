import json
import re
from collections import Counter
from pathlib import Path

from chainalg import cone_product as cp
from chainalg import report as rp
from chainalg import scenario as sc
from chainalg.fixtures import TruncationWindow, make_fixture, mutate_lambda
from chainalg.graded import TENSOR_SEP

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
    doc["Q0"] = [[str(c), name.split(TENSOR_SEP)]
                 for name, c in (-inst.lambda_eta()).coeffs.items()]
    doc["checks"] = ["assoc-infinitesimal"]
    scn = sc.ingest(json.dumps(doc))
    records = rp.records(scn, scn.checks, "", False)
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


def test_axiom_records_carry_the_time_check_axioms_measured(monkeypatch):
    # the six records share one report; each reports its own axiom's time
    original = rp.check_axioms

    def timed(inst, **kwargs):
        report = original(inst, **kwargs)
        for i, r in enumerate(report.results):
            r.elapsed_ms = 1000.0 + i
        return report

    monkeypatch.setattr(rp, "check_axioms", timed)
    inst = make_fixture("omega-s3", TruncationWindow(4))
    scn = sc.Scenario("bialgebra", "omega-s3", inst.module.ring, inst, (),
                      None)
    records = rp.records(scn, ("axioms",), "", True)
    assert [r.elapsed_ms for r in records] == [1000.0 + i for i in range(6)]


def test_reverse_coproduct_names_the_first_mismatching_row():
    # the plus fixture with one lam constant negated rebuilds a minus
    # coproduct that differs from the direct one at that input
    window = TruncationWindow(8)
    plus = make_fixture("lambda-s1-plus", window)

    def reverse_coproduct(inst):
        scn = sc.Scenario("bialgebra", "lambda-s1-plus", inst.module.ring,
                          inst, (), window)
        [rec] = rp.records(scn, ("reverse-coproduct",), "", False)
        return rec.status, rec.detail

    assert reverse_coproduct(plus)[0] == "pass"
    status, detail = reverse_coproduct(
        mutate_lambda(plus, "U", f"A{TENSOR_SEP}U"))
    assert status == "fail"
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
    # safe pair is summed once, by the axioms quantifier; cc-antisymmetry
    # reads the verdict the kernel kept, and assoc-infinitesimal the kept
    # defects
    from chainalg.bialgebra import PairKernel

    formed = Counter()
    original = PairKernel._difference

    def counting(kernel, identity):
        fn = original(kernel, identity)
        if identity not in ("unital infinitesimal", "defect"):
            return fn

        def counted(i, j):
            formed[i, j] += 1
            return fn(i, j)
        return counted

    monkeypatch.setattr(PairKernel, "_difference", counting)
    for name, window in (("lambda-s3", 8), ("lambda-s1-plus", 12)):
        formed.clear()
        code, records = _demo(tmp_path, name, window)
        assert code == 0, [r for r in records if r["status"] != "pass"]
        safe = make_fixture(name, TruncationWindow(window)).safe_positions()
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
