"""Check execution and report rendering (JSON and Markdown).

Reports are deterministic: records keep a canonical order and carry no
timing unless explicitly requested (timings vary across runs and would
break the byte-identity guarantee that CI relies on).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

from .rings import Ring, ZZ
from .graded import (_first_difference, basis_keys, format_vector,
                     row_vector, tensor)
from .complexes import (
    ComplexBundle,
    homology,
    is_essential,
    mapping_cone,
    transition_automorphism,
)
from .bialgebra import (
    BialgebraData,
    check_axioms,
    lambda_eta,
    check_involutivity,
    check_cc_implies_antisymmetry,
    check_loday_ronco,
    check_lemma_c_lambda_eta,
    secondary_relation_apply,
)
from .cone_product import (
    ConeProductData,
    derive_secondary_ops,
    closed_form_components,
    cross_check_components,
    check_cone_associativity,
    check_assoc_implies_infinitesimal,
    cone_data_from_bialgebra,
)
from . import fixtures as fx


@dataclass
class CheckRecord:
    id: str
    status: str          # pass | fail | error | skip | info
    detail: str = ""
    elapsed_ms: float = None

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "error")


@dataclass
class Report:
    title: str
    records: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(r.failed for r in self.records)

    def summary(self) -> dict:
        counts = {"total": len(self.records)}
        for s in ("pass", "fail", "error", "skip", "info"):
            counts[s] = sum(1 for r in self.records if r.status == s)
        return counts


def _timed(record_id, fn, timings: bool) -> CheckRecord:
    start = time.monotonic()
    try:
        status, detail = fn()
    except Exception as e:  # surfaced as a check error, never a crash
        status, detail = "error", f"{type(e).__name__}: {e}"
    rec = CheckRecord(record_id, status, detail)
    if timings:
        rec.elapsed_ms = round((time.monotonic() - start) * 1000, 3)
    return rec


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------

def _axiom_status(r):
    """(status, detail) of an AxiomResult: its input count, or its witness."""
    if r.passed:
        return "pass", f"{r.inputs_checked} inputs"
    return "fail", (f"witness {r.witness_input}: lhs = {r.witness_lhs}, "
                    f"rhs = {r.witness_rhs}")


def _axioms_records(rep, prefix: str, timings: bool):
    out = []
    for r in rep.results:
        rec = CheckRecord(f"{prefix}axioms.{r.axiom}", *_axiom_status(r))
        if timings:
            rec.elapsed_ms = r.elapsed_ms
        out.append(rec)
    return out


def _lambda_eta_record(inst: BialgebraData, prefix: str):
    res = lambda_eta(inst)
    status = "pass" if res.symmetric else "fail"
    detail = f"lam(eta) = {format_vector(res.value)}"
    if not res.symmetric:
        detail += "; twist symmetry fails"
    return CheckRecord(f"{prefix}lambda-eta", status, detail)


def _conditional_record(rec_id, rep):
    if not rep.hypotheses_met:
        return CheckRecord(rec_id, "skip", rep.detail)
    return CheckRecord(rec_id, "pass" if rep.passed else "fail", rep.detail)


def bialgebra_records(inst: BialgebraData, checks, prefix: str = "",
                      timings: bool = False, reverse_bivector=None):
    out = []
    axioms = None   # the check_axioms report, shared with cc-antisymmetry
    for check in checks:
        if check == "axioms":
            axioms = check_axioms(inst)
            out.extend(_axioms_records(axioms, prefix, timings))
        elif check == "lambda-eta":
            out.append(_lambda_eta_record(inst, prefix))
        elif check == "involutivity":
            out.append(_conditional_record(f"{prefix}involutivity",
                                           check_involutivity(inst)))
        elif check == "cc-antisymmetry":
            out.append(_conditional_record(
                f"{prefix}cc-antisymmetry",
                check_cc_implies_antisymmetry(inst, axioms)))
        elif check == "loday-ronco":
            out.append(_timed(
                f"{prefix}loday-ronco",
                lambda: _axiom_status(check_loday_ronco(inst)), timings))
        elif check == "reverse-bivector-gate":
            rep = check_lemma_c_lambda_eta(reverse_bivector, inst)
            out.append(CheckRecord(
                f"{prefix}reverse-bivector-gate",
                "pass" if rep.passed else "fail",
                "supplied bivector equals lam(eta)" if rep.passed else rep.detail))
        else:
            out.append(CheckRecord(f"{prefix}{check}", "error",
                                   f"unknown check {check!r}"))
    return out


def cone_records(data: ConeProductData, checks, prefix: str = "",
                 timings: bool = False):
    out = []
    # derived once per package and shared by the checks that need them
    get_ops = functools.cache(lambda: derive_secondary_ops(data))
    get_assoc = functools.cache(lambda: check_cone_associativity(get_ops()))
    get_comps = functools.cache(lambda: closed_form_components(data))

    for check in checks:
        if check == "components":
            def run_components():
                res = cross_check_components(get_ops(), get_comps())
                return ("pass" if res.passed else "fail"), res.describe()
            out.append(_timed(f"{prefix}components", run_components, timings))
        elif check == "associativity":
            def run_assoc():
                res = get_assoc()
                return (("pass", "associative on the safe window")
                        if res.passed else ("fail", res.witness))
            out.append(_timed(f"{prefix}associativity", run_assoc, timings))
        elif check == "assoc-infinitesimal":
            def run_ai():
                res = check_assoc_implies_infinitesimal(data, get_assoc(),
                                                        get_comps())
                if not res.precondition_ok:
                    return "fail", f"precondition: {res.detail}"
                return ("pass" if res.passed else "fail"), res.detail
            out.append(_timed(f"{prefix}assoc-infinitesimal", run_ai, timings))
        else:
            out.append(CheckRecord(f"{prefix}{check}", "error",
                                   f"unknown check {check!r}"))
    return out


def complex_records(bundle, checks, prefix: str = "", timings: bool = False):
    runs = {
        "d-squared": lambda: ("pass", "verified at construction"),
        # ingest ensures a top field for essential, a pair for
        # continuation-vanishes
        "essential": lambda: (
            "pass" if is_essential(bundle.complex, bundle.top) else "fail",
            f"top degree {bundle.top}"),
        "continuation-vanishes": lambda: _continuation_status(bundle.pair_map),
    }
    return [_timed(f"{prefix}{check}", runs[check], timings) if check in runs
            else CheckRecord(f"{prefix}{check}", "error",
                             f"unknown check {check!r}")
            for check in checks]


def _continuation_status(c):
    """Pass when the chain map c is zero; a failure names the first basis
    element x of c's source, in canonical order, with c(x) != 0."""
    row = c.f.table().row
    _, x, image, _ = _first_difference(basis_keys(c.source.module),
                                       lambda x: (row(x[1]), ()))
    if x is None:
        return "pass", "c = 0"
    return "fail", f"c({x[0]}) = " + format_vector(
        row_vector(c.target.module, image))


def homology_records(bundle, with_cone: bool, prefix: str = "",
                     timings: bool = False):
    """The homology of the complex and of the pair's source, and with
    `with_cone` the homology of the pair's cone and, given a secondary map,
    its transition automorphism.  Each record is timed by `_timed`; the
    cone and the automorphism are built once, by the first record that
    needs them."""
    def record(rec_id, run):
        out.append(_timed(f"{prefix}{rec_id}", run, timings))

    out = []
    record("homology", lambda: ("info", str(homology(bundle.complex))))
    if bundle.pair_map is not None:
        record("homology.pair",
               lambda: ("info", str(homology(bundle.pair_map.source))))
    if not with_cone:
        return out
    if bundle.pair_map is None:
        out.append(CheckRecord(f"{prefix}cone", "error",
                               "no chain map available to build a cone"))
        return out
    cone = functools.cache(lambda: mapping_cone(bundle.pair_map))
    record("homology.cone", lambda: ("info", str(homology(cone().complex))))
    if bundle.secondary is not None:
        transition = functools.cache(
            lambda: transition_automorphism(cone(), bundle.secondary))
        record("transition.unipotent", lambda: (
            ("pass", "(phi - id)^2 = 0") if transition().unipotent
            else ("fail", "not unipotent")))
        record("transition.homology-action", lambda: (
            ("pass", "nontrivial on cone homology")
            if transition().nontrivial_on_homology
            else ("fail", "acts as the identity on cone homology")))
    return out


# ---------------------------------------------------------------------------
# Fixture suites
# ---------------------------------------------------------------------------

CONE_FIXTURES = ("lambda-s3", "lambda-s1-plus", "lambda-s1-minus")
PAIR_CHECKS = ("continuation-vanishes",)   # a complex fixture's checks


def fixture_records(name: str, ring: Ring = ZZ, window=None,
                    suite: str = "check", timings: bool = False):
    """Records for a shipped fixture.  suite: "check" (axioms only) or
    "demo" (the full canned suite for that fixture).  A complex fixture
    gets the records of `homology --cone` and PAIR_CHECKS in either suite,
    as its exported scenario file does."""
    window = window or fx.TruncationWindow()
    prefix = f"{name}."
    inst = fx.make_fixture(name, window, ring)
    if isinstance(inst, ComplexBundle):
        return (homology_records(inst, True, prefix, timings)
                + complex_records(inst, PAIR_CHECKS, prefix, timings))
    checks = ("axioms", "lambda-eta")
    if suite == "demo" and name in ("lambda-s3", "omega-s3"):
        checks += ("involutivity", "cc-antisymmetry")
    if suite == "demo" and name.startswith("omega-s1"):
        checks += ("loday-ronco",)
    records = bialgebra_records(inst, checks, prefix, timings)
    if suite == "check":
        return records
    if name.endswith("-plus") or name.endswith("-minus"):
        records.append(_timed(f"{prefix}reverse-coproduct",
                              lambda: _reverse_coproduct(name, inst, ring,
                                                         window),
                              timings))
    if name in CONE_FIXTURES:
        records.extend(fixture_cone_records(name, inst, prefix, timings))
    return records


def fixture_cone_records(name: str, inst: BialgebraData, prefix: str,
                         timings: bool = False):
    """The three cone-product checks on a lambda fixture's instance, with
    n = 3 for the 3-sphere and n = 1 for the circle."""
    data = cone_data_from_bialgebra(inst, n=3 if name == "lambda-s3" else 1)
    return cone_records(
        data, ("components", "associativity", "assoc-infinitesimal"),
        prefix, timings)


def _reverse_coproduct(name: str, inst: BialgebraData, ring: Ring, window):
    """Reconstruct the opposite-variant coproduct from the fixture `inst`
    via the secondary relation and compare it with the directly built
    fixture, row by row (both variants share one basis, so positions)."""
    base, variant = name.rsplit("-", 1)
    other = f"{base}-{'minus' if variant == 'plus' else 'plus'}"
    target = fx.make_fixture(other, window, ring)
    c = fx.reverse_data_bivector(inst)
    if variant == "minus":
        c = -c
    rebuilt = secondary_relation_apply(inst.mu, inst.lam, c, -c).table().row
    direct = target.lam.table().row
    A, B = inst.module, target.module
    _, nm, got, want = _first_difference(inst.safe_names, lambda nm: (
        dict(rebuilt(A.index().pos[nm])), dict(direct(B.index().pos[nm]))))
    if nm is None:
        return "pass", (f"{other} reconstructed from {name} with c = "
                        f"{format_vector(c)} on {len(inst.safe_names)} inputs")
    return "fail", (
        f"mismatch at {nm}: rebuilt "
        f"{format_vector(row_vector(tensor(A, A), got.items()))}, direct "
        f"{format_vector(row_vector(tensor(B, B), want.items()))}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_json(report: Report) -> str:
    doc = {
        "title": report.title,
        "records": [
            {k: v for k, v in (("id", r.id), ("status", r.status),
                               ("detail", r.detail),
                               ("elapsed_ms", r.elapsed_ms))
             if v is not None}
            for r in report.records
        ],
        "summary": report.summary(),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


_MARKS = {"pass": "ok", "fail": "FAIL", "error": "ERROR",
          "skip": "skipped", "info": "."}


def render_markdown(report: Report) -> str:
    lines = [f"# {report.title}", ""]
    width = max((len(r.id) for r in report.records), default=0)
    for r in report.records:
        mark = _MARKS.get(r.status, r.status)
        line = f"- `{r.id:<{width}}` **{mark}**"
        if r.detail:
            line += f" {r.detail}"
        if r.elapsed_ms is not None:
            line += f" ({r.elapsed_ms} ms)"
        lines.append(line)
    s = report.summary()
    lines.append("")
    lines.append(f"**{s['pass']} passed, {s['fail']} failed, "
                 f"{s['error']} errors, {s['skip']} skipped, "
                 f"{s['info']} informational ({s['total']} total).**")
    return "\n".join(lines) + "\n"
