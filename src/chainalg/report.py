"""The check registry, check execution and report rendering (JSON and
Markdown).

`CHECKS` names every check: the scenario kind that may list it, the
scenario field it needs and the records it makes.  `DEFAULT_CHECKS` holds
each kind's defaults and `FIXTURES` the suites of the shipped fixtures.
Scenario ingest validates against these tables, and every command builds
its records through `records`.

Reports are deterministic: records keep a canonical order and carry no
timing unless explicitly requested (timings vary across runs and would
break the byte-identity guarantee that CI relies on).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

from .graded import (Outcome, _first_difference, _signed_row, basis_keys,
                     format_row, names_of, tensor)
from .complexes import (
    ChainComplex,
    ComplexBundle,
    homology,
    is_essential,
    mapping_cone,
    transition_automorphism,
)
from .bialgebra import (
    AXIOM_ORDER,
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
    cross_check_components,
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
    """The record of the Outcome fn() gives.  Its time is the Outcome's
    `elapsed_ms` when set, for work timed inside a computation that several
    records share (each axiom of `check_axioms`), else fn's, with the
    shared intermediates it builds first."""
    start = time.monotonic()
    try:
        out = fn()
    except Exception as e:  # surfaced as a check error, never a crash
        out = Outcome("error", f"{type(e).__name__}: {e}")
    rec = CheckRecord(record_id, out.status, out.detail)
    if timings:
        rec.elapsed_ms = out.elapsed_ms
        if rec.elapsed_ms is None:
            rec.elapsed_ms = round((time.monotonic() - start) * 1000, 3)
    return rec


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

class _Target:
    """A scenario's payload as the checks see it, with the intermediates
    they share: each is built by the first check that reads it and kept.
    None raises on an admitted scenario or fixture, since what each needs
    (d*d = 0, and chain maps for a pair's map and secondary map and for a
    cone package's continuation) was checked when the payload was built."""

    def __init__(self, scn):
        self.scn, self.data = scn, scn.payload

    @functools.cached_property
    def axioms(self):
        return check_axioms(self.data)

    @functools.cached_property
    def cone(self):
        """The cone package: a cone scenario's own, or a bialgebra's with
        c0 = 0, Q0 = -lam(eta), B = 0 and n read off |lam| = 1 - 2n."""
        d = self.data
        return (d if isinstance(d, ConeProductData)
                else cone_data_from_bialgebra(d, (1 - d.lam.degree) // 2))

    @functools.cached_property
    def bundle(self):
        """A complex's bundle, or a bialgebra's module with d = 0."""
        d = self.data
        return (d if isinstance(d, ComplexBundle)
                else ComplexBundle(ChainComplex(d.module)))

    @functools.cached_property
    def pair_cone(self):
        """The mapping cone of the bundle's pair."""
        return mapping_cone(self.bundle.pair_map)

    @functools.cached_property
    def transition(self):
        """The pair cone's transition automorphism."""
        return transition_automorphism(self.pair_cone, self.bundle.secondary)


def _reverse_coproduct(t):
    """Reconstruct the opposite-variant coproduct from the fixture's
    instance via the secondary relation and compare it with the directly
    built fixture, row by row (both variants share one basis, so
    positions)."""
    inst, name = t.data, t.scn.name
    other, sign = OPPOSITE[name]
    target = fx.make_fixture(other, t.scn.window, t.scn.ring)
    A, B = inst.module, target.module
    c = fx.reverse_data_bivector(inst)
    minus_c = _signed_row(c, True, A.ring.neg)
    if sign < 0:
        c, minus_c = minus_c, c
    rebuilt = secondary_relation_apply(inst.mu, inst.lam, c, minus_c).row
    direct = target.lam.row
    count, x, got, want = _first_difference(inst.safe, lambda x: (
        dict(rebuilt(x)), dict(direct(x))))
    if x is None:
        return Outcome("pass", f"{other} reconstructed from {name} with c = "
                       f"{format_row(tensor(A, A), c)} on "
                       f"{count} inputs", count)
    return Outcome("fail", (
        f"mismatch at {A.index().names[x]}: rebuilt "
        f"{format_row(tensor(A, A), got.items())}, direct "
        f"{format_row(tensor(B, B), want.items())}"), count)


def _continuation_status(t):
    """Pass when the pair's chain map c is zero; a failure names the first
    basis element x of c's source, in canonical order, with c(x) != 0."""
    c = t.data.pair_map
    row = c.f.row
    _, x, image, _ = _first_difference(basis_keys(c.source.module),
                                       lambda x: (row(x), ()))
    if x is None:
        return Outcome("pass", "c = 0")
    return Outcome("fail", f"c({names_of(c.source.module)(x)}) = "
                   + format_row(c.target.module, image))


def _homology_records(t, _):
    """The homology of the complex and of the pair's source."""
    b = t.bundle
    out = [("homology", lambda: Outcome("info", str(homology(b.complex))))]
    if b.pair_map is not None:
        out.append(("homology.pair", lambda: Outcome(
            "info", str(homology(b.pair_map.source)))))
    return out


def _cone_records(t, _):
    """The homology of the pair's cone and, given a secondary map, its
    transition automorphism (`_Target.pair_cone`, `.transition`)."""
    b = t.bundle
    if b.pair_map is None:
        return [("cone", lambda: Outcome(
            "error", "no chain map available to build a cone"))]
    out = [("homology.cone",
            lambda: Outcome("info", str(homology(t.pair_cone.complex))))]
    if b.secondary is not None:
        out += [("transition.unipotent", lambda: (
                    Outcome("pass", "(phi - id)^2 = 0")
                    if t.transition.unipotent
                    else Outcome("fail", "not unipotent"))),
                ("transition.homology-action", lambda: (
                    Outcome("pass", "nontrivial on cone homology")
                    if t.transition.nontrivial_on_homology
                    else Outcome("fail",
                                 "acts as the identity on cone homology")))]
    return out


def _one(status):
    """A check with one record, named by the check: status(t) -> Outcome."""
    return lambda t, check: [(check, lambda: status(t))]


# check id -> (the scenario kind that may list it, or None for a check only
# a fixture runs; the scenario field it needs, or None; records(t, id) ->
# [(record id, run)], where run() -> Outcome); the checks are
# looked up as module globals when they run, so a patch or tracer sees them
CHECKS = {
    "axioms": ("bialgebra", None, lambda t, _: [
        (f"axioms.{a}", lambda i=i: t.axioms.results[i])
        for i, a in enumerate(AXIOM_ORDER)]),
    "lambda-eta": ("bialgebra", None, _one(lambda t: lambda_eta(t.data))),
    "involutivity": ("bialgebra", None, _one(
        lambda t: check_involutivity(t.data))),
    "cc-antisymmetry": ("bialgebra", None, _one(
        lambda t: check_cc_implies_antisymmetry(t.data))),
    "loday-ronco": ("bialgebra", None, _one(
        lambda t: check_loday_ronco(t.data))),
    "reverse-bivector-gate": ("bialgebra", "reverse_bivector", _one(
        lambda t: check_lemma_c_lambda_eta(t.scn.reverse_bivector, t.data))),
    "reverse-coproduct": (None, None, _one(_reverse_coproduct)),
    "components": ("cone", None, _one(
        lambda t: cross_check_components(t.cone))),
    "associativity": ("cone", None, _one(lambda t: t.cone.associativity)),
    "assoc-infinitesimal": ("cone", None, _one(
        lambda t: check_assoc_implies_infinitesimal(t.cone))),
    "d-squared": ("complex", None, _one(
        lambda t: Outcome("pass", "verified at construction"))),
    "essential": ("complex", "top", _one(lambda t: Outcome(
        "pass" if is_essential(t.data.complex, t.data.top) else "fail",
        f"top degree {t.data.top}"))),
    "continuation-vanishes": ("complex", "pair", _one(_continuation_status)),
    "homology-summary": (None, None, _homology_records),
    "cone-transition": (None, None, _cone_records),
}

_LOOP = ("axioms", "lambda-eta")
_CC = ("involutivity", "cc-antisymmetry")
_CONE = ("components", "associativity", "assoc-infinitesimal")
# what `homology` runs; with --cone, the cone's records too
HOMOLOGY = ("homology-summary", "cone-transition")
_PAIR = HOMOLOGY + ("continuation-vanishes",)
DEFAULT_CHECKS = {"bialgebra": _LOOP, "cone": _CONE, "complex": ("d-squared",)}

# fixture -> (the checks of `check`, the checks of `demo`)
FIXTURES = {
    "lambda-s3": (_LOOP, _LOOP + _CC + _CONE),
    "lambda-s1-plus": (_LOOP, _LOOP + ("reverse-coproduct",) + _CONE),
    "lambda-s1-minus": (_LOOP, _LOOP + ("reverse-coproduct",) + _CONE),
    "omega-s3": (_LOOP, _LOOP + _CC),
    "omega-s1-plus": (_LOOP, _LOOP + ("loday-ronco", "reverse-coproduct")),
    "omega-s1-minus": (_LOOP, _LOOP + ("loday-ronco", "reverse-coproduct")),
    "tstar-s1": (_PAIR, _PAIR),
}

# variant fixture -> (its opposite variant, the sign s for which the
# bivector c = s * fixtures.reverse_data_bivector rebuilds the opposite
# coproduct from this one)
OPPOSITE = {
    "lambda-s1-plus": ("lambda-s1-minus", 1),
    "lambda-s1-minus": ("lambda-s1-plus", -1),
    "omega-s1-plus": ("omega-s1-minus", 1),
    "omega-s1-minus": ("omega-s1-plus", -1),
}


def records(scn, checks, prefix: str, timings: bool):
    """The records of `checks`, in order, on the scenario or fixture `scn`
    (a `scenario.Scenario`), each run and timed by `_timed`."""
    t = _Target(scn)
    return [_timed(prefix + rid, run, timings)
            for check in checks for rid, run in CHECKS[check][2](t, check)]


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
