"""Axiom engine for graded bialgebra-type structures.

A `BialgebraData` carries a graded module A with a product mu: A(x)A -> A,
a coproduct lam: A -> A(x)A, and a unit element eta.  The axioms checked
are, with tau the twist and |mu|, |lam| the operation degrees:

  (unit)            mu(eta (x) x) = x  and  (-1)^{|mu||x|} mu(x (x) eta) = x
  (associativity)   mu(mu (x) 1) = mu(1 (x) mu)
  (coassociativity) (1 (x) lam) lam = (-1)^{|lam|} (lam (x) 1) lam
  (unital infinitesimal relation)
      lam mu = (-1)^{|lam||mu|} ((1 (x) mu)(lam (x) 1) + (mu (x) 1)(1 (x) lam))
               - (-1)^{|mu|} (mu (x) mu)(1 (x) lam eta (x) 1)
  (unital anti-symmetry)   the six-term relation transcribed below.

All identities are exact; quantification runs over the instance's safe
basis elements (all of them unless a truncation window is declared).
Failures carry the first offending input with both sides fully expanded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graded import (
    GradedModule,
    GradedMap,
    Vector,
    tensor,
    tensor_map,
    associativity_witness,
    twist,
    twist_vector,
    insert_middle,
    insert_left,
    insert_right,
    format_vector,
    TENSOR_SEP,
    koszul_sign,
)
from .complexes import ChainComplex


@dataclass
class AxiomResult:
    axiom: str
    passed: bool
    inputs_checked: int
    witness_input: str = ""
    witness_lhs: str = ""
    witness_rhs: str = ""
    elapsed_ms: float = 0.0

    def describe(self) -> str:
        if self.passed:
            return f"{self.axiom}: pass ({self.inputs_checked} inputs)"
        return (f"{self.axiom}: FAIL at {self.witness_input}; "
                f"lhs = {self.witness_lhs}; rhs = {self.witness_rhs}")


@dataclass
class AxiomReport:
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def describe(self) -> str:
        return "\n".join(r.describe() for r in self.results)


class BialgebraData:
    """Module + product + coproduct + unit, with recorded degrees.

    `safe_names`, when given, restricts every axiom quantifier to those
    basis elements (used by truncated fixtures so that dropped structure
    constants are never mistaken for counterexamples).  A differential may
    be supplied; mu and lam are then required to be chain maps.
    """

    def __init__(self, module: GradedModule, mu: GradedMap, lam: GradedMap,
                 eta: Vector, safe_names=None, differential: GradedMap = None,
                 name: str = ""):
        A2 = tensor(module, module)
        if mu.source != A2 or mu.target != module:
            raise ValueError("mu must map A(x)A to A")
        if lam.source != module or lam.target != A2:
            raise ValueError("lam must map A to A(x)A")
        if eta.module != module:
            raise ValueError("eta must live in A")
        d_eta = eta.degree()
        if d_eta not in (None, 0):
            raise ValueError(f"eta must have degree 0, got {d_eta}")
        self.module = module
        self.mu = mu
        self.lam = lam
        self.eta = eta
        self.name = name
        self.safe_names = (tuple(safe_names) if safe_names is not None
                           else module.basis_names())
        for n in self.safe_names:
            if not module.has(n):
                raise ValueError(f"safe name {n!r} is not a basis element")
        self.differential = differential
        if differential is not None:
            ChainComplex(module, differential)  # validates d*d = 0
            one = GradedMap.identity(module)
            d2 = tensor_map(differential, one) + tensor_map(one, differential)
            for label, op, dom_d, cod_d, names in (
                ("mu", mu, d2, differential, A2.basis_names()),
                ("lam", lam, differential, d2, module.basis_names()),
            ):
                for nm in names:
                    lhs = cod_d(op.eval_basis(nm))
                    rhs = op(dom_d.eval_basis(nm)).scale(koszul_sign(op.degree))
                    if lhs != rhs:
                        raise ValueError(f"{label} is not a chain map (fails on {nm})")

    # -- derived data ----------------------------------------------------------

    def lambda_eta(self) -> Vector:
        return self.lam(self.eta)

    def safe_elements(self):
        return [self.module.el(n) for n in self.safe_names]

    def mu2(self, x: Vector, y: Vector) -> Vector:
        return self.mu(x.tensor(y))

    def is_commutative(self) -> bool:
        """mu tau = (-1)^{|mu|} mu on safe pairs."""
        tau = twist(self.module, self.module)
        s = koszul_sign(self.mu.degree)
        for x in self.safe_elements():
            for y in self.safe_elements():
                v = x.tensor(y)
                if self.mu(tau(v)).scale(s) != self.mu(v):
                    return False
        return True

    def is_cocommutative(self) -> bool:
        """tau lam = (-1)^{|lam|} lam on safe elements."""
        tau = twist(self.module, self.module)
        s = koszul_sign(self.lam.degree)
        for x in self.safe_elements():
            if twist_vector(self.lam(x)) != self.lam(x).scale(s):
                return False
        return True


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

def _result(axiom, start, count, witness=None, lhs=None, rhs=None):
    """The AxiomResult of a quantifier begun at monotonic time `start`."""
    if witness is None:
        res = AxiomResult(axiom, True, count)
    else:
        res = AxiomResult(axiom, False, count, witness,
                          format_vector(lhs), format_vector(rhs))
    res.elapsed_ms = round((time.monotonic() - start) * 1000, 3)
    return res


def _quantify(axiom, inputs, lhs_fn, rhs_fn, describe) -> AxiomResult:
    start = time.monotonic()
    count = 0
    for item in inputs:
        count += 1
        lhs = lhs_fn(item)
        rhs = rhs_fn(item)
        if lhs != rhs:
            return _result(axiom, start, count, describe(item), lhs, rhs)
    return _result(axiom, start, count)


AXIOM_ORDER = ("unit (left)", "unit (right)", "associativity",
               "coassociativity", "unital infinitesimal",
               "unital anti-symmetry")

# cheap and mutation-sensitive axioms first; used by fail_fast sweeps
_FAIL_FAST_ORDER = ("unit (left)", "unit (right)", "unital infinitesimal",
                    "coassociativity", "unital anti-symmetry", "associativity")


def check_axioms(inst: BialgebraData, fail_fast: bool = False,
                 window=None) -> AxiomReport:
    """Exact verification of all five axioms over the safe window.

    `window`, when given, overrides the instance's safe basis names for
    this run.  With fail_fast the axioms run in a cheap-first order and
    the report stops at the first failure (used by mutation sweeps); the
    default runs and reports everything in the definition's order.
    """
    A = inst.module
    mu, lam, eta = inst.mu, inst.lam, inst.eta
    one = GradedMap.identity(A)
    safe = tuple(window) if window is not None else inst.safe_names
    for nm in safe:
        if not A.has(nm):
            raise ValueError(f"window name {nm!r} is not a basis element")
    pairs = [f"{a}{TENSOR_SEP}{b}" for a in safe for b in safe]

    def run_unit_left():
        return _quantify("unit (left)", safe,
                         lambda n: inst.mu2(eta, A.el(n)),
                         lambda n: A.el(n), lambda n: n)

    def run_unit_right():
        return _quantify(
            "unit (right)", safe,
            lambda n: inst.mu2(A.el(n), eta).scale(
                koszul_sign(mu.degree * A.degree_of(n))),
            lambda n: A.el(n), lambda n: n)

    def run_associativity():
        start = time.monotonic()
        count, triple, lhs, rhs = associativity_witness(mu, safe)
        return _result("associativity", start, count,
                       triple and TENSOR_SEP.join(triple), lhs, rhs)

    def run_coassociativity():
        # graded form: (1 (x) lam) lam = (-1)^{|lam|} (lam (x) 1) lam
        co_l = lam.then(tensor_map(lam, one))
        co_r = lam.then(tensor_map(one, lam))
        s = koszul_sign(lam.degree)
        return _quantify("coassociativity", safe,
                         lambda n: co_r.eval_basis(n),
                         lambda n: co_l.eval_basis(n).scale(s),
                         lambda n: n)

    def run_infinitesimal():
        lam_eta = inst.lambda_eta()
        lhs_map = mu.then(lam)
        t1 = tensor_map(lam, one).then(tensor_map(one, mu))
        t2 = tensor_map(one, lam).then(tensor_map(mu, one))
        s_ll = koszul_sign(lam.degree * mu.degree)
        s_m = koszul_sign(mu.degree)
        if lam_eta.is_zero():
            def uir_rhs(n):
                return (t1.eval_basis(n) + t2.eval_basis(n)).scale(s_ll)
        else:
            mid = insert_middle(lam_eta, A, A).then(tensor_map(mu, mu))

            def uir_rhs(n):
                return ((t1.eval_basis(n) + t2.eval_basis(n)).scale(s_ll)
                        - mid.eval_basis(n).scale(s_m))
        return _quantify("unital infinitesimal", pairs,
                         lhs_map.eval_basis, uir_rhs, lambda n: n)

    def run_antisymmetry():
        lhs_terms, rhs_terms = _antisymmetry_sides(inst)

        def side(terms):
            def fn(n):
                out = A.zero().tensor(A.zero())
                for sgn, op in terms:
                    out = out + op.eval_basis(n).scale(sgn)
                return out
            return fn

        return _quantify("unital anti-symmetry", pairs,
                         side(lhs_terms), side(rhs_terms), lambda n: n)

    runners = {
        "unit (left)": run_unit_left,
        "unit (right)": run_unit_right,
        "associativity": run_associativity,
        "coassociativity": run_coassociativity,
        "unital infinitesimal": run_infinitesimal,
        "unital anti-symmetry": run_antisymmetry,
    }
    report = AxiomReport()
    order = _FAIL_FAST_ORDER if fail_fast else AXIOM_ORDER
    results = {}
    for axiom in order:
        r = runners[axiom]()
        results[axiom] = r
        if fail_fast and not r.passed:
            break
    report.results = [results[a] for a in AXIOM_ORDER if a in results]
    return report


def _antisymmetry_sides(inst: BialgebraData):
    """The two sides of (unital anti-symmetry) as signed operation lists."""
    A = inst.module
    mu, lam = inst.mu, inst.lam
    one = GradedMap.identity(A)
    tau = twist(A, A)
    dl, dm = lam.degree, mu.degree
    lam_eta = inst.lambda_eta()
    tau_lam = lam.then(tau)
    mu_tau = tau.then(mu)

    lhs = [
        (koszul_sign(dm * (dl + 1)),
         tensor_map(tau_lam, one).then(tensor_map(one, mu))),
        (koszul_sign(dl * (dm + 1)),
         tensor_map(one, lam).then(tensor_map(mu_tau, one))),
    ]
    rhs = [
        (koszul_sign(dl * dm),
         tensor_map(lam, one).then(tensor_map(one, mu_tau)).then(tau)),
        (-koszul_sign((dl + 1) * (dm + 1)),
         tensor_map(one, tau_lam).then(tensor_map(mu, one)).then(tau)),
    ]
    if not lam_eta.is_zero():
        mid = insert_middle(lam_eta, A, A)
        lhs.append((-koszul_sign(dl + dm), mid.then(tensor_map(mu_tau, mu))))
        rhs.append((-koszul_sign(dm), mid.then(tensor_map(mu, mu_tau)).then(tau)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Derived checks
# ---------------------------------------------------------------------------

@dataclass
class LambdaEtaResult:
    value: Vector
    symmetric: bool   # tau(lam eta) = (-1)^{|lam|} lam eta


def lambda_eta(inst: BialgebraData) -> LambdaEtaResult:
    v = inst.lambda_eta()
    expected = v.scale(koszul_sign(inst.lam.degree))
    got = twist_vector(v) if not v.is_zero() else v
    return LambdaEtaResult(v, got == expected)


@dataclass
class ConditionalReport:
    hypotheses_met: bool
    passed: bool
    detail: str = ""

    @property
    def holds(self):
        return self.hypotheses_met and self.passed


def check_involutivity(inst: BialgebraData) -> ConditionalReport:
    """mu lam = 0, valid when 2 != 0, mu commutative, lam cocommutative,
    and the operation degrees have opposite parity."""
    ring = inst.module.ring
    problems = []
    if ring.characteristic == 2:
        problems.append("2 = 0 in the ring")
    if (inst.mu.degree + inst.lam.degree) % 2 == 0:
        problems.append("mu and lam do not have opposite parity")
    if not inst.is_commutative():
        problems.append("mu is not commutative")
    if not inst.is_cocommutative():
        problems.append("lam is not cocommutative")
    comp = inst.lam.then(inst.mu)
    if problems:
        values = "; ".join(
            f"mu lam({n}) = {format_vector(comp.eval_basis(n))}"
            for n in inst.safe_names[:4]
        )
        return ConditionalReport(False, False,
                                 "hypotheses not met: " + ", ".join(problems)
                                 + ". raw values: " + values)
    for n in inst.safe_names:
        v = comp.eval_basis(n)
        if not v.is_zero():
            return ConditionalReport(True, False,
                                     f"mu lam({n}) = {format_vector(v)} != 0")
    return ConditionalReport(True, True)


def check_cc_implies_antisymmetry(inst: BialgebraData) -> ConditionalReport:
    """In the commutative/cocommutative case, both sides of (unital
    anti-symmetry) reduce to signed multiples of lam mu; verified by exact
    expansion.  Requires the unital infinitesimal relation to hold."""
    if not inst.is_commutative():
        return ConditionalReport(False, False, "mu is not commutative")
    if not inst.is_cocommutative():
        return ConditionalReport(False, False, "lam is not cocommutative")
    base = check_axioms(inst)
    uir = next(r for r in base.results if r.axiom == "unital infinitesimal")
    if not uir.passed:
        return ConditionalReport(False, False,
                                 "unital infinitesimal relation fails: " + uir.describe())

    A = inst.module
    lam_mu = inst.mu.then(inst.lam)
    tau = twist(A, A)
    dl, dm = inst.lam.degree, inst.mu.degree
    lhs_terms, rhs_terms = _antisymmetry_sides(inst)
    safe = inst.safe_names
    for a in safe:
        for b in safe:
            n = f"{a}{TENSOR_SEP}{b}"
            lhs = A.zero().tensor(A.zero())
            for sgn, op in lhs_terms:
                lhs = lhs + op.eval_basis(n).scale(sgn)
            rhs = A.zero().tensor(A.zero())
            for sgn, op in rhs_terms:
                rhs = rhs + op.eval_basis(n).scale(sgn)
            reduced = lam_mu.eval_basis(n)
            if lhs != reduced.scale(koszul_sign(dm + dl)):
                return ConditionalReport(True, False,
                                         f"left side does not reduce on {n}")
            if rhs != tau(reduced).scale(koszul_sign(dm)):
                return ConditionalReport(True, False,
                                         f"right side does not reduce on {n}")
    return ConditionalReport(True, True)


def secondary_relation_apply(mu: GradedMap, lam: GradedMap,
                             c_fwd: Vector, c_op: Vector) -> GradedMap:
    """Change of coproduct along secondary continuation bivectors:

        lam' = lam + (mu (x) 1)(1 (x) c_fwd) - (1 (x) mu)(c_op (x) 1).

    When c_op = -c_fwd this is the reverse-data special case
    lam' = lam + (mu (x) 1)(1 (x) c) + (1 (x) mu)(c (x) 1), and the two
    evaluation routes are cross-checked against each other.
    """
    A = lam.source
    one = GradedMap.identity(A)
    expected = lam.degree
    for c in (c_fwd, c_op):
        if not c.is_zero() and c.degree() != expected:
            raise ValueError(
                f"bivector degree {c.degree()} does not match |lam| = {expected}")
    term1 = insert_right(c_fwd, A).then(tensor_map(mu, one)) \
        if not c_fwd.is_zero() else None
    term2 = insert_left(c_op, A).then(tensor_map(one, mu)) \
        if not c_op.is_zero() else None

    special = (not c_fwd.is_zero()) and c_op == -c_fwd
    term_alt = insert_left(c_fwd, A).then(tensor_map(one, mu)) \
        if special else None

    def fn(name):
        out = lam.eval_basis(name)
        if term1 is not None:
            out = out + term1.eval_basis(name)
        if term2 is not None:
            out = out - term2.eval_basis(name)
        if special:
            alt = (lam.eval_basis(name) + term1.eval_basis(name)
                   + term_alt.eval_basis(name))
            if alt != out:
                raise RuntimeError(
                    f"special-case cross-check failed on {name}")
        return out

    return GradedMap(A, lam.target, lam.degree, fn, name="lam'")


@dataclass
class EqualityReport:
    passed: bool
    difference: Vector = None
    detail: str = ""


def check_lemma_c_lambda_eta(c_op_fwd: Vector, inst: BialgebraData) -> EqualityReport:
    """Consistency gate: a supplied reverse-data continuation bivector must
    equal lam(eta)."""
    expected = inst.lambda_eta()
    if c_op_fwd == expected:
        return EqualityReport(True)
    return EqualityReport(False, c_op_fwd - expected,
                          f"bivector differs from lam(eta) by "
                          f"{format_vector(c_op_fwd - expected)}")


def check_loday_ronco(inst: BialgebraData) -> AxiomResult:
    """Even-coproduct form lam mu = (1(x)mu)(lam(x)1) + (mu(x)1)(1(x)lam)
    -/+ identity, for instances with lam(eta) = +/- eta (x) eta."""
    if inst.lam.degree % 2:
        raise ValueError("the identity-coproduct form needs |lam| even")
    lam_eta = inst.lambda_eta()
    A = inst.module
    ee = inst.eta.tensor(inst.eta)
    if lam_eta == ee:
        sign = 1
    elif lam_eta == -ee:
        sign = -1
    else:
        raise ValueError(
            f"lam(eta) = {format_vector(lam_eta)} is not +/- eta(x)eta")
    one = GradedMap.identity(A)
    lhs = inst.mu.then(inst.lam)
    t1 = tensor_map(inst.lam, one).then(tensor_map(one, inst.mu))
    t2 = tensor_map(one, inst.lam).then(tensor_map(inst.mu, one))
    safe = inst.safe_names
    pairs = [f"{a}{TENSOR_SEP}{b}" for a in safe for b in safe]

    A2 = tensor(A, A)

    def rhs(n):
        base = t1.eval_basis(n) + t2.eval_basis(n)
        x, y = A2.parts_of(n)
        ident = A.el(x).tensor(A.el(y))
        return base - ident.scale(sign)

    return _quantify("unital infinitesimal (identity-coproduct form)",
                     pairs, lhs.eval_basis, rhs, lambda n: n)
