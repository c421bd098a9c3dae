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

import functools
import time
from dataclasses import dataclass, field

from .graded import (
    GradedModule,
    GradedMap,
    Vector,
    tensor,
    tensor_differential,
    associativity_witness,
    format_vector,
    TENSOR_SEP,
    koszul_sign,
    apply_rows,
    row_vector,
    vector_terms,
    _first_difference,
    _signed_row,
    _sum_rows,
    _twisted,
)
from .complexes import ChainComplex, _require_chain_map


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
        _require_basis_names(module, self.safe_names, "safe")
        self.differential = differential
        if differential is not None:
            ChainComplex(module, differential)  # validates d*d = 0
            d, d2 = differential, tensor_differential(differential)
            _require_chain_map(mu, d2, d,
                               "mu is not a chain map (fails on {})")
            _require_chain_map(lam, d, d2,
                               "lam is not a chain map (fails on {})")

    # -- derived data ----------------------------------------------------------

    def eta_terms(self) -> tuple:
        """eta as (position in A, coefficient) pairs."""
        pos = self.module.index().pos
        return tuple((pos[n], c) for n, c in self.eta.coeffs.items())

    def lambda_eta_terms(self) -> dict:
        """lam eta on A (x) A, {(k1, k2): coefficient}, from lam's table."""
        return apply_rows(self.lam.table().row, self.eta_terms(),
                          self.module.ring)

    def lambda_eta(self) -> Vector:
        return row_vector(tensor(self.module, self.module),
                          self.lambda_eta_terms().items())

    def safe_positions(self):
        pos = self.module.index().pos
        return [pos[n] for n in self.safe_names]

    def is_commutative(self) -> bool:
        """mu tau = (-1)^{|mu|} mu on safe pairs."""
        mu, odd = self.mu.table().row, self.module.index().odd
        neg, safe = self.module.ring.neg, self.safe_positions()

        def sides(p):
            i, j = p
            flip = (self.mu.degree + odd[i] * odd[j]) % 2
            return dict(mu(i, j)), dict(_signed_row(mu(j, i), flip, neg))

        pairs = [(i, j) for i in safe for j in safe]
        return _first_difference(pairs, sides)[1] is None

    def is_cocommutative(self) -> bool:
        """tau lam = (-1)^{|lam|} lam on safe elements."""
        lam, odd = self.lam.table().row, self.module.index().odd
        neg, flip = self.module.ring.neg, self.lam.degree % 2
        return _first_difference(self.safe_positions(), lambda x: (
            _twisted(lam(x), odd, neg),
            dict(_signed_row(lam(x), flip, neg))))[1] is None


def _require_basis_names(module: GradedModule, names, label: str):
    """Raise ValueError at the first of `names` that is not a basis name of
    `module` or that repeats an earlier one, naming it: a repeat would
    count its inputs twice in every quantifier."""
    seen = set()
    for n in names:
        if not module.has(n):
            raise ValueError(f"{label} name {n!r} is not a basis element")
        if n in seen:
            raise ValueError(f"{label} name {n!r} repeats a basis element")
        seen.add(n)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

def _result(axiom, found, describe, module=None) -> AxiomResult:
    """The AxiomResult of `_first_difference`'s (count, input, lhs, rhs):
    describe(input) and the sides as Vectors (of `module`, when they are
    {key: coefficient} dicts) come back only for a witness."""
    count, x, lhs, rhs = found
    if x is None:
        return AxiomResult(axiom, True, count)
    if module is not None:
        lhs, rhs = (row_vector(module, side.items()) for side in (lhs, rhs))
    return AxiomResult(axiom, False, count, describe(x),
                       format_vector(lhs), format_vector(rhs))


def _pair_name(names):
    """describe for pair inputs (i, j): "a (x) b" by the names."""
    return lambda k: names[k[0]] + TENSOR_SEP + names[k[1]]


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

    Every side is expanded from the tables of mu and lam on basis
    positions; names are read once, here, and come back for a witness.
    """
    A = inst.module
    safe = tuple(window) if window is not None else inst.safe_names
    _require_basis_names(A, safe, "window")
    idx = A.index()
    names, odd = idx.names, idx.odd
    R = A.ring
    neg, one = R.neg, R.one()
    mu, lam = inst.mu.table().row, inst.lam.table().row
    eta = inst.eta_terms()
    at = [idx.pos[n] for n in safe]
    pairs = [(i, j) for i in at for j in at]
    kernel = functools.cache(lambda: PairKernel(inst.mu, inst.lam,
                                                inst.lambda_eta_terms().items()))

    def run_unit_left():
        return _result("unit (left)", _first_difference(at, lambda i: (
            apply_rows(lambda e: mu(e, i), eta, R), {i: one})),
            names.__getitem__, A)

    def run_unit_right():
        # (-1)^{|mu||x|} mu(x (x) eta) = x
        return _result("unit (right)", _first_difference(at, lambda i: (
            dict(_signed_row(apply_rows(lambda e: mu(i, e), eta, R).items(),
                             inst.mu.degree % 2 and odd[i], neg)),
            {i: one})), names.__getitem__, A)

    def run_associativity():
        return _result("associativity", associativity_witness(inst.mu, safe),
                       TENSOR_SEP.join)

    def run_coassociativity():
        return _result("coassociativity", _first_difference(
            at, functools.partial(_coassociativity, lam, inst.lam.degree % 2,
                                  odd, R)), names.__getitem__, tensor(A, A, A))

    def run_pairs(axiom):
        k = kernel()
        sides = (k.infinitesimal if axiom == "unital infinitesimal"
                 else k.antisymmetry)
        return _result(axiom, _first_difference(pairs, lambda p: sides(*p)),
                       _pair_name(names), k.A2)

    runners = {
        "unit (left)": run_unit_left,
        "unit (right)": run_unit_right,
        "associativity": run_associativity,
        "coassociativity": run_coassociativity,
        "unital infinitesimal": lambda: run_pairs("unital infinitesimal"),
        "unital anti-symmetry": lambda: run_pairs("unital anti-symmetry"),
    }
    report = AxiomReport()
    order = _FAIL_FAST_ORDER if fail_fast else AXIOM_ORDER
    results = {}
    for axiom in order:
        start = time.monotonic()
        r = results[axiom] = runners[axiom]()
        r.elapsed_ms = round((time.monotonic() - start) * 1000, 3)
        if fail_fast and not r.passed:
            break
    report.results = [results[a] for a in AXIOM_ORDER if a in results]
    return report


def _coassociativity(lam, lam_odd, odd, R, x):
    """(lhs, rhs) of (1 (x) lam) lam = (-1)^{|lam|} (lam (x) 1) lam at the
    position x, on A (x) A (x) A, expanded from lam's rows:

        lhs = sum (-1)^{|lam||a1|} a1 (x) lam(a2),
        rhs = (-1)^{|lam|} sum lam(a1) (x) a2,

    over the terms a1 (x) a2 of lam(x); the sign is the one 1 (x) lam
    picks up on a1."""
    mul, add, neg = R.mul, R.add, R.neg
    lhs, rhs = {}, {}
    for (a1, a2), c in lam(x):
        left = neg(c) if lam_odd and odd[a1] else c
        for (b1, b2), e in lam(a2):
            t, k = mul(left, e), (a1, b1, b2)
            lhs[k] = t if (old := lhs.get(k)) is None else add(old, t)
        right = neg(c) if lam_odd else c
        for (b1, b2), e in lam(a1):
            t, k = mul(right, e), (b1, b2, a2)
            rhs[k] = t if (old := rhs.get(k)) is None else add(old, t)
    return ({k: c for k, c in lhs.items() if c != 0},
            {k: c for k, c in rhs.items() if c != 0})


class PairKernel:
    """Both sides of (unital infinitesimal) and (unital anti-symmetry), and
    the unit-free infinitesimal defect, on basis pairs a (x) b.

    Positions index A (`GradedModule.index`); a side is a dict
    {(k1, k2): nonzero coefficient} on A (x) A, expanded from the tables of
    mu, lam, mu tau and tau lam, the last two read off mu's and lam's rows
    with the twist sign.  `v` is the bivector put in the middle (lam eta
    for the axioms), given by its terms ((k1, k2), coefficient).

    Each side is summed in one pass into one dict: the pieces `lam_mu`,
    `left`, `right` and `middle` add sign * their terms into `out` and
    return it, and `_nonzero` drops the zeros of the finished side.  A
    piece decides its Koszul sign (of `tensor_map`, and of inserting v)
    once per term of L's row or of v.  With `tau` it writes the twist of
    its terms, tau(x (x) y) = (-1)^{|x||y|} y (x) x, with the twist sign
    decided in the same place: maps are homogeneous, so the degrees of a
    row's inputs fix the degrees of its outputs.
    """

    def __init__(self, mu: GradedMap, lam: GradedMap, v):
        A = mu.target
        self.A2 = tensor(A, A)
        self.idx = A.index()
        self.mu, self.lam = mu.table(), lam.table()
        R = A.ring
        self._mul, self._add, self._neg = R.mul, R.add, R.neg
        odd, neg = self.idx.odd, R.neg
        mu_row, lam_row = self.mu.row, self.lam.row

        def mu_tau(i, j):   # mu(tau(a (x) b)) = (-1)^{|a||b|} mu(b (x) a)
            return _signed_row(mu_row(j, i), odd[i] and odd[j], neg)

        self.mu_tau = GradedMap(self.A2, A, mu.degree, mu_tau).table()
        self.tau_lam = GradedMap(
            A, self.A2, lam.degree,
            lambda x: tuple(_twisted(lam_row(x), odd, neg).items())).table()
        self.v = tuple(v)
        deg = self.idx.degree
        degrees = sorted({deg[k1] + deg[k2] for (k1, k2), _ in self.v})
        if len(degrees) > 1:
            raise ValueError(f"inhomogeneous vector with degrees {degrees}")
        self.dv = degrees[0] if degrees else 0

    def lam_mu(self, out, sign, L, i, j):
        """out += sign * L mu (a (x) b), L being lam or tau lam."""
        mul, add = self._mul, self._add
        for x, m in self.mu.row(i, j):
            if sign < 0:
                m = self._neg(m)
            for k, c in L.row(x):
                t = mul(m, c)
                out[k] = t if (old := out.get(k)) is None else add(old, t)
        return out

    def left(self, out, sign, P, L, i, j, tau=False):
        """out += sign * (1 (x) P)(L (x) 1)(a (x) b), or tau of it:
        (1 (x) P)(L (x) 1) = sum (-1)^{|P||a1|} a1 (x) P(a2 (x) b)."""
        mul, add, neg, odd = self._mul, self._add, self._neg, self.idx.odd
        p, b = P.degree % 2, odd[j]
        for (a1, a2), c in L.row(i):
            # tau(a1 (x) z) costs (-1)^{|a1||z|}, |z| = |a2| + |b| + |P|
            if (sign < 0) + odd[a1] * (p + tau * (odd[a2] + b + p)) & 1:
                c = neg(c)
            for z, m in P.row(a2, j):
                t, k = mul(c, m), ((z, a1) if tau else (a1, z))
                out[k] = t if (old := out.get(k)) is None else add(old, t)
        return out

    def right(self, out, sign, P, L, i, j, tau=False):
        """out += sign * (P (x) 1)(1 (x) L)(a (x) b), or tau of it:
        (P (x) 1)(1 (x) L) = sum (-1)^{|L||a|} P(a (x) b1) (x) b2."""
        mul, add, neg, odd = self._mul, self._add, self._neg, self.idx.odd
        a, p = odd[i], P.degree % 2
        base = (sign < 0) + L.degree * a
        for (b1, b2), c in L.row(j):
            # tau(z (x) b2) costs (-1)^{|z||b2|}, |z| = |a| + |b1| + |P|
            if base + tau * odd[b2] * (a + odd[b1] + p) & 1:
                c = neg(c)
            for z, m in P.row(i, b1):
                t, k = mul(c, m), ((b2, z) if tau else (z, b2))
                out[k] = t if (old := out.get(k)) is None else add(old, t)
        return out

    def middle(self, out, sign, P, Q, i, j, tau=False):
        """out += sign * (P (x) Q)(1 (x) v (x) 1)(a (x) b), or tau of it:
        (P (x) Q)(1 (x) v (x) 1) = sum over v1 (x) v2 of
        (-1)^{|v||a| + |Q|(|a| + |v1|)} P(a (x) v1) (x) Q(v2 (x) b)."""
        mul, add, neg, odd = self._mul, self._add, self._neg, self.idx.odd
        a, b, p, q = odd[i], odd[j], P.degree % 2, Q.degree % 2
        base = (sign < 0) + self.dv * a
        for (v1, v2), e in self.v:
            # tau(z1 (x) z2) costs (-1)^{|z1||z2|},
            # |z1| = |a| + |v1| + |P|, |z2| = |v2| + |b| + |Q|
            if (base + q * (a + odd[v1])
                    + tau * (a + odd[v1] + p) * (odd[v2] + b + q)) & 1:
                e = neg(e)
            right = Q.row(v2, j)
            for z1, m1 in P.row(i, v1):
                c1 = mul(e, m1)
                for z2, m2 in right:
                    t, k = mul(c1, m2), ((z2, z1) if tau else (z1, z2))
                    out[k] = t if (old := out.get(k)) is None else add(old, t)
        return out

    def infinitesimal(self, i, j):
        """(lhs, rhs) of lam mu = (-1)^{|lam||mu|} ((1 (x) mu)(lam (x) 1)
        + (mu (x) 1)(1 (x) lam)) - (-1)^{|mu|} (mu (x) mu)(1 (x) v (x) 1)."""
        mu, lam = self.mu, self.lam
        s = koszul_sign(lam.degree * mu.degree)
        rhs = self.left({}, s, mu, lam, i, j)
        self.right(rhs, s, mu, lam, i, j)
        self.middle(rhs, -koszul_sign(mu.degree), mu, mu, i, j)
        return _nonzero(self.lam_mu({}, 1, lam, i, j)), _nonzero(rhs)

    def defect(self, i, j):
        """lam mu - (1 (x) mu)(lam (x) 1) - (mu (x) 1)(1 (x) lam)
        + (mu (x) mu)(1 (x) v (x) 1)."""
        mu, lam = self.mu, self.lam
        out = self.lam_mu({}, 1, lam, i, j)
        self.left(out, -1, mu, lam, i, j)
        self.right(out, -1, mu, lam, i, j)
        return _nonzero(self.middle(out, 1, mu, mu, i, j))

    def antisymmetry(self, i, j):
        """(lhs, rhs) of (unital anti-symmetry):

        lhs = (-1)^{|mu|(|lam|+1)} (1 (x) mu)(tau lam (x) 1)
            + (-1)^{|lam|(|mu|+1)} (mu tau (x) 1)(1 (x) lam)
            - (-1)^{|lam|+|mu|} (mu tau (x) mu)(1 (x) lam eta (x) 1),
        rhs = tau [(-1)^{|lam||mu|} (1 (x) mu tau)(lam (x) 1)
            - (-1)^{(|lam|+1)(|mu|+1)} (mu (x) 1)(1 (x) tau lam)
            - (-1)^{|mu|} (mu (x) mu tau)(1 (x) lam eta (x) 1)].
        """
        mu, lam, mu_tau, tau_lam = self.mu, self.lam, self.mu_tau, self.tau_lam
        dl, dm = lam.degree, mu.degree
        lhs = self.left({}, koszul_sign(dm * (dl + 1)), mu, tau_lam, i, j)
        self.right(lhs, koszul_sign(dl * (dm + 1)), mu_tau, lam, i, j)
        self.middle(lhs, -koszul_sign(dl + dm), mu_tau, mu, i, j)
        rhs = self.left({}, koszul_sign(dl * dm), mu_tau, lam, i, j, True)
        self.right(rhs, -koszul_sign((dl + 1) * (dm + 1)), mu, tau_lam, i, j,
                   True)
        self.middle(rhs, -koszul_sign(dm), mu, mu_tau, i, j, True)
        return _nonzero(lhs), _nonzero(rhs)


def _nonzero(side: dict) -> dict:
    """The side without its zero coefficients."""
    return {k: c for k, c in side.items() if c != 0}


# ---------------------------------------------------------------------------
# Derived checks
# ---------------------------------------------------------------------------

@dataclass
class LambdaEtaResult:
    value: Vector
    symmetric: bool   # tau(lam eta) = (-1)^{|lam|} lam eta


def lambda_eta(inst: BialgebraData) -> LambdaEtaResult:
    terms = inst.lambda_eta_terms().items()
    neg, odd = inst.module.ring.neg, inst.module.index().odd
    return LambdaEtaResult(
        row_vector(tensor(inst.module, inst.module), terms),
        _twisted(terms, odd, neg) == dict(
            _signed_row(terms, inst.lam.degree % 2, neg)))


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
    A = inst.module
    mu, lam = inst.mu.table().row, inst.lam.table().row

    def mu_lam(n):   # {position: coefficient}
        return apply_rows(lambda k: mu(*k), lam(A.index().pos[n]), A.ring)

    def show(v):
        return format_vector(row_vector(A, v.items()))

    if problems:
        values = "; ".join(
            f"mu lam({n}) = {show(mu_lam(n))}"
            for n in inst.safe_names[:4]
        )
        return ConditionalReport(False, False,
                                 "hypotheses not met: " + ", ".join(problems)
                                 + ". raw values: " + values)
    _, n, v, _ = _first_difference(inst.safe_names, lambda n: (mu_lam(n), {}))
    if n is None:
        return ConditionalReport(True, True)
    return ConditionalReport(True, False, f"mu lam({n}) = {show(v)} != 0")


def check_cc_implies_antisymmetry(inst: BialgebraData,
                                  axioms: AxiomReport = None) -> ConditionalReport:
    """In the commutative/cocommutative case, both sides of (unital
    anti-symmetry) reduce to signed multiples of lam mu; verified by exact
    expansion.  Requires the unital infinitesimal relation to hold: its
    verdict is read from `axioms`, a check_axioms report already computed
    for this instance, or else checked on its own."""
    if not inst.is_commutative():
        return ConditionalReport(False, False, "mu is not commutative")
    if not inst.is_cocommutative():
        return ConditionalReport(False, False, "lam is not cocommutative")
    kernel = PairKernel(inst.mu, inst.lam, inst.lambda_eta_terms().items())
    safe, name = inst.safe_positions(), _pair_name(kernel.idx.names)
    pairs = [(i, j) for i in safe for j in safe]
    if axioms is None:
        uir = _result("unital infinitesimal", _first_difference(
            pairs, lambda p: kernel.infinitesimal(*p)), name, kernel.A2)
    else:
        uir = next(r for r in axioms.results
                   if r.axiom == "unital infinitesimal")
    if not uir.passed:
        return ConditionalReport(False, False,
                                 "unital infinitesimal relation fails: " + uir.describe())

    s_lhs = koszul_sign(inst.mu.degree + inst.lam.degree)
    s_rhs = koszul_sign(inst.mu.degree)
    _, p, got, want = _first_difference(pairs, lambda p: (
        kernel.antisymmetry(*p),
        (_nonzero(kernel.lam_mu({}, s_lhs, kernel.lam, *p)),
         _nonzero(kernel.lam_mu({}, s_rhs, kernel.tau_lam, *p)))))
    if p is None:
        return ConditionalReport(True, True)
    side = "left" if got[0] != want[0] else "right"
    return ConditionalReport(True, False,
                             f"{side} side does not reduce on {name(p)}")


def secondary_relation_apply(mu: GradedMap, lam: GradedMap,
                             c_fwd: Vector, c_op: Vector) -> GradedMap:
    """Change of coproduct along secondary continuation bivectors:

        lam' = lam + (mu (x) 1)(1 (x) c_fwd) - (1 (x) mu)(c_op (x) 1),

    as a row map: the row at x is lam's row plus the two terms on x,
    expanded from mu's table (`_times_right`, `_times_left`).

    When c_op = -c_fwd this is the reverse-data special case
    lam' = lam + (mu (x) 1)(1 (x) c) + (1 (x) mu)(c (x) 1), and every row
    is cross-checked against that second evaluation route.
    """
    A = lam.source
    expected = lam.degree
    for c in (c_fwd, c_op):
        if not c.is_zero() and c.degree() != expected:
            raise ValueError(
                f"bivector degree {c.degree()} does not match |lam| = {expected}")
    R = A.ring
    lam_row, neg = lam.table().row, R.neg
    term1 = _times_right(mu, c_fwd)
    term2 = _times_left(mu, c_op)
    special = (not c_fwd.is_zero()) and c_op == -c_fwd
    term_alt = _times_left(mu, c_fwd) if special else None

    def rows(x):
        out = _sum_rows(R, lam_row(x), term1(x),
                        _signed_row(term2(x), True, neg))
        if special and dict(out) != dict(
                _sum_rows(R, lam_row(x), term1(x), term_alt(x))):
            raise RuntimeError("special-case cross-check failed on "
                               f"{A.index().names[x]}")
        return out

    return GradedMap(A, lam.target, lam.degree, rows, name="lam'")


def _times_right(mu: GradedMap, c: Vector):
    """The row function x -> (mu (x) 1)(x (x) c) on A's positions: moving c
    past x costs (-1)^{|c||x|}, |c| read off each term c1 (x) c2, and
    mu (x) 1 carries no sign."""
    terms, row, odd = vector_terms(c), mu.table().row, mu.target.index().odd
    mul, neg = mu.target.ring.mul, mu.target.ring.neg

    def rows(x):
        for (c1, c2), v in terms:
            v = neg(v) if odd[x] and odd[c1] != odd[c2] else v
            for y, m in row(x, c1):
                yield (y, c2), mul(v, m)

    return rows


def _times_left(mu: GradedMap, c: Vector):
    """The row function x -> (1 (x) mu)(c (x) x) on A's positions: inserting
    c on the left costs no sign, and 1 (x) mu carries (-1)^{|mu||c1|} on
    each term c1 (x) c2."""
    terms, row, odd = vector_terms(c), mu.table().row, mu.target.index().odd
    mul, neg = mu.target.ring.mul, mu.target.ring.neg

    def rows(x):
        for (c1, c2), v in terms:
            v = neg(v) if mu.degree % 2 and odd[c1] else v
            for y, m in row(c2, x):
                yield (c1, y), mul(v, m)

    return rows


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
    kernel = PairKernel(inst.mu, inst.lam, ())
    mu, lam, minus_sign = kernel.mu, kernel.lam, A.ring.canon(-sign)

    def sides(p):   # |lam| is even and v = 0: lam mu = t1 + t2 -/+ a (x) b
        rhs = kernel.left({p: minus_sign}, 1, mu, lam, *p)
        return (_nonzero(kernel.lam_mu({}, 1, lam, *p)),
                _nonzero(kernel.right(rhs, 1, mu, lam, *p)))

    safe = inst.safe_positions()
    return _result("unital infinitesimal (identity-coproduct form)",
                   _first_difference([(i, j) for i in safe for j in safe],
                                     sides),
                   _pair_name(kernel.idx.names), kernel.A2)
