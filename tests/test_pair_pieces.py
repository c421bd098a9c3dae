"""The one-pass pair kernel against its per-piece reference.

`bialgebra.PairKernel` lists each pair identity's lhs pieces and negated
rhs pieces as weighted key blocks, with each piece's Koszul signs decided
once per a or once per b, sums them into one dict per row, and expands the
two sides again only for the first failing pair.  `ReferencePairKernel`
below is the former kernel, which sums each side of every pair on its own;
it is the reference.  On random instances over Z, Q, GF(5) and GF(2) with
|mu| in {-1, 0, 1, 2} and |lam| in {-2, -1, 0, 1} (the shipped fixtures
only have |mu| = 0), the one-pass difference must equal the reference's
lhs - rhs on every pair, and `check_axioms` must give the reference
quantifier's count, first failing pair and witness text, on those
instances, on seeded one-constant mutants of the six fixtures, and on the
fixtures with lam scaled by a weight that is not +1 or -1.
"""

import random
from fractions import Fraction

import pytest

from chainalg import fixtures as fx
from chainalg.bialgebra import (
    AXIOM_ORDER,
    BialgebraData,
    PairKernel,
    check_axioms,
)
from chainalg.graded import (
    GradedMap,
    TENSOR_SEP,
    _signed_row,
    _twisted,
    koszul_sign,
    tensor,
)
from chainalg.rings import GF, QQ, ZZ
from name_keyed import (failing, format_vector, passing, row_vector, verdict)
from random_instances import make_random_instance

RINGS = [ZZ, QQ, GF(5)]
RANDOM_RINGS = RINGS + [GF(2)]   # the fixtures' mutants are no mutants mod 2
MU_DEGREES = (-1, 0, 1, 2)
LAM_DEGREES = (-2, -1, 0, 1)
PAIR_AXIOMS = ("unital infinitesimal", "unital anti-symmetry")


# -- the per-piece kernel (the reference) --------------------------------------

class ReferencePairKernel:
    """The pair kernel before its pieces were hoisted: each side summed on
    its own, a piece deciding its Koszul sign once per term of L's row or
    of v, on every pair, and reading each row through `GradedMap.row`."""

    def __init__(self, mu: GradedMap, lam: GradedMap, v):
        A = mu.target
        self.A2 = tensor(A, A)
        self.idx = A.index()
        self.mu, self.lam = mu, lam
        R = A.ring
        self._mul, self._add, self._neg = R.mul, R.add, R.neg
        odd, neg = self.idx.odd, R.neg
        mu_row, lam_row = self.mu.row, self.lam.row

        def mu_tau(i, j):   # mu(tau(a (x) b)) = (-1)^{|a||b|} mu(b (x) a)
            return _signed_row(mu_row(j, i), odd[i] and odd[j], neg)

        self.mu_tau = GradedMap(self.A2, A, mu.degree, mu_tau)
        self.tau_lam = GradedMap(
            A, self.A2, lam.degree,
            lambda x: tuple(_twisted(lam_row(x), odd, neg).items()))
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
    return {k: c for k, c in side.items() if c != 0}


def minus(ring, lhs, rhs):
    """lhs - rhs, without zero coefficients."""
    out = dict(lhs)
    for k, c in rhs.items():
        out[k] = ring.neg(c) if k not in out else ring.sub(out[k], c)
    return _nonzero(out)


def reference_result(inst, axiom):
    """The Outcome of the per-pair quantifier: both sides of each safe
    pair, in order, summed on their own and compared."""
    kernel = ReferencePairKernel(inst.mu, inst.lam,
                                 inst.lambda_eta_terms().items())
    sides = (kernel.infinitesimal if axiom == "unital infinitesimal"
             else kernel.antisymmetry)
    names = kernel.idx.names
    safe = inst.safe
    count = 0
    for i in safe:
        for j in safe:
            count += 1
            lhs, rhs = sides(i, j)
            if lhs != rhs:
                return failing(
                    count, names[i] + TENSOR_SEP + names[j],
                    *(format_vector(row_vector(kernel.A2, side.items()))
                      for side in (lhs, rhs)))
    return passing(count)


def pair_verdicts(report):
    return [verdict(r) for a, r in zip(AXIOM_ORDER, report.results)
            if a in PAIR_AXIOMS]


# -- random instances of every parity ------------------------------------------

def random_instance(ring, dm, dl, k):
    """The k-th seeded random instance with lam eta != 0, so that the
    middle pieces have terms."""
    found = 0
    for seed in range(100):
        inst = make_random_instance(seed, 4, degrees=(0, -1, 1),
                                       mu_degree=dm, lam_degree=dl, ring=ring)
        if inst.lambda_eta_terms():
            if found == k:
                return inst
            found += 1
    raise AssertionError("no random instance with lam eta != 0")


INSTANCES = [(ring, dm, dl, k) for ring in RANDOM_RINGS for dm in MU_DEGREES
             for dl in LAM_DEGREES for k in range(2)]


@pytest.mark.parametrize("ring,dm,dl,seed", INSTANCES,
                         ids=[f"{r}-mu{dm}-lam{dl}-{s}"
                              for r, dm, dl, s in INSTANCES])
def test_one_pass_difference_matches_the_reference(ring, dm, dl, seed):
    inst = random_instance(ring, dm, dl, seed)
    kernel = inst.kernel
    ref = ReferencePairKernel(inst.mu, inst.lam,
                              inst.lambda_eta_terms().items())
    positions = range(len(kernel.idx.names))
    pairs = [(i, j) for i in positions for j in positions]
    s_lhs, s_rhs = koszul_sign(dm + dl), koszul_sign(dm)
    for p in pairs:
        for axiom in PAIR_AXIOMS:
            want = (ref.infinitesimal(*p) if axiom == "unital infinitesimal"
                    else ref.antisymmetry(*p))
            assert kernel.difference(axiom, *p) == minus(ring, *want), (axiom, p)
            assert kernel.sides(axiom, *p) == want, (axiom, p)
        lhs, rhs = ref.antisymmetry(*p)
        assert kernel.difference("cc left", *p) == minus(
            ring, lhs, _nonzero(ref.lam_mu({}, s_lhs, ref.lam, *p)))
        assert kernel.difference("cc right", *p) == minus(
            ring, rhs, _nonzero(ref.lam_mu({}, s_rhs, ref.tau_lam, *p)))
    # after each pair axiom's quantifier has formed every pair's difference
    # (on one-pair rows, so that a failing pair stops none of the others),
    # the defect is still the defect, whatever the parity of mu
    for p in pairs:
        for axiom in PAIR_AXIOMS:
            kernel.first_failure(axiom, [p])
    for p in pairs:
        assert kernel.defect(*p) == ref.defect(*p), p
    # a fresh kernel sums the defect itself
    fresh = PairKernel(inst.mu, inst.lam, inst.lambda_eta_terms().items())
    assert [fresh.defect(*p) for p in pairs] == [ref.defect(*p) for p in pairs]


@pytest.mark.parametrize("ring,dm,dl,seed", INSTANCES,
                         ids=[f"{r}-mu{dm}-lam{dl}-{s}"
                              for r, dm, dl, s in INSTANCES])
def test_pair_axioms_match_the_reference_quantifier(ring, dm, dl, seed):
    inst = random_instance(ring, dm, dl, seed)
    want = [verdict(reference_result(inst, a)) for a in PAIR_AXIOMS]
    assert pair_verdicts(check_axioms(inst)) == want
    # the same again, from the verdicts the instance's kernel kept
    assert pair_verdicts(check_axioms(inst)) == want


# -- one-constant mutants of the fixtures --------------------------------------

def mutants(name, ring, count=4):
    """`count` seeded one-constant mutants of the fixture at N = 8, mu and
    lam constants in turn."""
    window = fx.TruncationWindow(8)
    inst = fx.make_fixture(name, window, ring)
    rng = random.Random(f"{name}-{ring}")
    targets = list(fx.mutation_targets(inst, window))
    out = []
    for op, x, y in rng.sample(targets, min(count, len(targets))):
        out.append(fx.mutate_mu(inst, x, y) if op == "mu"
                   else fx.mutate_lambda(inst, x, y))
    return [inst] + out


BIALGEBRA_FIXTURES = fx.fixture_names()[:6]   # all but tstar-s1
FIXTURE_CASES = [(name, ring) for name in BIALGEBRA_FIXTURES
                 for ring in RINGS]


@pytest.mark.parametrize("name,ring", FIXTURE_CASES,
                         ids=[f"{n}-{r}" for n, r in FIXTURE_CASES])
def test_fixture_mutants_match_the_reference_quantifier(name, ring):
    failures = 0
    for inst in mutants(name, ring):
        want = [verdict(reference_result(inst, a)) for a in PAIR_AXIOMS]
        assert pair_verdicts(check_axioms(inst)) == want, inst.name
        failures += sum(w.status != "pass" for w in want)
    assert failures >= 2   # some mutant fails a pair axiom, with a witness


def test_first_failure_over_other_pairs_is_computed_anew():
    # the kept verdict is keyed by the pairs as well as the identity
    inst = next(m for name in BIALGEBRA_FIXTURES for m in mutants(name, ZZ)
                if any(a == "unital infinitesimal" and r.status != "pass"
                       and r.inputs_checked > 1
                       for a, r in zip(AXIOM_ORDER, check_axioms(m).results)))
    kernel, safe = inst.kernel, inst.safe
    pairs = [(i, j) for i in safe for j in safe]
    count, p, _, _ = kernel.first_failure("unital infinitesimal", pairs)
    assert p is not None and count > 1
    before = pairs[:pairs.index(p)]
    assert kernel.first_failure("unital infinitesimal", before)[:2] == \
        (len(before), None)
    assert kernel.first_failure("unital infinitesimal", [p])[:2] == (1, p)
    assert kernel.first_failure("unital infinitesimal", pairs)[:2] == \
        (count, p)


# -- the row: its test mod p and its first failing b ----------------------------

def test_a_row_reads_its_sums_mod_p():
    # the pieces add raw ints; over GF(5) a passing fixture's rows hold
    # nonzero multiples of 5, which the row's test reads as 0
    inst = fx.make_fixture("lambda-s1-plus", fx.TruncationWindow(8), GF(5))
    kernel, safe = inst.kernel, inst.safe
    pairs = [(i, j) for i in safe for j in safe]
    for axiom in PAIR_AXIOMS:
        raw = [c for i in safe
               for c in kernel._row(axiom, i, tuple(safe)).values()]
        assert any(c and c % 5 == 0 for c in raw), axiom
        assert kernel.first_failure(axiom, pairs)[:2] == (len(pairs), None)


def test_the_witness_is_the_first_failing_b_of_its_row():
    # the quantifier's witness is the first pair, in order, whose one-pair
    # difference is nonzero, also when later b's of its row fail too
    later = 0
    for name in BIALGEBRA_FIXTURES:
        for inst in mutants(name, ZZ)[1:]:
            kernel, safe = inst.kernel, inst.safe
            pairs = [(i, j) for i in safe for j in safe]
            for axiom in PAIR_AXIOMS:
                fails = [k for k, p in enumerate(pairs)
                         if kernel.difference(axiom, *p)]
                count, p, lhs, rhs = kernel.first_failure(axiom, pairs)
                if not fails:
                    assert (count, p) == (len(pairs), None)
                    continue
                assert (count, p) == (fails[0] + 1, pairs[fails[0]])
                assert (lhs, rhs) == kernel.sides(axiom, *p) and lhs != rhs
                later += sum(pairs[k][0] == p[0] for k in fails[1:])
    assert later > 0


# -- weights that are not +1 or -1 -------------------------------------------

def _lam_scaled(inst, s):
    """`inst` with lam, and so lam eta, scaled by s: each side of either
    pair identity has one lam in each term, so the verdicts stay."""
    R, lam = inst.module.ring, inst.lam
    scaled = GradedMap(lam.source, lam.target, lam.degree, lambda x: tuple(
        (k, R.mul(s, c)) for k, c in lam.row(x)), name="lam")
    return BialgebraData(inst.module, inst.mu, scaled, inst.eta,
                         inst.safe_names, name=inst.name)


SCALES = [(ZZ, 2), (QQ, Fraction(1, 2)), (GF(5), 2)]


@pytest.mark.parametrize("ring,s", SCALES, ids=[repr(r) for r, _ in SCALES])
def test_weights_that_are_not_units_keep_the_reference_verdicts(ring, s):
    fixture = fx.make_fixture("lambda-s1-plus", fx.TruncationWindow(8), ring)
    for inst in [fixture] + mutants("lambda-s1-plus", ring, count=3)[1:]:
        scaled = _lam_scaled(inst, s)
        want = [verdict(reference_result(scaled, a)) for a in PAIR_AXIOMS]
        assert pair_verdicts(check_axioms(scaled)) == want, inst.name
    assert [r.status for r in pair_verdicts(check_axioms(
        _lam_scaled(fixture, s)))] == ["pass", "pass"]
