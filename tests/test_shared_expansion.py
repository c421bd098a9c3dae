"""The associativity-type kernels against their per-triple loops.

`graded.associativity_witness` and
`cone_product.check_assoc_implies_infinitesimal` expand each side once per
distinct product row and compare interned ids (`graded.SideIds`).  The
loops below are the former kernels, which compare the two sides of every
triple in turn; they are the reference.  Both must
give the same count, the same first failing (a, b, c) or (a, b, f) and the
same witness, over Z, Q and GF(5): on random products, on random cone
packages, on the lambda fixtures, and on copies of those with one Q0 entry,
one product entry or one closed-form component entry negated.
"""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chainalg import cli
from chainalg.bialgebra import PairKernel
from chainalg.complexes import ChainComplex
from chainalg.cone_product import (
    ConeProductData,
    check_assoc_implies_infinitesimal,
    check_cone_associativity,
    closed_form_components,
    cone_data_from_bialgebra,
    derive_secondary_ops,
    dual_side,
)
from chainalg.fixtures import (
    TruncationWindow,
    flip_structure_constant,
    make_fixture,
)
from chainalg.graded import (
    BasisElement,
    GradedMap,
    GradedModule,
    Outcome,
    SideIds,
    Vector,
    associativity_witness,
    format_row,
    slot_table,
    tensor,
    vector_terms,
    TENSOR_SEP,
)
from chainalg.rings import GF, QQ, ZZ
from name_keyed import (
    basis,
    basis_in_degree,
    by_names,
    cone_window,
    degree_of,
    format_vector,
    is_zero,
    positions,
    row_vector,
)
from random_instances import make_random_instance
from replay import Replay

RINGS = [ZZ, QQ, GF(5)]
SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
ring_param = pytest.mark.parametrize("ring", RINGS, ids=repr)


# -- the per-triple loops (the reference) -------------------------------------

def associativity_loop(mu, names):
    """(inputs checked, first failing (a, b, c) or None, lhs, rhs) of
    mu(mu (x) 1) = mu(1 (x) mu), both sides of each triple expanded and
    compared in turn."""
    A = mu.target
    if any(f != A for f in mu.source.factors):
        raise ValueError("associativity needs a product A (x) A -> A")
    mul, add, neg = A.ring.mul, A.ring.add, A.ring.neg
    idx = A.index()
    row = mu.row
    inputs = [(n, idx.pos[n]) for n in names]
    with_inputs = {}   # x -> [mu(x (x) c) for c in names], on first use

    def times_inputs(x):
        r = with_inputs.get(x)
        if r is None:
            r = with_inputs[x] = [row(x, k) for _, k in inputs]
        return r

    count = 0
    for a, i in inputs:
        negate = mu.degree % 2 and idx.odd[i]
        times_a = {}   # y -> mu(a (x) y), on first use
        for b, j in inputs:
            ab = [(times_inputs(x), cx) for x, cx in row(i, j)]
            for kk, bc in enumerate(times_inputs(j)):
                count += 1
                if not ab and not bc:   # both sides are 0
                    continue
                lhs = {}
                for x_c, cx in ab:
                    for n, v in x_c[kk]:
                        t = mul(cx, v)
                        old = lhs.get(n)
                        if old is None:
                            lhs[n] = t
                        elif (t := add(old, t)) != 0:
                            lhs[n] = t
                        else:
                            del lhs[n]
                rhs = {}
                for y, cy in bc:
                    if negate:
                        cy = neg(cy)
                    a_y = times_a.get(y)
                    if a_y is None:
                        a_y = times_a[y] = row(i, y)
                    for n, v in a_y:
                        t = mul(cy, v)
                        old = rhs.get(n)
                        if old is None:
                            rhs[n] = t
                        elif (t := add(old, t)) != 0:
                            rhs[n] = t
                        else:
                            del rhs[n]
                if lhs != rhs:
                    return count, (a, b, inputs[kk][0]), *(
                        row_vector(A, side.items()) for side in (lhs, rhs))
    return count, None, None, None


def assoc_infinitesimal_loop(data, comps):
    """(passed, detail) of the (+,+,-) -> + identity, with the precondition
    skipped, both sides of each (a, b, f) expanded and compared in turn."""
    A = data.A
    M = dual_side(A, data.n)
    idx = A.index()
    R = A.ring
    mul, add, neg = R.mul, R.add, R.neg
    mu = data.mu.row
    pm_p = comps["pm_p"].row
    pm_m = comps["pm_m"].row
    kernel = PairKernel(data.mu, data.lam,
                        ((k, neg(c)) for k, c in data.Q0))
    f_pos = comps["pm_p"].source.factors[1].index().pos

    safe = [(n, idx.pos[n]) for n in data.safe_names]
    duals = [(f"{n}^", f_pos[f"{n}^"]) for n in data.safe_names]
    for a, i in safe:
        for b, j in safe:
            negate = not (idx.odd[i] + idx.odd[j]) % 2
            contracted = slot_table(kernel.defect(i, j).items(),
                                    tensor(A, A), M, last=True)
            ab = mu(i, j)
            for fb, k in duals:
                total = {}
                for c, row in ([(c, mu(i, y)) for y, c in pm_p(j, k)]
                               + [(c, pm_p(i, g)) for g, c in pm_m(j, k)]
                               + [(neg(c), pm_p(x, k)) for x, c in ab]):
                    for n, v in row:
                        t = mul(c, v)
                        total[n] = t if (o := total.get(n)) is None else add(o, t)
                total = {n: v for n, v in total.items() if v != 0}
                expected = {w: neg(c) if negate else c
                            for w, c in contracted.get(k, {}).items()}
                if total != expected:
                    return False, (f"fails at a={a}, b={b}, f={fb}: "
                                   f"{format_row(A, total.items())} vs "
                                   f"{format_row(A, expected.items())}")
    return True, ""


def infinitesimal_outcome(data, comps):
    """The Outcome of the identity read through the components `comps`,
    set on a copy of the package, so that `data` keeps its own.  The copy
    also gets a passing associativity verdict, which stands in for the
    precondition the check reads from the package: the identity is
    compared whether or not the cone product is associative."""
    package = copy.copy(data)
    package.components = comps
    package.associativity = Outcome("pass", "associative on the safe window")
    out = check_assoc_implies_infinitesimal(package)
    assert out.status in ("pass", "fail")
    assert not out.detail.startswith("precondition: "), out.detail
    return out


def assoc_infinitesimal(data, comps):
    """(passed, detail) of `infinitesimal_outcome`, as the loop gives."""
    out = infinitesimal_outcome(data, comps)
    return out.status == "pass", out.detail


# -- SideIds -------------------------------------------------------------------

def coefficients(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(-6, 6)


@ring_param
@SETTINGS
@given(data=st.data())
def test_side_ids_are_equal_exactly_when_the_sums_are(ring, data):
    terms = st.lists(st.tuples(st.integers(0, 3),
                               coefficients(ring).map(ring.canon)), max_size=6)
    ids = SideIds(ring)
    drawn = [data.draw(terms) for _ in range(4)]

    def summed(ts):
        out = {}
        for k, c in ts:
            out[k] = ring.add(out.get(k, ring.zero()), c)
        return {k: c for k, c in out.items() if c != 0}

    got = [ids(ts) for ts in drawn]
    for ts, i in zip(drawn, got):
        assert ids.sides[i] == frozenset(summed(ts).items())
        for us, j in zip(drawn, got):
            assert (i == j) == (summed(ts) == summed(us))


def test_side_ids_never_key_on_the_hash_alone():
    # hash(-1) == hash(-2) in CPython, so these sides collide in hash
    assert hash(frozenset({(0, -1)})) == hash(frozenset({(0, -2)}))
    ids = SideIds(ZZ)
    assert ids([(0, -1)]) != ids([(0, -2)])
    assert ids([(0, -1)]) == ids([(0, 1), (0, -2)])
    # canonical values that are equal share an id across representations
    q = SideIds(QQ)
    assert q([(1, QQ.canon(Fraction(4, 2)))]) == q([(1, 2)])
    assert q([(1, Fraction(1, 2))]) != q([(1, Fraction(1, 3))])
    g = SideIds(GF(5))
    assert g([(0, 3), (0, 2)]) == g([])


def test_side_ids_intern_a_row_as_its_terms():
    ids = SideIds(ZZ)
    row = ((0, 1), (2, -3))
    assert ids.row(row) == ids(row) == ids(row[::-1]) == ids.row(row[::-1])
    assert ids.sides[ids.row(row)] == frozenset(row)
    # a row breaking the contract (a repeated pair) is summed, so its id
    # is never that of a different sum: 1 + 1 + 2 = 4, not 1 + 2
    assert ids.row(((0, 1), (0, 1), (0, 2))) == ids([(0, 4)])
    assert ids.row(((0, 1), (0, 1), (0, 2))) != ids.row(((0, 1), (0, 2)))
    # a repeated key or a zero coefficient can only make equal sides look
    # different
    assert ids.row(((0, 1), (0, 2))) != ids([(0, 3)])
    assert ids.row(((0, 0),)) != ids([])


NEG_RINGS = [ZZ, QQ, GF(2), GF(5)]


def rows(ring):
    """Rows of up to four terms on keys 0..3, and up to two more that
    repeat a term or cancel one (c and -c on one key)."""
    term = st.tuples(st.integers(0, 3), coefficients(ring).map(ring.canon))

    def with_repeats(ts):
        if not ts:
            return st.just(())
        again = st.sampled_from(ts + [(k, ring.neg(c)) for k, c in ts])
        return st.lists(again, max_size=2).map(lambda more: tuple(ts + more))

    return st.lists(term, max_size=4).flatmap(with_repeats)


@pytest.mark.parametrize("ring", NEG_RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay((), (), (), ((0, 1),)))
def test_negated_side_ids_negate_every_coefficient(ring, data):
    ids = SideIds(ring)
    drawn = [data.draw(rows(ring)) for _ in range(4)]
    for r in drawn:
        assert ids.neg(ids(r)) == ids((k, ring.neg(c)) for k, c in r)
    for i in [ids(r) for r in drawn] + [ids.row(r) for r in drawn]:
        j = ids.neg(i)
        negated = frozenset((k, ring.neg(c)) for k, c in ids.sides[i])
        assert ids.sides[j] == negated
        assert (j == i) == (negated == ids.sides[i])
        assert ids.neg(j) == i
        if ring == GF(2):
            assert j == i


def frozenset_path(ids, r):
    """The id of the row r as its set of terms, or as its sum when a
    (key, coefficient) pair repeats: the id `SideIds.row` gives r."""
    key = frozenset(r)
    return ids(r) if len(key) < len(r) else ids._id(key)


@pytest.mark.parametrize("ring", NEG_RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_row_ids_by_tuple_match_the_frozenset_path(ring, data):
    ids = SideIds(ring)
    drawn = [data.draw(rows(ring)) for _ in range(3)]
    drawn += [tuple(data.draw(st.permutations(r))) for r in drawn]
    for r in drawn + drawn:   # each row a miss, then a hit of the tuple cache
        assert ids.row(r) == frozenset_path(ids, r)
    for r in drawn:           # a permutation of a row shares its id
        assert ids.row(tuple(reversed(r))) == ids.row(r)


# -- associativity on random products ------------------------------------------

def draw_module(data, ring):
    """A module of two to five basis elements, their degrees drawn as one
    list."""
    ds = data.draw(st.lists(st.integers(-1, 1), min_size=2, max_size=5))
    return GradedModule(ring, [BasisElement(f"a{i}", d)
                               for i, d in enumerate(ds)], name="a")


def draw_product(data, A, degree=None, source=None, target=None):
    """An operation source -> target (default A (x) A -> A) of degree -1, 0
    or 1; sparse ones share rows and often satisfy an identity, dense ones
    seldom."""
    R = A.ring
    if degree is None:
        degree = data.draw(st.integers(-1, 1))
    source = source or tensor(A, A)
    target = target or A
    coeff = (st.sampled_from((0, 0, 0, 0, 1, 1, -1, 2)).map(R.canon)
             if data.draw(st.booleans()) else coefficients(R))
    table = {e.name: Vector(target, {
                 t.name: data.draw(coeff)
                 for t in basis_in_degree(target, e.degree + degree)})
             for e in basis(source)}
    return GradedMap.from_table(source, target, degree, table)


@ring_param
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay([0, 1, 1, -1], -1, False, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                     0, 0, 0, 1, -1, 1, ['a2', 'a0', 'a1', 'a3'], 1))
@example(data=Replay([0, -1], 1, False, 1, 0, 0, ['a1', 'a0'], 1))
@example(data=Replay([0, 0, 1, 1], 1, True, 0, 0, 0, 0, 1, 0, 0, 1,
                     ['a1', 'a0', 'a2', 'a3'], 2))
def test_associativity_kernel_matches_the_loop(ring, data):
    A = draw_module(data, ring)
    mu = draw_product(data, A)
    order = data.draw(st.permutations(A.basis_names()))
    names = order[:data.draw(st.integers(1, len(order)))]
    assert (by_names(A, associativity_witness(mu, positions(A, names)))
            == associativity_loop(mu, names))


@ring_param
@SETTINGS
@given(data=st.data())
# a fixed draw, run before the random ones, in which a row mu(a (x) b) is
# one term with coefficient -1, read off negated row ids
# (`graded._row_expansion`)
@example(data=Replay([0, 1, -1], 0, True, 0, 0, 0, 0, 0, 0, -1, False, 0, 0,
                     0, 0, 0, 0, 1, 0, ["a2", "a0", "a1"], 3))
def test_assoc_infinitesimal_kernel_matches_the_loop(ring, data):
    A = draw_module(data, ring)
    n = data.draw(st.integers(0, 1))          # |lam| = 1 - 2n is odd
    A2 = tensor(A, A)
    mu = draw_product(data, A, degree=0)
    lam = draw_product(data, A, degree=1 - 2 * n, source=A, target=A2)
    Q0 = Vector(A2, {e.name: data.draw(coefficients(ring))
                     for e in basis_in_degree(A2, 1 - 2 * n)})
    order = data.draw(st.permutations(A.basis_names()))
    safe = order[:data.draw(st.integers(1, len(order)))]
    cone = ConeProductData(ChainComplex(A), mu, lam, (), vector_terms(Q0),
                           (), n, safe_names=safe)
    comps = closed_form_components(cone)
    assert assoc_infinitesimal(cone, comps) == \
        assoc_infinitesimal_loop(cone, comps)


def test_associativity_kernel_reads_rows_in_any_order():
    # equal rows written in different orders share one id
    A = GradedModule(ZZ, [BasisElement(f"x{i}", 0) for i in range(3)], name="x")
    one = ZZ.one()

    def rows(i, j):
        out = (((i + j) % 3, one), ((i + 2 * j) % 3, 2))
        return out if i < j else out[::-1]

    mu = GradedMap(tensor(A, A), A, 0, rows)
    names = A.basis_names()
    assert (by_names(A, associativity_witness(mu, positions(A, names)))
            == associativity_loop(mu, names))


def test_associativity_kernel_negates_a_product_row_of_minus_one():
    # the Gaussian integers: mu(i (x) i) = -1 is one term with coefficient
    # -1, so the lhs over (i, i, c) is the negated row of mu(1 (x) c); then
    # the same product with mu(i (x) 1) = -i, which is not associative: its
    # lhs over (i, 1, c) is the negated row of mu(i (x) c), and
    # (i 1) 1 = i differs from i (1 1) = -i
    A = GradedModule(ZZ, [BasisElement("1", 0), BasisElement("i", 0)],
                     name="g")
    names = A.basis_names()
    for i_times_1, verdict in ((1, (8, None)), (-1, (5, ("i", "1", "1")))):
        table = {("1", "1"): A.el("1"), ("1", "i"): A.el("i"),
                 ("i", "1"): A.el("i", i_times_1), ("i", "i"): A.el("1", -1)}
        mu = GradedMap.from_table(tensor(A, A), A, 0, {
            TENSOR_SEP.join(ab): v for ab, v in table.items()})
        got = by_names(A, associativity_witness(mu, positions(A, names)))
        assert got == associativity_loop(mu, names)
        assert got[:2] == verdict


# -- the gather of a pair's rhs: windows of 0, 1 and 2 positions -------------

def gather_case(ring, degrees, degree, coefficients, order, size):
    """(mu, window) for `associativity_witness` and its loop: mu of degree
    `degree` on basis elements a0, a1, ... of `degrees`, its structure
    constants `coefficients` (raw ints, canonicalized per ring) over the
    triples (x, y, z) of basis names in canonical order with |z| = |x| +
    |y| + |mu|, and the window the first `size` names of `order`."""
    A = GradedModule(ring, [BasisElement(f"a{i}", d)
                            for i, d in enumerate(degrees)], name="a")
    names = A.basis_names()
    slots = [(x, y, z) for x in names for y in names for z in names
             if degree_of(A, z) == degree_of(A, x) + degree_of(A, y) + degree]
    table = {}
    for (x, y, z), c in zip(slots, coefficients, strict=True):
        table.setdefault(x + TENSOR_SEP + y, {})[z] = c
    mu = GradedMap.from_table(tensor(A, A), A, degree, {
        xy: Vector(A, values) for xy, values in table.items()})
    return mu, list(order[:size])


# (degrees, |mu|, coefficients, order, window size) of each fixed case, and
# its verdict over Z: (inputs checked, first failing triple)
WINDOW_0 = ([0], 0, [1], ["a0"], 0)
WINDOW_1_ODD = ([-1], 1, [1], ["a0"], 1)          # (aa)a = a, a(aa) = -a
WINDOW_1_SUMMED = ([0], 0, [2], ["a0"], 1)        # a row of coefficient 2
WINDOW_2_GROUP = ([0, 0], 0, [1, 0, 0, 1, 0, 1, 1, 0], ["a1", "a0"], 2)  # Z/2
LAST_TRIPLE = ([0, 0], 0, [0, 0, 0, 0, 1, 0, 1, 1], ["a0", "a1"], 2)
ODD_SUM = ([-1, -1], 1, [0, 0, 0, 0, 0, 0, 1, 1], ["a0", "a1"], 2)  # a1 a1 =
GATHER_CASES = [                                      # a0 + a1, |mu| odd
    ("window-0", WINDOW_0, (0, None)),
    ("window-1-odd", WINDOW_1_ODD, (1, ("a0", "a0", "a0"))),
    ("window-1-summed", WINDOW_1_SUMMED, (1, None)),
    ("window-2-group", WINDOW_2_GROUP, (8, None)),
    ("last-triple", LAST_TRIPLE, (8, ("a1", "a1", "a1"))),
    ("odd-sum", ODD_SUM, (8, ("a1", "a1", "a1"))),
]


@pytest.mark.parametrize("ring", NEG_RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay(*WINDOW_0))
@example(data=Replay(*WINDOW_1_ODD))
@example(data=Replay(*WINDOW_1_SUMMED))
@example(data=Replay(*WINDOW_2_GROUP))
@example(data=Replay(*LAST_TRIPLE))
@example(data=Replay(*ODD_SUM))
def test_associativity_gather_matches_the_loop(ring, data):
    degrees = data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    degree = data.draw(st.integers(-1, 1))
    names = sorted((d, f"a{i}") for i, d in enumerate(degrees))
    slots = sum(d_z == d_x + d_y + degree
                for d_x, _ in names for d_y, _ in names for d_z, _ in names)
    coefficients = data.draw(st.lists(st.integers(-2, 2), min_size=slots,
                                      max_size=slots))
    order = data.draw(st.permutations([n for _, n in names]))
    size = data.draw(st.integers(0, len(order)))
    mu, window = gather_case(ring, degrees, degree, coefficients, order, size)
    assert (by_names(mu.target, associativity_witness(
        mu, positions(mu.target, window))) == associativity_loop(mu, window))


@pytest.mark.parametrize("case,verdict", [c[1:] for c in GATHER_CASES],
                         ids=[c[0] for c in GATHER_CASES])
def test_gather_cases_reach_their_verdicts(case, verdict):
    """Each fixed case of the gather test gives its verdict over Z, so the
    examples above cover what they are named for: the count N^3 at a
    failure in the last triple, and a failing row mu(b (x) c) of two
    terms with |mu| odd."""
    mu, window = gather_case(ZZ, *case)
    got = by_names(mu.target,
                   associativity_witness(mu, positions(mu.target, window)))
    assert got[:2] == verdict
    if case is ODD_SUM:
        b, c = got[1][1:]
        assert len(mu.eval_basis(b + TENSOR_SEP + c).coeffs) == 2


def cone_case(ring, degrees, n, mu, lam, Q0, safe):
    """A cone package with d = 0, c0 = 0 and B = 0 on basis elements a0,
    a1, ... of `degrees`, |lam| being 1 - 2n: mu and lam given by their
    nonzero values, {input: {output: coefficient}}, Q0 by its terms,
    {term: coefficient}, each input, output and term a tuple of names,
    and the safe window `safe`."""
    A = GradedModule(ring, [BasisElement(f"a{i}", d)
                            for i, d in enumerate(degrees)], name="a")
    A2 = tensor(A, A)

    def vector(module, terms):
        return Vector(module, {TENSOR_SEP.join(k): c
                               for k, c in terms.items()})

    def operation(source, target, degree, values):
        return GradedMap.from_table(source, target, degree, {
            TENSOR_SEP.join(x): vector(target, v) for x, v in values.items()})

    return ConeProductData(ChainComplex(A), operation(A2, A, 0, mu),
                           operation(A, A2, 1 - 2 * n, lam), (),
                           vector_terms(vector(A2, Q0)), (), n,
                           safe_names=safe)


# (degrees, n, mu, lam, Q0, safe) of each fixed case of assoc-infinitesimal,
# and its (status, inputs checked, detail) over Z
INF_WINDOW_1 = ([1, 0], 0, {("a0", "a1"): {("a0",): -1},
                            ("a1", "a0"): {("a0",): 2}},
                {("a0",): {("a0", "a0"): -1}}, {("a0", "a1"): 1}, ["a1"])
INF_MINUS_ONE = ([0, 1, -1], 0, {("a1", "a0"): {("a1",): -1}}, {},
                 {("a0", "a1"): 1}, ["a1", "a0"])     # mu(a1 (x) a0) = -a1
INF_SUMMED = ([0, 1, -1], 0, {("a1", "a0"): {("a1",): 2}}, {},
              {("a0", "a1"): 1}, ["a1", "a0"])        # mu(a1 (x) a0) = 2 a1
INFINITESIMAL_CASES = [
    ("window-1", INF_WINDOW_1,
     ("fail", 1, "fails at a=a1, b=a1, f=a1^: 4*a0 vs 0")),
    ("window-2-minus-one", INF_MINUS_ONE,
     ("fail", 3, "fails at a=a1, b=a0, f=a1^: 0 vs -a1")),
    ("window-2-summed", INF_SUMMED,
     ("fail", 3, "fails at a=a1, b=a0, f=a1^: 0 vs -4*a1")),
]


@pytest.mark.parametrize("case,verdict", [c[1:] for c in INFINITESIMAL_CASES],
                         ids=[c[0] for c in INFINITESIMAL_CASES])
def test_assoc_infinitesimal_cases_reach_their_verdicts(case, verdict):
    """Each fixed case of assoc-infinitesimal gives its verdict over Z and
    matches the loop: safe windows of one and of two positions, where the
    right side's row mu(a1 (x) a0) is one term with coefficient -1, read
    off negated row ids, or with coefficient 2, summed."""
    data = cone_case(ZZ, *case)
    comps = closed_form_components(data)
    out = infinitesimal_outcome(data, comps)
    assert (out.status, out.inputs_checked, out.detail) == verdict
    assert ((out.status == "pass", out.detail)
            == assoc_infinitesimal_loop(data, comps))


@pytest.mark.parametrize("ring", NEG_RINGS, ids=repr)
def test_assoc_infinitesimal_fails_at_its_last_f(ring):
    """lambda-s1-plus at N = 8 with the m_pm_m entry at 1 (x) f, f the last
    safe dual, negated: over Z the check fails at that f, the last place
    of the pair's gather; over every ring it matches the loop (over GF(2)
    the negation changes nothing, and the check passes)."""
    data = cone_data_from_bialgebra(
        make_fixture("lambda-s1-plus", TruncationWindow(8), ring), n=1)
    comps = closed_form_components(data)
    last = f"{data.safe_names[-1]}^"
    flipped = flip_structure_constant(comps["pm_m"], f"1{TENSOR_SEP}{last}",
                                      last)
    got = assoc_infinitesimal(data, {**comps, "pm_m": flipped})
    assert got == assoc_infinitesimal_loop(data, {**comps, "pm_m": flipped})
    if ring == ZZ:
        assert got == (False, f"fails at a=U^2, b=1, f={last}: -2*A vs 0")


# -- cone packages with one entry negated --------------------------------------

def flipped_Q0(data, rng):
    """[data with one Q0 entry negated], or [] when Q0 = 0."""
    Q0 = row_vector(tensor(data.A, data.A), data.Q0)
    if is_zero(Q0):
        return []
    name = rng.choice(sorted(Q0.coeffs))
    Q0 = Vector(Q0.module, {**Q0.coeffs, name: -Q0.coeffs[name]})
    return [ConeProductData(data.complex, data.mu, data.lam, data.c0,
                            vector_terms(Q0), data.B, data.n,
                            safe_names=data.safe_names)]


def flip_entry(op, inputs, rng):
    """op with one nonzero structure constant on `inputs` negated."""
    entries = [(n, out) for n in inputs
               for out in sorted(op.eval_basis(n).coeffs)]
    return flip_structure_constant(op, *rng.choice(entries))


def packages():
    for ring in RINGS:
        for seed in range(3):
            yield (f"random-{seed}-{ring}",
                   make_random_instance(seed, 4, degrees=(0, -1, 1), ring=ring,
                                        kind="cone", n=1))
        for name, n in (("lambda-s1-plus", 1), ("lambda-s3", 3)):
            yield (f"{name}-{ring}", cone_data_from_bialgebra(
                make_fixture(name, TruncationWindow(8), ring), n=n))


PACKAGES = list(packages())


@pytest.mark.parametrize("label,data", PACKAGES, ids=[p[0] for p in PACKAGES])
def test_cone_associativity_matches_the_loop(label, data):
    rng = random.Random(label)
    window = cone_window(data)
    names = [data.cone.complex.module.index().names[u] for u in window]
    products = [data.product] + [derive_secondary_ops(bad)
                                 for bad in flipped_Q0(data, rng)]
    pairs = [f"{u}{TENSOR_SEP}{v}" for u in names for v in names]
    for _ in range(3):
        products.append(flip_entry(data.product, pairs, rng))
    failures = []
    try:
        for mu in products:
            got = by_names(mu.target, associativity_witness(mu, window))
            assert got == associativity_loop(mu, names)
            failures.append(got[1] is not None)
            data.product = mu
            res = check_cone_associativity(data)
            if got[1] is None:
                assert res == Outcome("pass",
                                      "associative on the safe window",
                                      got[0])
            else:
                assert res == Outcome("fail", f"{'(x)'.join(got[1])}: "
                                              f"{format_vector(got[2])} vs "
                                              f"{format_vector(got[3])}",
                                      got[0])
    finally:   # the package is shared with the other tests
        data.product = products[0]
    if label.startswith("lambda"):   # associative, and every flip is seen
        assert failures == [False] + [True] * (len(products) - 1)


@pytest.mark.parametrize("label,data", PACKAGES, ids=[p[0] for p in PACKAGES])
def test_assoc_infinitesimal_matches_the_loop(label, data):
    rng = random.Random(label)
    comps = closed_form_components(data)
    cases = [(data, comps)] + [(bad, closed_form_components(bad))
                               for bad in flipped_Q0(data, rng)]
    inputs = [f"{b}{TENSOR_SEP}{f}^" for b in data.safe_names
              for f in data.safe_names]
    for key in ("pm_p", "pm_m"):
        flipped = flip_entry(comps[key], inputs, rng)
        cases.append((data, {**comps, key: flipped}))
    failures = 0
    for pkg, cs in cases:
        got = assoc_infinitesimal(pkg, cs)
        assert got == assoc_infinitesimal_loop(pkg, cs)
        failures += not got[0]
    if label.startswith("lambda"):   # a passing package, and a flip is seen
        assert assoc_infinitesimal(data, comps) == (True, "")
        assert failures >= 1


# -- end to end ----------------------------------------------------------------

def test_demo_passes_every_record_at_window_36(tmp_path):
    out = tmp_path / "demo.json"
    assert cli.main(["demo", "lambda-s1-plus", "--window", "36",
                     "--format", "json", "--output", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    checks = {r["id"].split(".", 1)[1]: r["status"] for r in records}
    for check in ("axioms.associativity", "reverse-coproduct", "components",
                  "associativity", "assoc-infinitesimal"):
        assert checks[check] == "pass", check
    assert all(r["status"] == "pass" for r in records)
