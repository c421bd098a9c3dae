"""Property tests for the trusted construction path and the Koszul rules.

Every value built by the package's own arithmetic must pass the public,
checked `Vector` constructor unchanged, with coefficients of the ring's
canonical type; the sign rules of `graded.py`'s docstring must hold on
random maps over Z, Q and GF(5); and the table-based kernels (associativity,
the slot table, the unital infinitesimal and anti-symmetry quantifiers, the
assoc-infinitesimal loop) must agree with the composite definitions, which
this file keeps as the reference.
"""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chainalg.graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Vector,
    associativity_witness,
    dual_map,
    dual_module,
    shift,
    shift_map,
    tensor,
    tensor_differential,
    TENSOR_SEP,
)
from chainalg.rings import ZZ, QQ, GF
from chainalg.bialgebra import (
    AXIOM_ORDER,
    BialgebraData,
    PairKernel,
    check_axioms,
)
from chainalg.complexes import ChainComplex
from chainalg.cone_product import (
    ConeProductData,
    check_assoc_implies_infinitesimal,
    dual_side,
)
from chainalg.graded import (
    Outcome,
    _positions,
    slot_table,
    vector_terms,
)
from name_keyed import (
    add,
    apply_op_shift,
    basis,
    basis_in_degree,
    basis_names,
    by_names,
    degree,
    degree_of,
    dual_pair,
    format_vector,
    identity,
    is_zero,
    named,
    NameMap,
    neg,
    parts,
    positions,
    quantify_reference,
    row_vector,
    scale,
    scaled,
    sub,
    tensor_map,
    tensor_values,
    twist,
    unapply_op_shift,
    verdict,
    zero,
)

RINGS = [ZZ, QQ, GF(5)]
SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ring_param = pytest.mark.parametrize("ring", RINGS, ids=repr)


def coefficients(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(-4, 4)


def modules(ring, prefix):
    # few degrees, so that random composites are often nonzero
    degrees = st.lists(st.integers(-1, 1), min_size=2, max_size=5)
    return degrees.map(lambda ds: GradedModule(
        ring, [BasisElement(f"{prefix}{i}", d) for i, d in enumerate(ds)],
        name=prefix))


def draw_vector(data, module):
    names = basis_names(module)
    combo = data.draw(st.dictionaries(st.sampled_from(names),
                                      coefficients(module.ring),
                                      max_size=len(names)))
    return Vector(module, combo)


def draw_map(data, source, target, degree=None):
    if degree is None:
        degree = data.draw(st.integers(-1, 1))
    coeff = coefficients(source.ring)
    table = {}
    for e in basis(source):
        combo = {t.name: data.draw(coeff)
                 for t in basis_in_degree(target, e.degree + degree)}
        table[e.name] = Vector(target, combo)
    return GradedMap.from_table(source, target, degree, table)


def assert_revalidates(v):
    """v passes the checked constructor unchanged, in canonical form."""
    assert Vector(v.module, v.coeffs).coeffs == v.coeffs
    R = v.module.ring
    for c in v.coeffs.values():
        assert c != 0
        if R == QQ:
            # int when integral, else a Fraction with denominator > 1
            if c.denominator == 1:
                assert type(c) is int
            else:
                assert type(c) is Fraction and c.denominator > 1
        else:
            assert type(c) is int
            if R.characteristic:
                assert 0 <= c < R.characteristic


def assert_maps_agree(f, g, names):
    for n in names:
        assert f.eval_basis(n) == g.eval_basis(n), n


def sign(exp):
    return -1 if exp % 2 else 1


# -- the trusted path ---------------------------------------------------------

@ring_param
@SETTINGS
@given(data=st.data())
def test_vector_arithmetic_revalidates(ring, data):
    M = data.draw(modules(ring, "x"))
    N = data.draw(modules(ring, "y"))
    u, v = draw_vector(data, M), draw_vector(data, M)
    w = draw_vector(data, N)
    c = data.draw(coefficients(ring))
    for out in (add(u, v), sub(u, v), neg(u), scale(u, c),
                tensor_values(u, w), tensor_values(w, u),
                tensor_values(tensor_values(u, w), u)):
        assert_revalidates(out)
    assert is_zero(sub(u, u))
    assert is_zero(add(u, neg(u)))
    assert add(sub(u, v), v) == u
    assert sub(u, v) == add(u, neg(v))
    assert is_zero(scale(u, 0))


@ring_param
@SETTINGS
@given(data=st.data())
def test_map_results_revalidate(ring, data):
    M = data.draw(modules(ring, "x"))
    N = data.draw(modules(ring, "y"))
    f = draw_map(data, M, N)
    g = draw_map(data, N, M)
    u = draw_vector(data, M)
    assert_revalidates(named(f)(u))
    assert_revalidates(named(g)(named(f)(u)))
    d2 = tensor_differential(draw_map(data, M, M))
    for e in basis(d2.source):
        assert_revalidates(d2.eval_basis(e.name))
    assert_revalidates(named(d2)(tensor_values(u, draw_vector(data, M))))
    k = data.draw(st.integers(-2, 2))
    for e in M.basis():
        assert_revalidates(shift_map(f, k).eval_basis(e.name))


@ring_param
@SETTINGS
@given(data=st.data())
def test_op_shift_results_revalidate(ring, data):
    M = data.draw(modules(ring, "x"))
    op = draw_map(data, tensor(M, M), M)
    i, j, k = (data.draw(st.integers(-1, 2)) for _ in range(3))
    for shifted in (apply_op_shift(op, i, j, k), unapply_op_shift(op, i, j, k)):
        for e in basis(shifted.source):
            assert_revalidates(shifted.eval_basis(e.name))


# -- Koszul rules -------------------------------------------------------------

@ring_param
@SETTINGS
@given(data=st.data())
def test_tensor_map_interchange_law(ring, data):
    # (f (x) g)(f' (x) g') = (-1)^{|g||f'|} (f f' (x) g g')
    M = data.draw(modules(ring, "x"))
    N = data.draw(modules(ring, "y"))
    fp, gp = draw_map(data, M, N), draw_map(data, N, M)
    f, g = draw_map(data, N, M), draw_map(data, M, N)
    lhs = tensor_map(fp, gp).then(tensor_map(f, g))
    rhs = scaled(tensor_map(named(fp).then(f), named(gp).then(g)),
                 sign(g.degree * fp.degree))
    assert_maps_agree(lhs, rhs, basis_names(tensor(M, N)))


@ring_param
@SETTINGS
@given(data=st.data())
def test_twist_is_an_involution(ring, data):
    M = data.draw(modules(ring, "x"))
    N = data.draw(modules(ring, "y"))
    back = twist(M, N).then(twist(N, M))
    assert_maps_agree(back, identity(tensor(M, N)),
                      basis_names(tensor(M, N)))


@ring_param
@SETTINGS
@given(data=st.data())
def test_shift_round_trips(ring, data):
    M = data.draw(modules(ring, "x"))
    f = draw_map(data, M, M)
    k = data.draw(st.integers(-2, 2))
    back = shift_map(shift_map(f, k), -k)
    assert shift(shift(M, k), -k) == M
    assert_maps_agree(back, f, M.basis_names())
    op = draw_map(data, tensor(M, M), M)
    i, j, k = (data.draw(st.integers(-1, 2)) for _ in range(3))
    names = basis_names(tensor(M, M))
    assert_maps_agree(unapply_op_shift(apply_op_shift(op, i, j, k), i, j, k),
                      op, names)
    assert_maps_agree(apply_op_shift(unapply_op_shift(op, i, j, k), i, j, k),
                      op, names)


@ring_param
@SETTINGS
@given(data=st.data())
def test_dual_of_a_composite(ring, data):
    # (f . g)^v = (-1)^{|f||g|} g^v . f^v
    M = data.draw(modules(ring, "x"))
    N = data.draw(modules(ring, "y"))
    g = draw_map(data, M, N)
    f = draw_map(data, N, M)
    lhs = dual_map(named(g).then(f).row_map())
    rhs = scaled(named(dual_map(f)).then(dual_map(g)),
                 sign(f.degree * g.degree))
    assert_maps_agree(lhs, rhs, dual_module(M).basis_names())


# -- the associativity kernel ---------------------------------------------------

def draw_product(data, A, degree=None, source=None, target=None):
    """An operation source -> target (default mu: A (x) A -> A) of degree
    -1, 0 or 1; a sparse one often satisfies an identity, a dense one
    seldom."""
    R = A.ring
    if degree is None:
        degree = data.draw(st.integers(-1, 1))
    source = source or tensor(A, A)
    target = target or A
    coeff = (st.sampled_from((0, 0, 0, 0, 1, -1, 2)).map(R.canon)
             if data.draw(st.booleans()) else coefficients(R))
    table = {e.name: Vector(target, {
                 t.name: data.draw(coeff)
                 for t in basis_in_degree(target, e.degree + degree)})
             for e in basis(source)}
    return GradedMap.from_table(source, target, degree, table)


def composite_reference(mu, names):
    """What `quantify_reference` reads off mu(mu (x) 1) and mu(1 (x) mu): (inputs
    checked, first failing triple or None, lhs, rhs)."""
    one = identity(mu.target)
    sides = {}

    def side(composite, key):
        def fn(n):
            sides[key] = composite.eval_basis(n)
            return sides[key]
        return fn

    triples = [TENSOR_SEP.join((a, b, c))
               for a in names for b in names for c in names]
    lhs = side(tensor_map(mu, one).then(mu), "lhs")
    rhs = side(tensor_map(one, mu).then(mu), "rhs")
    res = quantify_reference(triples, lambda n: (lhs(n), rhs(n)))
    if res.status == "pass":
        return res.inputs_checked, None, None, None
    return (res.inputs_checked, tuple(res.witness[0].split(TENSOR_SEP)),
            sides["lhs"], sides["rhs"])


def with_cancelling_block(mu):
    """mu on A plus generators c0..c3 of degrees 0, d, d, 2d (d = |mu|)
    with c0 c0 = c1 + c2, c1 c0 = c3 and c2 c0 = -c3: the lhs of
    (c0, c0, c0) sums to c3 - c3, a key that cancels."""
    A, d = mu.target, mu.degree
    B = GradedModule(A.ring, list(A.basis()) + [
        BasisElement(f"c{i}", e) for i, e in enumerate((0, d, d, 2 * d))],
        name="b")
    table = {n: Vector(B, mu.eval_basis(n).coeffs)
             for n in basis_names(tensor(A, A))}
    table[f"c0{TENSOR_SEP}c0"] = Vector(B, {"c1": 1, "c2": 1})
    table[f"c1{TENSOR_SEP}c0"] = B.el("c3")
    table[f"c2{TENSOR_SEP}c0"] = B.el("c3", -1)
    return GradedMap.from_table(tensor(B, B), B, d, table)


@ring_param
@SETTINGS
@given(data=st.data())
def test_associativity_kernel_matches_the_composites(ring, data):
    A = data.draw(modules(ring, "a"))
    mu = draw_product(data, A)
    order = data.draw(st.permutations(A.basis_names()))
    names = order[:data.draw(st.integers(1, len(order)))]
    assert (by_names(A, associativity_witness(mu, positions(A, names)))
            == composite_reference(mu, names))
    cancelling = with_cancelling_block(mu)
    names = [*names, "c0"]
    B = cancelling.target
    assert (by_names(B, associativity_witness(cancelling, positions(B, names)))
            == composite_reference(cancelling, names))


def test_associativity_kernel_drops_cancelled_terms(monkeypatch):
    # lhs = mu(x1 (x) x0) + mu(x2 (x) x0) = x3 - x3 leaves a zero entry
    A = small(degrees=(0, 0, 0, 0))
    A2 = tensor(A, A)
    table = {"x0⊗x0": Vector(A, {"x1": 1, "x2": 1}),
             "x1⊗x0": A.el("x3"), "x2⊗x0": A.el("x3", -1)}
    mu = GradedMap.from_table(A2, A, 0, table)
    x0 = positions(A, ["x0"])
    assert associativity_witness(mu, x0) == (1, None, None, None)
    table["x0⊗x2"] = A.el("x0")
    mu = GradedMap.from_table(A2, A, 0, table)
    got = associativity_witness(mu, x0)
    assert got == (1, (0, 0, 0), {}, {0: 1})
    assert by_names(A, got) == (1, ("x0",) * 3, zero(A), A.el("x0"))
    assert by_names(A, got) == composite_reference(mu, ["x0"])
    # with the tables filled, a passing check that cancels builds no Vector:
    # the sides compare as dicts, and Vectors only format a witness
    del table["x0⊗x2"]
    mu = GradedMap.from_table(A2, A, 0, table)
    assert associativity_witness(mu, x0) == (1, None, None, None)
    built = []
    trusted = Vector._trusted
    monkeypatch.setattr(Vector, "_trusted",
                        lambda module, coeffs: built.append(coeffs)
                        or trusted(module, coeffs))
    assert associativity_witness(mu, x0) == (1, None, None, None)
    assert built == []


def test_associativity_kernel_checks_targets():
    # a product's values are checked where it is built: one given by names
    # with values outside its target never reaches the kernel
    A = small()
    other = small(prefix="y")
    mu = NameMap(tensor(A, A), A, 0, lambda n: other.el("y0"), name="mu")
    with pytest.raises(ValueError, match="does not live in the target"):
        associativity_witness(mu.row_map(), range(len(A.basis_names())))


def test_table_reads_each_row_once_through_the_row_function():
    A = small()
    reads = []
    pos = A.index().pos

    def rows(i, j):
        reads.append((i, j))
        return ((pos["x0"], 1),) if i == pos["x1"] else ()

    mu = GradedMap(tensor(A, A), A, 0, rows, name="mu")
    assert mu.row(pos["x1"], pos["x2"]) == ((pos["x0"], 1),)
    assert mu.row(pos["x1"], pos["x2"]) == ((pos["x0"], 1),)
    assert mu.row(pos["x0"], pos["x0"]) == ()
    assert reads == [(pos["x1"], pos["x2"]), (pos["x0"], pos["x0"])]
    assert mu.eval_basis(f"x1{TENSOR_SEP}x2") == A.el("x0")
    assert len(reads) == 2


# -- the slot table -------------------------------------------------------------

def contract_reference(T, f, last):
    """<f (x) 1, T>, or <T, 1 (x) f> with the element-first sign
    (-1)^{|f||w2|} per term, read one term of T at a time."""
    mod = T.module
    slot = mod.factors[-1] if last else mod.factors[0]
    rest = (tensor(*mod.factors[:-1]) if last else tensor(*mod.factors[1:]))
    R = mod.ring
    df = degree(f)
    out = {}
    for name, c in T.coeffs.items():
        ps = parts(name)
        w = ps[-1] if last else ps[0]
        s = dual_pair(f, slot.el(w))
        if s != 0:
            term = R.mul(s, c)
            if last and df % 2 and degree_of(slot, w) % 2:
                term = R.neg(term)
            key = TENSOR_SEP.join(ps[:-1] if last else ps[1:])
            out[key] = R.add(out.get(key, R.zero()), term)
    return Vector(rest, out)


@ring_param
@SETTINGS
@given(data=st.data())
def test_slot_table_matches_the_contractions(ring, data):
    A = data.draw(modules(ring, "a"))
    arity = data.draw(st.integers(2, 3))
    T = draw_vector(data, tensor(*[A] * arity))
    M = shift(dual_module(A), data.draw(st.integers(-2, 2)))
    names = A.index().names
    for last in (False, True):
        table = slot_table(vector_terms(T), T.module, M, last)
        for f, at in M.index().pos.items():
            want = contract_reference(T, M.el(f), last)
            got = {TENSOR_SEP.join(names[k] for k in
                                   (ks if arity > 2 else (ks,))): c
                   for ks, c in table.get(at, {}).items()}
            assert Vector(want.module, got) == want, (f, last)


# -- the unital infinitesimal and anti-symmetry quantifiers ------------------

def insert_middle(v: Vector, M: GradedModule, N: GradedModule) -> NameMap:
    """x (x) y -> (-1)^{|v| |x|} x (x) v (x) y  (1 (x) v (x) 1)."""
    source = tensor(M, N)
    target = tensor(M, v.module, N)
    dv = degree(v)
    split = M.arity

    def fn(name):
        ps = parts(name)
        left = TENSOR_SEP.join(ps[:split])
        right = TENSOR_SEP.join(ps[split:])
        sign = -1 if (dv % 2) and (degree_of(M, left) % 2) else 1
        out = tensor_values(tensor_values(M.el(left), v), N.el(right))
        return out if sign == 1 else neg(out)

    return NameMap(source, target, dv, fn, name="insM")


def quadratic_sides(inst):
    """{axiom: (lhs, rhs)} of (unital infinitesimal) and (unital
    anti-symmetry) as functions of a pair name, built from composite maps."""
    A = inst.module
    mu, lam = inst.mu, inst.lam
    one = identity(A)
    tau = twist(A, A)
    dl, dm = lam.degree, mu.degree
    lam_eta = named(lam)(row_vector(A, inst.eta))

    t1 = tensor_map(lam, one).then(tensor_map(one, mu))
    t2 = tensor_map(one, lam).then(tensor_map(mu, one))
    uir_rhs = [(sign(dl * dm), t1), (sign(dl * dm), t2)]
    tau_lam, mu_tau = named(lam).then(tau), tau.then(mu)
    lhs = [(sign(dm * (dl + 1)),
            tensor_map(tau_lam, one).then(tensor_map(one, mu))),
           (sign(dl * (dm + 1)),
            tensor_map(one, lam).then(tensor_map(mu_tau, one)))]
    rhs = [(sign(dl * dm),
            tensor_map(lam, one).then(tensor_map(one, mu_tau)).then(tau)),
           (-sign((dl + 1) * (dm + 1)),
            tensor_map(one, tau_lam).then(tensor_map(mu, one)).then(tau))]
    if not is_zero(lam_eta):
        mid = insert_middle(lam_eta, A, A)
        uir_rhs.append((-sign(dm), mid.then(tensor_map(mu, mu))))
        lhs.append((-sign(dl + dm), mid.then(tensor_map(mu_tau, mu))))
        rhs.append((-sign(dm), mid.then(tensor_map(mu, mu_tau)).then(tau)))

    def side(terms):
        def fn(n):
            out = zero(tensor(A, A))
            for sgn, op in terms:
                out = add(out, scale(op.eval_basis(n), sgn))
            return out
        return fn

    return {"unital infinitesimal": (named(mu).then(lam).eval_basis,
                                     side(uir_rhs)),
            "unital anti-symmetry": (side(lhs), side(rhs))}


@ring_param
@SETTINGS
@given(data=st.data())
def test_quadratic_axioms_match_the_composites(ring, data):
    A = data.draw(modules(ring, "a"))
    mu = draw_product(data, A)
    lam = draw_product(data, A, source=A, target=tensor(A, A))
    units = [n for n in A.basis_names() if degree_of(A, n) == 0]
    eta = vector_terms(Vector(A, {n: data.draw(coefficients(ring))
                                  for n in units}))
    inst = BialgebraData(A, mu, lam, eta)
    order = data.draw(st.permutations(A.basis_names()))
    names = order[:data.draw(st.integers(1, len(order)))]
    pairs = [f"{a}{TENSOR_SEP}{b}" for a in names for b in names]
    got = dict(zip(AXIOM_ORDER, check_axioms(BialgebraData(
        A, mu, lam, eta, safe_names=names)).results))
    kernel = PairKernel(mu, lam, inst.lambda_eta_terms().items())
    pos = A.index().pos
    for axiom, (lhs, rhs) in quadratic_sides(inst).items():
        want = quantify_reference(pairs, lambda n: (lhs(n), rhs(n)))
        assert verdict(got[axiom]) == verdict(want)
        # both sides agree on every pair, not only up to the first failure
        for n in pairs:
            a, b = n.split(TENSOR_SEP)
            got_l, got_r = kernel.sides(axiom, pos[a], pos[b])
            assert (row_vector(tensor(A, A), got_l.items()),
                    row_vector(tensor(A, A), got_r.items())) == \
                (lhs(n), rhs(n)), (axiom, n)


# -- the assoc-infinitesimal loop -----------------------------------------------

def assoc_infinitesimal_reference(data, comps):
    """(passed, detail) of the (+,+,-) -> + identity, both sides built as
    composites and Vectors for every (a, b, f)."""
    A = data.A
    one = identity(A)
    mu, lam = data.mu, data.lam
    M = dual_side(A, data.n)
    Mbar = shift(M, -1)
    lam_mu = named(mu).then(lam)
    t1 = tensor_map(lam, one).then(tensor_map(one, mu))
    t2 = tensor_map(one, lam).then(tensor_map(mu, one))
    mid = None
    if data.Q0:
        minus_Q0 = neg(row_vector(tensor(A, A), data.Q0))
        mid = insert_middle(minus_Q0, A, A).then(tensor_map(mu, mu))
    for a in data.safe_names:
        for b in data.safe_names:
            ab = f"{a}{TENSOR_SEP}{b}"
            defect = sub(sub(lam_mu.eval_basis(ab), t1.eval_basis(ab)),
                         t2.eval_basis(ab))
            if mid is not None:
                defect = add(defect, mid.eval_basis(ab))
            s = sign(degree_of(A, a) + degree_of(A, b) + 1)
            for f in data.safe_names:
                fb = f"{f}^"
                bf = f"{b}{TENSOR_SEP}{fb}"
                total = sub(add(
                    named(mu)(tensor_values(A.el(a),
                                            comps["pm_p"].eval_basis(bf))),
                    named(comps["pm_p"])(tensor_values(
                        A.el(a), comps["pm_m"].eval_basis(bf)))),
                    named(comps["pm_p"])(tensor_values(mu.eval_basis(ab),
                                                       Mbar.el(fb))))
                expected = scale(contract_reference(defect, M.el(fb), True), s)
                if total != expected:
                    return False, (f"fails at a={a}, b={b}, f={fb}: "
                                   f"{format_vector(total)} vs "
                                   f"{format_vector(expected)}")
    return True, ""


@ring_param
@SETTINGS
@given(data=st.data())
def test_assoc_infinitesimal_matches_the_composites(ring, data):
    A = data.draw(modules(ring, "a"))
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
    # a passing associativity verdict stands in for the precondition, which
    # the check reads from the package: the identity is compared whether
    # or not the drawn cone product is associative
    cone.associativity = Outcome("pass", "associative on the safe window")
    res = check_assoc_implies_infinitesimal(cone)
    assert not res.detail.startswith("precondition: "), res.detail
    assert (res.status == "pass", res.detail) == assoc_infinitesimal_reference(
        cone, cone.components)


# -- interned tensor modules ----------------------------------------------------

def small(ring=ZZ, prefix="x", degrees=(0, 1, -1)):
    return GradedModule(ring, [BasisElement(f"{prefix}{i}", d)
                               for i, d in enumerate(degrees)], name=prefix)


def test_tensor_is_interned_per_factor_objects():
    M, N = small(), small(prefix="y")
    assert tensor(M, N) is tensor(M, N)
    assert tensor(tensor(M, N), M) is tensor(M, tensor(N, M))
    assert tensor(M, N).factors == (M, N)
    assert tensor(M, M).factors == (M, M)
    assert tensor(M, N, M).factors == (M, N, M)
    assert tensor_values(M.el("x0"), N.el("y1")).module is tensor(M, N)
    M_copy = small()
    assert M_copy is not M and M_copy == M
    assert tensor(M_copy, N) == tensor(M, N)
    assert tensor(M_copy, N) is not tensor(M, N)


def test_dropped_module_frees_its_tensor_products():
    M, N = small(), small(prefix="y")
    products = [weakref.ref(tensor(M, N)), weakref.ref(tensor(M, M, N))]
    kept = tensor(N, N)
    del M
    gc.collect()
    assert all(r() is None for r in products)
    assert tensor(N, N) is kept
    everything = [weakref.ref(N), weakref.ref(kept)]
    del N, kept
    gc.collect()
    assert all(r() is None for r in everything)


def test_row_map_is_freed_without_a_collection():
    # a row map and its table form no reference cycle, so a map that was
    # read and dropped goes at once, with its rows and memo
    M = small()
    f = GradedMap(M, M, 0, lambda i: ((i, M.ring.one()),), name="id")
    assert f.row(0) == ((0, 1),)
    assert f.eval_basis("x1") == M.el("x1")
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_positions_is_the_one_strict_reader():
    # a name's positions, one per factor; anything else is refused with
    # KeyError, in the words of the caller that passes them
    M = small()
    T = tensor(M, M)
    assert _positions(M, "x0") == (1,)   # canonical order x2, x0, x1
    assert _positions(T, f"x1{TENSOR_SEP}x2") == (2, 0)
    refused = ("nope", f"x0{TENSOR_SEP}nope", "x0",
               f"x0{TENSOR_SEP}x1{TENSOR_SEP}x2", 7, ("x0", "x1"), None)
    for module, name in [(M, "nope"), (M, f"x0{TENSOR_SEP}x1"), (M, 7)] + [
            (T, name) for name in refused]:
        with pytest.raises(KeyError) as e:
            _positions(module, name)
        assert e.value.args[0] == f"{name!r} is not a basis name of {module!r}"
        with pytest.raises(KeyError) as e:
            _positions(module, name, "no basis element {!r}")
        assert e.value.args[0] == f"no basis element {name!r}"
    # each caller keeps its own message
    with pytest.raises(KeyError) as e:
        Vector(T, {"x0": 1})
    assert e.value.args[0] == f"'x0' is not a basis name of {T!r}"
    with pytest.raises(KeyError) as e:
        T.el(f"x0{TENSOR_SEP}x1{TENSOR_SEP}x2")
    assert e.value.args[0] == "no basis element 'x0⊗x1⊗x2'"
    with pytest.raises(KeyError) as e:
        GradedMap.from_table(T, M, 0, {"x0": M.el("x0")})
    assert e.value.args[0] == "'x0' is not a basis name of the source"
    with pytest.raises(KeyError) as e:
        GradedMap.zero(T, M, 0).eval_basis(7)
    assert e.value.args[0] == f"7 is not a basis name of {T!r}"


def test_public_constructors_still_check_names():
    M = small()
    T = tensor(M, M)
    with pytest.raises(KeyError):
        Vector(M, {"nope": 1})
    with pytest.raises(KeyError):
        Vector(T, {f"x0{TENSOR_SEP}nope": 1})
    with pytest.raises(KeyError):
        Vector(T, {"x0": 1})
    with pytest.raises(KeyError):
        M.el("nope")
    with pytest.raises(KeyError):
        GradedMap.from_table(M, M, 0, {"nope": M.el("x0")})
    # a zero coefficient drops the key before its name is looked at
    assert is_zero(Vector(M, {"nope": 0}))

