import gc
import json
import random
import weakref

import pytest

from chainalg.graded import (
    BasisElement,
    GradedMap,
    GradedModule,
    Outcome,
    Vector,
    shift,
    tensor,
    vector_terms,
    TENSOR_SEP,
)
from chainalg import scenario as sc
from chainalg.complexes import ChainComplex
from chainalg import cone_product as cp
from chainalg.cone_product import (
    ConeProductData,
    cross_check_components,
    check_cone_associativity,
    check_assoc_implies_infinitesimal,
    cone_data_from_bialgebra,
)
from chainalg.bialgebra import (BialgebraData, PairKernel,
                                 check_lemma_c_lambda_eta,
                                 secondary_relation_apply)
from chainalg.fixtures import TruncationWindow, make_fixture
from chainalg.rings import ZZ, QQ, GF
from name_keyed import (
    add,
    apply_op_shift,
    cone_window,
    degree,
    degree_of,
    dual_pair,
    identity,
    is_zero,
    named,
    NameMap,
    neg,
    parts,
    PLACEMENT,
    row_vector,
    scale,
    secondary_operations,
    sub,
    tensor_map,
    tensor_values,
    twist,
    zero,
)
from random_instances import cyclic_symmetrize, make_random_instance

W = TruncationWindow(12)


def minus_lam_eta(inst, lam=None):
    """-lam(eta) of a bialgebra, lam being its coproduct unless given, by
    names, as a row: the Q0 of its cone package."""
    lam = inst.lam if lam is None else lam
    return vector_terms(neg(named(lam)(row_vector(inst.module, inst.eta))))


def block_parts(data):
    """The parts of the package's cone product, one per secondary operation:
    for [i,j;k] = PLACEMENT[name], the rows of block (i, j) in block k, as a
    map on A (index 0) or Mbar (index 1) per factor and value."""
    plus, minus, where = data.cone.layout
    blocks = ((data.A, plus), (data.Mbar, minus))
    row = data.product.row

    def part(name, i, j, k):
        (X, at_i), (Y, at_j), Z = blocks[i], blocks[j], blocks[k][0]
        return GradedMap(tensor(X, Y), Z, 0, lambda u, v: tuple(
            (p, c) for w, c in row(at_i[u], at_j[v])
            for b, p in (where[w],) if b == k), name=name)

    return {name: part(name, *ijk) for name, ijk in PLACEMENT.items()}


def unbarred(data):
    """Each secondary operation as the package's product holds it: its
    part shifted back by `apply_op_shift` at its [i,j;k]."""
    return {name: apply_op_shift(part, *PLACEMENT[name])
            for name, part in block_parts(data).items()}


def pair_two(T: Vector, g: Vector, f: Vector):
    """<g (x) f, T> for a binary tensor T, with the Koszul evaluation sign:
    (g (x) f)(w1 (x) w2) = (-1)^{|f||w1|} <g, w1> <f, w2>."""
    mod = T.module
    R = mod.ring
    df = degree(f)
    acc = R.zero()
    m1, m2 = mod.factors
    for name, c in T.coeffs.items():
        p1, p2 = parts(name)
        s1 = dual_pair(g, m1.el(p1))
        s2 = dual_pair(f, m2.el(p2))
        term = R.mul(c, R.mul(s1, s2))
        if df is not None and (df % 2) and (degree_of(m1, p1) % 2):
            term = R.neg(term)
        acc = R.add(acc, term)
    return acc


@pytest.fixture(scope="module")
def s3_data():
    return cone_data_from_bialgebra(make_fixture("lambda-s3", W), n=3)


@pytest.fixture(scope="module")
def s1_data():
    return cone_data_from_bialgebra(make_fixture("lambda-s1-plus", W), n=1)


def test_data_invariants_enforced():
    inst = make_fixture("lambda-s1-plus", W)
    A = inst.module
    A2 = tensor(A, A)
    A3 = tensor(A, A, A)
    # Q0 must trivialize the twist defect of c0; with d = 0 and a
    # non-symmetric c0 of the right degree this is impossible
    c0_bad = Vector(A2, {f"A{TENSOR_SEP}A*U": 1})  # degree -2, tau c0 != c0
    with pytest.raises(ValueError, match="twist defect"):
        ConeProductData(ChainComplex(A), inst.mu, inst.lam,
                        vector_terms(c0_bad), (), (), n=1)
    # wrong degree bivector
    with pytest.raises(ValueError, match="degree"):
        ConeProductData(ChainComplex(A), inst.mu, inst.lam, (),
                        vector_terms(Vector(A2, {f"1{TENSOR_SEP}1": 1})), (),
                        n=1)
    # cubic vector must be cyclically symmetric (graded rotation)
    bad_B = Vector(A3, {f"A{TENSOR_SEP}A{TENSOR_SEP}1": 1})
    with pytest.raises(ValueError, match="cyclic"):
        ConeProductData(ChainComplex(A), inst.mu, inst.lam, (),
                        minus_lam_eta(inst), vector_terms(bad_B), n=1)


def test_each_combination_is_checked_on_its_positions():
    # e of degree 0 at position 0, x of degree 1 at position 1; |lam| = -1
    # (n = 1).  Every entry point that takes a combination as a row reads
    # its degree off the positions (`graded.terms_degree`): inhomogeneous
    # terms, here with equal first factors, and a key that is not one of
    # the positions are refused with a ValueError.
    A = GradedModule(ZZ, [BasisElement("e", 0), BasisElement("x", 1)],
                     name="a")
    A2 = tensor(A, A)
    mu, lam = GradedMap.zero(A2, A, 0), GradedMap.zero(A, A2, -1)
    inst = BialgebraData(A, mu, lam, ((0, 1),))
    complex_ = ChainComplex(A)
    entries = {
        "eta": (1, lambda t: BialgebraData(A, mu, lam, t)),
        "c0": (2, lambda t: ConeProductData(complex_, mu, lam, t, (), (), 1)),
        "Q0": (2, lambda t: ConeProductData(complex_, mu, lam, (), t, (), 1)),
        "B": (3, lambda t: ConeProductData(complex_, mu, lam, (), (), t, 1)),
        "v": (2, lambda t: PairKernel(mu, lam, t)),
        "c_fwd": (2, lambda t: secondary_relation_apply(mu, lam, t, ())),
        "c_op": (2, lambda t: secondary_relation_apply(mu, lam, (), t)),
        "reverse bivector": (2, lambda t: check_lemma_c_lambda_eta(t, inst)),
    }
    for label, (arity, enter) in entries.items():
        def key(*rest):
            return rest[0] if arity == 1 else (0,) * (arity - len(rest)) + rest
        with pytest.raises(ValueError) as err:
            enter(((key(0), 1), (key(1), 1)))
        assert str(err.value) == "inhomogeneous vector with degrees [0, 1]", \
            label
        for bad in (2, -1):
            with pytest.raises(ValueError, match="is not a basis key"):
                enter(((key(bad), 1),))


def test_safe_window_names_basis_elements_once():
    inst = make_fixture("lambda-s3", TruncationWindow(8))
    A = inst.module
    parts = (ChainComplex(A), inst.mu, inst.lam, (), minus_lam_eta(inst), ())
    safe = list(inst.safe_names)
    for bad, message in ((safe + ["nope"], "'nope' is not a basis element"),
                         (safe + safe[:1], "repeat")):
        with pytest.raises(ValueError, match=message):
            ConeProductData(*parts, n=3, safe_names=bad)
    data = ConeProductData(*parts, n=3, safe_names=safe)
    assert data.safe_names == tuple(safe)
    assert data.safe == tuple(A.index().pos[n] for n in safe)
    assert len(set(cone_window(data))) == 2 * len(safe)


def _three_cells(d_of_x: int) -> BialgebraData:
    """e (degree 0, the unit), x (1) and y (0), d(x) = d_of_x * y, every
    product not involving e zero and lam = 0 of degree -1 (n = 1): mu and
    lam are chain maps whatever d_of_x is."""
    A = GradedModule(ZZ, [BasisElement("e", 0), BasisElement("x", 1),
                          BasisElement("y", 0)], name="t")
    mu = GradedMap.from_table(tensor(A, A), A, 0, {
        **{f"e{TENSOR_SEP}{n}": A.el(n) for n in "exy"},
        **{f"{n}{TENSOR_SEP}e": A.el(n) for n in "xy"}})
    d = GradedMap.from_table(A, A, -1, {"x": A.el("y", d_of_x)})
    return BialgebraData(A, mu, GradedMap.zero(A, tensor(A, A), -1),
                         vector_terms(A.el("e")), differential=d)


def test_a_bialgebra_with_a_differential_is_not_packaged():
    # the package's complex has d = 0, so an instance whose differential
    # has a nonzero row is refused instead of packaged without it
    with pytest.raises(ValueError, match="needs d = 0"):
        cone_data_from_bialgebra(_three_cells(1), n=1)
    data = cone_data_from_bialgebra(_three_cells(0), n=1)
    assert [data.complex.d.row(i) for i in range(3)] == [()] * 3
    assert check_cone_associativity(data).status == "pass"


def test_cyclic_symmetric_cubic_accepted():
    inst = make_fixture("lambda-s1-plus", W)
    A = inst.module
    A3 = tensor(A, A, A)
    # graded cyclic orbit of A(x)A(x)1 (|B| = 2-4n = -2): rotating
    # 1(x)A(x)A moves the odd A past an odd total, so that term is negative
    base = {f"A{TENSOR_SEP}A{TENSOR_SEP}1": 1,
            f"1{TENSOR_SEP}A{TENSOR_SEP}A": 1,
            f"A{TENSOR_SEP}1{TENSOR_SEP}A": -1}
    B = Vector(A3, base)
    data = ConeProductData(ChainComplex(A), inst.mu, inst.lam, (),
                           minus_lam_eta(inst), vector_terms(B), n=1,
                           safe_names=inst.safe_names)
    # with B != 0 the (-,-) -> + block is the dualized cubic term
    got = data.product.eval_basis(f"-A^{TENSOR_SEP}-A^")
    assert any(k.startswith("+") for k in got.coeffs)


# the graded cyclic orbit of A(x)A(x)1 on lambda-s1-plus, |A| odd and
# |1| = 0: the rotation moves A past 1(x)A, of odd total degree, into
# A(x)1(x)A, so that term is negative; with +1 there B is cyclically
# symmetric only up to the rotation's Koszul sign
ORBIT = (("A", "A", "1"), ("1", "A", "A"), ("A", "1", "A"))


@pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=repr)
def test_the_cubic_vector_is_symmetric_with_the_koszul_sign(ring):
    inst = make_fixture("lambda-s1-plus", TruncationWindow(4), ring)
    A = inst.module
    A3 = tensor(A, A, A)
    parts = (ChainComplex(A), inst.mu, inst.lam, (), minus_lam_eta(inst))
    doc = sc.export_bialgebra(inst)
    doc.update(kind="cone", n=1,
               Q0=sc._combo_writer(tensor(A, A))(minus_lam_eta(inst)))
    signed = Vector(A3, {TENSOR_SEP.join(t): s
                         for t, s in zip(ORBIT, (1, 1, -1))})
    assert cyclic_symmetrize(A3.el(TENSOR_SEP.join(ORBIT[0]))) == signed
    unsigned = Vector(A3, {TENSOR_SEP.join(t): 1 for t in ORBIT})
    with pytest.raises(ValueError) as err:
        ConeProductData(*parts, vector_terms(unsigned), n=1)
    assert str(err.value) == "cubic vector is not cyclically symmetric"
    doc["B"] = sc._combo_writer(A3)(vector_terms(unsigned))
    with pytest.raises(sc.SchemaError) as err:
        sc.ingest(json.dumps(doc))
    assert (err.value.path, err.value.message) == (
        "$", "cubic vector is not cyclically symmetric")
    B = ConeProductData(*parts, vector_terms(signed), n=1).B
    assert row_vector(A3, B) == signed
    doc["B"] = sc._combo_writer(A3)(vector_terms(signed))
    assert row_vector(A3, sc.ingest(json.dumps(doc)).payload.B) == signed


def cubic_packages():
    """The packages with B != 0: lambda-s1-plus with the cyclically
    symmetric B of the test above, and the random reference packages."""
    inst = make_fixture("lambda-s1-plus", W)
    A = inst.module
    B = Vector(tensor(A, A, A), {f"A{TENSOR_SEP}A{TENSOR_SEP}1": 1,
                                 f"1{TENSOR_SEP}A{TENSOR_SEP}A": 1,
                                 f"A{TENSOR_SEP}1{TENSOR_SEP}A": -1})
    yield ConeProductData(ChainComplex(A), inst.mu, inst.lam, (),
                          minus_lam_eta(inst), vector_terms(B), n=1,
                          safe_names=inst.safe_names)
    for which, arg in REFERENCE_PACKAGES:
        if isinstance(which, int):
            yield reference_package(which, arg)


def test_the_closed_form_covers_the_cubic_vector():
    # the closed form's (-,-) -> + component reads B, so the components
    # agree with the product on every package with B != 0, and that
    # component is nonzero on each
    packages = list(cubic_packages())
    assert len(packages) == 7
    for data in packages:
        assert cross_check_components(data) == Outcome(
            "pass", "all components agree with the assembled product",
            4 * len(data.safe_names) ** 2)
        mm_p, size = data.components["mm_p"].row, len(data.M.index().names)
        assert any(mm_p(i, j) for i in range(size) for j in range(size))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
def test_beta_contracts_the_cubic_vector(ring):
    """beta(f, g) = <f (x) g (x) 1, B>
                  = sum (-1)^{|g||B1|} <f, B1> <g, B2> B3, term by term."""
    nonzero = 0
    for seed in range(4):
        data = make_random_instance(seed, 4, degrees=(0, -1, 1), ring=ring,
                                    kind="cone", n=1)
        beta = unbarred(data)["beta"]
        A, M = data.A, data.M
        B = row_vector(tensor(A, A, A), data.B)
        for f in M.basis_names():
            for g in M.basis_names():
                want = zero(A)
                for name, c in B.coeffs.items():
                    b1, b2, b3 = parts(name)
                    s = dual_pair(M.el(f), A.el(b1)) * dual_pair(M.el(g), A.el(b2))
                    if degree_of(M, g) % 2 and degree_of(A, b1) % 2:
                        s = -s
                    want = add(want, A.el(b3, c * s))
                got = beta.eval_basis(f"{f}{TENSOR_SEP}{g}")
                assert got == want, (seed, f, g)
                nonzero += not is_zero(got)
    assert nonzero


def test_pairing_identities_definitional(s3_data, s1_data):
    """The defining pairing identities of the secondary operations, as the
    product holds them, quantified over safe inputs; lambda-s1-plus has odd
    generators, so the Koszul signs of the transposes are exercised."""
    for data in (s3_data, s1_data):
        _check_m_L_pairing(data)


def _check_m_L_pairing(data):
    m_L = unbarred(data)["m_L"]
    A, M, mu = data.A, data.M, data.mu
    for b in data.safe_names:
        for f in data.safe_names:
            fv = M.el(f + "^")
            # <a, m_L(b,f)> = <mu(a,b), f> for every safe a, under the
            # functional-first pairing dictionary
            got = m_L.eval_basis(f"{b}{TENSOR_SEP}{f}^")
            for a in data.safe_names:
                da = degree_of(A, a)
                dphi = degree_of(M, f + "^") + degree_of(A, b)
                lhs = dual_pair(got, A.el(a))
                if (da % 2) and (dphi % 2):
                    lhs = -lhs
                prod = named(mu)(tensor_values(A.el(a), A.el(b)))
                rhs = dual_pair(fv, prod)
                dprod = da + degree_of(A, b)
                if (dprod % 2) and (degree_of(M, f + "^") % 2):
                    rhs = -rhs
                assert lhs == rhs, (a, b, f)


def test_mu_dualization_consistency(s3_data, s1_data):
    for data in (s3_data, s1_data):
        _check_m_R_pairing(data)


def _check_m_R_pairing(data):
    # <m_R(f,a), b> = <f, mu(a,b)> with the plain functional-first pairing
    m_R = unbarred(data)["m_R"]
    A, M = data.A, data.M
    for f in data.safe_names:
        for a in data.safe_names:
            got = m_R.eval_basis(f"{f}^{TENSOR_SEP}{a}")
            for b in data.safe_names:
                lhs = dual_pair(got, A.el(b))
                rhs = dual_pair(M.el(f + "^"), named(data.mu)(
                    tensor_values(A.el(a), A.el(b))))
                assert lhs == rhs


def test_sigma_without_corrections_uses_plain_coproduct():
    # c0 = Q0 = 0, d = 0: sigma pairs only against lam
    inst = make_fixture("lambda-s3", W)
    A = inst.module
    data = ConeProductData(ChainComplex(A), inst.mu, inst.lam, (), (), (),
                           n=3, safe_names=inst.safe_names)
    sigma = unbarred(data)["sigma"]
    M = data.M

    for f in data.safe_names:
        for g in data.safe_names:
            got = sigma.eval_basis(f"{f}^{TENSOR_SEP}{g}^")
            df, dg = degree_of(M, f + "^"), degree_of(M, g + "^")
            sign = -1 if ((df + 1) * (dg + 1)) % 2 else 1
            for a in data.safe_names:
                want = pair_two(inst.lam.eval_basis(a), M.el(g + "^"),
                                M.el(f + "^"))
                assert dual_pair(got, A.el(a)) == (want if sign == 1 else -want)


def test_sigma_pairs_against_corrected_coproduct(s1_data):
    """<sigma(f,g), a> = (-1)^{(|f|+1)(|g|+1)} <g (x) f, lam_rev(a)> with
    lam_rev = lam + (mu(x)1)(1(x)Q0) + (1(x)mu)(Q0(x)1), here with Q0 != 0
    and odd generators."""
    data = s1_data
    A, M, mu = data.A, data.M, data.mu
    sigma = unbarred(data)["sigma"]
    Q0 = row_vector(tensor(A, A), data.Q0)
    assert not is_zero(Q0)

    def lam_rev(a):   # by names; moving Q0 past a costs (-1)^{|Q0||a|}
        out = data.lam.eval_basis(a)
        for name, c in Q0.coeffs.items():
            q1, q2 = name.split(TENSOR_SEP)
            s = -1 if degree(Q0) % 2 and degree_of(A, a) % 2 else 1
            right = tensor_values(
                named(mu)(tensor_values(A.el(a), A.el(q1))), A.el(q2))
            left = tensor_values(
                A.el(q1), named(mu)(tensor_values(A.el(q2), A.el(a))))
            out = add(add(out, scale(right, s * c)), scale(left, c))
        return out

    nonzero = 0
    for f in data.safe_names:
        for g in data.safe_names:
            got = sigma.eval_basis(f"{f}^{TENSOR_SEP}{g}^")
            df, dg = degree_of(M, f + "^"), degree_of(M, g + "^")
            sign = -1 if ((df + 1) * (dg + 1)) % 2 else 1
            for a in data.safe_names:
                want = pair_two(lam_rev(a), M.el(g + "^"),
                                M.el(f + "^"))
                assert dual_pair(got, A.el(a)) == sign * want, (f, g, a)
                nonzero += want != 0
    assert nonzero


def test_shift_sign_table(s3_data):
    """The five barred/unbarred relations of the component dictionary,
    between the product's parts and the operations shifted back from them."""
    data = s3_data
    A, M = data.A, data.M
    b, ops = block_parts(data), unbarred(data)
    for x in data.safe_names:
        dx = degree_of(A, x)
        for f in data.safe_names:
            key = f"{x}{TENSOR_SEP}{f}^"
            key_rev = f"{f}^{TENSOR_SEP}{x}"
            sx = -1 if dx % 2 else 1
            # <a, m-bar_L(b, fbar)> = (-1)^{|b|} <a, m_L(b,f)>
            assert b["m_L"].eval_basis(key).coeffs == \
                scale(ops["m_L"].eval_basis(key), sx).coeffs
            # m-bar_R carries no sign
            assert b["m_R"].eval_basis(key_rev).coeffs == \
                ops["m_R"].eval_basis(key_rev).coeffs
            # tau-bar_R: (-1)^{|b|}; tau-bar_L: no sign
            assert b["tau_R"].eval_basis(key).coeffs == \
                scale(ops["tau_R"].eval_basis(key), sx).coeffs
            assert b["tau_L"].eval_basis(key_rev).coeffs == \
                ops["tau_L"].eval_basis(key_rev).coeffs
        for g in data.safe_names:
            key = f"{x}^{TENSOR_SEP}{g}^"
            sf = -1 if degree_of(M, x + "^") % 2 else 1
            # <m-bar(fbar, gbar), a> = (-1)^{|f|} <sigma(f,g), a>
            assert b["sigma"].eval_basis(key).coeffs == \
                scale(ops["sigma"].eval_basis(key), sf).coeffs


def test_components_cross_check(s3_data, s1_data):
    for data in (s3_data, s1_data):   # the 4 s^2 inputs of the four blocks
        assert cross_check_components(data) == Outcome(
            "pass", "all components agree with the assembled product",
            4 * len(data.safe_names) ** 2)


def test_block_placement(s3_data):
    data = s3_data
    prod = data.product
    # (+,+) -> + equals mu, and the (+,+) -> - block vanishes
    for a in data.safe_names:
        for b in data.safe_names:
            v = prod.eval_basis(f"+{a}{TENSOR_SEP}+{b}")
            expect = data.mu.eval_basis(f"{a}{TENSOR_SEP}{b}")
            assert all(k.startswith("+") for k in v.coeffs)
            assert {k[1:]: c for k, c in v.coeffs.items()} == expect.coeffs
    # (-,-) -> + vanishes when B = 0
    for f in data.safe_names:
        for g in data.safe_names:
            v = prod.eval_basis(f"-{f}^{TENSOR_SEP}-{g}^")
            assert all(k.startswith("-") for k in v.coeffs)


def test_cone_associativity(s3_data, s1_data):
    for data in (s3_data, s1_data):   # every safe cone triple
        assert check_cone_associativity(data) == Outcome(
            "pass", "associative on the safe window",
            (2 * len(data.safe)) ** 3)


def test_commutativity_relations(s1_data):
    # m^{-+}_+ = m^{+-}_+ . tau and m^{-+}_- = m^{+-}_- . tau on
    # commutative/cocommutative data, read from the product's parts
    data = s1_data
    A, Mbar = data.A, data.Mbar
    tau = twist(Mbar, A)
    b = block_parts(data)
    for f in data.safe_names:
        for a in data.safe_names:
            key = f"{f}^{TENSOR_SEP}{a}"
            tv = tau.eval_basis(key)
            assert b["tau_L"].eval_basis(key) == named(b["tau_R"])(tv)
            assert b["m_R"].eval_basis(key) == named(b["m_L"])(tv)


def test_assoc_implies_infinitesimal(s3_data, s1_data):
    for data in (s3_data, s1_data):   # every safe triple (a, b, f)
        assert check_assoc_implies_infinitesimal(data) == Outcome(
            "pass", "", len(data.safe_names) ** 3)


def test_assoc_implies_infinitesimal_nonvacuous():
    """With an associative mu, an arbitrary coproduct-shaped lam, and the
    secondary bivector tied to lam(eta), the component identity holds even
    though the unital infinitesimal relation itself fails; both sides are
    nonzero, so the check is not vacuous."""
    from chainalg.fixtures import _parse_name

    inst = make_fixture("lambda-s1-plus", TruncationWindow(8))
    A = inst.module
    A2 = tensor(A, A)
    rng = random.Random(13)
    fixed_unit_value = Vector(A2, {f"A{TENSOR_SEP}1": 1, f"1{TENSOR_SEP}A": 2})

    def random_lam_fn(name):
        if name == "1":
            return fixed_unit_value
        out = {}
        target_degree = degree_of(A, name) - 1
        for e1 in A.basis():
            for e2 in A.basis():
                if e1.degree + e2.degree != target_degree:
                    continue
                if abs(_parse_name(e1.name)[1]) > 4 or \
                        abs(_parse_name(e2.name)[1]) > 4:
                    continue
                if rng.random() < 0.08:
                    c = rng.randint(-2, 2)
                    if c:
                        out[f"{e1.name}{TENSOR_SEP}{e2.name}"] = c
        return Vector(A2, out)

    lam = NameMap(A, A2, -1, random_lam_fn, name="random-lam").row_map()
    data = ConeProductData(ChainComplex(A), inst.mu, lam, (),
                           minus_lam_eta(inst, lam), (), n=1,
                           safe_names=inst.safe_names)
    from chainalg.bialgebra import BialgebraData, check_axioms

    uir = check_axioms(BialgebraData(A, inst.mu, lam, inst.eta,
                                     safe_names=inst.safe_names))
    # the random coproduct is not a bialgebra
    assert not all(r.status == "pass" for r in uir.results)
    # full cone associativity fails for a random coproduct (the other
    # component identities need more structure), so check the component
    # identity directly: a passing associativity verdict set on the package
    # stands in for its precondition, which the check reads from there
    data.associativity = Outcome("pass", "associative on the safe window")
    res = check_assoc_implies_infinitesimal(data)
    assert res.status == "pass", res.detail


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
def test_twist_defect_check_with_a_differential(ring):
    # c0 = d2 P and Q0 = tau P - P give tau c0 - c0 = d2 Q0 != 0, since tau
    # commutes with d2 = d (x) 1 + 1 (x) d; one more Q0 term leaves a
    # defect, printed as tau c0 - c0 - d2 Q0 of the name-keyed maps
    A = GradedModule(ring, [BasisElement(f"x{i}", k) for i, k in
                            enumerate((0, 0, -1, -1, -2))], name="x")
    A2 = tensor(A, A)
    d = GradedMap.from_table(A, A, -1, {
        "x0": Vector(A, {"x2": 1, "x3": 2}),
        "x1": Vector(A, {"x2": -1, "x3": -2}),
        "x2": A.el("x4", 2), "x3": A.el("x4", -1)})
    one = named(identity(A))
    d2 = tensor_map(d, one) + tensor_map(one, d)
    tau = twist(A, A)
    P = Vector(A2, {"x0⊗x2": 1, "x3⊗x1": -2, "x1⊗x3": 1})
    c0, Q0 = d2(P), sub(tau(P), P)
    assert not is_zero(sub(tau(c0), c0))
    zero_mu, zero_lam = GradedMap.zero(A2, A, 0), GradedMap.zero(A, A2, -1)
    # the twist defect is trivialized, but c(f) = <f (x) 1, c0> of the
    # d2-cycle c0 anticommutes with the differentials, so no cone exists
    with pytest.raises(ValueError, match=r"^not a chain map: fails on x2\^$"):
        ConeProductData(ChainComplex(A, d), zero_mu, zero_lam,
                        vector_terms(c0), vector_terms(Q0), (), n=1)
    bad = add(Q0, A2.el("x0⊗x2"))
    with pytest.raises(ValueError) as err:
        ConeProductData(ChainComplex(A, d), zero_mu, zero_lam,
                        vector_terms(c0), vector_terms(bad), (), n=1)
    assert str(err.value) == (
        "secondary bivector does not trivialize the twist defect: "
        f"tau c0 - c0 - dQ0 = {sub(sub(tau(c0), c0), d2(bad))}")


def test_assoc_precondition_failure_reported():
    # breaking the Q0 invariant is caught at construction; a non-associative
    # product is caught by the precondition of the component identity
    inst = make_fixture("lambda-s1-plus", TruncationWindow(8))
    A = inst.module
    A2 = tensor(A, A)

    def broken_mu_fn(name):
        v = inst.mu.eval_basis(name)
        x, y = parts(name)
        if x == "U" and y == "U":
            return scale(v, 2)
        return v

    broken_mu = NameMap(A2, A, 0, broken_mu_fn).row_map()
    data = ConeProductData(ChainComplex(A), broken_mu, inst.lam, (),
                           minus_lam_eta(inst), (), n=1,
                           safe_names=inst.safe_names)
    res = check_assoc_implies_infinitesimal(data)
    assert res.status == "fail"
    assert res.detail.startswith(
        "precondition: cone product is not associative: "), res.detail


def test_cone_machinery_over_fields():
    from chainalg.rings import QQ, GF

    w = TruncationWindow(8)
    for ring in (QQ, GF(5)):
        inst = make_fixture("lambda-s1-plus", w, ring)
        data = cone_data_from_bialgebra(inst, n=1)
        assert cross_check_components(data).status == "pass", ring
        assert check_cone_associativity(data).status == "pass", ring


def test_degenerate_block_diagonal_case():
    # c0 = Q0 = B = 0 and lam = 0: the cone product reduces to mu on the
    # plus block with no mixing
    inst = make_fixture("lambda-s3", W)
    A = inst.module
    A2 = tensor(A, A)
    data = ConeProductData(ChainComplex(A), inst.mu,
                           GradedMap.zero(A, A2, -5), (), (), (), n=3,
                           safe_names=inst.safe_names)
    prod = data.product
    for f in data.safe_names:
        for a in data.safe_names:
            # the product preserves the splitting: mixed inputs stay in the
            # minus block (module structure), nothing crosses back to plus
            assert prod.eval_basis(f"-{f}^{TENSOR_SEP}+{a}").coeffs.keys() <= \
                {f"-{k}" for k in data.M.basis_names()}
            v = prod.eval_basis(f"+{a}{TENSOR_SEP}-{f}^")
            assert all(k.startswith("-") for k in v.coeffs)
        for g in data.safe_names:
            # the secondary product vanishes entirely without lam
            assert is_zero(prod.eval_basis(f"-{f}^{TENSOR_SEP}-{g}^"))


# -- the compiled product against the string-keyed assembly ---------------------

def unshift_reference(op, i, j, k):
    """op's [i,j;k]-unshift read by names: the value of op on the same
    names, times (-1)^{j |u|} with |u| read in op's source."""
    X, Y = op.source.factors
    source = tensor(shift(X, -i), shift(Y, -j))
    target = shift(op.target, -k)
    R = op.target.ring

    def fn(nm):
        negate = j % 2 and degree_of(X, parts(nm)[0]) % 2
        return Vector(target, {n: R.neg(c) if negate else c
                               for n, c in op.eval_basis(nm).coeffs.items()})

    return NameMap(source, target, op.degree - i - j + k, fn)


def product_reference(data):
    """mu_cone by names: each block value of mu or of the [i,j;k]-unshift of
    a name-keyed secondary operation (`name_keyed.secondary_operations`),
    its names prefixed with "+" or "-" for the cone."""
    cone_mod = data.cone.complex.module
    src = tensor(cone_mod, cone_mod)
    unshifted = {name: unshift_reference(op, *PLACEMENT[name])
                 for name, op in secondary_operations(data).items()}
    blocks = {("+", "-"): ("tau_R", "m_L"), ("-", "+"): ("tau_L", "m_R"),
              ("-", "-"): ("beta", "sigma")}

    def fn(nm):
        u, v = parts(nm)
        key = f"{u[1:]}{TENSOR_SEP}{v[1:]}"
        if u[0] == v[0] == "+":
            return Vector(cone_mod, {f"+{n}": c for n, c in
                                     data.mu.eval_basis(key).coeffs.items()})
        to_plus, to_minus = (unshifted[b].eval_basis(key)
                             for b in blocks[u[0], v[0]])
        return Vector(cone_mod,
                      {**{f"+{n}": c for n, c in to_plus.coeffs.items()},
                       **{f"-{n}": c for n, c in to_minus.coeffs.items()}})

    return NameMap(src, cone_mod, 0, fn, name="mu_cone reference")


REFERENCE_PACKAGES = (
    [(seed, ring) for ring in (ZZ, QQ, GF(5)) for seed in (0, 1)]
    + [("lambda-s1-plus", 1), ("lambda-s1-minus", 1), ("lambda-s3", 3)])


def reference_package(which, arg):
    """A random cone package (Q0 and B nonzero) by seed and ring, or a
    lambda fixture's package by name and n."""
    if isinstance(which, int):
        data = make_random_instance(which, 4, degrees=(0, -1, 1), ring=arg,
                                    kind="cone", n=1)
        assert data.Q0 and data.B
        return data
    return cone_data_from_bialgebra(make_fixture(which, TruncationWindow(8)),
                                    n=arg)


@pytest.mark.parametrize("which, arg", REFERENCE_PACKAGES,
                         ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_compiled_product_matches_the_string_keyed_assembly(which, arg):
    """The product's rows agree with the name-keyed assembly on every pair
    of cone basis elements, not only the safe ones: random cone packages
    (Q0 and B nonzero) and the lambda fixtures."""
    data = reference_package(which, arg)
    reference = product_reference(data)
    names = data.cone.complex.module.index().names
    row = data.product.row
    nonzero = set()
    for u, un in enumerate(names):
        for v, vn in enumerate(names):
            got = {names[k]: c for k, c in row(u, v)}
            want = reference.eval_basis(f"{un}{TENSOR_SEP}{vn}").coeffs
            assert got == want, (un, vn)
            nonzero.update((un[0], vn[0], k[0]) for k in got)
    blocks = {("+", "+", "+"), ("+", "-", "+"), ("+", "-", "-"),
              ("-", "+", "+"), ("-", "+", "-"), ("-", "-", "-")}
    assert blocks <= nonzero   # the B block may be zero
    assert ("+", "+", "-") not in nonzero


def test_the_reference_packages_meet_every_folded_sign_both_ways():
    """Each part of a mixed block is its operation's row times the
    unshift's sign (-1)^{j |u|}, one folded sign per part, decided by the
    parities of the factors.  Over the packages of the reference test,
    every part with a sign has nonzero terms where it negates and where it
    does not, so the reference test decides each sign.  Folded, the
    (+,-) -> - part carries none (m_L's sign is (-1)^{|b|}, the unshift's
    too) and neither does (-,+) -> - (m_R has none, and j = 0 there)."""
    folded = {   # (|u|, |v|) mod 2 as elements of A and M -> negated
        ("+", "-", "+"): lambda u, v: u,             # tau_R: (-1)^{|b|}
        ("+", "-", "-"): lambda u, v: False,
        ("-", "+", "+"): lambda u, v: not u,         # tau_L: (-1)^{|f|+1}
        ("-", "+", "-"): lambda u, v: False,
        ("-", "-", "+"): lambda u, v: u and not v,   # beta: (-1)^{|f||g|+|f|}
        ("-", "-", "-"): lambda u, v: not v,         # sigma: (-1)^{|g|+1}
    }
    seen = {part: set() for part in folded}
    for which, arg in REFERENCE_PACKAGES:
        data = reference_package(which, arg)
        idx = data.cone.complex.module.index()
        # a "-" element sits one degree above its element of M
        odd = [o if n[0] == "+" else not o for n, o in zip(idx.names, idx.odd)]
        for u, un in enumerate(idx.names):
            for v, vn in enumerate(idx.names):
                for k, _ in data.product.row(u, v):
                    part = un[0], vn[0], idx.names[k][0]
                    if part in folded:
                        seen[part].add(bool(folded[part](odd[u], odd[v])))
    both = {True, False}
    assert seen == {("+", "-", "+"): both, ("+", "-", "-"): {False},
                    ("-", "+", "+"): both, ("-", "+", "-"): {False},
                    ("-", "-", "+"): both, ("-", "-", "-"): both}


# -- component witnesses ------------------------------------------------------------

def patched(op, at, targets=None):
    """op as a row map with one more term, coefficient 1 at the first of
    the target positions `targets` (default all) its row at `at` lacks."""
    row = op.row

    def rows(i, j):
        r = row(i, j)
        if (i, j) != at:
            return r
        free = next(k for k in targets or range(len(op.target.index().names))
                    if k not in dict(r))
        return r + ((free, 1),)

    return GradedMap(op.source, op.target, op.degree, rows, name=op.name)


def _patched_pair(data):
    b, f = data.safe_names[1], data.safe_names[2]
    at = (data.A.index().pos[b], data.M.index().pos[f"{f}^"])
    return f"+{b}(x)-{f}^", at


def test_components_witness_names_a_patched_assembled_block(s1_data):
    # the cross-check reads the package's own product, patched here on
    # a fresh package so that the shared fixture keeps its own
    data = cone_data_from_bialgebra(make_fixture("lambda-s1-plus", W), n=1)
    pair, (b, f) = _patched_pair(data)
    plus, minus, _ = data.cone.layout
    data.product = patched(data.product, (plus[b], minus[f]), minus)
    assert cross_check_components(data) == Outcome(
        "fail", f"pm mismatch at {pair} in pm_m: assembled (0 | 1^ + U^-2^) "
        "vs closed form (0 | U^-2^)", 4 * len(data.safe_names) ** 2)
    assert cross_check_components(s1_data).status == "pass"


def test_components_witness_names_a_patched_closed_form_block(s1_data):
    # the cross-check reads the package's own components, patched here on
    # a fresh package so that the shared fixture keeps its own
    data = cone_data_from_bialgebra(make_fixture("lambda-s1-plus", W), n=1)
    pair, at = _patched_pair(data)
    data.components["pm_m"] = patched(data.components["pm_m"], at)
    assert cross_check_components(data) == Outcome(
        "fail", f"pm mismatch at {pair} in pm_m: assembled (0 | U^-2^) vs "
        "closed form (0 | 1^ + U^-2^)", 4 * len(data.safe_names) ** 2)
    assert cross_check_components(s1_data).status == "pass"


def test_components_compare_each_coefficient():
    # a closed-form row with its coefficients negated keeps its keys and
    # its length, and the cross-check still names it
    data = cone_data_from_bialgebra(make_fixture("lambda-s1-plus", W), n=1)
    pair, at = _patched_pair(data)
    op, neg = data.components["pm_m"], data.A.ring.neg
    row = op.row
    data.components["pm_m"] = GradedMap(
        op.source, op.target, op.degree, lambda i, j: tuple(
            (k, neg(c)) for k, c in row(i, j)) if (i, j) == at else row(i, j))
    assert cross_check_components(data) == Outcome(
        "fail", f"pm mismatch at {pair} in pm_m: assembled (0 | U^-2^) vs "
        "closed form (0 | -U^-2^)", 4 * len(data.safe_names) ** 2)


def test_a_continuation_that_is_not_a_chain_map_is_refused():
    # c(x0^) = x0, but d(x0) = x1 while d_M(x0^) = 0: the package is
    # refused at construction, naming the first failing basis element
    A = GradedModule(ZZ, [BasisElement("x0", 0), BasisElement("x1", -1)],
                     name="x")
    A2 = tensor(A, A)
    d = GradedMap.from_table(A, A, -1, {"x0": A.el("x1")})
    args = (ChainComplex(A, d), GradedMap.zero(A2, A, 0),
            GradedMap.zero(A, A2, 1))
    with pytest.raises(ValueError, match=r"^not a chain map: fails on x0\^$"):
        ConeProductData(*args, vector_terms(A2.el("x0⊗x0")), (), (), n=0)
    good = ConeProductData(*args, (), (), (), n=0)
    assert good.continuation.f.row(0) == ()


# -- the package's dual side and lifetime --------------------------------------

def _run_the_cone_checks(data):
    """The statuses of the components, associativity and assoc-infinitesimal
    checks on the package."""
    return [cross_check_components(data).status, data.associativity.status,
            check_assoc_implies_infinitesimal(data).status]


def test_a_package_builds_its_dual_side_once(monkeypatch):
    # M = dual_side(A, n) and Mbar = M[-1] are built where the package is,
    # and the product, the closed forms and every check read them there
    calls = {"dual_side": 0, "Mbar": 0}
    dual_side, shift_ = cp.dual_side, cp.shift

    def counting_dual_side(*args):
        calls["dual_side"] += 1
        return dual_side(*args)

    def counting_shift(M, k):
        calls["Mbar"] += k == -1
        return shift_(M, k)

    monkeypatch.setattr(cp, "dual_side", counting_dual_side)
    monkeypatch.setattr(cp, "shift", counting_shift)
    data = cone_data_from_bialgebra(
        make_fixture("lambda-s1-plus", TruncationWindow(8)), n=1)
    assert _run_the_cone_checks(data) == ["pass"] * 3
    assert calls == {"dual_side": 1, "Mbar": 1}
    assert data.components["mm_m"].target is data.Mbar


def test_closed_form_components_preserve_degree(s3_data, s1_data):
    # barred elements sit one degree above their unbarred ones (Mbar =
    # M[-1]), and each closed-form component is of degree 0 on A and Mbar
    for data in (s3_data, s1_data):
        assert [degree_of(data.Mbar, f) for f in data.M.basis_names()] == \
            [degree_of(data.M, f) + 1 for f in data.M.basis_names()]
        nonzero = 0
        for key, comp in data.components.items():
            X, Y = (f.index().degree for f in comp.source.factors)
            out = comp.target.index().degree
            assert comp.degree == 0, key
            for i in range(len(X)):
                for j in range(len(Y)):
                    terms = comp.row(i, j)
                    assert all(out[k] == X[i] + Y[j] for k, _ in terms), \
                        (key, i, j)
                    nonzero += len(terms)
        assert nonzero


def test_a_package_is_freed_by_reference_counting():
    # nothing the package builds (cone, product, components, verdicts)
    # refers back to it, so its last reference frees it without the
    # cyclic collector
    inst = make_fixture("lambda-s1-plus", TruncationWindow(8))
    gc.collect()
    gc.disable()
    try:
        data = cone_data_from_bialgebra(inst, n=1)
        assert _run_the_cone_checks(data) == ["pass"] * 3
        package = weakref.ref(data)
        del data
        assert package() is None
    finally:
        gc.enable()


def test_cone_checks_count_their_inputs():
    # components: the 4 s^2 blocks' inputs, all of them even when some
    # fail; associativity: the safe cone triples up to and including the
    # witness; assoc-infinitesimal: the triples (a, b, f) in order up to
    # and including the failing one, none when the precondition fails
    from chainalg.fixtures import flip_structure_constant, mutate_mu

    plus = make_fixture("lambda-s1-plus", TruncationWindow(8))
    data = cone_data_from_bialgebra(plus, n=1)
    s = len(data.safe_names)
    assert (s, len(cone_window(data))) == (10, 20)
    assert [cross_check_components(data).inputs_checked,
            data.associativity.inputs_checked,
            check_assoc_implies_infinitesimal(data).inputs_checked] == \
        [4 * s * s, 8000, s ** 3]
    nonassoc = cone_data_from_bialgebra(
        mutate_mu(plus, f"U{TENSOR_SEP}U", "U^2"), n=1)
    assert (nonassoc.associativity.status,
            nonassoc.associativity.inputs_checked) == ("fail", 127)
    assert check_assoc_implies_infinitesimal(nonassoc)[:3:2] == ("fail", 0)
    # a pm_p constant flipped fails the first triple (U, U, U^2^) that
    # reads it, with the precondition kept as passing
    data = cone_data_from_bialgebra(plus, n=1)
    data.components["pm_p"] = flip_structure_constant(
        data.components["pm_p"], f"U^2{TENSOR_SEP}U^2^", "A")
    data.associativity = Outcome("pass", "associative on the safe window")
    out = check_assoc_implies_infinitesimal(data)
    at = data.safe_names.index
    assert out.detail.startswith("fails at a=U, b=U, f=U^2^: ")
    assert out.inputs_checked == (at("U") * s + at("U")) * s + at("U^2") + 1
    assert cross_check_components(data)[:3:2] == ("fail", 4 * s * s)
