"""The check paths read position rows; the name-keyed maps are their reference.

Every structure map a check reads is a row map on basis positions: both
sides of coassociativity, the units, `tensor_differential`, `dual_map`,
`shift_map`, the cone's d_cone, and the inclusion and projection read
through the cone's layout.  Each is compared here, over Z, Q and GF(5),
with a name-keyed reference built from `then` and `tensor_map` of
`name_keyed`, or from the defining formula on names.  A guard
counts the name-path calls (`GradedMap.eval_basis`, the name
reader `graded._positions`, the key-to-name writer `graded.names_of` and
`graded.format_row`, the checked `Vector` constructor,
`GradedMap.from_table` and `GradedMap.block`) that
`check_axioms` and `cone_records` make
on built fixtures, and that a quotient complex's homology and an induced
quotient homotopy make: none.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chainalg import fixtures as fx
from chainalg.bialgebra import (
    AXIOM_ORDER,
    BialgebraData,
    _coassociativity,
    check_axioms,
    secondary_relation_apply,
)
from chainalg.complexes import (
    ChainComplex,
    ChainMap,
    induced_quotient_homotopy,
    mapping_cone,
    quotient_by_image,
)
from chainalg import graded
from chainalg.cone_product import cone_data_from_bialgebra
from chainalg.graded import (
    BasisElement,
    GradedMap,
    GradedModule,
    Vector,
    dual_map,
    dual_module,
    shift,
    shift_map,
    tensor,
    tensor_differential,
    vector_terms,
)
from chainalg.report import records
from chainalg.scenario import Scenario
from chainalg.rings import GF, QQ, ZZ
from replay import Replay
from name_keyed import (
    add,
    basis,
    basis_in_degree,
    degree_of,
    identity,
    insert_left,
    insert_right,
    is_zero,
    named,
    NameMap,
    neg,
    quantify_reference,
    row_vector,
    scale,
    scaled,
    tensor_map,
    tensor_values,
    verdict,
    zero,
)
from test_complexes import _cubical_torus, _lemma_homotopy
from test_cone_product import block_parts

RINGS = [ZZ, QQ, GF(5)]
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
ring_param = pytest.mark.parametrize("ring", RINGS, ids=repr)


def coefficients(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(-3, 3)


def draw_module(data, ring, prefix, degrees=(-1, 0, 1)):
    """A module of two to four basis elements, their degrees drawn as one
    list from `degrees`."""
    ds = data.draw(st.lists(st.sampled_from(degrees), min_size=2, max_size=4))
    return GradedModule(ring, [BasisElement(f"{prefix}{i}", d)
                               for i, d in enumerate(ds)], name=prefix)


def draw_map(data, source, target, degree=None):
    """A map given by names (`from_table`); sparse often enough that
    identities can hold."""
    if degree is None:
        degree = data.draw(st.integers(-1, 1))
    coeff = (st.sampled_from((0, 0, 0, 1, -1)) if data.draw(st.booleans())
             else coefficients(source.ring))
    table = {e.name: Vector(target, {
                 t.name: data.draw(coeff)
                 for t in basis_in_degree(target, e.degree + degree)})
             for e in basis(source)}
    return GradedMap.from_table(source, target, degree, table)


def identity_by_names(M):
    return NameMap(M, M, 0, M.el, name="id")


def sign(exp):
    return -1 if exp % 2 else 1


# -- coassociativity ------------------------------------------------------------

def coassociativity_reference(lam, names):
    """The quantifier of (1 (x) lam) lam = (-1)^{|lam|} (lam (x) 1) lam,
    with both sides composed by `then` and `tensor_map`."""
    one = identity_by_names(lam.source)
    co_r = named(lam).then(tensor_map(one, lam))
    co_l = named(lam).then(tensor_map(lam, one))
    return quantify_reference(names, lambda n: (
        co_r.eval_basis(n), scale(co_l.eval_basis(n), sign(lam.degree))))


@ring_param
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay([-1, 0, 1], 1, False, 0, 1, 0, 0, 1, 0,
                     ['a0', 'a1', 'a2'], 1))
@example(data=Replay([-1, 0, 1], 1, False, 0, 0, 0, 0, 0, 1,
                     ['a0', 'a1', 'a2'], 1))
def test_coassociativity_sides_match_the_composites(ring, data):
    A = draw_module(data, ring, "a")
    A2, A3 = tensor(A, A), tensor(A, A, A)
    lam = draw_map(data, A, A2)
    one = identity_by_names(A)
    co_r = named(lam).then(tensor_map(one, lam))
    co_l = named(lam).then(tensor_map(lam, one))
    odd = A.index().odd
    for x, n in enumerate(A.index().names):
        lhs, rhs = _coassociativity(lam.row, lam.degree % 2, odd,
                                    ring, x)
        assert row_vector(A3, lhs.items()) == co_r.eval_basis(n)
        assert row_vector(A3, rhs.items()) == \
            scale(co_l.eval_basis(n), sign(lam.degree))
    # the quantifier's verdict on a drawn window, witness text included
    order = data.draw(st.permutations(A.basis_names()))
    names = order[:data.draw(st.integers(1, len(order)))]
    inst = BialgebraData(A, GradedMap.zero(A2, A, 0), lam, (),
                         safe_names=names)
    got = dict(zip(AXIOM_ORDER, check_axioms(inst).results))["coassociativity"]
    assert verdict(got) == verdict(coassociativity_reference(lam, names))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("name", ["lambda-s3", "lambda-s1-plus",
                                  "lambda-s1-minus", "omega-s3",
                                  "omega-s1-plus"])
def test_flipped_lambda_fails_coassociativity_like_the_reference(ring, name):
    window = fx.TruncationWindow(8)
    inst = fx.make_fixture(name, window, ring)
    targets = [t for t in fx.mutation_targets(inst, window)
               if t[0] == "lambda" and t[1] in inst.safe_names]
    rng = random.Random(f"{name}-{ring}")
    failures = 0
    for _, input_name, output_name in rng.sample(targets, min(6, len(targets))):
        bad = fx.mutate_lambda(inst, input_name, output_name)
        got = dict(zip(AXIOM_ORDER,
                       check_axioms(bad).results))["coassociativity"]
        want = coassociativity_reference(bad.lam, bad.safe_names)
        assert verdict(got) == verdict(want), (input_name, output_name)
        failures += got.status != "pass"
    assert failures > 0


# -- units and the chain-map conditions -----------------------------------------

def unit_reference(inst, names):
    """The two unit axioms by names: mu(eta (x) x) = x and
    (-1)^{|mu||x|} mu(x (x) eta) = x."""
    A, mu = inst.module, inst.mu
    eta = row_vector(A, inst.eta)
    mu_named = named(mu)
    left = quantify_reference(names, lambda n: (
        mu_named(tensor_values(eta, A.el(n))), A.el(n)))
    right = quantify_reference(names, lambda n: (
        scale(mu_named(tensor_values(A.el(n), eta)),
              sign(mu.degree * degree_of(A, n))),
        A.el(n)))
    return left, right


@ring_param
@SETTINGS
@given(data=st.data())
def test_unit_axioms_match_the_name_formulas(ring, data):
    A = draw_module(data, ring, "a")
    A2 = tensor(A, A)
    mu = draw_map(data, A2, A)
    eta = vector_terms(Vector(A, {
        e.name: data.draw(st.sampled_from((0, 1, 1, -1)))
        for e in basis_in_degree(A, 0)}))
    lam = GradedMap.zero(A, A2, 0)
    inst = BialgebraData(A, mu, lam, eta)
    for n in A.basis_names():   # every input, not only up to a failure
        got = check_axioms(BialgebraData(A, mu, lam, eta,
                                         safe_names=[n])).results[:2]
        assert [verdict(r) for r in got] == \
            [verdict(r) for r in unit_reference(inst, [n])], n


def chain_map_reference(A, mu, lam, d):
    """The message BialgebraData raises for mu and lam with differential d,
    or None, from the name-keyed d (x) 1 + 1 (x) d."""
    one = identity_by_names(A)
    d2 = tensor_map(d, one) + tensor_map(one, d)
    for label, op, dom_d, cod_d in (("mu", mu, d2, d), ("lam", lam, d, d2)):
        for e in basis(op.source):
            lhs = named(cod_d)(op.eval_basis(e.name))
            rhs = scale(named(op)(dom_d.eval_basis(e.name)), sign(op.degree))
            if lhs != rhs:
                return f"{label} is not a chain map (fails on {e.name})"
    return None


@ring_param
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay([0, 1], False, 1, 0, False, 0, 0, 0, 0, False, 0, 0, 0, 0,
                     False, 0, 0, 0, 1, False, 0, 0, 0))
def test_chain_map_conditions_match_the_name_formulas(ring, data):
    # degrees 0 and 1 only, so every degree -1 map squares to zero
    A = draw_module(data, ring, "a", degrees=(0, 1))
    A2 = tensor(A, A)
    d = draw_map(data, A, A, -1)
    mu = draw_map(data, A2, A, data.draw(st.integers(-1, 0)))
    lam = draw_map(data, A, A2, data.draw(st.integers(0, 1)))
    want = chain_map_reference(A, mu, lam, d)
    try:
        BialgebraData(A, mu, lam, (), differential=d)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == want
    # [D, h] = D h - (-1)^{|h|} h D is a chain map for any h, with D the
    # differential of its source and target: these must pass
    one = identity_by_names(A)
    d2 = tensor_map(d, one) + tensor_map(one, d)
    rows = tensor_differential(d)
    assert rows.row_fn is not None
    for e in basis(A2):
        assert rows.eval_basis(e.name) == d2.eval_basis(e.name), e.name
    g = draw_map(data, A2, A, data.draw(st.integers(0, 1)))
    h = draw_map(data, A, A2, data.draw(st.integers(1, 2)))
    g, h, d = named(g), named(h), named(d)
    mu = g.then(d) - d2.then(g) if g.degree % 2 == 0 else g.then(d) + d2.then(g)
    lam = h.then(d2) - d.then(h) if h.degree % 2 == 0 else h.then(d2) + d.then(h)
    assert chain_map_reference(A, mu, lam, d) is None
    BialgebraData(A, mu.row_map(), lam.row_map(), (),
                  differential=d.row_map())


# -- dual and shift -------------------------------------------------------------

def dual_reference(f):
    """f^v by names: <f^v(y^), x> = (-1)^{|y^||f|} <y^, f(x)>."""
    src, tgt = dual_module(f.target), dual_module(f.source)

    def fn(phi):
        s = sign(degree_of(src, phi) * f.degree)
        return Vector(tgt, {
            x.name + "^": s * f.eval_basis(x.name).coeffs.get(phi[:-1], 0)
            for x in f.source.basis()})

    return NameMap(src, tgt, f.degree, fn)


@ring_param
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay([-1, 1], [-2, -1], -1, False, 1))
@example(data=Replay([-1, -1], [-2, -1], 0, False, 0, 1))
def test_dual_and_shift_rows_match_the_name_formulas(ring, data):
    M = draw_module(data, ring, "m")
    N = draw_module(data, ring, "n", degrees=(-2, -1, 0, 1))
    f = draw_map(data, M, N)
    fd, ref = dual_map(f), dual_reference(f)
    assert fd.row_fn is not None
    for e in fd.source.basis():
        assert fd.eval_basis(e.name) == ref.eval_basis(e.name), e.name
    for k in (-2, -1, 1, 3):
        fk = shift_map(f, k)
        assert fk.row_fn is not None
        assert (fk.source, fk.target) == (shift(M, k), shift(N, k))
        for e in M.basis():
            want = scale(f.eval_basis(e.name), sign(f.degree * k))
            assert fk.eval_basis(e.name).coeffs == want.coeffs


# -- the mapping cone -----------------------------------------------------------

def cone_reference(c, cone_mod):
    """d_cone, incl and proj by names: d(a, m) = (d_A a + c(m), -d_M m)."""
    M, A = c.source.module, c.target.module

    def d_fn(name):
        tag, base = name[0], name[1:]
        if tag == "+":
            return Vector(cone_mod, {"+" + n: v for n, v in
                                     c.target.d.eval_basis(base).coeffs.items()})
        out = {"-" + n: -v for n, v in c.source.d.eval_basis(base).coeffs.items()}
        for n, v in c.f.eval_basis(base).coeffs.items():
            out["+" + n] = v
        return Vector(cone_mod, out)

    return (NameMap(cone_mod, cone_mod, -1, d_fn),
            NameMap(A, cone_mod, 0, lambda n: cone_mod.el("+" + n)),
            NameMap(cone_mod, M, -1, lambda n: M.el(n[1:])
                    if n.startswith("-") else zero(M)))


@ring_param
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py
@example(data=Replay([0, 1], [0, 0], False, 1, False, False))
def test_cone_maps_match_the_name_formulas(ring, data):
    # degrees 0 and 1 only, so every degree -1 map squares to zero, and
    # c = d_A h + h d_M is a chain map for any degree +1 map h
    M = draw_module(data, ring, "m", degrees=(0, 1))
    A = draw_module(data, ring, "a", degrees=(0, 1))
    CM = ChainComplex(M, draw_map(data, M, M, -1))
    CA = ChainComplex(A, draw_map(data, A, A, -1))
    h = draw_map(data, M, A, 1)
    c = named(h).then(CA.d) + named(CM.d).then(h)
    cone = mapping_cone(ChainMap(CM, CA, c.row_map()))
    cone_mod = cone.complex.module
    refs = cone_reference(cone.chain_map, cone_mod)
    # incl and proj as row maps on the layout's positions of A and of M
    plus, _, where = cone.layout
    one = ring.one()
    incl = GradedMap(A, cone_mod, 0, lambda p: ((plus[p], one),))
    proj = GradedMap(cone_mod, M, -1, lambda u: (
        ((where[u][1], one),) if where[u][0] else ()))
    for got, ref in zip((cone.complex.d, incl, proj), refs):
        assert got.row_fn is not None
        for e in got.source.basis():
            assert got.eval_basis(e.name) == ref.eval_basis(e.name), e.name


# -- the change of coproduct ---------------------------------------------------

def draw_bivector(data, A, degree):
    A2 = tensor(A, A)
    coeff = coefficients(A.ring)
    return Vector(A2, {e.name: data.draw(coeff)
                       for e in basis_in_degree(A2, degree)})


@ring_param
@SETTINGS
@given(data=st.data())
# fixed draws, run before the random ones, that kill this test's mutants
# in tests/mutants.py, on A = a0 (degree 0), a1 (degree 1): c_op = -c_fwd
# = -a0 (x) a0 with mu(a0 (x) a0) = a0; |mu| = 1 with c_op = a1 (x) a0;
# and c_fwd = a0 (x) a1 with mu(a1 (x) a0) = a1, at the odd x = a1
@example(data=Replay([0, 1], 0, False, 1, 0, 0, 0, False, 0, 0, 0, 1, True))
@example(data=Replay([0, 1], 1, False, 1, 1, False, 0, 0, 0, 0, 0, False,
                     0, 1))
@example(data=Replay([0, 1], 0, False, 0, 0, 1, 1, False, 0, 0, 0, 1, 0,
                     False, 0, 0))
def test_secondary_relation_matches_the_composites(ring, data):
    # lam' = lam + (mu (x) 1)(1 (x) c_fwd) - (1 (x) mu)(c_op (x) 1), the
    # reference built from the insertions and tensor_map on names; mu of
    # odd degree exercises the sign 1 (x) mu picks up on c1
    A = draw_module(data, ring, "a")
    A2 = tensor(A, A)
    mu = draw_map(data, A2, A)
    lam = draw_map(data, A, A2)
    c_fwd = draw_bivector(data, A, lam.degree)
    c_op = (neg(c_fwd) if data.draw(st.booleans())
            else draw_bivector(data, A, lam.degree))
    one = identity_by_names(A)
    terms = [(1, lam)]
    if not is_zero(c_fwd):
        terms.append((1, insert_right(c_fwd, A).then(tensor_map(mu, one))))
    if not is_zero(c_op):
        terms.append((-1, insert_left(c_op, A).then(tensor_map(one, mu))))
    got = secondary_relation_apply(mu, lam, vector_terms(c_fwd),
                                   vector_terms(c_op))
    for e in A.basis():
        want = zero(A2)
        for s, op in terms:
            want = add(want, scale(op.eval_basis(e.name), s))
        assert got.eval_basis(e.name) == want, e.name


# -- the guard: no name path on the check paths ---------------------------------

# the methods, and the functions of `graded`, that read a name
# (`_positions`), turn a key into one (`names_of`) or write a row by names
# (`format_row`), and the dense `block`
NAME_PATH = ((GradedMap, "eval_basis"), (Vector, "__init__"),
             (GradedMap, "from_table"), (GradedMap, "block"),
             (graded, "_positions"), (graded, "names_of"),
             (graded, "format_row"))


@pytest.fixture
def name_path_calls(monkeypatch):
    counts = Counter()
    for owner, attr in NAME_PATH:
        original = vars(owner)[attr]
        bound = isinstance(original, classmethod)

        def counted(*args, _original=original.__func__ if bound else original,
                    _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        if owner is graded:   # and every module that imported the function
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("chainalg")
                        and vars(module).get(attr) is original):
                    monkeypatch.setattr(module, attr, counted)
        else:
            monkeypatch.setattr(owner, attr,
                                classmethod(counted) if bound else counted)
    return counts


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_check_paths_make_no_name_path_calls(ring, name_path_calls):
    for name in fx.fixture_names()[:-1]:   # the bialgebra fixtures
        inst = fx.make_fixture(name, fx.TruncationWindow(8), ring)
        name_path_calls.clear()
        report = check_axioms(inst)
        assert all(r.status == "pass" for r in report.results)
        assert dict(name_path_calls) == {}, name
    data = cone_data_from_bialgebra(
        fx.make_fixture("lambda-s1-plus", fx.TruncationWindow(8), ring), n=1)
    name_path_calls.clear()
    out = records(Scenario("cone", "", ring, data, (), None),
                  ("components", "associativity", "assoc-infinitesimal"), "",
                  False)
    assert [r.status for r in out] == ["pass"] * 3
    assert dict(name_path_calls) == {}


def test_quotient_paths_make_no_name_path_calls(name_path_calls):
    C = _cubical_torus(ZZ, 4)
    two = ChainMap(C, C, scaled(identity(C.module), 2).row_map())
    lemma = _lemma_homotopy()
    name_path_calls.clear()
    assert str(quotient_by_image(two).homology()) == \
        "H_0 = R/2, H_1 = R/2 + R/2, H_2 = R/2"
    assert induced_quotient_homotopy(*lemma, top=2)[1].status == "pass"
    assert dict(name_path_calls) == {}


# -- the row contract ------------------------------------------------------------

def _breaks_the_row_contract(m, keys):
    """The first (key, row) of the map `m` among `keys` whose row repeats a
    key or has a zero coefficient, else None."""
    for key in keys:
        row = m.at(key)
        if len({k for k, _ in row}) < len(row) or any(c == 0 for _, c in row):
            return key, row
    return None


LAMBDA_CASES = [(name, ring) for name in ("lambda-s3", "lambda-s1-plus",
                                          "lambda-s1-minus")
                for ring in RINGS]


@pytest.mark.parametrize("name,ring", LAMBDA_CASES,
                         ids=[f"{n}-{r}" for n, r in LAMBDA_CASES])
def test_every_row_the_demo_reads_keeps_the_row_contract(name, ring):
    # `SideIds.row` interns a row as its set of terms: distinct keys and
    # no zero coefficient (the row contract of `GradedMap`)
    from chainalg.cone_product import closed_form_components
    from chainalg.graded import basis_keys

    inst = fx.make_fixture(name, fx.TruncationWindow(8), ring)
    data = cone_data_from_bialgebra(inst, 3 if name == "lambda-s3" else 1)
    maps = {"mu": inst.mu, "lam": inst.lam, "product": data.product,
            **{f"part {k}": op for k, op in block_parts(data).items()},
            **{f"component {k}": op
               for k, op in closed_form_components(data).items()}}
    rows = 0
    for label, m in maps.items():
        keys = basis_keys(m.source)
        assert _breaks_the_row_contract(m, keys) is None, label
        rows += len(keys)
    assert rows > 5_000
