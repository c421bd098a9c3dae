import pytest

from chainalg.rings import ZZ, QQ, GF
from chainalg.graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Outcome,
    Vector,
    _signed_row,
    tensor,
    vector_terms,
    TENSOR_SEP,
)
from chainalg.bialgebra import (
    AXIOM_ORDER,
    BialgebraData,
    check_axioms,
    lambda_eta,
    check_involutivity,
    check_cc_implies_antisymmetry,
    check_loday_ronco,
    secondary_relation_apply,
    check_lemma_c_lambda_eta,
)
from chainalg.fixtures import (
    TruncationWindow,
    make_fixture,
    reverse_data_bivector,
    mutate_lambda,
    mutate_mu,
    mutation_targets,
)
from name_keyed import (
    format_vector,
    is_zero,
    named,
    neg,
    negated,
    row_vector,
    sub,
    zero,
)

W = TruncationWindow(12)


def negated_row(terms, ring):
    """The row `terms` negated."""
    return _signed_row(terms, True, ring.neg)


@pytest.fixture(scope="module")
def s3():
    return make_fixture("lambda-s3", W)


def test_all_axioms_pass_on_sphere(s3):
    rep = check_axioms(s3)
    assert [r for r in rep.results if r.status != "pass"] == []


def test_lambda_eta_values_match_closed_forms():
    A2 = lambda inst: tensor(inst.module, inst.module)

    def value(v):   # the outcome of a twist-symmetric lam(eta) = v
        return Outcome("pass", f"lam(eta) = {format_vector(v)}")

    inst = make_fixture("lambda-s3", W)
    assert lambda_eta(inst) == value(zero(A2(inst)))

    inst = make_fixture("omega-s3", W)
    assert lambda_eta(inst) == value(zero(A2(inst)))

    inst = make_fixture("lambda-s1-plus", W)
    expect = Vector(A2(inst), {f"A{TENSOR_SEP}1": 1, f"1{TENSOR_SEP}A": -1})
    assert lambda_eta(inst) == value(expect)

    inst = make_fixture("lambda-s1-minus", W)
    assert lambda_eta(inst) == value(neg(expect))

    inst = make_fixture("omega-s1-plus", W)
    one_one = Vector(A2(inst), {f"1{TENSOR_SEP}1": 1})
    assert lambda_eta(inst) == value(one_one)

    inst = make_fixture("omega-s1-minus", W)
    assert lambda_eta(inst) == value(neg(one_one))


def test_lambda_eta_twist_symmetry_all_fixtures():
    for name in ("lambda-s3", "lambda-s1-plus", "lambda-s1-minus",
                 "omega-s3", "omega-s1-plus", "omega-s1-minus"):
        assert lambda_eta(make_fixture(name, W)).status == "pass", name


def test_check_axioms_gives_one_outcome_per_axiom_in_order(s3):
    # what a reader of `check_axioms` (perfbench's tracer sums
    # results[*].inputs_checked) may rely on: one Outcome per axiom, the
    # i-th being AXIOM_ORDER[i]'s, each with its int input count
    results = check_axioms(s3).results
    assert len(results) == len(AXIOM_ORDER) == 6
    n = len(s3.safe_names)
    assert [r.inputs_checked for r in results] == [n, n, n ** 3, n,
                                                   n * n, n * n]
    for r in results:
        assert type(r) is Outcome and type(r.inputs_checked) is int
        assert (r.status, r.detail, r.witness) == \
            ("pass", f"{r.inputs_checked} inputs", None)
    # a failing axiom names its witness, and every axiom still runs
    bad = mutate_lambda(s3, "U^2", f"A{TENSOR_SEP}U")
    results = check_axioms(bad).results
    assert "skip" not in [r.status for r in results]
    r = results[4]
    assert r.status == "fail"
    assert type(r.inputs_checked) is int and r.witness[0] == f"U{TENSOR_SEP}U"
    assert r.detail == "witness {}: lhs = {}, rhs = {}".format(*r.witness)


def test_sign_flip_breaks_an_axiom_with_witness(s3):
    # flipping one sign in lam(U^2) must break the unital infinitesimal
    # relation, with the witness pinpointing U (x) U
    bad = mutate_lambda(s3, "U^2", f"A{TENSOR_SEP}U")
    rep = check_axioms(bad)
    assert not all(r.status == "pass" for r in rep.results)
    failed = [(a, r) for a, r in zip(AXIOM_ORDER, rep.results)
              if r.status != "pass"]
    uir = next(r for a, r in failed if "infinitesimal" in a)
    assert uir.witness[0] == f"U{TENSOR_SEP}U"
    assert uir.witness[1] and uir.witness[2]
    assert all(r.witness[0] for _, r in failed)


def test_involutivity_sphere_cases():
    assert check_involutivity(make_fixture("lambda-s3", W)).status == "pass"
    r = check_involutivity(make_fixture("omega-s3", W))
    assert r.status == "skip"
    assert "parity" in r.detail
    assert "raw values" in r.detail


def test_involutivity_mod_two_hypothesis():
    r = check_involutivity(make_fixture("lambda-s3", W, GF(2)))
    assert r.status == "skip"
    assert "2 = 0" in r.detail


def test_involutivity_free_loop_circle():
    # odd coproduct against the even product: mu lam = 0 on free loops
    assert check_involutivity(make_fixture("lambda-s1-plus", W)).status == "pass"
    assert check_involutivity(make_fixture("lambda-s1-minus", W)).status == "pass"


def test_cc_implies_antisymmetry():
    for inst in (make_fixture("lambda-s3", W), make_fixture("lambda-s1-plus", W),
                 # even-coproduct commutative cases reduce as well
                 make_fixture("omega-s3", W), make_fixture("omega-s1-minus", W)):
        assert check_cc_implies_antisymmetry(inst).status == "pass", inst.name


def test_cc_implies_antisymmetry_needs_cocommutativity():
    inst = _noncocommutative_instance()
    r = check_cc_implies_antisymmetry(inst)
    assert r == Outcome("skip", "lam is not cocommutative")
    assert not inst.is_cocommutative()
    # cocommutativity is decided on the safe elements only
    assert BialgebraData(inst.module, inst.mu, inst.lam, inst.eta,
                         safe_names=["g0", "g1"]).is_cocommutative()


def _table_instance(ring, degrees, products, coproducts, lam_degree, safe):
    """A unital instance on `degrees` ({name: degree}) with unit "e": mu
    and lam from {"x*y": {name: c}} and {name: {"x*y": c}} ("*" standing
    for the tensor sign), zero elsewhere."""
    A = GradedModule(ring, [BasisElement(n, k) for n, k in degrees.items()])
    A2 = tensor(A, A)
    table = {}
    for x in degrees:
        for y in degrees:
            unit = {y: 1} if x == "e" else {x: 1} if y == "e" else {}
            table[x + TENSOR_SEP + y] = Vector(
                A, products.get(f"{x}*{y}", unit))
    mu = GradedMap.from_table(A2, A, 0, table)
    lam = GradedMap.from_table(A, A2, lam_degree, {
        n: Vector(A2, {k.replace("*", TENSOR_SEP): c for k, c in v.items()})
        for n, v in coproducts.items()})
    return BialgebraData(A, mu, lam, vector_terms(A.el("e")), safe_names=safe)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
def test_involutivity_names_the_first_nonzero_mu_lam(ring):
    # the hypotheses hold on the safe window {e, f}; mu is not commutative
    # on the pair (a, b) outside it, so mu lam(f) = mu(a, b) - mu(b, a) = 3b
    inst = _table_instance(
        ring, {"e": 0, "f": 0, "a": 0, "b": 1}, {"a*b": {"b": 1}},
        {"f": {"a*b": 3, "b*a": -3}}, 1, ["e", "f"])
    r = check_involutivity(inst)
    assert r == Outcome("fail", "mu lam(f) = 3*b != 0")


# mu and lam commutative and cocommutative on the safe window {e, x} and
# satisfying the unital infinitesimal relation there, but not commutative
# outside it (u (x) x against x (x) u), so one side of the anti-symmetry
# does not reduce to lam mu; found by a seeded search of such tables
CC_SIDE_FAILURES = {
    "left": ({"x*x": {}, "x*u": {"u": 1}, "u*x": {"u": -1}, "u*u": {"x": -1}},
             {"x": {"u*u": 1}, "u": {"e*e": -1, "u*u": -1, "x*e": -1}}),
    "right": ({"x*x": {"x": 1}, "x*u": {"e": 1}, "u*x": {}, "u*u": {"u": 1}},
              {"e": {"u*u": 1}, "u": {"u*x": 1, "x*u": -1}}),
}


@pytest.mark.parametrize("side", sorted(CC_SIDE_FAILURES))
def test_cc_implies_antisymmetry_names_the_side_that_does_not_reduce(side):
    products, coproducts = CC_SIDE_FAILURES[side]
    inst = _table_instance(ZZ, {"e": 0, "x": 0, "u": 0}, products,
                           coproducts, 0, ["e", "x"])
    # unital infinitesimal
    assert check_axioms(inst).results[4].status == "pass"
    r = check_cc_implies_antisymmetry(inst)
    assert r == Outcome("fail",
                       f"{side} side does not reduce on x{TENSOR_SEP}x")


def _noncocommutative_instance():
    # lam(e) = g0 (x) g1 only: not cocommutative
    module = GradedModule(ZZ, [BasisElement("e", 0), BasisElement("g0", 1),
                               BasisElement("g1", 2)])
    A2 = tensor(module, module)
    mu_table = {}
    for x in module.basis():
        for y in module.basis():
            key = f"{x.name}{TENSOR_SEP}{y.name}"
            if x.name == "e":
                mu_table[key] = module.el(y.name)
            elif y.name == "e":
                mu_table[key] = module.el(x.name)
            else:
                mu_table[key] = zero(module)
    mu = GradedMap.from_table(A2, module, 0, mu_table)
    lam = GradedMap.from_table(module, A2, 3, {
        "e": Vector(A2, {f"g0{TENSOR_SEP}g1": 1}),
    })
    return BialgebraData(module, mu, lam, vector_terms(module.el("e")))


def test_noncommutative_instance_passes_axioms():
    # a path-algebra-like product with lam = 0 satisfies every axiom but is
    # not commutative: the engine must detect, never assume
    module = GradedModule(ZZ, [BasisElement(n, 0) for n in ("e", "a", "b", "c")])
    A2 = tensor(module, module)

    def prod(x, y):
        if x == "e":
            return module.el(y)
        if y == "e":
            return module.el(x)
        if (x, y) == ("a", "b"):
            return module.el("c")
        return zero(module)

    mu = GradedMap.from_table(A2, module, 0, {
        f"{x.name}{TENSOR_SEP}{y.name}": prod(x.name, y.name)
        for x in module.basis() for y in module.basis()
    })
    lam = GradedMap.zero(module, A2, -1)
    inst = BialgebraData(module, mu, lam, vector_terms(module.el("e")))
    assert all(r.status == "pass" for r in check_axioms(inst).results)
    assert not inst.is_commutative()
    assert inst.is_cocommutative()


def test_secondary_relation_on_circles():
    for prefix in ("lambda-s1", "omega-s1"):
        plus = make_fixture(f"{prefix}-plus", W)
        minus = make_fixture(f"{prefix}-minus", W)
        c = reverse_data_bivector(plus)
        rebuilt = secondary_relation_apply(plus.mu, plus.lam, c,
                                           negated_row(c, plus.module.ring))
        for n in plus.safe_names:
            assert rebuilt.eval_basis(n) == minus.lam.eval_basis(n), (prefix, n)


def test_secondary_relation_zero_bivector_is_identity():
    inst = make_fixture("lambda-s1-plus", W)
    out = secondary_relation_apply(inst.mu, inst.lam, (), ())
    for n in inst.safe_names:
        assert out.eval_basis(n) == inst.lam.eval_basis(n)


def test_secondary_relation_involutive():
    # applying the reverse-data relation twice with c then -c returns lam
    inst = make_fixture("lambda-s1-plus", W)
    c = reverse_data_bivector(inst)
    minus_c = negated_row(c, inst.module.ring)
    once = secondary_relation_apply(inst.mu, inst.lam, c, minus_c)
    twice = secondary_relation_apply(inst.mu, once, minus_c, c)
    for n in inst.safe_names:
        assert twice.eval_basis(n) == inst.lam.eval_basis(n)


def test_secondary_relation_degree_mismatch():
    inst = make_fixture("lambda-s1-plus", W)
    A2 = tensor(inst.module, inst.module)
    wrong = vector_terms(Vector(A2, {f"1{TENSOR_SEP}1": 1}))   # |lam| = -1
    with pytest.raises(ValueError, match="degree"):
        secondary_relation_apply(inst.mu, inst.lam, wrong,
                                 negated_row(wrong, A2.ring))


def test_continuation_bivector_gate():
    minus = make_fixture("lambda-s1-minus", W)
    # for the minus variant the reverse-data bivector equals lam_minus(eta)
    c = reverse_data_bivector(minus)
    equal = Outcome("pass", "supplied bivector equals lam(eta)")
    assert check_lemma_c_lambda_eta(c, minus) == equal
    plus = make_fixture("lambda-s1-plus", W)
    A2 = tensor(plus.module, plus.module)
    lam_eta = named(plus.lam)(row_vector(plus.module, plus.eta))
    difference = sub(row_vector(A2, c), lam_eta)
    assert not is_zero(difference)
    assert check_lemma_c_lambda_eta(c, plus) == Outcome(
        "fail", f"bivector differs from lam(eta) by {format_vector(difference)}")
    # on a lam(eta) = 0 instance only c = 0 passes
    s3 = make_fixture("lambda-s3", W)
    A2 = tensor(s3.module, s3.module)
    assert check_lemma_c_lambda_eta((), s3) == equal
    nonzero = vector_terms(Vector(A2, {f"A{TENSOR_SEP}1": 1}))
    assert check_lemma_c_lambda_eta(nonzero, s3).status == "fail"
    # a key that is not a pair of positions of A is refused, not read by
    # its positions (a negative one would wrap)
    size = len(s3.module.index().names)
    for key in ((0, size), (-1, 0), (0, 0, 0), 0):
        with pytest.raises(ValueError, match="is not a basis key"):
            check_lemma_c_lambda_eta(((key, 1),), s3)


def test_loday_ronco_on_based_circle():
    plus = make_fixture("omega-s1-plus", W)
    assert check_loday_ronco(plus).status == "pass"
    minus = make_fixture("omega-s1-minus", W)
    assert check_loday_ronco(minus).status == "pass"

    neg_minus = BialgebraData(minus.module, minus.mu,
                              negated(minus.lam).row_map(),
                              minus.eta, safe_names=minus.safe_names)
    assert check_loday_ronco(neg_minus).status == "pass"

    free = make_fixture("lambda-s1-plus", W)
    with pytest.raises(ValueError, match="even"):
        check_loday_ronco(free)
    s3_based = make_fixture("omega-s3", W)
    with pytest.raises(ValueError, match="eta"):
        check_loday_ronco(s3_based)


# Six one-constant mutants per fixture, drawn by random.Random(20).sample
# from mutation_targets at N = 8, over Z: (operation, input, output,
# inputs_checked, witness input, lhs, rhs) of the identity-coproduct form.
LODAY_RONCO_MUTANTS = {
    "omega-s1-plus": [
        ("lambda", "U^4", "U^3⊗U", 25, "U^2⊗U^2",
         "1⊗U^4 + U^2⊗U^2 - U^3⊗U + U^4⊗1 + U⊗U^3",
         "1⊗U^4 + U^2⊗U^2 + U^3⊗U + U^4⊗1 + U⊗U^3"),
        ("mu", "U⊗U^2", "U^3", 10, "U⊗U^2",
         "-1⊗U^3 - U^2⊗U - U^3⊗1 - U⊗U^2",
         "-1⊗U^3 + U^2⊗U - U^3⊗1 + U⊗U^2"),
        ("mu", "U^-2⊗U", "U^-1", 17, "U^-2⊗U", "0", "-2*U^-1⊗1"),
        ("lambda", "U^3", "U⊗U^2", 10, "U⊗U^2",
         "1⊗U^3 + U^2⊗U + U^3⊗1 - U⊗U^2",
         "1⊗U^3 + U^2⊗U + U^3⊗1 + U⊗U^2"),
        ("mu", "U⊗U", "U^2", 7, "U⊗U",
         "-1⊗U^2 - U^2⊗1 - U⊗U", "-1⊗U^2 - U^2⊗1 + U⊗U"),
        ("mu", "U^2⊗1", "U^2", 21, "U^2⊗1",
         "-1⊗U^2 - U^2⊗1 - U⊗U", "-1⊗U^2 - U^2⊗1 + U⊗U"),
    ],
    "omega-s1-minus": [
        ("lambda", "U^4", "U^2⊗U^2", 25, "U^2⊗U^2",
         "-U^2⊗U^2 + U^3⊗U + U⊗U^3", "U^2⊗U^2 + U^3⊗U + U⊗U^3"),
        ("mu", "U⊗U^2", "U^3", 10, "U⊗U^2",
         "-U^2⊗U - U⊗U^2", "U^2⊗U + U⊗U^2"),
        ("mu", "U^-2⊗U", "U^-1", 17, "U^-2⊗U",
         "1⊗U^-1 + U^-1⊗1", "1⊗U^-1 - U^-1⊗1"),
        ("lambda", "U^2", "U⊗U", 7, "U⊗U", "-U⊗U", "U⊗U"),
        ("mu", "U⊗U", "U^2", 7, "U⊗U", "-U⊗U", "U⊗U"),
        ("mu", "U^2⊗1", "U^2", 21, "U^2⊗1", "-U⊗U", "2*U^2⊗1 + U⊗U"),
    ],
}


@pytest.mark.parametrize("name", sorted(LODAY_RONCO_MUTANTS))
def test_loday_ronco_fails_on_one_constant_mutants(name):
    W8 = TruncationWindow(8)
    base = make_fixture(name, W8)
    assert check_loday_ronco(base).status == "pass"
    targets = set(mutation_targets(base, W8))
    for op, key, out, count, *witness in LODAY_RONCO_MUTANTS[name]:
        assert (op, key, out) in targets
        mutate = mutate_mu if op == "mu" else mutate_lambda
        r = check_loday_ronco(mutate(base, key, out))
        assert r.status != "pass", (op, key, out)
        assert (r.inputs_checked, *r.witness) == (count, *witness), \
            (op, key, out)


def test_unit_axiom_fails_without_unit():
    module = GradedModule(ZZ, [BasisElement("e", 0)])
    A2 = tensor(module, module)
    mu = GradedMap.zero(A2, module, 0)
    lam = GradedMap.zero(module, A2, -1)
    inst = BialgebraData(module, mu, lam, vector_terms(module.el("e")))
    rep = check_axioms(inst)
    assert not all(r.status == "pass" for r in rep.results)
    assert any("unit" in a and r.status != "pass"
               for a, r in zip(AXIOM_ORDER, rep.results))


def test_axioms_across_rings():
    for ring in (ZZ, QQ, GF(5)):
        inst = make_fixture("lambda-s3", TruncationWindow(6), ring)
        assert all(r.status == "pass"
                   for r in check_axioms(inst).results), ring


def test_chain_map_requirement_with_differential():
    module = GradedModule(ZZ, [BasisElement("e", 0), BasisElement("x", 1)])
    A2 = tensor(module, module)
    d = GradedMap.from_table(module, module, -1, {"x": module.el("e", 0)})
    mu_table = {}
    for a in module.basis():
        for b in module.basis():
            key = f"{a.name}{TENSOR_SEP}{b.name}"
            if a.name == "e":
                mu_table[key] = module.el(b.name)
            elif b.name == "e":
                mu_table[key] = module.el(a.name)
            else:
                mu_table[key] = zero(module)
    mu = GradedMap.from_table(A2, module, 0, mu_table)
    lam = GradedMap.zero(module, A2, -1)
    inst = BialgebraData(module, mu, lam, vector_terms(module.el("e")),
                         differential=d)
    assert all(r.status == "pass" for r in check_axioms(inst).results)

    # lam(x) = x (x) e with d(x) = e is not a chain map:
    # d2(x (x) e) = e (x) e but lam(d x) = lam(e) = 0
    bad_d = GradedMap.from_table(module, module, -1, {"x": module.el("e", 1)})
    bad_lam = GradedMap.from_table(module, A2, 0, {
        "x": Vector(A2, {f"x{TENSOR_SEP}e": 1}),
    })
    with pytest.raises(ValueError, match="chain map"):
        BialgebraData(module, mu, bad_lam, vector_terms(module.el("e")),
                      differential=bad_d)


def test_repeated_safe_or_window_name_raises():
    # a repeat would count its inputs twice: on omega-s3 at N = 8,
    # repeating "1" would check associativity on 64 inputs instead of 27
    inst = make_fixture("omega-s3", TruncationWindow(8))
    twice = list(inst.safe_names) + ["1"]
    with pytest.raises(ValueError, match="safe name '1' repeats"):
        BialgebraData(inst.module, inst.mu, inst.lam, inst.eta,
                      safe_names=twice)
