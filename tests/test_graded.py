import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chainalg
from chainalg.rings import ZZ, QQ, GF
from chainalg.graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Vector,
    tensor,
    shift,
    shift_map,
    dual_module,
    dual_map,
    TENSOR_SEP,
    basis_keys,
    format_row,
    terms_degree,
    vector_terms,
)
from name_keyed import (
    add,
    apply_op_shift,
    basis,
    basis_in_degree,
    basis_names,
    degree,
    degree_of,
    dual_pair,
    format_vector,
    identity,
    is_zero,
    is_zero_map,
    named,
    neg,
    parts,
    scale,
    scaled,
    sub,
    tensor_map,
    tensor_values,
    twist,
    unapply_op_shift,
    zero,
)


def small_module(ring=ZZ, degrees=(0, 1, 2, -1)):
    return GradedModule(ring, [BasisElement(f"x{i}", d)
                               for i, d in enumerate(degrees)])


def random_map(rng, source, target, degree, ring=ZZ):
    table = {}
    for e in basis(source):
        out = {}
        for t in target.basis():
            if t.degree == e.degree + degree:
                c = rng.randint(-2, 2)
                if c:
                    out[t.name] = c
        table[e.name] = Vector(target, out)
    return GradedMap.from_table(source, target, degree, table)


def test_identity_tensor_identity():
    M = small_module()
    one = identity(M)
    both = tensor_map(one, one)
    M2 = tensor(M, M)
    for e in basis(M2):
        assert both.eval_basis(e.name) == M2.el(e.name)


def test_tensor_map_koszul_sign():
    # |g| = 1 and |x| = 1 forces (f (x) g)(x (x) y) = -f(x) (x) g(y)
    M = GradedModule(ZZ, [BasisElement("x", 1), BasisElement("y", 2)])
    f = identity(M)
    g = random_map(random.Random(0), M, M, 1)
    fg = tensor_map(f, g)
    v = fg.eval_basis(f"x{TENSOR_SEP}x")
    expected = neg(tensor_values(M.el("x"), g.eval_basis("x")))
    assert v == expected


def test_tensor_interchange_law():
    # (f (x) g)(f' (x) g') = (-1)^{|g||f'|} (ff' (x) gg') on random maps
    rng = random.Random(42)
    M = small_module()
    for _ in range(25):
        df, dg, dfp, dgp = (rng.randint(-2, 2) for _ in range(4))
        f = random_map(rng, M, M, df)
        g = random_map(rng, M, M, dg)
        fp = random_map(rng, M, M, dfp)
        gp = random_map(rng, M, M, dgp)
        lhs = tensor_map(fp, gp).then(tensor_map(f, g))
        sign = -1 if (dg % 2) and (dfp % 2) else 1
        rhs = scaled(tensor_map(named(fp).then(f), named(gp).then(g)), sign)
        M2 = tensor(M, M)
        for e in basis(M2):
            assert lhs.eval_basis(e.name) == rhs.eval_basis(e.name), e.name


def test_twist_signs_and_involution():
    M = small_module()
    N = small_module()
    t = twist(M, N)
    for e in basis(tensor(M, N)):
        a, b = parts(e.name)
        da, db = degree_of(M, a), degree_of(N, b)
        v = t.eval_basis(e.name)
        sign = -1 if (da % 2) and (db % 2) else 1
        assert v == tensor(N, M).el(f"{b}{TENSOR_SEP}{a}", sign)
    # tau . tau = id
    back = t.then(twist(N, M))
    for e in basis(tensor(M, N)):
        assert back.eval_basis(e.name) == tensor(M, N).el(e.name)


def test_twist_is_chain_map_for_tensor_differential():
    rng = random.Random(5)
    M = small_module()
    # build a differential-like degree -1 map with d^2 = 0 (nilpotent by
    # grading: route everything to one lowest generator)
    d = random_map(rng, M, M, -1)
    one = identity(M)
    dM2 = tensor_map(d, one) + tensor_map(one, d)
    t = twist(M, M)
    lhs = t.then(dM2)
    rhs = dM2.then(t)
    for e in basis(tensor(M, M)):
        assert lhs.eval_basis(e.name) == rhs.eval_basis(e.name)


def test_shift_conventions():
    M = small_module()
    assert shift(M, 0) is M
    S = shift(M, 3)
    for e in M.basis():
        assert degree_of(S, e.name) == e.degree - 3
    back = shift(S, -3)
    assert back == M


def test_shift_map_sign():
    rng = random.Random(9)
    for deg in (-1, 0, 1, 2):
        M = small_module()
        f = random_map(rng, M, M, deg)
        for k in (-2, -1, 1, 2):
            fk = shift_map(f, k)
            sign = -1 if (deg % 2) and (k % 2) else 1
            for e in M.basis():
                shifted = fk.eval_basis(e.name)
                plain = f.eval_basis(e.name)
                assert shifted.coeffs == scale(plain, sign).coeffs


def test_dual_basis_pairing():
    M = small_module()
    D = dual_module(M)
    for e in M.basis():
        for t in M.basis():
            val = dual_pair(D.el(e.name + "^"), M.el(t.name))
            assert val == (1 if e.name == t.name else 0)
    # dual of the zero map is zero
    z = GradedMap.zero(M, M, 1)
    dz = dual_map(z)
    assert is_zero_map(dz)


def test_dual_map_pairing_identity():
    rng = random.Random(21)
    M = small_module()
    N = small_module(degrees=(0, 1, -2))
    for deg in (-1, 0, 1):
        f = random_map(rng, M, N, deg)
        fd = dual_map(f)
        for phi in dual_module(N).basis():
            for x in M.basis():
                lhs = dual_pair(fd.eval_basis(phi.name), M.el(x.name))
                sign = -1 if (phi.degree % 2) and (deg % 2) else 1
                rhs = dual_pair(dual_module(N).el(phi.name),
                                f.eval_basis(x.name))
                assert lhs == (rhs if sign == 1 else -rhs)


def test_dual_of_composition():
    # (f . g)^v = (-1)^{|f||g|} g^v . f^v
    rng = random.Random(33)
    M = small_module()
    for df in (-1, 0, 1, 2):
        for dg in (-1, 0, 1):
            f = random_map(rng, M, M, df)
            g = random_map(rng, M, M, dg)
            lhs = dual_map(named(g).then(f).row_map())
            sign = -1 if (df % 2) and (dg % 2) else 1
            rhs = scaled(named(dual_map(f)).then(dual_map(g)), sign)
            for e in dual_module(M).basis():
                assert lhs.eval_basis(e.name) == rhs.eval_basis(e.name)


def test_double_dual_is_identity():
    M = small_module()
    DD = dual_module(dual_module(M))
    for e in M.basis():
        assert degree_of(DD, e.name + "^^") == e.degree


def test_op_shift_round_trip():
    rng = random.Random(8)
    M = small_module()
    M2 = tensor(M, M)
    op = random_map(rng, M2, M, 1)
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                barred = unapply_op_shift(op, i, j, k)
                back = apply_op_shift(barred, i, j, k)
                assert back.source == op.source
                assert back.target == op.target
                for e in basis(M2):
                    assert back.eval_basis(e.name) == op.eval_basis(e.name)


def test_op_shift_identity_transformation():
    rng = random.Random(4)
    M = small_module()
    op = random_map(rng, tensor(M, M), M, 0)
    same = apply_op_shift(op, 0, 0, 0)
    for e in basis(tensor(M, M)):
        assert same.eval_basis(e.name) == op.eval_basis(e.name)


def test_degree_bookkeeping_everywhere():
    rng = random.Random(77)
    M = small_module()
    for deg in (-2, -1, 0, 1):
        f = random_map(rng, M, M, deg)
        for e in M.basis():
            v = f.eval_basis(e.name)
            if not is_zero(v):
                assert degree(v) == e.degree + deg


def test_vector_algebra():
    M = small_module(QQ)
    v = add(scale(M.el("x0"), QQ.parse("1")), M.el("x1"))
    with pytest.raises(TypeError):
        scale(M.el("x0"), "1")  # text goes through Ring.parse only
    w = sub(v, M.el("x1"))
    assert w == M.el("x0")
    assert is_zero(add(neg(w), w))
    with pytest.raises(ValueError):
        degree(v)  # mixed degrees


def test_module_name_validation():
    with pytest.raises(ValueError):
        GradedModule(ZZ, [BasisElement("a", 0), BasisElement("a", 1)])
    with pytest.raises(ValueError):
        GradedModule(ZZ, [BasisElement(f"a{TENSOR_SEP}b", 0)])


def test_terms_degree_reads_each_key_off_its_positions():
    # x0 of degree 0, x1 and x2 of degree 1, at positions 0, 1 and 2
    M = GradedModule(ZZ, [BasisElement("x0", 0), BasisElement("x1", 1),
                          BasisElement("x2", 1)])
    M2 = tensor(M, M)
    assert terms_degree(M, ()) is None
    assert terms_degree(M, ((1, 1), (2, -1))) == 1
    assert terms_degree(M2, (((0, 1), 1), ((2, 0), 2))) == 1
    # a tensor key's degree sums its factors': these two keys share the
    # degree of their first factor
    with pytest.raises(ValueError) as err:
        terms_degree(M2, (((1, 0), 1), ((1, 2), 1)))
    assert str(err.value) == "inhomogeneous vector with degrees [1, 2]"
    with pytest.raises(ValueError, match=r"degrees \[0, 1\]$"):
        terms_degree(M, ((0, 1), (1, 1)))
    # a key outside the positions is refused, never read by a wrapping
    # negative index or past the end
    for module, key in ((M, 3), (M, -1), (M, (0,)), (M, True), (M, 1.0),
                        (M2, (0, 3)), (M2, (-1, 0)), (M2, (0, 0, 0)),
                        (M2, 0), (M2, [0, 0])):
        with pytest.raises(ValueError, match="is not a basis key"):
            terms_degree(module, ((key, 1),))


def test_from_table_rejects_values_outside_target():
    M = small_module()
    N = small_module(degrees=(0,))
    with pytest.raises(ValueError, match="does not live in the target"):
        GradedMap.from_table(M, M, 0, {"x0": N.el("x0")})
    with pytest.raises(ValueError, match="does not live in the target"):
        GradedMap.from_table(M, M, 0, {"x0": 0})
    with pytest.raises(ValueError, match="has degree 1, expected 0"):
        GradedMap.from_table(M, M, 0, {"x0": M.el("x1")})
    with pytest.raises(KeyError):
        GradedMap.from_table(M, M, 0, {"nope": M.el("x0")})


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
def test_from_table_rows_are_the_terms_of_the_values(ring):
    # unary and binary sources, atomic and tensor targets: each row is keyed
    # as GradedMap.row keys it (a position in an atomic target, a tuple of
    # positions in a tensor one) and equals vector_terms of its value; a
    # name the table leaves out has the empty row
    rng = random.Random(repr(ring))
    M = small_module(ring)
    M2 = tensor(M, M)
    for source, target in ((M, M), (M, M2), (M2, M), (M2, M2)):
        for degree in (-1, 0, 1):
            table = {e.name: Vector(target, {
                         t.name: Fraction(rng.randint(-3, 3),
                                          1 if ring == ZZ else rng.randint(1, 3))
                         for t in basis_in_degree(target, e.degree + degree)})
                     for e in basis(source) if rng.random() < 0.8}
            f = GradedMap.from_table(source, target, degree, table)
            for name, key in zip(basis_names(source), basis_keys(source)):
                want = vector_terms(table.get(name, zero(target)))
                assert f.at(key) == want, (name, degree)
                assert f.eval_basis(name) == table.get(name, zero(target))


def test_a_source_of_arity_three_is_rejected_at_construction():
    M = small_module()
    M3 = tensor(M, M, M)
    with pytest.raises(ValueError, match="unary or binary"):
        GradedMap.from_table(M3, M, 0, {})
    with pytest.raises(ValueError, match="unary or binary"):
        GradedMap(M3, M, 0, lambda *k: ())


_OPTIMIZED_CHECKS = """
import sys
if __debug__:
    sys.exit("python -O is not in effect")
from fractions import Fraction
from chainalg.rings import ZZ, QQ
from chainalg.graded import BasisElement, GradedModule, GradedMap, Vector
from chainalg.fixtures import _parse_name
from chainalg.scenario import SchemaError, ingest
from chainalg.complexes import ChainComplex, ChainMap
from chainalg.graded import tensor
from chainalg.matrices import DimensionError, ImageSolver
from chainalg.bialgebra import BialgebraData
from chainalg.report import records
M = GradedModule(ZZ, [BasisElement("x", 0)])
C = GradedModule(ZZ, [BasisElement(n, k) for k, n in enumerate("abc")])
d = GradedMap.from_table(C, C, -1, {"b": C.el("a"), "c": C.el("b")})
P = ChainComplex(C, GradedMap.from_table(C, C, -1, {"b": C.el("a")}))
not_chain = GradedMap.from_table(C, C, 0, {"a": C.el("a")})
N = GradedModule(ZZ, [BasisElement("y", 0)])
def scenario(out):
    return {"schema_version": 1, "kind": "bialgebra", "ring": "Z",
            "module": {"basis": [{"name": "e", "degree": 0},
                                 {"name": "x", "degree": 1}]},
            "mu": {"degree": 0, "entries": [{"in": ["e", "e"], "out": out}]},
            "lambda": {"degree": -1, "entries": []}, "eta": [["1", "e"]]}
def continuation(pair):   # the continuation-vanishes check, c(m) = 2a
    doc = {"schema_version": 1, "kind": "complex", "ring": "Z",
           "module": {"basis": [{"name": "a", "degree": 0}]},
           "differential": {"degree": -1, "entries": []},
           "checks": ["continuation-vanishes"]}
    if pair:
        doc["pair"] = {
            "module": {"basis": [{"name": "m", "degree": 0}]},
            "differential": {"degree": -1, "entries": []},
            "map": {"degree": 0,
                    "entries": [{"in": ["m"], "out": [["2", "a"]]}]}}
    return doc
def secondary():   # s(m) = b with d(b) = a, so [d, s](m) = a
    doc = continuation(True)
    doc["module"]["basis"].append({"name": "b", "degree": 1})
    doc["differential"]["entries"] = [{"in": ["b"], "out": [["1", "a"]]}]
    doc["pair"]["secondary"] = {
        "degree": 1, "entries": [{"in": ["m"], "out": [["1", "b"]]}]}
    return doc
E = GradedModule(ZZ, [BasisElement("e", 0), BasisElement("x", 1)])
E2 = tensor(E, E)
# mu(e (x) e) = e and 0 elsewhere, d(x) = e: mu d2(e (x) x) = e, d mu = 0
not_chain_mu = lambda: BialgebraData(
    E, GradedMap.from_table(E2, E, 0, {"e\u2297e": E.el("e")}),
    GradedMap.zero(E, E2, 0), ((0, 1),),
    differential=GradedMap.from_table(E, E, -1, {"x": E.el("e")}))
for label, call, error in (
        ("target", lambda: GradedMap.from_table(M, M, 0, {"x": N.el("y")}),
         ValueError),
        ("degree", lambda: GradedMap.from_table(M, M, 1, {"x": M.el("x")}),
         ValueError),
        ("arity", lambda: GradedMap.zero(tensor(M, M, M), M, 0), ValueError),
        ("name", lambda: _parse_name("AxU^3"), ValueError),
        ("name", lambda: _parse_name("V^5"), ValueError),
        ("float", lambda: ZZ.canon(2.5), TypeError),
        ("float", lambda: QQ.canon(0.5), TypeError),
        ("vector", lambda: Vector(M, {"nope": 1}), KeyError),
        ("table", lambda: GradedMap.from_table(M, M, 0, {"nope": M.el("x")}),
         KeyError),
        ("scenario", lambda: ingest(scenario([["1", "e"], ["1", "x"]])),
         SchemaError),
        ("scenario", lambda: ingest(scenario([["1", "ghost"]])),
         SchemaError),
        ("d*d", lambda: ChainComplex(C, d), ValueError),
        ("chain map", lambda: ChainMap(P, P, not_chain), ValueError),
        ("rows", lambda: ImageSolver(ZZ, 2, [{5: 1}]), DimensionError),
        ("safe", lambda: BialgebraData(
            M, GradedMap.zero(tensor(M, M), M, 0),
            GradedMap.zero(M, tensor(M, M), 0), ((0, 1),),
            safe_names=["x", "x"]), ValueError),
        ("terms", lambda: BialgebraData(
            M, GradedMap.zero(tensor(M, M), M, 0),
            GradedMap.zero(M, tensor(M, M), 0), ((1, 1),)), ValueError),
        ("pair", lambda: ingest(continuation(False)), SchemaError),
        ("mu chain map", not_chain_mu, ValueError),
        ("secondary", lambda: ingest(secondary()), SchemaError)):
    try:
        call()
    except error:
        print(label, "raised")
    else:
        sys.exit(label + " check did not run")
half = QQ.inv(2)
if half != Fraction(1, 2) or type(half) is not Fraction:
    sys.exit(f"QQ.inv(2) is {half!r}")
print("inverse exact")
scn = ingest(continuation(True))
for rec in records(scn, scn.checks, "", False):
    print(rec.id, rec.status, rec.detail)
"""


# a non-associative cone product and an assoc-infinitesimal package with one
# closed-form entry negated: each check must fail with its witness
_CONE_FAILURES = """
from chainalg.fixtures import (TruncationWindow, flip_structure_constant,
                               make_fixture)
from chainalg.graded import Outcome
from chainalg.cone_product import (
    check_assoc_implies_infinitesimal, check_cone_associativity,
    cone_data_from_bialgebra)
def show(label, out):
    print(label, out.status, out.detail)
data = cone_data_from_bialgebra(
    make_fixture("lambda-s1-plus", TruncationWindow(8)), n=1)
data.product = flip_structure_constant(data.product, "+U\u2297+U", "+U^2")
show("cone associativity", check_cone_associativity(data))
comps = data.components
comps["pm_p"] = flip_structure_constant(comps["pm_p"], "U^2\u2297U^2^", "A")
# the precondition, read from the package, is met without computing it
data.associativity = Outcome("pass", "associative on the safe window")
show("assoc-infinitesimal", check_assoc_implies_infinitesimal(data))
"""


def test_correctness_checks_survive_python_O():
    src = Path(chainalg.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-O", "-c",
                        _OPTIMIZED_CHECKS + _CONE_FAILURES],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:23] == [
        "target raised", "degree raised", "arity raised", "name raised",
        "name raised",
        "float raised", "float raised", "vector raised", "table raised",
        "scenario raised", "scenario raised", "d*d raised",
        "chain map raised", "rows raised", "safe raised", "terms raised",
        "pair raised",
        "mu chain map raised", "secondary raised", "inverse exact",
        "continuation-vanishes fail c(m) = 2*a",
        "cone associativity fail +A(x)+U(x)+U: +A*U^2 vs -+A*U^2",
        "assoc-infinitesimal fail fails at a=U, b=U, f=U^2^: 2*A vs 0"]


def test_format_vector_parenthesises_names_that_begin_with_a_minus():
    # cone names: "+x" for the target part, "-x" for the shifted source
    C = GradedModule(ZZ, [BasisElement("+A", 0), BasisElement("-1^", 0),
                         BasisElement("x", 0)])
    assert format_vector(Vector(C, {"+A": 1, "-1^": 1})) == "+A + (-1^)"
    assert format_vector(Vector(C, {"+A": 4, "-1^": 1})) == "4*+A + (-1^)"
    assert format_vector(Vector(C, {"-1^": 1})) == "(-1^)"
    assert format_vector(Vector(C, {"-1^": -1})) == "-(-1^)"
    assert format_vector(Vector(C, {"+A": 1, "-1^": -1})) == "+A - (-1^)"
    assert format_vector(Vector(C, {"-1^": 2, "x": 1})) == "2*(-1^) + x"
    # other names print as before
    assert format_vector(Vector(C, {"+A": -1, "x": -1})) == "-+A - x"
    assert format_vector(Vector(C, {"x": 3})) == "3*x"
    assert format_vector(zero(C)) == "0"


def test_format_row_writes_a_row_as_the_named_vector_text():
    # the text `format_vector` gave a row read back by names: terms in name
    # order, not key order, "-" names parenthesised, zero terms dropped
    for ring, texts in (
            (QQ, ["-+1 + (-U^2^)", "2*+1 + 4*+A - 3/2*x", "0", "0",
                  "3*(-1^) - (-U^2^)",
                  "-+1⊗-U^2^ + 2*(-U^2^⊗+1) + 1/3*x⊗+A"]),
            (GF(5), ["4*+1 + (-U^2^)", "2*+1 + 4*+A + x", "0", "0",
                     "3*(-1^) + 4*(-U^2^)",
                     "4*+1⊗-U^2^ + 2*(-U^2^⊗+1) + 2*x⊗+A"])):
        C = GradedModule(ring, [BasisElement(n, d) for n, d in (
            ("+A", 0), ("-1^", 1), ("x", 0), ("-U^2^", -1), ("+1", 0))],
            name="C")
        assert C.index().names == ("-U^2^", "+1", "+A", "x", "-1^")
        rows = [((0, 1), (1, -1)), ((1, 2), (3, Fraction(-3, 2)), (2, 4)),
                (), ((4, 0),), ((0, -1), (4, 3))]
        tensor_row = (((0, 1), 2), ((1, 0), -1), ((3, 2), Fraction(1, 3)),
                      ((2, 2), 0))
        got = [format_row(C, [(k, ring.canon(c)) for k, c in row])
               for row in rows]
        got.append(format_row(tensor(C, C), [(k, ring.canon(c))
                                             for k, c in tensor_row]))
        assert got == texts


def test_basis_keys_of_tensor_powers_follow_the_name_order():
    # each factor's positions are in (degree, name) order, but joined names
    # sort otherwise: "U^2⊗x" comes before "U⊗x", as "^" < "⊗"
    A = GradedModule(ZZ, [BasisElement(n, d) for n, d in (
        ("U", 0), ("U^2", 0), ("x", 1), ("a", 1), ("b", 2))], name="a")
    pos, deg = A.index().pos, A.index().degree
    for T in (tensor(A, A), tensor(A, A, A)):
        keys = basis_keys(T)
        assert keys == [tuple(pos[p] for p in parts(e.name))
                        for e in basis(T)]
        assert keys != sorted(keys, key=lambda k: (sum(deg[x] for x in k), k))
        # given keys come back in the same order
        assert basis_keys(T, keys[::-2]) == keys[::-2][::-1]
