import ast
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chainalg
from chainalg.graded import BasisElement, GradedModule, Vector
from chainalg.rings import ZZ, QQ, GF, Ring, ring_from_name

GF5 = GF(5)


def test_canon_returns_the_canonical_type():
    assert ZZ.canon(7) == 7 and type(ZZ.canon(7)) is int
    assert ZZ.canon(Fraction(6, 3)) == 2 and type(ZZ.canon(Fraction(6, 3))) is int
    # over Q an integral value is an int, any other a Fraction in lowest terms
    assert QQ.canon(3) == 3 and type(QQ.canon(3)) is int
    assert QQ.canon(Fraction(6, 3)) == 2 and type(QQ.canon(Fraction(6, 3))) is int
    half = QQ.canon(Fraction(2, 4))
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert half.denominator == 2
    assert GF5.canon(-1) == 4
    assert GF5.canon(Fraction(1, 2)) == 3
    with pytest.raises(ValueError):
        ZZ.canon(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        GF5.canon(Fraction(1, 5))


def test_canon_accepts_int_and_fraction_subclasses():
    class Small(int):
        pass

    class Half(Fraction):
        pass

    assert type(ZZ.canon(Small(3))) is int
    assert GF5.canon(Small(7)) == 2
    assert type(QQ.canon(Half(1, 2))) is Fraction
    assert QQ.canon(Half(1, 2)) == Fraction(1, 2)


def test_canon_rejects_float_over_z():
    with pytest.raises(TypeError):
        ZZ.canon(2.5)


def test_canon_rejects_float_over_gf5():
    with pytest.raises(TypeError):
        GF5.canon(2.5)


def test_canon_rejects_float_over_q():
    with pytest.raises(TypeError):
        QQ.canon(0.5)


def test_el_rejects_float_coefficient():
    module = GradedModule(ZZ, [BasisElement("e", 0)])
    with pytest.raises(TypeError):
        module.el("e", 0.9)
    with pytest.raises(TypeError):
        Vector(module, {"e": 0.9})


def test_canon_rejects_bool():
    with pytest.raises(TypeError):
        ZZ.canon(True)
    with pytest.raises(TypeError):
        GF5.canon(False)


def test_canon_rejects_strings():
    with pytest.raises(TypeError):
        QQ.canon("3")
    with pytest.raises(TypeError):
        ZZ.canon("3")
    assert QQ.parse("3") == 3 and type(QQ.parse("3")) is int
    assert QQ.parse("1/2") == Fraction(1, 2) and type(QQ.parse("1/2")) is Fraction
    assert GF5.parse("1/2") == 3


# -- Q in canonical form: int when integral, else Fraction ---------------------

def assert_canonical_q(c):
    assert not isinstance(c, float)
    if c.denominator == 1:
        assert type(c) is int
    else:
        assert type(c) is Fraction and c.denominator > 1


def test_q_canonical_form_cases():
    class Whole(Fraction):
        pass

    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(1) == 1 and type(QQ.inv(1)) is int
    assert QQ.div(3, 3) == 1 and type(QQ.div(3, 3)) is int
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert type(QQ.canon(Whole(4, 2))) is int and QQ.canon(Whole(4, 2)) == 2
    assert type(QQ.one()) is int and type(QQ.zero()) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert QQ.format(Fraction(-3, 4)) == "-3/4" and QQ.format(5) == "5"
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


_small_q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_Q_OPS = ("add", "sub", "mul", "neg", "inv", "div", "canon", "parse")


@settings(max_examples=300, deadline=None)
@given(start=_small_q,
       steps=st.lists(st.tuples(st.sampled_from(_Q_OPS), _small_q), max_size=12))
def test_q_arithmetic_matches_fraction_reference(start, steps):
    """Each step's value equals plain Fraction arithmetic and is canonical."""
    c, ref = QQ.canon(start), start
    assert c == ref
    assert_canonical_q(c)
    for op, x in steps:
        y = QQ.canon(x)
        if op == "add":
            c, ref = QQ.add(c, y), ref + x
        elif op == "sub":
            c, ref = QQ.sub(c, y), ref - x
        elif op == "mul":
            c, ref = QQ.mul(c, y), ref * x
        elif op == "neg":
            c, ref = QQ.neg(c), -ref
        elif op == "inv":
            if ref == 0:
                with pytest.raises(ZeroDivisionError):
                    QQ.inv(c)
                continue
            c, ref = QQ.inv(c), 1 / ref
        elif op == "div":
            if x == 0:
                with pytest.raises(ZeroDivisionError):
                    QQ.div(c, y)
                continue
            c, ref = QQ.div(c, y), ref / x
        elif op == "canon":
            assert QQ.canon(ref) == ref
            assert_canonical_q(QQ.canon(ref))
            c = QQ.canon(c)
        else:
            c = QQ.parse(QQ.format(c))
        assert c == ref
        assert_canonical_q(c)


# -- Z and GF(p): the operations bound at construction ----------------------

@pytest.mark.parametrize("ring", [ZZ, QQ, GF5], ids=repr)
def test_division_by_zero_raises_zero_division_error(ring):
    with pytest.raises(ZeroDivisionError):
        ring.div(ring.one(), ring.zero())
    if ring.is_field:
        with pytest.raises(ZeroDivisionError):
            ring.inv(ring.zero())


_INT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_big = st.integers(-10 ** 12, 10 ** 12)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((None, 2, 5, 2 ** 31 - 1)), start=_big,
       steps=st.lists(st.tuples(st.sampled_from(("add", "sub", "mul", "neg")),
                                _big), max_size=12))
def test_bound_operations_match_integer_reference(p, start, steps):
    """Over Z (p None) and GF(p) each step equals plain int arithmetic,
    reduced mod p, and is an int; a separately built equal ring gives the
    same results."""
    R, twin = (ZZ, Ring(Ring.INT)) if p is None else (GF(p), GF(p))
    assert twin == R and hash(twin) == hash(R)
    c, ref = R.canon(start), start
    for op, x in steps:
        y = R.canon(x)
        if op == "neg":
            c, again, ref = R.neg(c), twin.neg(c), -ref
        else:
            c, again, ref = (getattr(R, op)(c, y), getattr(twin, op)(c, y),
                             _INT_OPS[op](ref, x))
        assert type(c) is int and c == again
        assert c == ref if p is None else 0 <= c < p and c == ref % p


# -- ring names ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["GF(x)", "GF(two)", "GF()", "GF(2.5)"])
def test_a_modulus_that_is_not_an_integer_is_an_unknown_ring(name):
    with pytest.raises(ValueError) as ei:
        ring_from_name(name)
    assert str(ei.value) == \
        f"unknown ring {name!r} (expected Z, Q, or GF(p))"


# -- no true division on ring values -------------------------------------------

def _true_divisions():
    """(module, enclosing class/function path, line) of every `/` or `/=`."""
    found = []

    def visit(node, scope, path):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(getattr(node, "op", None), ast.Div):
            found.append((path.name, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(Path(chainalg.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), (), path)
    return found


def test_true_division_only_in_ring_inv():
    # an int / int on two Q values would silently give a float
    found = _true_divisions()
    assert [(m, s) for m, s, _ in found] == [("rings.py", "Ring.inv")], found
