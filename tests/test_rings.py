from fractions import Fraction

import pytest

from chainalg.graded import BasisElement, GradedModule, Vector
from chainalg.rings import ZZ, QQ, GF

GF5 = GF(5)


def test_canon_returns_the_canonical_type():
    assert ZZ.canon(7) == 7 and type(ZZ.canon(7)) is int
    assert ZZ.canon(Fraction(6, 3)) == 2 and type(ZZ.canon(Fraction(6, 3))) is int
    assert QQ.canon(3) == 3 and type(QQ.canon(3)) is Fraction
    assert QQ.canon(Fraction(2, 4)) == Fraction(1, 2)
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
    assert QQ.parse("3") == 3 and type(QQ.parse("3")) is Fraction
    assert GF5.parse("1/2") == 3
