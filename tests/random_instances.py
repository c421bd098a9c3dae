"""Seeded random bialgebra and cone packages for the property tests."""

import random

from chainalg.bialgebra import BialgebraData
from chainalg.complexes import ChainComplex
from chainalg.cone_product import ConeProductData
from chainalg.graded import (
    TENSOR_SEP,
    BasisElement,
    GradedMap,
    GradedModule,
    Vector,
    _sum_rows,
    _twisted,
    tensor,
    vector_terms,
)
from chainalg.rings import ZZ, Ring
from name_keyed import add, basis, degree_of, parts


def cyclic_symmetrize(t: Vector) -> Vector:
    """t + rot(t) + rot^2(t), rot the graded rotation
    x(x)y(x)z -> (-1)^{|z|(|x|+|y|)} z(x)x(x)y, by names; rot has order 3,
    so the sum is cyclically symmetric."""
    mod = t.module
    factor = mod.factors[0]

    def deg(n):
        return degree_of(factor, n)

    def rotate(v):
        out = {}
        for name, c in v.coeffs.items():
            x, y, z = parts(name)
            odd = deg(z) * (deg(x) + deg(y)) % 2
            out[TENSOR_SEP.join((z, x, y))] = -c if odd else c
        return Vector(mod, out)

    r1 = rotate(t)
    return add(add(t, r1), rotate(r1))


def make_random_instance(seed: int, size: int, degrees=(0, -1),
                         mu_degree: int = 0, lam_degree: int = -1,
                         ring: Ring = ZZ, kind: str = "bialgebra", n: int = 1):
    """Deterministic random instance; NOT required to satisfy any axiom.

    Always contains the degree-0 generator "e", used as the unit candidate.
    kind "bialgebra" returns BialgebraData; kind "cone" returns
    ConeProductData over the same module (operation degrees forced to the
    cone conventions for the given n, bivectors random rows but satisfying
    the construction invariants for d = 0).
    """
    if size > 64:
        raise ValueError("random instances are capped at 64 generators")
    if kind not in ("bialgebra", "cone"):
        raise ValueError("kind must be 'bialgebra' or 'cone'")
    if kind == "cone":
        mu_degree, lam_degree = 0, 1 - 2 * n
    rng = random.Random(seed)
    elements = [BasisElement("e", 0)]
    for i in range(size):
        elements.append(BasisElement(f"g{i}", rng.choice(list(degrees))))
    module = GradedModule(ring, elements, name=f"random({seed})")
    A2 = tensor(module, module)

    def random_value(target_degree):
        out = {}
        for e in module.basis():
            if e.degree == target_degree and rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    out[e.name] = c
        return Vector(module, out)

    def random_tensor_value(target_degree, density=0.3):
        out = {}
        for e1 in module.basis():
            for e2 in module.basis():
                if e1.degree + e2.degree == target_degree and rng.random() < density:
                    c = rng.randint(-2, 2)
                    if c:
                        out[f"{e1.name}{TENSOR_SEP}{e2.name}"] = c
        return Vector(A2, out)

    mu_table = {}
    for e in sorted(basis(A2), key=lambda b: b.name):
        mu_table[e.name] = random_value(e.degree + mu_degree)
    lam_table = {}
    for e in module.basis():
        lam_table[e.name] = random_tensor_value(e.degree + lam_degree)

    mu = GradedMap.from_table(A2, module, mu_degree, mu_table, name="mu")
    lam = GradedMap.from_table(module, A2, lam_degree, lam_table, name="lam")
    if kind == "bialgebra":
        return BialgebraData(module, mu, lam, vector_terms(module.el("e")),
                             name=f"random-{seed}")

    w = vector_terms(random_tensor_value(-2 * n, density=0.4))
    # c0 = w + tau w, so tau c0 = c0 and d Q0 = 0 suffices
    c0 = _sum_rows(ring, w, _twisted(w, module.index().odd, ring.neg).items())
    Q0 = vector_terms(random_tensor_value(1 - 2 * n, density=0.4))
    A3 = tensor(module, module, module)
    t = {}
    for e1 in module.basis():
        for e2 in module.basis():
            for e3 in module.basis():
                if e1.degree + e2.degree + e3.degree == 2 - 4 * n \
                        and rng.random() < 0.2:
                    c = rng.randint(-2, 2)
                    if c:
                        key = TENSOR_SEP.join((e1.name, e2.name, e3.name))
                        t[key] = c
    B = vector_terms(cyclic_symmetrize(Vector(A3, t)))
    return ConeProductData(ChainComplex(module), mu, lam, c0, Q0, B, n,
                           name=f"random-cone-{seed}")
