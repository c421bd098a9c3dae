"""The name-keyed map algebra, kept as the tests' reference.

The library's maps are row maps on basis positions.  The tests compare them
with maps built here by names: a `NameMap` is given by a function from basis
names to Vectors, memoized per name, and composes with `then`, `+` and `-`;
`tensor_map` and `twist` carry the Koszul signs of the `chainalg.graded`
docstring.  Every function here reads its arguments only through `source`,
`target`, `degree`, `name` and `eval_basis`, or by calling them on a
Vector, so a library `GradedMap` may stand wherever a map is expected
(`named` wraps one to compose it).  `NameMap.row_map` turns a reference with
a source of arity <= 2 into a library map, by `GradedMap.from_table` over
the source basis; references of arity 3, such as mu (mu (x) 1), stay
name-keyed.  `operation_to_json` is the exporter that read every table by
names, kept as the reference of the one that reads rows.
"""

from chainalg.graded import TENSOR_SEP, GradedMap, GradedModule, Vector, tensor
from chainalg.scenario import _combo_to_json


class NameMap:
    """Homogeneous map given by a function from basis names to Vectors."""

    def __init__(self, source, target, degree, fn, name=""):
        self.source = source
        self.target = target
        self.degree = degree
        self.name = name
        self._fn = fn
        self._memo = {}

    def eval_basis(self, name: str) -> Vector:
        v = self._memo.get(name)
        if v is None:
            v = self._memo[name] = self._fn(name)
        return v

    def __call__(self, x: Vector) -> Vector:
        out = self.target.zero()
        for name, c in x.coeffs.items():
            out = out + self.eval_basis(name).scale(c)
        return out

    def then(self, g) -> "NameMap":
        """g after self."""
        if g.source != self.target:
            raise ValueError("maps are not composable")
        return NameMap(self.source, g.target, self.degree + g.degree,
                       lambda n: g(self.eval_basis(n)),
                       name=f"({g.name}after{self.name})")

    def __add__(self, other) -> "NameMap":
        _same_signature(self, other)
        return NameMap(self.source, self.target, self.degree,
                       lambda n: self.eval_basis(n) + other.eval_basis(n))

    def __sub__(self, other) -> "NameMap":
        _same_signature(self, other)
        return NameMap(self.source, self.target, self.degree,
                       lambda n: self.eval_basis(n) - other.eval_basis(n))

    def row_map(self) -> GradedMap:
        """This map as a library row map, checked by `from_table`."""
        return GradedMap.from_table(
            self.source, self.target, self.degree,
            {n: self.eval_basis(n) for n in self.source.basis_names()},
            self.name)


def _same_signature(f, g):
    if (f.source != g.source or f.target != g.target
            or f.degree != g.degree):
        raise ValueError("maps have different signatures")


def named(f) -> NameMap:
    """f, read by names, as a NameMap that composes."""
    return NameMap(f.source, f.target, f.degree, f.eval_basis, f.name)


def is_zero_map(f) -> bool:
    return all(f.eval_basis(n).is_zero() for n in f.source.basis_names())


def scaled(f, c) -> NameMap:
    """c * f."""
    return NameMap(f.source, f.target, f.degree,
                   lambda n: f.eval_basis(n).scale(c))


def negated(f) -> NameMap:
    """-f."""
    return NameMap(f.source, f.target, f.degree, lambda n: -f.eval_basis(n))


def tensor_map(f, g) -> NameMap:
    """f (x) g with the Koszul sign (-1)^{|g| |x|} on x (x) y."""
    if f.source.ring != g.source.ring:
        raise ValueError("ring mismatch")
    source = tensor(f.source, g.source)
    target = tensor(f.target, g.target)
    split = f.source.arity
    R = target.ring
    g_odd = g.degree % 2

    def fn(name):
        parts = source.parts_of(name)
        left = TENSOR_SEP.join(parts[:split])
        right = TENSOR_SEP.join(parts[split:])
        negate = g_odd and f.source.degree_of(left) % 2
        out = {}
        for n1, c1 in f.eval_basis(left).coeffs.items():
            if negate:
                c1 = R.neg(c1)
            for n2, c2 in g.eval_basis(right).coeffs.items():
                out[n1 + TENSOR_SEP + n2] = R.mul(c1, c2)
        return Vector(target, out)

    return NameMap(source, target, f.degree + g.degree, fn,
                   name=f"({f.name}(x){g.name})")


def twist(M: GradedModule, N: GradedModule) -> NameMap:
    """tau: M (x) N -> N (x) M, x (x) y -> (-1)^{|x||y|} y (x) x."""
    source = tensor(M, N)
    target = tensor(N, M)
    split = M.arity

    def fn(name):
        parts = source.parts_of(name)
        left = TENSOR_SEP.join(parts[:split])
        right = TENSOR_SEP.join(parts[split:])
        sign = -1 if M.degree_of(left) % 2 and N.degree_of(right) % 2 else 1
        return target.el(f"{right}{TENSOR_SEP}{left}", sign)

    return NameMap(source, target, 0, fn, name="tau")


def insert_left(v: Vector, M: GradedModule) -> NameMap:
    """x -> v (x) x (no sign: nothing moves past anything)."""
    return NameMap(M, tensor(v.module, M), v.degree(),
                   lambda n: v.tensor(M.el(n)), name="insL")


def insert_right(v: Vector, M: GradedModule) -> NameMap:
    """x -> (-1)^{|v| |x|} x (x) v (v moves past x)."""
    def fn(n):
        out = M.el(n).tensor(v)
        return -out if v.degree() % 2 and M.degree_of(n) % 2 else out

    return NameMap(M, tensor(M, v.module), v.degree(), fn, name="insR")


def operation_to_json(m):
    """An operation table of `m` read by names: `eval_basis` on every name
    of the source basis in canonical order, one entry per nonzero value.
    The reference of `chainalg.scenario._operation_to_json`."""
    values = ((e.name, m.eval_basis(e.name)) for e in m.source.basis())
    return {"degree": m.degree, "entries": [
        {"in": list(m.source.parts_of(n)), "out": _combo_to_json(v)}
        for n, v in values if not v.is_zero()]}
