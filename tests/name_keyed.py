"""The name-keyed map algebra, kept as the tests' reference.

The library's maps are row maps on basis positions.  The tests compare them
with maps built here by names: a `NameMap` is given by a function from basis
names to Vectors, memoized per name, and composes with `then`, `+` and `-`;
`tensor_map` and `twist` carry the Koszul signs of the `chainalg.graded`
docstring.  Every function here reads its arguments only through `source`,
`target`, `degree`, `name` and `eval_basis`, so a library `GradedMap` may
stand wherever a map is expected (`named` wraps one to apply it to a
Vector or to compose it).  `NameMap.row_map` turns a reference with
a source of arity <= 2 into a library map, by `GradedMap.from_table` over
the source basis; references of arity 3, such as mu (mu (x) 1), stay
name-keyed.  `operation_to_json` is the exporter that read every table by
names, kept as the reference of the one that reads rows.
`quantify_reference` is the name-keyed axiom quantifier, `passing` and
`failing` the Outcomes it gives, and `verdict` an Outcome without its
time, which a reference must match.
`secondary_operations` gives a cone package's six secondary operations by
names, from the pairing formulas of the `chainalg.cone_product` docstring,
and `PLACEMENT` the [i,j;k] at which its product places each;
`apply_op_shift` and `unapply_op_shift` are the [i,j;k] rule of the
`chainalg.graded` docstring as row maps, the reference the cone product's
parts are shifted back by.  `identity` is the identity row map of a module
and `structurally_equal` compares two bialgebras table by table.
`dual_pair` is the dual-basis pairing by names, `positions` the positions
of basis names, and `cone_window` a cone package's safe window on its
cone, "+x" then "-x^" for each safe x, as positions.  `add`, `sub`,
`scale`, `neg` and `tensor_values` are the name-keyed Vector algebra that
the references sum with, `zero`, `is_zero` and `degree` read a Vector by
names (the library itself sums rows and reads degrees off positions), and
`basis_in_degree` lists a module's basis in one degree.  `by_names` reads
a quantifier's witness on positions back by names.  `basis` lists any
module's basis by names, a tensor module's joined from its factors' and
sorted (the reference of `graded.basis_keys`), `basis_names` its names,
`parts` splits a tensor name and `degree_of` reads a name's degree by
names; `row_vector` reads a row back into a Vector by names and
`format_vector` writes a Vector's text (the library writes rows,
`graded.format_row`).
"""

import itertools

from chainalg.graded import (TENSOR_SEP, BasisElement, GradedMap,
                             GradedModule, Outcome, Vector, _op_shift_signs,
                             _signed_row, format_row, names_of, shift,
                             tensor, vector_terms)
from chainalg.scenario import _combo_writer


def basis(module: GradedModule) -> tuple:
    """The basis of `module` by names in canonical order (degree, name):
    each product of its factors' basis elements, names joined by
    TENSOR_SEP and degrees summed."""
    return tuple(sorted(
        (BasisElement(TENSOR_SEP.join(e.name for e in combo),
                      sum(e.degree for e in combo))
         for combo in itertools.product(*(f.basis() for f in module.factors))),
        key=lambda e: (e.degree, e.name)))


def basis_names(module: GradedModule) -> tuple:
    """The basis names of `module` in canonical order."""
    return tuple(e.name for e in basis(module))


def parts(name: str) -> tuple:
    """The factor names of a tensor basis name; no validation."""
    return tuple(name.split(TENSOR_SEP))


def degree_of(module: GradedModule, name: str) -> int:
    """The degree of the basis name `name` of `module`, read by names:
    KeyError for a name that is not one."""
    idx = [f.index() for f in module.factors]
    ps = parts(name)
    if len(ps) != len(idx):
        raise KeyError(f"{name!r} is not a basis name of {module!r}")
    return sum(x.degree[x.pos[p]] for x, p in zip(idx, ps))


def row_vector(module: GradedModule, terms) -> Vector:
    """The Vector of `module` with the (key, coefficient) pairs `terms` of
    a map's row, named by `graded.names_of`."""
    name = names_of(module)
    return Vector(module, {name(k): c for k, c in terms})


def format_vector(v: Vector) -> str:
    """v's text, as `graded.format_row` writes its terms."""
    return format_row(v.module, vector_terms(v))


def by_names(module: GradedModule, found):
    """A quantifier's (count, input or None, lhs, rhs), the input a tuple
    of positions of `module` and the sides {position: coefficient} dicts,
    read back by names: the input's names and the sides as Vectors, as the
    name-keyed references give them."""
    count, x, lhs, rhs = found
    if x is None:
        return found
    name = names_of(module)
    return (count, tuple(map(name, x)), row_vector(module, lhs.items()),
            row_vector(module, rhs.items()))


def _same_module(u: Vector, v: Vector):
    if u.module != v.module:
        raise ValueError("vectors live in different modules")


def add(u: Vector, v: Vector) -> Vector:
    """u + v, by names."""
    _same_module(u, v)
    R, out = u.module.ring, dict(u.coeffs)
    for n, c in v.coeffs.items():
        out[n] = R.add(out[n], c) if n in out else c
    return Vector(u.module, out)


def sub(u: Vector, v: Vector) -> Vector:
    """u - v, by names."""
    return add(u, neg(v))


def scale(v: Vector, c) -> Vector:
    """c * v, by names; c goes through the ring's `canon`."""
    R = v.module.ring
    c = R.canon(c)
    return Vector(v.module, {n: R.mul(c, x) for n, x in v.coeffs.items()})


def neg(v: Vector) -> Vector:
    """-v, by names."""
    return scale(v, -1)


def tensor_values(u: Vector, v: Vector) -> Vector:
    """The bilinear tensor u (x) v of values, by names; no signs (signs
    belong to maps)."""
    R, out = u.module.ring, {}
    for n1, c1 in u.coeffs.items():
        for n2, c2 in v.coeffs.items():
            out[n1 + TENSOR_SEP + n2] = R.mul(c1, c2)
    return Vector(tensor(u.module, v.module), out)


def zero(module: GradedModule) -> Vector:
    """The zero Vector of `module`."""
    return Vector(module, {})


def is_zero(v: Vector) -> bool:
    return not v.coeffs


def degree(v: Vector):
    """v's degree read by names: None for 0, ValueError if mixed."""
    degs = {degree_of(v.module, n) for n in v.coeffs}
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous vector with degrees {sorted(degs)}")
    return degs.pop() if degs else None


def basis_in_degree(module: GradedModule, k) -> tuple:
    """The basis elements of `module` of degree k, in canonical order."""
    return tuple(e for e in basis(module) if e.degree == k)


def dual_pair(f: Vector, a: Vector):
    """<f, a> for f in a dual-basis module (names "x^") and a in the base.

    Symmetric in usage: the pairing reads matching names, no degree signs.
    """
    R = a.module.ring
    acc = R.zero()
    for name, c in f.coeffs.items():
        base = name[:-1] if name.endswith("^") else name
        ca = a.coeffs.get(base)
        if ca is not None:
            acc = R.add(acc, R.mul(c, ca))
    return acc


def positions(module: GradedModule, names) -> list:
    """The positions of the basis names `names` of an atomic module."""
    pos = module.index().pos
    return [pos[n] for n in names]


def cone_window(data) -> list:
    """The cone package's safe window on its cone: the position of each
    "+x", then of each "-x^", for x in the package's safe window."""
    return positions(data.cone.complex.module,
                     [f"+{n}" for n in data.safe_names]
                     + [f"-{n}^" for n in data.safe_names])


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
        out = zero(self.target)
        for name, c in x.coeffs.items():
            out = add(out, scale(self.eval_basis(name), c))
        return out

    def then(self, g) -> "NameMap":
        """g after self."""
        if g.source != self.target:
            raise ValueError("maps are not composable")
        g_named = named(g)
        return NameMap(self.source, g.target, self.degree + g.degree,
                       lambda n: g_named(self.eval_basis(n)),
                       name=f"({g.name}after{self.name})")

    def __add__(self, other) -> "NameMap":
        _same_signature(self, other)
        return NameMap(self.source, self.target, self.degree,
                       lambda n: add(self.eval_basis(n), other.eval_basis(n)))

    def __sub__(self, other) -> "NameMap":
        _same_signature(self, other)
        return NameMap(self.source, self.target, self.degree,
                       lambda n: sub(self.eval_basis(n), other.eval_basis(n)))

    def row_map(self) -> GradedMap:
        """This map as a library row map, checked by `from_table`."""
        return GradedMap.from_table(
            self.source, self.target, self.degree,
            {n: self.eval_basis(n) for n in basis_names(self.source)},
            self.name)


def _same_signature(f, g):
    if (f.source != g.source or f.target != g.target
            or f.degree != g.degree):
        raise ValueError("maps have different signatures")


def named(f) -> NameMap:
    """f, read by names, as a NameMap that composes."""
    return NameMap(f.source, f.target, f.degree, f.eval_basis, f.name)


def identity(module, name: str = "id") -> GradedMap:
    """The identity of `module`, as a library row map."""
    one = module.ring.one()
    return GradedMap(module, module, 0, lambda *k: (
        (k if len(k) > 1 else k[0], one),), name)


def is_zero_map(f) -> bool:
    return all(is_zero(f.eval_basis(n)) for n in basis_names(f.source))


def scaled(f, c) -> NameMap:
    """c * f."""
    return NameMap(f.source, f.target, f.degree,
                   lambda n: scale(f.eval_basis(n), c))


def negated(f) -> NameMap:
    """-f."""
    return NameMap(f.source, f.target, f.degree,
                   lambda n: neg(f.eval_basis(n)))


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
        ps = parts(name)
        left = TENSOR_SEP.join(ps[:split])
        right = TENSOR_SEP.join(ps[split:])
        negate = g_odd and degree_of(f.source, left) % 2
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
        ps = parts(name)
        left = TENSOR_SEP.join(ps[:split])
        right = TENSOR_SEP.join(ps[split:])
        sign = -1 if degree_of(M, left) % 2 and degree_of(N, right) % 2 else 1
        return target.el(f"{right}{TENSOR_SEP}{left}", sign)

    return NameMap(source, target, 0, fn, name="tau")


def insert_left(v: Vector, M: GradedModule) -> NameMap:
    """x -> v (x) x (no sign: nothing moves past anything)."""
    return NameMap(M, tensor(v.module, M), degree(v),
                   lambda n: tensor_values(v, M.el(n)), name="insL")


def insert_right(v: Vector, M: GradedModule) -> NameMap:
    """x -> (-1)^{|v| |x|} x (x) v (v moves past x)."""
    def fn(n):
        out = tensor_values(M.el(n), v)
        return neg(out) if degree(v) % 2 and degree_of(M, n) % 2 else out

    return NameMap(M, tensor(M, v.module), degree(v), fn, name="insR")


def quantify_reference(inputs, sides):
    """The name-keyed quantifier: the first input, in order, whose Vector
    sides(input) = (lhs, rhs) differ, as the Outcome of an axiom."""
    count = 0
    for item in inputs:
        count += 1
        lhs, rhs = sides(item)
        if lhs != rhs:
            return failing(count, item, format_vector(lhs),
                           format_vector(rhs))
    return passing(count)


def passing(count):
    """The Outcome of an axiom that holds on its `count` inputs."""
    return Outcome("pass", f"{count} inputs", count)


def failing(count, item, lhs, rhs):
    """The Outcome of an axiom that fails at its `count`-th input, `item`,
    with the sides' text `lhs` and `rhs`."""
    return Outcome("fail", f"witness {item}: lhs = {lhs}, rhs = {rhs}", count,
                   (item, lhs, rhs))


def verdict(r):
    """The Outcome `r` without its time, which no reference has."""
    return r._replace(elapsed_ms=None)


def operation_to_json(m):
    """An operation table of `m` read by names: `eval_basis` on every name
    of the source basis in canonical order, one entry per nonzero value.
    The reference of `chainalg.scenario._operation_to_json`."""
    values = ((e.name, m.eval_basis(e.name)) for e in basis(m.source))
    return {"degree": m.degree, "entries": [
        {"in": list(parts(n)),
         "out": _combo_writer(v.module)(vector_terms(v))}
        for n, v in values if not is_zero(v)]}


def structurally_equal(a, b) -> bool:
    """Same basis, degrees, unit, window, and full operation tables of the
    BialgebraData a and b."""
    if a.module != b.module or a.eta != b.eta:
        return False
    if tuple(a.safe_names) != tuple(b.safe_names):
        return False
    if a.mu.degree != b.mu.degree or a.lam.degree != b.lam.degree:
        return False
    A2 = tensor(a.module, a.module)
    return (all(a.mu.eval_basis(e.name) == b.mu.eval_basis(e.name)
                for e in basis(A2))
            and all(a.lam.eval_basis(e.name) == b.lam.eval_basis(e.name)
                    for e in a.module.basis()))


# -- operation shifts ([i,j;k] on binary operations) -------------------------

def apply_op_shift(op: GradedMap, i: int, j: int, k: int) -> GradedMap:
    """The [i,j;k]-shift of a binary operation P, i.e. s_k P (s_i^v (x) s_j^v).

    op must have a binary tensor source; the result acts on
    shift(X, i) (x) shift(Y, j) with values in shift(Z, k).  Evaluation on
    u (x) v picks up (-1)^{j |u|}, with |u| measured where u lives (the
    shifted module); the target shift carries no sign.
    """
    return _op_shift(op, i, j, k, True, f"{op.name}[{i},{j};{k}]")


def unapply_op_shift(op: GradedMap, i: int, j: int, k: int) -> GradedMap:
    """The unique P with apply_op_shift(P, i, j, k) == op.

    The shift by (-i, -j, -k), but not apply_op_shift of it: the Koszul
    sign of the [i,j;k] rule is measured at shifted degree, which is op's
    source here, so inverting it costs (-1)^{j |u|} with |u| read in op's
    source instead of in the result's.
    """
    return _op_shift(op, -i, -j, -k, False, f"{op.name}[-{i},-{j};-{k}]")


def _op_shift(op, i, j, k, sign_at_result, name):
    """op with its source factors shifted by i and j and its target by k, as
    a row map on op's rows (a shift keeps names and order, so positions).
    The sign (-1)^{j |u|} reads |u| in the result's source, or in op's."""
    if op.source.arity != 2:
        raise ValueError("operation shifts apply to binary operations")
    X, Y = op.source.factors
    Xs = shift(X, i)
    negate = _op_shift_signs((Xs if sign_at_result else X).index().odd, j)
    row, neg = op.row_fn, op.target.ring.neg
    return GradedMap(tensor(Xs, shift(Y, j)), shift(op.target, k),
                     op.degree + i + j - k,
                     lambda a, b: _signed_row(row(a, b), negate[a], neg),
                     name=name)


# -- the secondary operations of a cone package ------------------------------

# [i,j;k] of each secondary operation as the cone product places it: i and
# j give its factors' blocks and k its value's, 0 for "+" (A), 1 for "-"
PLACEMENT = {"m_L": (0, 1, 1), "m_R": (1, 0, 1), "sigma": (1, 1, 1),
             "tau_R": (0, 1, 0), "tau_L": (1, 0, 0), "beta": (1, 1, 0)}


def secondary_operations(data) -> dict:
    """The six secondary operations of the cone package `data`, by names:
    {name: NameMap} on A (x) M, M (x) A or M (x) M, from the pairing
    formulas of the `chainalg.cone_product` docstring.  A functional f of M
    pairs with a of A functional first, <f, a> (no sign), or element
    first, <a, f> = (-1)^{|a||f|} <f, a>; a tensor of functionals meets a
    tensor of elements slot by slot, with the Koszul sign of the elements
    it moves past."""
    A, M, mu = data.A, data.M, data.mu
    Q0 = row_vector(tensor(A, A), data.Q0)
    B = row_vector(tensor(A, A, A), data.B)
    R = A.ring

    def deg(a):
        return degree_of(A, a)

    def deg_M(f):
        return degree_of(M, f)

    AM, MA, MM = tensor(A, M), tensor(M, A), tensor(M, M)

    def sign(k):   # (-1)^k in the ring
        return R.canon(-1 if k % 2 else 1)

    def product(a, b):
        return mu.eval_basis(a + TENSOR_SEP + b)

    def pair(f, v):   # <f, v> for f a name of M, v a Vector of A
        return dual_pair(M.el(f), v)

    def pair_with(f, a):   # <f, a> for names
        return R.one() if f == a + "^" else R.zero()

    def functional(value, degree, element_first):
        """The f in M with <f, a> (or <a, f>) = value(a) for every a."""
        out = {}
        for a in A.basis_names():
            c = value(a)
            if element_first and deg(a) * degree % 2:
                c = R.neg(c)
            if c != R.zero():
                out[a + "^"] = c
        return Vector(M, out)

    def corrections(x, right, left):
        """The terms of (mu (x) 1)(x (x) Q0), moving Q0 past x, and of
        (1 (x) mu)(Q0 (x) x), as (w1, w2, coefficient)."""
        for nm, c in Q0.coeffs.items():
            q1, q2 = nm.split(TENSOR_SEP)
            if right:
                c1 = R.mul(c, sign(deg(x) * (deg(q1) + deg(q2))))
                for y, m in product(x, q1).coeffs.items():
                    yield y, q2, R.mul(c1, m)
            if left:
                for y, m in product(q2, x).coeffs.items():
                    yield q1, y, R.mul(c, m)

    def coproduct(x, right, left):
        """lam(x) plus the chosen corrections, as (w1, w2, coefficient)."""
        for nm, c in data.lam.eval_basis(x).coeffs.items():
            yield (*nm.split(TENSOR_SEP), c)
        yield from corrections(x, right, left)

    def m_L(nm):   # <a, m_L(b,f)> = <mu(a,b), f>, both element first
        b, f = parts(nm)
        return functional(lambda a: R.mul(
            sign((deg(a) + deg(b)) * deg_M(f)), pair(f, product(a, b))),
            deg(b) + deg_M(f), True)

    def m_R(nm):   # <m_R(f,a), b> = <f, mu(a,b)>
        f, a = parts(nm)
        return functional(lambda b: pair(f, product(a, b)), 0, False)

    def sigma(nm):
        # <sigma(f,g), a> = (-1)^{(|f|+1)(|g|+1)} <g (x) f, lam_rev(a)>,
        # <g (x) f, w1 (x) w2> = (-1)^{|f||w1|} <g,w1> <f,w2>
        f, g = parts(nm)

        def value(a):
            acc = R.zero()
            for w1, w2, c in coproduct(a, True, True):
                s = sign(deg_M(f) * deg(w1))
                acc = R.add(acc, R.mul(R.mul(c, s), R.mul(
                    pair_with(g, w1), pair_with(f, w2))))
            return R.mul(sign((deg_M(f) + 1) * (deg_M(g) + 1)), acc)

        return functional(value, 0, False)

    def tau_R(nm):   # <lam_fwd(b), 1 (x) f> = sum w1 <w2, f>, element first
        b, f = parts(nm)
        out = zero(A)
        for w1, w2, c in coproduct(b, True, False):
            s = sign(deg(w2) * deg_M(f))
            out = add(out, A.el(w1, R.mul(R.mul(c, s), pair_with(f, w2))))
        return out

    def tau_L(nm):   # (-1)^{|f|+1} <f (x) 1, lam_rev_left(a)>
        f, a = parts(nm)
        out = zero(A)
        for w1, w2, c in coproduct(a, False, True):
            out = add(out, A.el(w2, R.mul(c, pair_with(f, w1))))
        return scale(out, sign(deg_M(f) + 1))

    def beta(nm):   # <f (x) g (x) 1, B>: g moves past B1
        f, g = parts(nm)
        out = zero(A)
        for term, c in B.coeffs.items():
            b1, b2, b3 = parts(term)
            s = R.mul(sign(deg_M(g) * deg(b1)),
                      R.mul(pair_with(f, b1), pair_with(g, b2)))
            out = add(out, A.el(b3, R.mul(c, s)))
        return out

    return {"m_L": NameMap(AM, M, 0, m_L, "m_L"),
            "m_R": NameMap(MA, M, 0, m_R, "m_R"),
            "sigma": NameMap(MM, M, 1, sigma, "sigma"),
            "tau_R": NameMap(AM, A, 1, tau_R, "tau_R"),
            "tau_L": NameMap(MA, A, 1, tau_L, "tau_L"),
            "beta": NameMap(MM, A, 2, beta, "beta")}
