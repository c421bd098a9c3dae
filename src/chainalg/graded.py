"""Graded modules, homogeneous maps, and Koszul-signed tensor calculus.

Sign conventions (the single source of truth for the whole package):

* Koszul rule: transposing graded symbols of degrees p and q costs (-1)^{pq}.
  For maps this surfaces exactly once, in tensor evaluation:

      (f (x) g)(x (x) y) = (-1)^{|g| |x|} f(x) (x) g(y).

* Twist: tau(x (x) y) = (-1)^{|x||y|} y (x) x.

* Shift: M[k]_n = M_{n+k}, so an element of degree d sits in degree d - k
  after shifting by k.  Shifting a map f costs (-1)^{|f| k}.

* Duals: (M^v)_k = Hom(M_{-k}, R) with dual basis written "name^";
  <x^, y> = delta_{x,y} and <f^(phi), x> = (-1)^{|phi||f|} <phi, f(x)>.

* Pairings are functional-first: <phi, x> = phi(x) with no sign, and the
  element-first order costs the Koszul transposition,
  <x, phi> = (-1)^{|x||phi|} <phi, x>.  Tensors of functionals evaluate by
  the map rule, e.g. <g (x) f, w1 (x) w2> = (-1)^{|f||w1|} <g,w1><f,w2>,
  and element-first slot contractions such as <T, 1 (x) f> carry the
  resulting per-term sign (-1)^{|f||w2|} (see slot_table).

* Operation shift [i,j;k] (binary operations): shift the source factors by
  i and j and the target by k.  Evaluation on u (x) v picks up the Koszul
  sign of moving the degree-j unshift past u, i.e. (-1)^{j |u|}; the target
  shift carries no sign.

Tensor products are flattened: (A (x) B) (x) C and A (x) (B (x) C) are the
same module, with basis names joined by the TENSOR_SEP character.  `tensor`
returns one TensorModule per tuple of factor objects, cached on the first
factor, so a product is kept while its first factor lives; the two refer
to each other, so only the cyclic collector frees them.

Where values are checked: basis names and coefficients are validated where
they enter the program, i.e. by the public `Vector(module, coeffs)`
constructor and `GradedModule.el`, by `GradedMap.from_table`, the
checked constructor for a map given by values on names (names, target
module and degree of every value), and by the scenario loader, which checks
each operation-table entry and combination once (names by lookup in
`GradedModule.index`, coefficients, homogeneity of table values and
combinations) while parsing tables straight into row maps; every other
name is read by `_positions`, the one strict reader.  A combination (a
unit, a bivector, a cubic vector) is held as a row, like a map's, and
`terms_degree` is the one check of its keys and homogeneity.  Internal
arithmetic works on rows; the only Vectors it builds are rows read back by
names (`eval_basis`) from values that are valid already, so they go
through the trusted constructor `Vector._trusted`, which drops zero
coefficients and checks nothing else.
The structural checks (d*d = 0 in `ChainComplex`, and the one test of
[d, f] = 0 in `complexes` for `ChainMap`, a pair's secondary map and mu
and lam of a `BialgebraData` with a differential) read map rows and
raise ValueError, never an assert, so they also run under `python -O`.

Rows: every map is a row map, a function from basis positions to rows,
and every check reads structure constants as a map's rows (`GradedMap.row`
and `.at`), keyed by the position of a basis element of an atomic module
in the canonical order (`GradedModule.index`, which also holds each
position's degree and its parity), or by a pair of positions in a binary
tensor module.  `from_table` builds its rows once from the given values;
the other maps compute theirs from the rows of the maps they are built
from: `tensor_differential`, `shift_map` (a shift keeps names and
order, so positions), `dual_map` (one sparse transpose of the map's
rows), the cone's d_cone and transition automorphism, commutators
[d, h], and the fixtures' mu and lam; the pair identities read mu tau
and tau lam as mu and lam, the twist sign folded into their own signs.
`apply_rows` applies a map's rows to a row's terms.
Names come back only through `names_of`, for a witness (`format_row`),
the exporter or a name-keyed caller (`eval_basis`), and for key order.

Two kinds of identity check share this layer.  The associativity-type
checks (`associativity_witness`, and the assoc-infinitesimal check of
`cone_product`) quantify over positions, a package's safe window as the
positions it fixed at construction, and share one quantifier
(`_first_failing_triple`): each input a fills one table of side ids
before its first pair, each b reads its entries over the third input in
one gather, and only a failing pair's entries are compared one by one.
Sides are ids interned by `SideIds`, a map's row as its set of terms, and
`_row_expansion` expands each side once per distinct row, reading a side
of one term with coefficient 1 or -1 off the row ids it keeps, negated
if need be (`SideIds.neg`), and summing only the others.  The pair
identities (`bialgebra.PairKernel`) sum hoisted signed pieces, lhs minus
rhs, listed as weighted key blocks, into one accumulator per row (one a
with all its b), which passes when no sum in it is nonzero, stop at the
first failing b, and expand the two sides again only for that pair; one
kernel per package serves the axioms, cc-antisymmetry and the cone's
assoc-infinitesimal check.  Every check returns an `Outcome`, and every
report record is made from one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .rings import Ring
from .matrices import ExactMatrix

TENSOR_SEP = "⊗"  # the (x) symbol used in tensor basis names


def koszul_sign(exp: int) -> int:
    """(-1)^exp."""
    return -1 if exp % 2 else 1


@dataclass(frozen=True)
class BasisElement:
    name: str
    degree: int

    def __repr__(self):
        return f"{self.name}[{self.degree}]"


class BasisIndex(NamedTuple):
    """A module's basis names by position, positions by name, and the
    degree parity (0 or 1) and degree at each position."""

    names: tuple
    pos: dict
    odd: tuple
    degree: tuple


class DegreeLayout(NamedTuple):
    """A module's basis keys (`basis_keys`) by degree, in canonical order
    (`keys[k]`), and back: each key's degree and its row within that degree
    (`at[key]`), where a block of a map places it."""

    keys: dict
    at: dict


class GradedModule:
    """Free graded module with a named, canonically ordered basis.

    Canonical order is (degree, name), uniformly for atomic and tensor
    modules, so every report and matrix block is deterministic.  Atomic
    modules store the basis explicitly; a tensor module holds none.
    """

    def __init__(self, ring: Ring, basis, name: str = ""):
        self.ring = ring
        self.name = name
        elems = sorted(basis, key=lambda e: (e.degree, e.name))
        seen = set()
        for e in elems:
            if TENSOR_SEP in e.name:
                raise ValueError(f"basis name {e.name!r} contains the tensor separator")
            if e.name in seen:
                raise ValueError(f"duplicate basis name {e.name!r}")
            seen.add(e.name)
        self._basis = tuple(elems)
        self.factors = (self,)
        self._tensors = {}  # see `tensor`

    # -- basis access -------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.factors)

    def basis(self):
        return self._basis

    def basis_names(self):
        return tuple(e.name for e in self.basis())

    def degrees(self):
        return sorted(self.layout().keys)

    def index(self) -> "BasisIndex":
        """Positions of the basis names in canonical order, built once."""
        idx = getattr(self, "_index", None)
        if idx is None:
            basis = self.basis()
            idx = self._index = BasisIndex(
                tuple(e.name for e in basis),
                {e.name: i for i, e in enumerate(basis)},
                tuple(e.degree % 2 for e in basis),
                tuple(e.degree for e in basis))
        return idx

    def layout(self) -> "DegreeLayout":
        """The basis keys by degree and back, built once."""
        lay = getattr(self, "_layout", None)
        if lay is None:
            lay = self._layout = DegreeLayout({}, {})
            degrees = [f.index().degree for f in self.factors]
            for key in basis_keys(self):
                d = (sum(map(operator.getitem, degrees, key))
                     if self.arity > 1 else degrees[0][key])
                keys = lay.keys.setdefault(d, [])
                lay.at[key] = (d, len(keys))
                keys.append(key)
        return lay

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedModule):
            return False
        return self._struct() == other._struct()

    def _struct(self):
        s = getattr(self, "_struct_cache", None)
        if s is None:
            s = (self.ring, tuple((e.name, e.degree) for e in self._basis))
            self._struct_cache = s
        return s

    def __hash__(self):
        return hash(self._struct())

    def __repr__(self):
        label = self.name or f"{len(self._basis)} generators"
        return f"GradedModule({self.ring}, {label})"

    # -- elements ------------------------------------------------------------

    def el(self, name: str, coeff=1) -> "Vector":
        _positions(self, name, "no basis element {!r}")
        return Vector._trusted(self, {name: self.ring.canon(coeff)})


class TensorModule(GradedModule):
    """Flattened tensor product of atomic graded modules; its keys, tuples
    of positions, are listed by `basis_keys` and named by `names_of`.

    Build it with `tensor`, which flattens and interns it.
    """

    def __init__(self, factors):
        ring = factors[0].ring
        if any(f.ring != ring for f in factors):
            raise ValueError("ring mismatch in tensor product")
        self.ring = ring
        self.name = TENSOR_SEP.join(f.name or "?" for f in factors)
        self.factors = tuple(factors)

    def _struct(self):
        s = getattr(self, "_struct_cache", None)
        if s is None:
            s = (self.ring, tuple(f._struct() for f in self.factors))
            self._struct_cache = s
        return s

    def __hash__(self):
        return hash(self._struct())

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, TensorModule) and self._struct() == other._struct()

    def __repr__(self):
        return f"TensorModule({self.name})"


def tensor(*modules) -> GradedModule:
    """The tensor product of `modules`, one object per tuple of factors.

    The product is cached on its first atomic factor, keyed by the
    identities of the others (which it holds, so the ids stay valid).
    Equal but distinct factors give equal, not identical, products.  The
    cache and the product refer to each other: both wait for the cyclic
    collector.
    """
    if len(modules) == 1:
        return modules[0]
    flat = [f for m in modules for f in m.factors]  # atomic: factors == (m,)
    if not flat:
        raise ValueError("empty tensor product")
    cache = flat[0]._tensors
    key = tuple(map(id, flat[1:]))
    t = cache.get(key)
    if t is None:
        t = cache[key] = TensorModule(flat)
    return t


class Vector:
    """Sparse element of a graded module: basis name -> nonzero coefficient.

    Not required to be homogeneous; Koszul signs are taken per term.

    `Vector(module, coeffs)` is the checked constructor for values that
    come from outside: every coefficient is canonicalized (inexact values
    raise TypeError) and every key with a nonzero coefficient must be a
    basis name of `module` (KeyError otherwise).  The package's own
    arithmetic builds through `Vector._trusted`, which assumes canonical
    coefficients and valid names and only drops zeros.
    """

    __slots__ = ("module", "coeffs")

    def __init__(self, module: GradedModule, coeffs: dict):
        R = module.ring
        clean = {}
        for name, c in coeffs.items():
            c = R.canon(c)
            if c != 0:
                _positions(module, name)
                clean[name] = c
        self.module = module
        self.coeffs = clean

    @classmethod
    def _trusted(cls, module: GradedModule, coeffs: dict) -> "Vector":
        """Vector from canonical coefficients on valid names of `module`."""
        v = object.__new__(cls)
        v.module = module
        v.coeffs = {n: c for n, c in coeffs.items() if c != 0}
        return v

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.module == other.module
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.module, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return format_row(self.module, vector_terms(self))


# ---------------------------------------------------------------------------
# Homogeneous maps
# ---------------------------------------------------------------------------

class GradedMap:
    """Homogeneous linear map of a fixed degree offset between graded modules,
    given by its rows on basis positions.

    rows(i), or rows(i, j) on a binary source, is the image of the basis
    element at those positions (`GradedModule.index`): (k, coefficient)
    pairs, where k is a position in an atomic target, or a tuple of
    positions, one per factor, in a tensor target.  The source is unary or
    binary, else ValueError here.  Row contract: a row has distinct keys
    and no zero coefficient; every row function keeps it, and
    `SideIds.row` relies on it.

    `row(i)`, or `row(i, j)`, serves the row, computed by the row function
    (`row_fn`) on first use, straight from the (i, j) it is given, and kept
    while the map lives; `at(key)` reads it at a key of the form the rows
    use.  `rows[i * stride + j]` (`rows[i]` on an atomic source, where
    `stride` is 1) is the same row read by one dict lookup, for the hot
    loops that hoist the stride product out of their inner loop; a missing
    row is filled by that lookup, which on a binary source first divides
    the key back into (i, j).  No row function refers to its own map, so a
    map forms no reference cycle and is freed with its last user.

    `eval_basis` reads a row back by name, for a name-keyed caller, and
    `from_table` is the checked constructor for a map given by values on
    basis names.
    """

    def __init__(self, source: GradedModule, target: GradedModule, degree: int,
                 rows, name: str = ""):
        if source.ring != target.ring:
            raise ValueError("ring mismatch between source and target")
        if source.arity > 2:
            raise ValueError("maps have unary or binary sources only")
        self.source = source
        self.target = target
        self.degree = degree
        self.row_fn = rows
        self._binary = binary = source.arity == 2
        self.stride = len(source.factors[1].basis()) if binary else 1
        self.rows = _Rows(rows, self.stride, binary)
        self._memo = {}
        self.name = name

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_table(cls, source, target, degree, table: dict, name: str = ""):
        """Map given by explicit values on basis names; missing names -> 0.
        Each name must be a basis name of the source (KeyError), each value
        a Vector of the target (ValueError) of the map's degree on that name
        (ValueError).  The rows are built here, once."""
        rows = {}
        m = cls(source, target, degree, lambda *k: rows.get(k, ()), name)
        for n, v in table.items():
            key = _positions(source, n,
                             "{!r} is not a basis name of the source")
            if not isinstance(v, Vector) or v.module != target:
                raise ValueError(f"value for {n!r} does not live in the target")
            terms = vector_terms(v)
            d, want = terms_degree(target, terms), degree + sum(
                f.index().degree[x] for f, x in zip(source.factors, key))
            if d is not None and d != want:
                raise ValueError(
                    f"value for {n!r} has degree {d}, expected {want}")
            rows[key] = terms
        return m

    @classmethod
    def zero(cls, source, target, degree, name: str = "0"):
        return cls(source, target, degree, lambda *k: (), name)

    # -- evaluation -----------------------------------------------------------

    def eval_basis(self, name: str) -> Vector:
        """The image of the basis element `name`: its row, by name."""
        v = self._memo.get(name)
        if v is None:
            name_of = names_of(self.target)
            v = self._memo[name] = Vector._trusted(self.target, {
                name_of(k): c
                for k, c in self.row(*_positions(self.source, name))})
        return v

    def row(self, i: int, j: int = 0) -> tuple:
        """The row at position i, or at (i, j) on a binary source.  A
        missing row is filled here from the (i, j) at hand, by the same rule
        as `_Rows.__missing__` (which fills lookups by key): a change to how
        rows are made or kept edits both."""
        key = i * self.stride + j
        r = self.rows.get(key)
        if r is None:
            r = self.rows[key] = tuple(
                self.row_fn(i, j) if self._binary else self.row_fn(i))
        return r

    def at(self, key) -> tuple:
        """The row at a key of the form the rows use: a position for an
        atomic source, a pair of positions for a binary one."""
        if self._binary:
            i, j = key
            return self.rows[i * self.stride + j]
        return self.rows[key]

    # -- materialization ---------------------------------------------------------

    def block(self, k) -> ExactMatrix:
        """Dense matrix of the degree-k component (small modules only)."""
        src = self.source.layout().keys.get(k, [])
        tgt = self.target.layout().keys.get(k + self.degree, [])
        R = self.source.ring
        columns = [dict(self.at(key)) for key in src]
        return ExactMatrix(R, len(tgt), len(src), [
            col.get(t, R.zero()) for t in tgt for col in columns])

    def __repr__(self):
        return (f"GradedMap({self.name or '?'}: {self.source.name or '?'} -> "
                f"{self.target.name or '?'}, degree {self.degree})")


def sparse_blocks(f: GradedMap):
    """f's blocks as sparse columns, built in one pass over f's rows: a
    function k -> (rows, columns) of the degree-k block, the rows counted
    and positioned within target degree k + f.degree (`GradedModule.layout`)
    and each column a {row: coefficient} dict (the form
    `matrices.ImageSolver` takes)."""
    at, target = f.at, f.target.layout()
    cols = {k: [{target.at[t][1]: c for t, c in at(key)} for key in keys]
            for k, keys in f.source.layout().keys.items()}
    return lambda k: (len(target.keys.get(k + f.degree, ())), cols.get(k, []))


class _Rows(dict):
    """A map's rows by the key i * stride + j: a lookup of a missing key
    computes and keeps the row fn(i, j), or fn(key) for an atomic source.
    `GradedMap.row` fills a missing row itself, from the (i, j) it has, by
    the same rule, so that its first read divides no key: a change to how
    rows are made or kept edits both.  With stride 1 on an atomic key it is
    the library's one lazily filled table, the pair pieces' tables too."""

    __slots__ = ("fn", "stride", "binary")

    def __init__(self, fn, stride, binary):
        super().__init__()
        self.fn, self.stride, self.binary = fn, stride, binary

    def __missing__(self, key):
        r = self[key] = tuple(self.fn(*divmod(key, self.stride)) if self.binary
                              else self.fn(key))
        return r


def basis_keys(module: GradedModule, keys=None):
    """The basis keys of `module`, or the keys `keys`, in canonical order
    (degree, name): positions, or in a tensor module tuples of positions,
    one per factor, as map rows key them, sorted by degree and `names_of`
    (an atomic module's positions are in that order already)."""
    if module.arity == 1:
        n = len(module.index().names)
        return range(n) if keys is None else sorted(keys)
    degrees = [f.index().degree for f in module.factors]
    name = names_of(module)
    if keys is None:
        keys = itertools.product(*[range(len(d)) for d in degrees])
    if len(degrees) == 2:   # the exporter's case: two lookups are faster
        a, b = degrees
        keyed = [(a[k[0]] + b[k[1]], name(k), k) for k in keys]
    else:
        keyed = [(sum(map(operator.getitem, degrees, k)), name(k), k)
                 for k in keys]
    keyed.sort()
    return [k for _, _, k in keyed]


def apply_rows(at, terms, ring) -> dict:
    """The sum of c * at(k) over the (k, c) pairs `terms`, where at(k) is a
    map's row: {key: coefficient}, without zero coefficients."""
    mul, add = ring.mul, ring.add
    out = {}
    for k, c in terms:
        for t, v in at(k):
            v = mul(c, v)
            out[t] = v if (old := out.get(t)) is None else add(old, v)
    return {t: v for t, v in out.items() if v != 0}


def _sum_rows(ring, *parts) -> tuple:
    """The sum of the (key, coefficient) sequences `parts`, as a row."""
    out = {}
    for part in parts:
        for k, c in part:
            out[k] = c if (old := out.get(k)) is None else ring.add(old, c)
    return tuple((k, c) for k, c in out.items() if c != 0)


def _signed_row(items, negate, neg) -> tuple:
    """The (key, coefficient) pairs `items` as a row, negated if `negate`."""
    return tuple((k, neg(c)) for k, c in items) if negate else tuple(items)


class Outcome(NamedTuple):
    """The verdict of every check: status "pass", "fail", "skip"
    (hypotheses not met) or "info", and the detail a report prints.  A
    quantifier also gives the number of inputs it checked and, when it
    fails, its witness as text (input, lhs, rhs); a check timed inside a
    computation that several records share gives its own time in ms."""

    status: str
    detail: str
    inputs_checked: int = None
    witness: tuple = None
    elapsed_ms: float = None


def _first_difference(inputs, sides):
    """(count, first failing input or None, lhs, rhs): the `inputs` in
    order, each with sides(x) = (lhs, rhs) compared exactly (==), up to and
    including the first whose sides differ, and its sides, else None.  The
    one loop of every check that names its first counterexample; private,
    so a tracer of the public functions records no span per check."""
    count = 0
    for x in inputs:
        count += 1
        lhs, rhs = sides(x)
        if lhs != rhs:
            return count, x, lhs, rhs
    return count, None, None, None


def _twisted(terms, odd, neg) -> dict:
    """The twist of the binary tensor terms ((k1, k2), coefficient), as
    {(k2, k1): coefficient}: tau(x (x) y) = (-1)^{|x||y|} y (x) x, with the
    degree parity of each position in `odd` (`GradedModule.index`)."""
    return {(k2, k1): neg(c) if odd[k1] and odd[k2] else c
            for (k1, k2), c in terms}


class SideIds:
    """Small integer ids of the sides an identity check compares, equal
    exactly when the sides are equal.

    `ids(terms)` sums the (key, coefficient) pairs `terms` per key, drops
    the keys whose sum is 0 and returns the id of what is left;
    `ids.sides[i]` is the side of id i, the frozenset of its
    (key, nonzero coefficient) pairs.  That frozenset itself keys the id,
    never its hash alone, so ids collide only for equal sets.  Ring values
    are canonical (an int over Z, an int or a Fraction in lowest terms over
    Q, a residue in [0, p) over GF(p)), equal values hash alike, and two
    {key: coefficient} dicts are equal exactly when their item sets are:
    equal ids mean equal sides over every ring, and a list of ids compares
    a whole row of sides at once.

    `ids.row(r)` interns a map's row as frozenset(r), without summing it
    again: rows keep the row contract of `GradedMap` (distinct keys, no
    zero coefficient), so that set is already the row's side.  A row
    breaking the contract can only make equal sides look different, never
    the reverse: a row with a repeated (key, coefficient) pair is summed,
    and otherwise equal sets are equal multisets of terms, so equal ids
    still mean equal sums.  The id is also kept keyed by the row tuple
    itself, so an equal row met again, at another position or in another
    map, costs one tuple lookup: tuples are equal only when their pairs
    are, in order, so a hit is the id the frozenset would give, and a row
    in another order misses and takes the frozenset's path.

    `ids.neg(i)` is the id of side i with every coefficient negated, kept
    per id both ways: negating canonical nonzero coefficients on distinct
    keys gives canonical nonzero coefficients on the same keys, so that set
    is the negated side, interned like any other (over GF(2), side i
    itself).
    """

    def __init__(self, ring: Ring):
        self._add, self._mul, self._neg = ring.add, ring.mul, ring.neg
        self._ids = {}
        self._by_row = {}   # row tuple -> id
        self._negs = {}     # id -> id of the negated side
        self.sides = []

    def __call__(self, terms) -> int:
        terms = tuple(terms)
        side = dict(terms)
        if len(side) < len(terms) or 0 in side.values():
            add, side = self._add, {}   # sum repeated keys, drop zero sums
            for k, c in terms:
                side[k] = c if (old := side.get(k)) is None else add(old, c)
            terms = [kc for kc in side.items() if kc[1] != 0]
        return self._id(frozenset(terms))

    def row(self, r) -> int:
        """The id of the map row `r` (a tuple)."""
        i = self._by_row.get(r)
        if i is None:
            key = frozenset(r)
            i = self._by_row[r] = self(r) if len(key) < len(r) else self._id(key)
        return i

    def neg(self, i: int) -> int:
        """The id of side i negated."""
        j = self._negs.get(i)
        if j is None:
            neg = self._neg
            j = self._negs[i] = self._id(
                frozenset((k, neg(c)) for k, c in self.sides[i]))
            self._negs[j] = i
        return j

    def _id(self, key) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.sides)
            self.sides.append(key)
        return i

    def combine(self, terms, at) -> int:
        """The id of the sum of c * at(k) over the (k, c) pairs `terms`,
        at(k) being a map's row."""
        mul = self._mul
        return self((t, mul(c, v)) for k, c in terms for t, v in at(k))


# ---------------------------------------------------------------------------
# Koszul combinators
# ---------------------------------------------------------------------------

def tensor_differential(d: GradedMap) -> GradedMap:
    """d (x) 1 + 1 (x) d, the differential of M (x) M for d on M, as a row
    map: x (x) y -> d(x) (x) y + (-1)^{|d||x|} x (x) d(y)."""
    M = d.source
    row, odd, add, neg = d.row, M.index().odd, M.ring.add, M.ring.neg

    def rows(i, j):
        flip = d.degree % 2 and odd[i]
        out = {(x, j): c for x, c in row(i)}
        for x, c in row(j):
            c = neg(c) if flip else c
            out[i, x] = c if (old := out.get((i, x))) is None else add(old, c)
        return tuple((k, c) for k, c in out.items() if c != 0)

    M2 = tensor(M, M)
    return GradedMap(M2, M2, d.degree, rows, name=f"({d.name}2)")


def _gather(keys):
    """table -> the tuple of table[k] over the keys, read in one C call
    (`operator.itemgetter`); one key is read into a 1-tuple, since
    itemgetter gives a single key's entry itself."""
    if len(keys) == 1:
        return functools.partial(_one_entry, keys[0])
    return operator.itemgetter(*keys)


def _one_entry(key, table) -> tuple:
    return (table[key],)


def _row_expansion(ids: SideIds, m: GradedMap, keys):
    """(rows, sides) for a map m on a binary source and the positions
    `keys` of its second input, each a tuple over the keys in order, kept
    per argument:

        rows(x)  = the ids of the rows m(x (x) k) (`SideIds.row`),
        sides(r) = the ids of sum_x c * m(x (x) k) over the terms (x, c)
                   of the side r of `ids`.

    A side of one term with coefficient 1 is rows(x), one with coefficient
    -1 is rows(x) negated (`SideIds.neg`), and any other side is summed
    (`SideIds.combine`)."""
    R = m.target.ring
    one = R.one()
    minus_one = R.neg(one)
    row, intern, neg_id, combine = m.row, ids.row, ids.neg, ids.combine

    @functools.cache
    def rows(x):
        return tuple([intern(row(x, k)) for k in keys])

    @functools.cache
    def sides(r):
        terms = ids.sides[r]
        if len(terms) == 1:
            [(x, c)] = terms
            if c == one:
                return rows(x)
            if c == minus_one:
                return tuple(map(neg_id, rows(x)))
        return tuple([combine(terms, lambda x: row(x, k)) for k in keys])

    return rows, sides


def _first_failing_triple(fill, gathers, other, m):
    """(inputs checked, the first failing places (a, b, c) or None, its
    gathered side id, its other side id) of an identity over the places
    a, b < n = len(gathers) and c < m in lexicographic order, whose sides
    of a pair (a, b) over all c are the tuples gathers[b](fill(a)) and
    other(a, b) of side ids.

    The one quantifier of the associativity-type checks.  Each a fills its
    table once, before its first pair, with the ids of every side it can
    meet, indexed by what that side depends on besides a; each b keeps the
    indices of its entries over c in a gather (`_gather`), so that a pair
    is one `operator.itemgetter` call and one tuple comparison.  Only a
    failing pair's entries are compared one by one (`_first_difference`).
    Equal ids hold exactly when the sides are equal (`SideIds`), so the
    verdict, the count, (a n + b) m + c + 1 at a failure and n n m
    otherwise, and the first failing triple are those of comparing the two
    sides of every triple in turn."""
    n = len(gathers)
    for a in range(n):
        table = fill(a)
        for b, gather in enumerate(gathers):
            got, want = gather(table), other(a, b)
            if got != want:
                _, c, left, right = _first_difference(
                    range(m), lambda c: (got[c], want[c]))
                return (a * n + b) * m + c + 1, (a, b, c), left, right
    return n * n * m, None, None, None


def associativity_witness(mu: GradedMap, inputs):
    """(inputs checked, first failing (a, b, c) or None, lhs, rhs) of
    mu(mu (x) 1) = mu(1 (x) mu) over inputs^3 in lexicographic order, the
    `inputs` being positions of mu's target (`GradedModule.index`), with
    both sides expanded from mu's rows of basis products:

        lhs = sum_x <mu(a (x) b), x> mu(x (x) c),
        rhs = (-1)^{|mu||a|} sum_y <mu(b (x) c), y> mu(a (x) y),

    the sign being the one 1 (x) mu picks up on a.  On a failure the
    triple is given by its positions and the sides as {position:
    coefficient} dicts of mu's target; else all three are None.

    The sides are regrouped so that each is expanded once per distinct
    product row, not once per triple: the lhs depends on (a, b) only
    through the row mu(a (x) b), and is one tuple over c per such row
    (`_row_expansion`); the rhs depends on (b, c) only through the row
    mu(b (x) c).  Those rows are interned first, as one tuple T_b of ids
    over c per b, so that their ids are 0 .. m - 1, and the shape of each
    is precomputed: one term y with coefficient 1 or -1, or its terms and
    their negation.  a's table holds its rhs per such id, and the rhs of a
    pair (a, b) over c is that table read at T_b (`_first_failing_triple`).
    """
    A = mu.target
    if any(f != A for f in mu.source.factors):
        raise ValueError("associativity needs a product A (x) A -> A")
    neg, one = A.ring.neg, A.ring.one()
    minus_one = neg(one)
    idx = A.index()
    row, odd_mu = mu.row, mu.degree % 2
    ids = SideIds(A.ring)
    sides, intern, neg_id, combine = ids.sides, ids.row, ids.neg, ids.combine
    times_inputs, lhs_of = _row_expansion(ids, mu, inputs)

    # the rows mu(b (x) c), interned first, so that `sides` holds them alone;
    # per row id: (y, whether its coefficient is -1) for one term y with
    # coefficient 1 or -1, else (None, (its terms, negated))
    T = [times_inputs(j) for j in inputs]
    shapes = []
    for terms in sides:
        if len(terms) == 1:
            [(y, c)] = terms
            if c == one or c == minus_one:
                shapes.append((y, c != one))
                continue
        shapes.append((None, (terms, _signed_row(terms, True, neg))))

    def fill(a):   # a's rhs per row id of mu(b (x) c)
        i = inputs[a]
        negate = bool(odd_mu and idx.odd[i])
        at = functools.partial(row, i)
        return [combine(rest[negate], at) if y is None
                else neg_id(intern(at(y))) if rest != negate else intern(at(y))
                for y, rest in shapes]

    count, failed, rhs, lhs = _first_failing_triple(
        fill, [_gather(t) for t in T], lambda a, b: lhs_of(T[a][b]),
        len(inputs))
    if failed is None:
        return count, None, None, None
    return (count, tuple([inputs[p] for p in failed]), dict(sides[lhs]),
            dict(sides[rhs]))


def shift(M: GradedModule, k: int) -> GradedModule:
    """M[k] with M[k]_n = M_{n+k}: each element drops in degree by k."""
    if k == 0:
        return M
    return GradedModule(M.ring,
                        [BasisElement(e.name, e.degree - k) for e in M.basis()],
                        name=f"{M.name}[{k}]" if M.name else "")


def shift_map(f: GradedMap, k: int) -> GradedMap:
    """f[k]: M[k] -> N[k], with the Koszul sign (-1)^{|f| k}, as a row map
    on f's rows (a shift keeps names and order, so positions)."""
    row, neg = f.row_fn, f.target.ring.neg
    if f.degree % 2 and k % 2:
        def rows(i):
            return _signed_row(row(i), True, neg)
    else:
        rows = row
    return GradedMap(shift(f.source, k), shift(f.target, k), f.degree, rows,
                     name=f"{f.name}[{k}]")


def dual_module(M: GradedModule) -> GradedModule:
    """M^v with dual basis "name^" in degree -|name|."""
    return GradedModule(M.ring,
                        [BasisElement(e.name + "^", -e.degree) for e in M.basis()],
                        name=f"{M.name}^" if M.name else "")


def dual_map(f: GradedMap) -> GradedMap:
    """f^v: N^v -> M^v with <f^v(phi), x> = (-1)^{|phi||f|} <phi, f(x)>.

    A row map: the row at y^ is column y of f, read from one sparse
    transpose of f's rows, built on the first request."""
    src = dual_module(f.target)
    tgt = dual_module(f.source)
    source_names, target_pos = f.source.index().names, f.target.index().pos
    base = [target_pos[n[:-1]] for n in src.index().names]  # y^ -> y
    dual = [tgt.index().pos[n + "^"] for n in source_names]  # x -> x^
    odd, neg, row = src.index().odd, f.source.ring.neg, f.row
    columns = []

    def rows(p):
        if not columns:
            columns.append(transpose_rows(range(len(source_names)), row))
        flip = f.degree % 2 and odd[p]
        return tuple((dual[x], neg(c) if flip else c)
                     for x, c in columns[0].get(base[p], ()))

    return GradedMap(src, tgt, f.degree, rows, name=f"{f.name}^")


def transpose_rows(inputs, image) -> dict:
    """Sparse transpose of x -> image(x), a map's row, over the positions
    `inputs`: output key -> [(x, coefficient)], in input order."""
    out = {}
    for x in inputs:
        for y, c in image(x):
            if (col := out.get(y)) is None:
                out[y] = [(x, c)]
            else:
                col.append((x, c))
    return out


def _op_shift_signs(odd, j) -> list:
    """Per position u, whether the [i,j;k] rule's (-1)^{j |u|} is -1."""
    return [bool(j % 2 and o) for o in odd]


def _positions(module: GradedModule, name,
               message="{!r} is not a basis name of {!r}") -> tuple:
    """The positions of a basis name's parts, one per factor of `module`;
    KeyError(message.format(name, module)) for a value that is not a
    string, a wrong number of parts, or an unknown part."""
    if isinstance(name, str):
        parts = name.split(TENSOR_SEP)
        if len(parts) == len(module.factors):
            pos = [f.index().pos.get(x) for f, x in zip(module.factors, parts)]
            if None not in pos:
                return tuple(pos)
    raise KeyError(message.format(name, module))


def vector_terms(v: Vector) -> tuple:
    """v's terms in the form of a map's row: (key, coefficient), the key
    being a position of v's atomic module, or a tuple of positions, one per
    factor of its tensor module (`GradedModule.index`)."""
    if v.module.arity == 1:
        pos = v.module.index().pos
        return tuple((pos[n], c) for n, c in v.coeffs.items())
    return tuple((_positions(v.module, n), c) for n, c in v.coeffs.items())


def terms_degree(module: GradedModule, terms):
    """The degree of the element of `module` with the (key, coefficient)
    pairs `terms` of a map's row, read off the positions, or None for no
    terms; ValueError at a key that is not a position of `module` (one per
    factor of a tensor module) and for terms of more than one degree."""
    degrees, found = [f.index().degree for f in module.factors], set()
    for k, _ in terms:
        ks = (k,) if len(degrees) == 1 else k
        if not (type(ks) is tuple and len(ks) == len(degrees)
                and all(type(x) is int and 0 <= x < len(d)
                        for x, d in zip(ks, degrees))):
            raise ValueError(f"{k!r} is not a basis key of {module!r}")
        found.add(sum(d[x] for x, d in zip(ks, degrees)))
    if len(found) > 1:
        raise ValueError(f"inhomogeneous vector with degrees {sorted(found)}")
    return found.pop() if found else None


def names_of(module: GradedModule):
    """key -> the basis name at `key`, a position of `module` or a tuple of
    positions, one per factor, whose names TENSOR_SEP joins: the one way
    a key becomes a name."""
    names = [f.index().names for f in module.factors]
    if len(names) == 1:
        return names[0].__getitem__
    if len(names) == 2:   # the exporter's case: one concatenation is faster
        a, b = names
        return lambda key: a[key[0]] + TENSOR_SEP + b[key[1]]
    return lambda key: TENSOR_SEP.join(map(operator.getitem, names, key))


def format_row(module: GradedModule, terms) -> str:
    """The (key, coefficient) pairs `terms` of an element of `module`, in
    the form of a map's row, as text: the nonzero terms in name order
    (`names_of`), joined by " + " and " - ", "0" for none.  A name that
    begins with "-" (the shifted source part of a cone) is parenthesised,
    so that its own sign is never read as the term's."""
    name, fmt = names_of(module), module.ring.format
    parts = []
    for n, c in sorted((name(k), c) for k, c in terms if c != 0):
        if n.startswith("-"):
            n = f"({n})"
        cs = fmt(c)
        if cs == "1":
            parts.append(n)
        elif cs == "-1":
            parts.append(f"-{n}")
        else:
            parts.append(f"{cs}*{n}")
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def slot_table(terms, module: GradedModule, functionals: GradedModule,
               last: bool = False) -> dict:
    """An element T of `module`, a tensor of arity >= 2 given by its terms
    in the form of a map's row (a tuple of positions and a coefficient),
    contracted against every dual basis functional x^ of `functionals` at
    once, by T's first slot or by its last, in one pass over the terms:
    {position of x^: {positions of the other slots: coefficient}}, without
    the functionals whose contraction vanishes.  The other slots' positions
    are one position when one slot is left, else a tuple.

        first slot:  table[x^] = <x^ (x) 1, T>    (functional first, no sign)
        last slot:   table[x^] = <T, 1 (x) x^>    (element first: each term
                     w1 (x) x carries (-1)^{|x^||x|})
    """
    if module.arity < 2:
        raise ValueError("slot_table needs a tensor of arity >= 2")
    slot = module.factors[-1 if last else 0].index()
    dual = functionals.index()
    neg = module.ring.neg
    out = {}
    for ks, c in terms:
        if last:
            w, rest = ks[-1], ks[:-1]
        else:
            w, rest = ks[0], ks[1:]
        f = dual.pos[slot.names[w] + "^"]
        if last and dual.odd[f] and slot.odd[w]:
            c = neg(c)
        out.setdefault(f, {})[rest[0] if len(rest) == 1 else rest] = c
    return out
