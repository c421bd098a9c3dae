"""Ground-truth instances: loop homology of spheres and the T*S^1 bundle.

The sphere models live on truncated exterior/Laurent algebras in two
generators A and U (or U alone for based loops).  Truncation keeps
|exponent| <= N; products that would leave the window are dropped, and
every axiom quantifier runs over the safe radius r = (N-1)//3, chosen so
that no intermediate of any shipped check ever reaches a dropped term
(make_fixture accepts on_overflow="raise" to assert that).

Each loop model is one catalog row (n, "free" or "based", variant): the
odd sphere S^n, free loops (with A) or based loops (without), and on the
circle, n = 1, the variant "plus" or "minus" that picks the coproduct's
index range and sign.  |U| = n-1 and |A| = -n; the module is Laurent
exactly when n = 1.  Closed-form coproducts, with 1 = U^0 the unit:

  free loops, row (n, "free", None), n odd >= 3, |lam| = 1-2n:
      lam(A U^k) = sum_{i+j=k-1} A U^i (x) A U^j
      lam(U^k)   = sum_{i+j=k-1} (A U^i (x) U^j - U^i (x) A U^j)
  free loops on the circle, row (1, "free", variant), |lam| = -1:
      lam_plus(A U^k)  = sum_{i=0..k} A U^i (x) A U^{k-i}          (k >= 0)
                       = -sum_{i=k+1..-1} A U^i (x) A U^{k-i}      (k < 0)
      lam_minus(A U^k) = sum_{i=1..k-1} A U^i (x) A U^{k-i}        (k > 0)
                       = -sum_{i=k..0} A U^i (x) A U^{k-i}         (k <= 0)
      (same index ranges for lam(U^k), with AU^i (x) U^j - U^i (x) AU^j)
  based loops, row (n, "based", variant), |lam| = 1-n: drop A;
  lam(U^k) = sum_{i+j=k-1} U^i (x) U^j, and the circle variants use the
  same index ranges as above.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Ring, ZZ
from .graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    tensor,
    TENSOR_SEP,
    _positions,
)
from .complexes import ChainComplex, ChainMap, ComplexBundle
from .bialgebra import BialgebraData
from .scenario import MAX_BASIS


class TruncationOverflow(RuntimeError):
    """A structure constant left the truncation window."""


@dataclass(frozen=True)
class TruncationWindow:
    """Window keeping |U-exponent| <= N; quantifiers use the safe radius."""

    N: int = 12

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("window must keep at least exponent 4")

    @property
    def safe_radius(self) -> int:
        # any shipped check composes at most a triple product with one
        # coproduct: exponent growth <= 3k + 1 stays within N
        return (self.N - 1) // 3


def _u_name(k: int) -> str:
    if k == 0:
        return "1"
    if k == 1:
        return "U"
    return f"U^{k}"


def _au_name(k: int) -> str:
    if k == 0:
        return "A"
    if k == 1:
        return "A*U"
    return f"A*U^{k}"


def _parse_name(name: str):
    """(a, k) with the element A^a U^k."""
    if name.startswith("A"):
        rest = name[1:]
        if not rest:
            return 1, 0
        if not rest.startswith("*"):
            raise ValueError(f"not a loop-homology basis name: {name!r}")
        return 1, _parse_name(rest[1:])[1]
    if name == "1":
        return 0, 0
    if name == "U":
        return 0, 1
    if not name.startswith("U^"):
        raise ValueError(f"not a loop-homology basis name: {name!r}")
    return 0, int(name[2:])


def _loop_module(ring: Ring, n: int, window: TruncationWindow,
                 with_a: bool, laurent: bool, label: str) -> GradedModule:
    deg_u = n - 1
    deg_a = -n
    lo = -window.N if laurent else 0
    size = (window.N + 1 - lo) * (2 if with_a else 1)
    if size > MAX_BASIS:   # refused before anything is built
        raise ValueError(f"window {window.N} gives {label} {size} basis "
                         f"elements, more than the {MAX_BASIS} a module "
                         "may have")
    basis = []
    for k in range(lo, window.N + 1):
        basis.append(BasisElement(_u_name(k), k * deg_u))
        if with_a:
            basis.append(BasisElement(_au_name(k), k * deg_u + deg_a))
    return GradedModule(ring, basis, name=label)


def _loop_positions(module: GradedModule):
    """(a, k) of the element A^a U^k at each position, parsed from its name
    once, and the position of each (a, k)."""
    parsed = tuple(_parse_name(n) for n in module.index().names)
    return parsed, {ak: p for p, ak in enumerate(parsed)}


def _exterior_mu(module: GradedModule, loops, window: TruncationWindow,
                 laurent: bool, on_overflow: str) -> GradedMap:
    """A^a U^j * A^b U^k = A^{a+b} U^{j+k}, zero when a + b = 2.

    No Koszul signs arise: U is even and the A-parts annihilate.  A row map
    on basis positions, read through `loops` (`_loop_positions`).
    """
    parsed, at = loops
    names = module.index().names
    lo = -window.N if laurent else 0
    one = module.ring.one()

    def row(x, y):
        (a, j), (b, k) = parsed[x], parsed[y]
        if a + b >= 2:
            return ()
        e = j + k
        if e > window.N or e < lo:
            if on_overflow == "raise":
                raise TruncationOverflow(
                    f"{names[x]} * {names[y]} leaves the window")
            return ()
        return ((at[a + b, e], one),)

    return GradedMap(tensor(module, module), module, 0, row, name="mu")


def _coproduct(module: GradedModule, loops, degree: int,
               terms_of) -> GradedMap:
    """lam as a row map: terms_of(a, k) lists the terms of lam(A^a U^k),
    each as (sign, (a, k) of the left factor, (a, k) of the right one), and
    `loops` (`_loop_positions`) turns them into positions."""
    parsed, at = loops
    R = module.ring
    sign = {1: R.one(), -1: R.neg(R.one())}

    def row(x):
        out = {}
        for s, left, right in terms_of(*parsed[x]):
            key = (at[left], at[right])
            out[key] = (sign[s] if (old := out.get(key)) is None
                        else R.add(old, sign[s]))
        return tuple((k, c) for k, c in out.items() if c != 0)

    return GradedMap(module, tensor(module, module), degree, row, name="lam")


def _loop_fixture(name: str, n: int, kind: str, variant,
                  window: TruncationWindow, ring: Ring,
                  on_overflow: str) -> BialgebraData:
    """The loop model of the catalog row (n, kind, variant), as the module
    docstring states it: free loops carry the A-column, based ones do not,
    and on the circle (n = 1) the variant picks the index range."""
    based = kind == "based"
    laurent = n == 1
    module = _loop_module(ring, n, window, with_a=not based, laurent=laurent,
                          label=f"{'based_loops' if based else 'loops'}(S^{n})")
    loops = _loop_positions(module)
    mu = _exterior_mu(module, loops, window, laurent=laurent,
                      on_overflow=on_overflow)

    def pairs(k):
        """(sign, i, j) for each index pair of lam(A^a U^k)."""
        if not laurent:
            return [(1, i, k - 1 - i) for i in range(k)]
        if variant == "plus":
            rng = range(0, k + 1) if k >= 0 else range(k + 1, 0)
            outer = 1 if k >= 0 else -1
        else:
            rng = range(1, k) if k > 0 else range(k, 1)
            outer = 1 if k > 0 else -1
        return [(outer, i, k - i) for i in rng]

    def terms(a, k):
        out = []
        for s, i, j in pairs(k):
            if a:
                out.append((s, (1, i), (1, j)))
            elif based:
                out.append((s, (0, i), (0, j)))
            else:
                out += [(s, (1, i), (0, j)), (-s, (0, i), (1, j))]
        return out

    lam = _coproduct(module, loops, 1 - n if based else 1 - 2 * n, terms)
    r = window.safe_radius
    safe = tuple(nm for nm, (_, k) in zip(module.index().names, loops[0])
                 if abs(k) <= r)
    eta = ((loops[1][0, 0], ring.one()),)   # the unit 1 = U^0
    return BialgebraData(module, mu, lam, eta, safe_names=safe, name=name)


def reverse_data_bivector(inst: BialgebraData) -> tuple:
    """The bivector of the reverse-coproduct relation for a plus fixture,
    as a row on A (x) A: 1(x)A - A(x)1 on the free-loop circle, -(1(x)1)
    on the based circle."""
    pos, R = inst.module.index().pos, inst.module.ring
    one, minus_one = R.one(), R.neg(R.one())
    if "A" in pos:
        return (((pos["1"], pos["A"]), one), ((pos["A"], pos["1"]), minus_one))
    return (((pos["1"], pos["1"]), minus_one),)


# ---------------------------------------------------------------------------
# The T*S^1 package (a vanishing continuation map and its secondary map)
# ---------------------------------------------------------------------------

def make_tstar_s1(ring: Ring = ZZ, sign: int = 1) -> ComplexBundle:
    """Cotangent-bundle-of-the-circle example in negated cochain degrees:
    the vanishing continuation map c: MC(-K) -> MC(K) as the pair map, and
    the degree +1 secondary map swapping the two generators."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    plus_mod = GradedModule(ring, [BasisElement("p", 0), BasisElement("q", -1)],
                            name="MC(K)")
    minus_mod = GradedModule(ring, [BasisElement("q", -1), BasisElement("p", -2)],
                             name="MC(-K)")
    c = ChainMap(ChainComplex(minus_mod), ChainComplex(plus_mod),
                 GradedMap.zero(minus_mod, plus_mod, 0, name="c"))
    csec = GradedMap.from_table(minus_mod, plus_mod, 1, {
        "p": plus_mod.el("q", sign),
        "q": plus_mod.el("p", sign),
    }, name="csec")
    return ComplexBundle(c.target, None, c, csec)


# ---------------------------------------------------------------------------
# Seeded one-constant mutants
# ---------------------------------------------------------------------------

def flip_structure_constant(m: GradedMap, input_name: str,
                            output_name: str) -> GradedMap:
    """Copy of m with the (input, output) structure constant negated, as a
    row map on m's rows."""
    base = m.eval_basis(input_name)
    if output_name not in base.coeffs:
        raise KeyError(f"{output_name!r} does not occur in the image of {input_name!r}")
    at = [_positions(mod, n)
          for mod, n in ((m.source, input_name), (m.target, output_name))]
    flipped, out = at[0], at[1] if m.target.arity > 1 else at[1][0]
    row, neg = m.row, m.source.ring.neg

    def rows(*k):
        r = row(*k)
        if k != flipped:
            return r
        return tuple((t, neg(c) if t == out else c) for t, c in r)

    return GradedMap(m.source, m.target, m.degree, rows, name=f"{m.name}!flip")


def mutate_lambda(inst: BialgebraData, input_name: str, output_name: str) -> BialgebraData:
    return BialgebraData(inst.module,
                         inst.mu,
                         flip_structure_constant(inst.lam, input_name, output_name),
                         inst.eta, safe_names=inst.safe_names,
                         name=inst.name + "!lam")


def mutate_mu(inst: BialgebraData, input_name: str, output_name: str) -> BialgebraData:
    return BialgebraData(inst.module,
                         flip_structure_constant(inst.mu, input_name, output_name),
                         inst.lam,
                         inst.eta, safe_names=inst.safe_names,
                         name=inst.name + "!mu")


def mutation_targets(inst: BialgebraData, window: TruncationWindow):
    """Every structure constant the safe-window axiom checks can read.

    Yields ("mu"|"lambda", input_name, output_name) triples: mu entries on
    safe x safe inputs, lambda entries on inputs with |exponent| <= 2r
    (those are reached through lam(mu(x, y)) with x, y safe).  Constants
    outside this set are untouched by every quantifier, so flipping them is
    undetectable by construction of the window.
    """
    r = window.safe_radius
    A2 = tensor(inst.module, inst.module)
    for a in inst.safe_names:
        for b in inst.safe_names:
            key = f"{a}{TENSOR_SEP}{b}"
            for out_name in sorted(inst.mu.eval_basis(key).coeffs):
                yield ("mu", key, out_name)
    for e in inst.module.basis():
        _, k = _parse_name(e.name)
        if abs(k) <= 2 * r:
            for out_name in sorted(inst.lam.eval_basis(e.name).coeffs):
                yield ("lambda", e.name, out_name)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

# catalog name -> the row (n, "free" or "based", variant) of a loop model,
# or the builder(window, ring, on_overflow) of any other fixture; in
# catalog order
_CATALOG = {
    "lambda-s3": (3, "free", None),
    "lambda-s1-plus": (1, "free", "plus"),
    "lambda-s1-minus": (1, "free", "minus"),
    "omega-s3": (3, "based", None),
    "omega-s1-plus": (1, "based", "plus"),
    "omega-s1-minus": (1, "based", "minus"),
    "tstar-s1": lambda w, r, o: make_tstar_s1(r),
}


def fixture_names():
    return tuple(_CATALOG)


def make_fixture(name: str, window: TruncationWindow = TruncationWindow(),
                 ring: Ring = ZZ, on_overflow: str = "drop"):
    """Build a shipped fixture by its catalog name."""
    if name not in _CATALOG:
        raise KeyError(f"unknown fixture {name!r}; catalog: {', '.join(fixture_names())}")
    row = _CATALOG[name]
    if callable(row):
        return row(window, ring, on_overflow)
    return _loop_fixture(name, *row, window, ring, on_overflow)
