"""Ground-truth instances: loop homology of spheres and the T*S^1 bundle.

The sphere models live on truncated exterior/Laurent algebras in two
generators A and U (or U alone for based loops).  Truncation keeps
|exponent| <= N; products that would leave the window are dropped, and
every axiom quantifier runs over the safe radius r = (N-1)//3, chosen so
that no intermediate of any shipped check ever reaches a dropped term
(constructors accept on_overflow="raise" to assert that).

Closed-form coproducts, with 1 = U^0 the unit:

  free loops, n odd >= 3 (|U| = n-1, |A| = -n):
      lam(A U^k) = sum_{i+j=k-1} A U^i (x) A U^j
      lam(U^k)   = sum_{i+j=k-1} (A U^i (x) U^j - U^i (x) A U^j)
  free loops on the circle (|U| = 0, |A| = -1), two variants:
      lam_plus(A U^k)  = sum_{i=0..k} A U^i (x) A U^{k-i}          (k >= 0)
                       = -sum_{i=k+1..-1} A U^i (x) A U^{k-i}      (k < 0)
      lam_minus(A U^k) = sum_{i=1..k-1} A U^i (x) A U^{k-i}        (k > 0)
                       = -sum_{i=k..0} A U^i (x) A U^{k-i}         (k <= 0)
      (same index ranges for lam(U^k), with AU^i (x) U^j - U^i (x) AU^j)
  based loops: drop A; lam(U^k) = sum_{i+j=k-1} U^i (x) U^j, and the
  circle variants use the same index ranges as above.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Ring, ZZ
from .graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Vector,
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


def _safe_names(module: GradedModule, loops, radius: int):
    """The basis names with |U-exponent| <= radius, read through `loops`
    (`_loop_positions`)."""
    return tuple(n for n, (_, k) in zip(module.index().names, loops[0])
                 if abs(k) <= radius)


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


def _pair_terms(i, j, with_a: bool):
    """Terms AU^i(x)U^j - U^i(x)AU^j, or U^i(x)U^j without A, each as
    (sign, (a, k) of the left factor, (a, k) of the right one)."""
    if not with_a:
        return [(1, (0, i), (0, j))]
    return [(1, (1, i), (0, j)), (-1, (0, i), (1, j))]


def _a_terms(i, j):
    return [(1, (1, i), (1, j))]


def _coproduct(module: GradedModule, loops, degree: int,
               terms_of) -> GradedMap:
    """lam as a row map: terms_of(a, k) lists the terms of lam(A^a U^k) as
    `_pair_terms` does, and `loops` (`_loop_positions`) turns them into
    positions."""
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


def make_loop_sphere(n: int, window: TruncationWindow = TruncationWindow(),
                     ring: Ring = ZZ, on_overflow: str = "drop") -> BialgebraData:
    """Free-loop model of an odd-dimensional sphere, n odd >= 3."""
    if n % 2 == 0 or n < 3:
        raise ValueError("free-loop sphere model needs odd n >= 3")
    module = _loop_module(ring, n, window, with_a=True, laurent=False,
                          label=f"loops(S^{n})")
    loops = _loop_positions(module)
    mu = _exterior_mu(module, loops, window, laurent=False,
                      on_overflow=on_overflow)

    def lam_terms(a, k):
        terms = []
        for i in range(0, k):
            j = k - 1 - i
            terms += _a_terms(i, j) if a else _pair_terms(i, j, True)
        return terms

    lam = _coproduct(module, loops, 1 - 2 * n, lam_terms)
    return BialgebraData(module, mu, lam, module.el("1"),
                         safe_names=_safe_names(module, loops, window.safe_radius),
                         name=f"lambda-s{n}")


def _circle_lambda_terms(variant: str, sign_a: int, k: int, with_a: bool):
    """Index ranges of the circle coproducts; sign_a = 1 for the A-column."""
    if variant == "plus":
        rng = range(0, k + 1) if k >= 0 else range(k + 1, 0)
        outer = 1 if k >= 0 else -1
    else:
        rng = range(1, k) if k > 0 else range(k, 1)
        outer = 1 if k > 0 else -1
    terms = []
    for i in rng:
        j = k - i
        base = _a_terms(i, j) if sign_a else _pair_terms(i, j, with_a)
        terms += [(outer * s, left, right) for s, left, right in base]
    return terms


def make_loop_circle(window: TruncationWindow = TruncationWindow(),
                     variant: str = "plus", ring: Ring = ZZ,
                     on_overflow: str = "drop") -> BialgebraData:
    """Free-loop model of the circle; variant picks the coproduct sign."""
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    module = _loop_module(ring, 1, window, with_a=True, laurent=True,
                          label="loops(S^1)")
    loops = _loop_positions(module)
    mu = _exterior_mu(module, loops, window, laurent=True,
                      on_overflow=on_overflow)
    lam = _coproduct(module, loops, -1, lambda a, k: _circle_lambda_terms(
        variant, a, k, True))
    return BialgebraData(module, mu, lam, module.el("1"),
                         safe_names=_safe_names(module, loops, window.safe_radius),
                         name=f"lambda-s1-{variant}")


def make_based_loop(n: int, window: TruncationWindow = TruncationWindow(),
                    variant: str = "plus", ring: Ring = ZZ,
                    on_overflow: str = "drop") -> BialgebraData:
    """Based-loop model of an odd sphere; the circle needs a variant."""
    if n % 2 == 0 or n < 1:
        raise ValueError("based-loop sphere model needs odd n >= 1")
    laurent = n == 1
    module = _loop_module(ring, n, window, with_a=False, laurent=laurent,
                          label=f"based_loops(S^{n})")
    loops = _loop_positions(module)
    mu = _exterior_mu(module, loops, window, laurent=laurent,
                      on_overflow=on_overflow)

    if n == 1:
        if variant not in ("plus", "minus"):
            raise ValueError("variant must be 'plus' or 'minus'")

        def lam_terms(_, k):
            return _circle_lambda_terms(variant, 0, k, False)

        degree = 0
        label = f"omega-s1-{variant}"
    else:
        def lam_terms(_, k):
            terms = []
            for i in range(0, k):
                terms += _pair_terms(i, k - 1 - i, False)
            return terms

        degree = 1 - n
        label = f"omega-s{n}"

    lam = _coproduct(module, loops, degree, lam_terms)
    return BialgebraData(module, mu, lam, module.el("1"),
                         safe_names=_safe_names(module, loops, window.safe_radius),
                         name=label)


def reverse_data_bivector(inst: BialgebraData) -> Vector:
    """The bivector of the reverse-coproduct relation for a plus fixture:
    1(x)A - A(x)1 on the free-loop circle, -(1(x)1) on the based circle."""
    module = inst.module
    A2 = tensor(module, module)
    if module.has("A"):
        return Vector(A2, {f"1{TENSOR_SEP}A": 1, f"A{TENSOR_SEP}1": -1})
    return Vector(A2, {f"1{TENSOR_SEP}1": -1})


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
    if base[output_name] == 0:
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

# catalog name -> its builder(window, ring, on_overflow), in catalog order
_BUILDERS = {
    "lambda-s3": lambda w, r, o: make_loop_sphere(3, w, r, o),
    "lambda-s1-plus": lambda w, r, o: make_loop_circle(w, "plus", r, o),
    "lambda-s1-minus": lambda w, r, o: make_loop_circle(w, "minus", r, o),
    "omega-s3": lambda w, r, o: make_based_loop(3, w, "plus", r, o),
    "omega-s1-plus": lambda w, r, o: make_based_loop(1, w, "plus", r, o),
    "omega-s1-minus": lambda w, r, o: make_based_loop(1, w, "minus", r, o),
    "tstar-s1": lambda w, r, o: make_tstar_s1(r),
}


def fixture_names():
    return tuple(_BUILDERS)


def make_fixture(name: str, window: TruncationWindow = TruncationWindow(),
                 ring: Ring = ZZ, on_overflow: str = "drop"):
    """Build a shipped fixture by its catalog name."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; catalog: {', '.join(fixture_names())}")
    return _BUILDERS[name](window, ring, on_overflow)
