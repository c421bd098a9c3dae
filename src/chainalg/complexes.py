"""Chain complexes, chain maps, homotopies, cones, quotients, and homology.

Complexes carry a degree -1 differential verified to square to zero at
construction.  Cochain-style data is stored with negated grading so one
engine serves both orientations.

Cone convention: Cone(c)_k = A_k + M_{k-1} for c: M -> A, with differential
d(a, m) = (d_A a + c(m), -d_M m).  Cone basis names are prefixed "+" for the
target part and "-" for the shifted source part.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .matrices import (   # smith_normal_form: not called, a name tracers patch
    ImageSolver,
    _combine,
    smith_normal_form,
)
from .graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Outcome,
    _first_difference,
    _signed_row,
    _sum_rows,
    apply_rows,
    basis_keys,
    format_row,
    names_of,
    sparse_blocks,
)


class ChainComplex:
    """Graded module with a degree -1 differential; d*d = 0 is checked on
    the differential's rows.  `solver(k)` is the one `ImageSolver` of d_k,
    built on first request and kept with the complex, which `homology` and
    `induces_zero` share."""

    def __init__(self, module: GradedModule, differential: GradedMap = None):
        if differential is None:
            differential = GradedMap.zero(module, module, -1, name="d")
        if differential.source != module or differential.target != module:
            raise ValueError("differential must be an endomorphism of the module")
        if differential.degree != -1:
            raise ValueError(f"differential has degree {differential.degree}, expected -1")
        # d(d(x)) summed straight from the rows, keyed i * stride + j on a
        # tensor source, whose row terms are keyed (i, j)
        rows, stride = differential.rows, differential.stride
        binary = module.arity == 2
        mul, add = module.ring.mul, module.ring.add
        for key in basis_keys(module):
            dd = {}
            for k, c in rows[key[0] * stride + key[1] if binary else key]:
                for t, v in rows[k[0] * stride + k[1] if binary else k]:
                    v = mul(c, v)
                    dd[t] = v if (old := dd.get(t)) is None else add(old, v)
            if any(dd.values()):
                name = names_of(module)(key)
                raise ValueError(f"d*d != 0 on {name}: d(d({name})) = "
                                 f"{format_row(module, dd.items())}")
        self.module = module
        self.d = differential
        self._solvers = {}

    @property
    def ring(self):
        return self.module.ring

    @functools.cached_property
    def _blocks(self):
        return sparse_blocks(self.d)

    def solver(self, k) -> ImageSolver:
        """The `ImageSolver` of d_k's sparse columns, factored once."""
        s = self._solvers.get(k)
        if s is None:
            s = self._solvers[k] = ImageSolver(self.ring, *self._blocks(k))
        return s

    def degrees(self):
        return self.module.degrees()

    def __repr__(self):
        return f"ChainComplex({self.module!r})"


class ChainMap:
    """Degree 0 map of complexes commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex, f: GradedMap):
        if f.degree != 0:
            raise ValueError(f"chain maps have degree 0, got {f.degree}")
        if f.source != source.module or f.target != target.module:
            raise ValueError("map endpoints do not match the complexes")
        _require_chain_map(f, source.d, target.d,
                           "not a chain map: fails on {}")
        self.source = source
        self.target = target
        self.f = f


def graded_commutator(h: GradedMap, source: ChainComplex, target: ChainComplex) -> GradedMap:
    """[d, h] = d_target h - (-1)^{|h|} h d_source, as a row map on the
    rows of h and of the two differentials."""
    if h.source != source.module or h.target != target.module:
        raise ValueError("map endpoints do not match the complexes")
    return GradedMap(h.source, h.target, h.degree - 1,
                     _commutator_rows(h, source.d, target.d),
                     name=f"[d,{h.name}]")


def _commutator_rows(h: GradedMap, d_source: GradedMap, d_target: GradedMap):
    """The row function of `graded_commutator`, from the differentials."""
    R = h.target.ring
    h_row, h_at = h.row, h.at
    d_s, d_t = d_source.row, d_target.at
    sign = R.one() if h.degree % 2 else R.neg(R.one())
    mul = R.mul

    def rows(*k):
        return _sum_rows(R, apply_rows(d_t, h_row(*k), R).items(), apply_rows(
            h_at, ((x, mul(sign, c)) for x, c in d_s(*k)), R).items())

    return rows


def _require_chain_map(h: GradedMap, d_source: GradedMap,
                       d_target: GradedMap, message: str):
    """Raise ValueError(message.format(name)), `name` the first basis
    element of h's source in canonical order where [d, h] does not vanish:
    the one test that h is a chain map, of any degree, for differentials
    d_source and d_target on its source and target."""
    rows = _commutator_rows(h, d_source, d_target)
    at = (lambda k: rows(*k)) if h.source.arity == 2 else rows
    _, x, _, _ = _first_difference(basis_keys(h.source),
                                   lambda x: (at(x), ()))
    if x is not None:
        raise ValueError(message.format(names_of(h.source)(x)))


def is_chain_homotopic(f: ChainMap, g: ChainMap, h: GradedMap) -> Outcome:
    """Does f - g = [d, h] hold exactly?  Compared on their rows."""
    R, module = f.target.ring, f.target.module
    f_t, g_t = f.f.at, g.f.at
    comm = graded_commutator(h, f.source, f.target).at
    _, x, lhs, rhs = _first_difference(basis_keys(f.source.module), lambda x: (
        dict(_sum_rows(R, f_t(x), _signed_row(g_t(x), True, R.neg))),
        dict(comm(x))))
    if x is None:
        return Outcome("pass", "")
    return Outcome("fail", f"fails on {names_of(f.source.module)(x)}: "
                          f"{format_row(module, lhs.items())} vs "
                          f"{format_row(module, rhs.items())}")


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologySummary:
    """free_rank and torsion invariant factors per degree (torsion empty
    over fields); degrees with trivial homology are omitted."""

    by_degree: tuple

    def __str__(self):
        if not self.by_degree:
            return "0"
        parts = []
        for deg, free, tors in self.by_degree:
            gens = []
            if free:
                gens.append("R" if free == 1 else f"R^{free}")
            gens.extend(f"R/{t}" for t in tors)
            parts.append(f"H_{deg} = {' + '.join(gens)}")
        return ", ".join(parts)


def homology(C: ChainComplex) -> HomologySummary:
    """Free rank and torsion of H_k(C) in every degree, read off the
    boundary blocks: free_k = dim C_k - rank d_k - rank d_{k+1}, and the
    torsion of H_k is the invariant factors > 1 of d_{k+1} (C_k / ker d_k
    is free, so H_k has the torsion of C_k / im d_{k+1}).

    Each block is the complex's one `ImageSolver` of its sparse columns
    (`ChainComplex.solver`): unit-pivot elimination, and over Z only the
    residual without unit entries meets Smith normal form.
    """
    degrees = C.degrees()
    out = []
    for k in degrees:
        d_k = C.solver(k)
        up = C.solver(k + 1) if k + 1 in degrees else None
        torsion = () if up is None else up.torsion
        free = d_k.cols - d_k.rank - (0 if up is None else up.rank)
        if free or torsion:
            out.append((k, free, torsion))
    return HomologySummary(tuple(out))


def induces_zero(f: ChainMap) -> bool:
    """Is f_* = 0 on homology?  In each degree k of f's source, f must map
    every vector of the kernel of d_k into the image lattice of the
    target's d_{k+1}.  The kernel is a saturated lattice basis of the
    cycles, and `ImageSolver.coordinates` decides membership in the image
    lattice, so the verdict is exact over Z, Q and GF(p) alike.  Both
    complexes' solvers (`ChainComplex.solver`) are the ones `homology`
    reads."""
    R, block = f.source.ring, sparse_blocks(f.f)
    for k in f.source.degrees():
        kernel = f.source.solver(k).kernel()
        if kernel:
            cols = block(k)[1]
            up = f.target.solver(k + 1)
            for z in kernel:
                fz = _combine(R, ((c, cols[i]) for i, c in z.items()))
                if up.coordinates(fz) is None:
                    return False
    return True


# ---------------------------------------------------------------------------
# Mapping cone
# ---------------------------------------------------------------------------

@dataclass
class Cone:
    complex: ChainComplex
    chain_map: ChainMap
    # positions in the cone of the positions of A ("+" part) and of M ("-"
    # part), and for each cone position (in the "-" part, position in A or M)
    layout: tuple = ()


@dataclass
class ComplexBundle:
    """A complex, the top degree of its `essential` check, and a pair: a
    chain map c: M -> complex and a degree +1 map M -> complex beside it."""

    complex: ChainComplex
    top: int = None
    pair_map: ChainMap = None
    secondary: GradedMap = None


def mapping_cone(c: ChainMap) -> Cone:
    """Cone(c) with d_cone a row map on the rows of c and of the two
    differentials; the layout places A's and M's positions in the cone."""
    M, A = c.source.module, c.target.module
    R = A.ring
    basis = [BasisElement("+" + e.name, e.degree) for e in A.basis()]
    basis += [BasisElement("-" + e.name, e.degree + 1) for e in M.basis()]
    cone_mod = GradedModule(R, basis, name=f"Cone({c.f.name})")
    pos = cone_mod.index().pos
    plus = [pos["+" + n] for n in A.index().names]
    minus = [pos["-" + n] for n in M.index().names]
    where = [None] * len(pos)
    for block, ks in ((False, plus), (True, minus)):
        for p, k in enumerate(ks):
            where[k] = (block, p)
    d_A, d_M, f = (m.row for m in (c.target.d, c.source.d, c.f))
    neg = R.neg

    def d_row(u):   # d(a, m) = (d_A a + c(m), -d_M m)
        block, p = where[u]
        if not block:
            return tuple((plus[k], x) for k, x in d_A(p))
        return (tuple((minus[k], neg(x)) for k, x in d_M(p))
                + tuple((plus[k], x) for k, x in f(p)))

    cone = ChainComplex(cone_mod, GradedMap(cone_mod, cone_mod, -1, d_row,
                                            name="d_cone"))
    return Cone(cone, c, (plus, minus, where))


# ---------------------------------------------------------------------------
# Quotient by the image of a chain map
# ---------------------------------------------------------------------------

class QuotientComplex:
    """C / im(c) for a chain map c into C, presented exactly.

    Each block of c is factored once, by one `ImageSolver`.  A coset is
    represented by a row of the base, (basis key, coefficient) pairs;
    `reduces_to_zero` decides membership in the image lattice, and
    `homology()` is the homology of the mapping cone of the inclusion
    im(c) -> C.
    """

    def __init__(self, c: ChainMap):
        self.base = c.target
        block = sparse_blocks(c.f)
        self._image = {k: ImageSolver(self.base.ring, *block(k))
                       for k in self.base.degrees()}

    def _coordinates(self, row):
        """The coordinates of a homogeneous row in the image generators of
        its degree, or None outside the image lattice."""
        at, col, degrees = self.base.module.layout().at, {}, set()
        for key, c in row:
            k, r = at[key]
            col[r] = c
            degrees.add(k)
        if len(degrees) > 1:
            raise ValueError(f"inhomogeneous row with degrees {sorted(degrees)}")
        return self._image[k].coordinates(col) if col else {}

    def reduces_to_zero(self, row) -> bool:
        return self._coordinates(row) is not None

    def _generators(self):
        """{k: the image generators of degree k, as rows of the base}."""
        keys = self.base.module.layout().keys
        return {k: [tuple((keys[k][r], c) for r, c in col.items())
                    for col in solver.image()]
                for k, solver in self._image.items()}

    def _boundary(self, row):
        return apply_rows(self.base.d.at, row, self.base.ring).items()

    def projection_is_chain_map(self) -> bool:
        # d(im c) lies in im c  iff  the projection commutes with d
        return all(self.reduces_to_zero(self._boundary(g))
                   for gens in self._generators().values() for g in gens)

    def homology(self) -> HomologySummary:
        """H(C / im c) as H of the cone of the inclusion im(c) -> C.

        The inclusion is injective, so its cone is quasi-isomorphic to the
        cokernel (Weibel, *An Introduction to Homological Algebra*, 1.5),
        and `homology` reads it with the sparse engine.  The subcomplex has
        one basis element "k:j" per image generator; its differential holds
        the coordinates of d(g) in the generators one degree down, read
        from that degree's own factorization.
        """
        gens = self._generators()
        sub = GradedModule(self.base.ring, [
            BasisElement(f"{k}:{j}", k) for k, gs in gens.items()
            for j in range(len(gs))])
        pos = sub.index().pos
        d_sub, incl = {}, {}
        for k, gs in gens.items():
            for j, g in enumerate(gs):
                incl[pos[f"{k}:{j}"]] = g
                d_sub[pos[f"{k}:{j}"]] = tuple(
                    (pos[f"{k - 1}:{i}"], a)
                    for i, a in self._coordinates(self._boundary(g)).items())
        inclusion = ChainMap(
            ChainComplex(sub, GradedMap(sub, sub, -1, d_sub.__getitem__,
                                        name="d")),
            self.base,
            GradedMap(sub, self.base.module, 0, incl.__getitem__, name="incl"))
        return homology(mapping_cone(inclusion).complex)


def quotient_by_image(c: ChainMap) -> QuotientComplex:
    return QuotientComplex(c)


# ---------------------------------------------------------------------------
# Essential complexes (differential vanishing at the extreme degree)
# ---------------------------------------------------------------------------

def is_essential(C: ChainComplex, top: int, orientation: str = "chain") -> bool:
    """Does the differential vanish at the extreme degree?

    orientation "chain": support must lie in [0, top] and d restricted to
    degree-top chains is zero.  orientation "cochain": the complex stores a
    cochain complex with negated grading (support in [-top, 0]) and the
    component into the extreme degree -top must vanish.
    """
    degs = C.degrees()
    if orientation == "chain":
        if degs and (degs[0] < 0 or degs[-1] > top):
            raise ValueError(f"support {degs} outside [0, {top}]")
        return _vanishes(C.d, lambda k: k == top)
    if orientation == "cochain":
        if degs and (degs[0] < -top or degs[-1] > 0):
            raise ValueError(f"support {degs} outside [-{top}, 0]")
        return _vanishes(C.d, lambda k: k == -top + 1)
    raise ValueError(f"unknown orientation {orientation!r}")


def _vanishes(f: GradedMap, in_degree) -> bool:
    """Are the rows of f empty on every basis element whose degree k
    has in_degree(k)?"""
    at = f.at
    return not any(at(key) for k, keys in f.source.layout().keys.items()
                   if in_degree(k) for key in keys)


# ---------------------------------------------------------------------------
# Homotopies induced on quotients
# ---------------------------------------------------------------------------

def induced_quotient_homotopy(c: ChainMap, c_prime: ChainMap, h: GradedMap,
                              c1: ChainMap, c2: ChainMap, top: int) -> tuple:
    """(h_bar, Outcome): the homotopy h_bar between the maps induced on
    C/im(c1) -> C'/im(c2), and its verdict.

    Inputs are in cochain orientation (negated degrees, support [-top, 0]);
    h satisfies c' - c = [d, h] on the nose, im(c_i) is concentrated in the
    extreme degree -top.  The induced homotopy is h away from degree -top
    and 0 there; the relation [c'] - [c] = [d, [h]] is verified exactly
    modulo the image lattices.
    """
    K1, K2 = c.source, c.target
    for name, complex_ in (("source", K1), ("target", K2)):
        if not is_essential(complex_, top, orientation="cochain"):
            raise ValueError(f"{name} complex is not essential for top degree {top}")
    if h.degree != 1:
        raise ValueError(f"homotopies have degree +1, got {h.degree}")
    rep = is_chain_homotopic(c_prime, c, h)
    if rep.status != "pass":
        raise ValueError(f"h is not a homotopy from c to c': {rep.detail}")
    if c1.target.module != K1.module or c2.target.module != K2.module:
        raise ValueError("c1/c2 must map into the source/target complexes")
    for ci in (c1, c2):
        if not _vanishes(ci.f, lambda k: k != -top):
            raise ValueError("im(c_i) is not concentrated in the extreme degree")

    mod1, mod2 = K1.module, K2.module
    R, h_row, at = mod2.ring, h.row, mod1.layout().at

    def rows(*k):   # h away from degree -top, 0 there
        return () if at[k if len(k) > 1 else k[0]][0] == -top else h_row(*k)

    h_bar = GradedMap(mod1, mod2, 1, rows, name="[h]")
    q2 = quotient_by_image(c2)
    c_t, cp_t = c.f.at, c_prime.f.at
    comm = graded_commutator(h_bar, K1, K2).at

    def sides(x):   # (the defect, ()) where it leaves the image lattice
        defect = _sum_rows(R, cp_t(x), _signed_row(c_t(x), True, R.neg),
                           _signed_row(comm(x), True, R.neg))
        return (() if q2.reduces_to_zero(defect) else defect), ()

    _, x, defect, _ = _first_difference(basis_keys(mod1), sides)
    if x is None:
        return h_bar, Outcome("pass", "")
    return h_bar, Outcome("fail", f"defect on {names_of(mod1)(x)}: "
                          f"{format_row(mod2, defect)}")


# ---------------------------------------------------------------------------
# Transition automorphism of a cone
# ---------------------------------------------------------------------------

@dataclass
class TransitionResult:
    delta: GradedMap               # Phi - id
    unipotent: bool                # delta^2 = 0
    nontrivial_on_homology: bool   # delta_* != 0, that is Phi_* != id


def transition_automorphism(cone: Cone, csec: GradedMap) -> TransitionResult:
    """Phi(a, m) = (a + csec(m), m) on Cone(c), for a degree +1 chain map
    csec, given by delta = Phi - id: the csec block at the "+" positions.

    csec: M -> A must be a chain map (degree +1, commuting with the
    differentials up to the degree's sign); delta is then a chain map, so
    Phi is a chain automorphism, with delta^2 = 0.  Phi acts nontrivially
    on cone homology exactly when delta does not induce zero there.
    """
    M, A = cone.chain_map.source, cone.chain_map.target
    if csec.source != M.module or csec.target != A.module or csec.degree != 1:
        raise ValueError("csec must map the cone source to its target with degree +1")
    _require_chain_map(csec, M.d, A.d,
                       "csec is not a chain map: [d, csec] != 0 on {}")

    cone_mod = cone.complex.module
    R, plus, where = cone_mod.ring, cone.layout[0], cone.layout[2]
    csec_row = csec.row

    def delta_row(u):   # the csec block, moved to the "+" positions
        block, p = where[u]
        return tuple((plus[k], c) for k, c in csec_row(p)) if block else ()

    delta = GradedMap(cone_mod, cone_mod, 0, delta_row, name="Phi-id")
    delta_chain = ChainMap(cone.complex, cone.complex, delta)
    unipotent = not any(apply_rows(delta.row, delta.row(u), R)
                        for u in range(len(where)))
    return TransitionResult(delta, unipotent, not induces_zero(delta_chain))
