"""Cone products from product/coproduct/bivector data on one complex.

Given a complex A with product mu, coproduct lam of degree 1-2n, a
continuation bivector c0, a secondary continuation bivector Q0 (the "c" of
the component formulas), and a cyclically symmetric cubic vector B, six
secondary operations are fixed by exact dualization against the dual-basis
pairing (M denotes the 2n-shifted dual of A, Mbar its further shift by -1,
so barred elements sit one degree higher):

    <a, m_L(b,f)>   = <mu(a,b), f>
    <m_R(f,a), b>   = <f, mu(a,b)>
    <sigma(f,g), a> = (-1)^{(|f|+1)(|g|+1)} <g (x) f, lam_rev(a)>
    tau_R(b,f)      = <lam_fwd(b), 1 (x) f>
    tau_L(f,a)      = (-1)^{|f|+1} <f (x) 1, lam_rev_left(a)>
    beta(f,g)       = <f (x) g (x) 1, B>

with lam_fwd = lam + (mu (x) 1)(1 (x) Q0), lam_rev_left = lam +
(1 (x) mu)(Q0 (x) 1), and lam_rev carrying both corrections, each a
change of coproduct (`bialgebra.secondary_relation_apply`).  The cone
product's parts are these operations, [i,j;k]-shifted into the blocks

    (+,+)->+ : mu        (+,-)->+ : tau_R[0,1;0]   (+,-)->- : m_L[0,1;1]
    (-,+)->+ : tau_L[1,0;0]                        (-,+)->- : m_R[1,0;1]
    (-,-)->- : sigma[1,1;1]                        (-,-)->+ : beta[1,1;0]
    (+,+)->- : 0

so an operation is its part, shifted back at its [i,j;k] by the rule of
the `graded` docstring; nothing builds the operations on their own.  The
closed-form components are transcribed independently and cross-checked
against the product's blocks.

The product and each component are row maps on basis positions
(`GradedMap`), filled on first request from the integer rows of mu, lam
and B.  The dual parts (m_L, m_R, sigma here; mp_m, pm_m, mm_m in the
closed form) read sparse transposes of those rows and of the corrected
coproducts (output position -> [(input x, coefficient)]), built once per
package, mu's per fixed factor and degree of the free one: the product's
straight from mu's row dict (`GradedMap.rows`), already in cone
positions, and the closed form's through `_Layout.columns`.  The
contractions (tau_L, tau_R, beta; mp_p, pm_p, mm_p) read position-keyed
tables.  The product has one row function per block, each [i,j;k]
shift's sign folded into its part's.  M, Mbar and the layout of A and M
are built once, with the package; the product and the closed form build
their own tables from their own formulas through that layout.
"""

from __future__ import annotations

import functools
import itertools

from .graded import (
    GradedModule,
    GradedMap,
    tensor,
    shift,
    shift_map,
    dual_module,
    dual_map,
    slot_table,
    terms_degree,
    transpose_rows,
    tensor_differential,
    associativity_witness,
    SideIds,
    format_row,
    names_of,
    Outcome,
    koszul_sign,
    apply_rows,
    _first_failing_triple,
    _gather,
    _row_expansion,
    _op_shift_signs,
    _signed_row,
    _sum_rows,
    _twisted,
)
from .complexes import ChainComplex, ChainMap, mapping_cone, Cone
from .bialgebra import (BialgebraData, PairKernel, _safe_window,
                        secondary_relation_apply)


class _Layout:
    """Positions of A and of M, a shift of A's dual: the position in M of
    x^ for each position x of A (dual), and its inverse (base)."""

    def __init__(self, A: GradedModule, M: GradedModule):
        pos = M.index().pos
        self.dual = [pos[x + "^"] for x in A.index().names]
        self.base = [0] * len(self.dual)
        for x, f in enumerate(self.dual):
            self.base[f] = x

    @staticmethod
    def columns(A: GradedModule, image):
        """(fixed, d) -> the transpose of x -> image(fixed, x) over the
        positions x of A of degree d, built on first request and kept in a
        dict, so that an operation of degree 0 is read only where its
        values can meet a given output."""
        tables, of_degree = {}, A.layout().keys

        def columns(fixed, d):
            out = tables.get((fixed, d))
            if out is None:
                out = tables[fixed, d] = transpose_rows(
                    of_degree.get(d, ()), functools.partial(image, fixed))
            return out

        return columns


def _contraction(source, M, W, last, degree, sign, name) -> GradedMap:
    """x (x) f -> sign(x, f) <W(x), 1 (x) f> on A (x) Mbar (last), or
    f (x) x -> sign(x, f) <f (x) 1, W(x)> on Mbar (x) A, f pairing as an
    element of M, W(x) the row at x of a map A -> A (x) A and sign(x, f)
    +1 or -1 on positions; one slot table of each row serves every f."""
    A = source.factors[0 if last else 1]
    A2 = tensor(A, A)
    rows = functools.cache(lambda x: slot_table(W(x), A2, M, last))

    def row(i, j):
        x, f = (i, j) if last else (j, i)
        return _signed_row(rows(x).get(f, {}).items(), sign(x, f) < 0,
                           A.ring.neg)

    return GradedMap(source, A, degree, row, name=name)


class ConeProductData:
    """Product/coproduct/bivector package over a single complex.

    c0, Q0 (on A (x) A) and B (on A (x) A (x) A) are rows.  Invariants
    enforced at construction: operation degrees match the
    half-dimension parameter n (|mu| = 0, |lam| = 1-2n, |c0| = -2n,
    |Q0| = 1-2n, |B| = 2-4n when the values are nonzero), the secondary
    bivector trivializes the twist defect of c0 (tau c0 - c0 = d Q0), B
    is invariant under the graded cyclic rotation, and the continuation
    map c: M -> A read off c0 is a chain map (`continuation`).  It holds
    M = `dual_side(A, n)`, Mbar = M[-1], their `layout` and `safe`, the
    positions in A of `safe_names` in their order, which the checks walk.
    Each of `cone` (the mapping cone of c), `cone_window` (the safe window
    on the cone), `product` (the cone product on it), `components`,
    `associativity` and `kernel` is built on first use and kept, none
    raises on a constructed package, and none refers back to the package,
    so reference counting frees it.
    """

    def __init__(self, complex_: ChainComplex, mu: GradedMap, lam: GradedMap,
                 c0, Q0, B, n: int, safe_names=None, name: str = ""):
        A = complex_.module
        A2 = tensor(A, A)
        if mu.source != A2 or mu.target != A or mu.degree != 0:
            raise ValueError("mu must be a degree-0 map A(x)A -> A")
        if lam.source != A or lam.target != A2 or lam.degree != 1 - 2 * n:
            raise ValueError(f"lam must be a degree-{1 - 2 * n} map A -> A(x)A")
        c0, Q0, B = tuple(c0), tuple(Q0), tuple(B)
        for label, v, mod, want in (("c0", c0, A2, -2 * n),
                                    ("Q0", Q0, A2, 1 - 2 * n),
                                    ("B", B, tensor(A, A, A), 2 - 4 * n)):
            d = terms_degree(mod, v)
            if d is not None and d != want:
                raise ValueError(f"{label} has degree {d}, expected {want}")

        R = A.ring
        d2 = tensor_differential(complex_.d).at
        defect = _sum_rows(
            R, _twisted(c0, A.index().odd, R.neg).items(),
            _signed_row(c0, True, R.neg),
            _signed_row(apply_rows(d2, Q0, R).items(), True, R.neg))
        if defect:
            raise ValueError(
                "secondary bivector does not trivialize the twist defect: "
                f"tau c0 - c0 - dQ0 = {format_row(A2, defect)}")
        if B and _cyclic_rotate(B, A.index().odd, R.neg) != dict(B):
            raise ValueError("cubic vector is not cyclically symmetric")
        # the continuation map c(f) = <f (x) 1, c0> on M, the dual side
        M = dual_side(A, n)
        c0_rows = slot_table(c0, A2, M)
        c = GradedMap(M, A, 0, lambda f: tuple(c0_rows.get(f, {}).items()),
                      name="c")
        self.continuation = ChainMap(
            ChainComplex(M, shift_map(dual_map(complex_.d), 2 * n)),
            complex_, c)
        self.M, self.Mbar = M, shift(M, -1)
        self.layout = _Layout(A, M)

        self.complex = complex_
        self.A = A
        self.mu = mu
        self.lam = lam
        self.c0 = c0
        self.Q0 = Q0
        self.B = B
        self.n = n
        self.name = name
        self.safe_names, self.safe = _safe_window(A, safe_names)

    @functools.cached_property
    def cone(self) -> Cone:
        """The mapping cone of the continuation map."""
        return mapping_cone(self.continuation)

    @functools.cached_property
    def cone_window(self) -> tuple:
        """The safe window on the cone: the position of each +x, then of
        each -x^, for x in `safe`, in its order."""
        plus, minus, _ = self.cone.layout
        dual = self.layout.dual
        return (tuple([plus[x] for x in self.safe])
                + tuple([minus[dual[x]] for x in self.safe]))

    @functools.cached_property
    def product(self) -> GradedMap:
        """The cone product, `derive_secondary_ops(self)`."""
        return derive_secondary_ops(self)

    @functools.cached_property
    def components(self) -> dict:
        """The closed-form components, `closed_form_components(self)`."""
        return closed_form_components(self)

    @functools.cached_property
    def associativity(self) -> Outcome:
        """The verdict of `check_cone_associativity(self)`."""
        return check_cone_associativity(self)

    @functools.cached_property
    def kernel(self) -> PairKernel:
        """The `PairKernel` of the defect, v = -Q0, built on first use; a
        package from `cone_data_from_bialgebra` holds its instance's."""
        return PairKernel(self.mu, self.lam,
                          _signed_row(self.Q0, True, self.A.ring.neg))


def _cyclic_rotate(terms, odd, neg) -> dict:
    """The graded rotation x(x)y(x)z -> (-1)^{|z|(|x|+|y|)} z(x)x(x)y of the
    terms ((x, y, z), c) of a cubic element, `odd` the parity of each
    position: {(z, x, y): coefficient}.  The rotation permutes the keys, so
    no two terms meet."""
    return {(z, x, y): neg(c) if odd[z] and odd[x] != odd[y] else c
            for (x, y, z), c in terms}


def dual_side(A: GradedModule, n: int) -> GradedModule:
    """M = A-dual shifted by 2n; dual basis names keep the "^" suffix."""
    return shift(dual_module(A), 2 * n)


def derive_secondary_ops(data: ConeProductData) -> GradedMap:
    """The cone product on `data.cone`, its parts the secondary operations
    of the module docstring, each read from its tables by exact
    dualization and [i,j;k]-shifted into its block.  mu's rows are read
    from its row dict (`GradedMap.rows`), and each block returns its row
    as a tuple, which `GradedMap.row` keeps without copying."""
    A, M, at = data.A, data.M, data.layout
    neg = A.ring.neg
    odd, odd_M = A.index().odd, M.index().odd
    deg, dual, base = A.index().degree, at.dual, at.base
    mu_rows, stride = data.mu.rows, data.mu.stride
    A2 = tensor(A, A)
    # the changes of coproduct by Q0 on the right, on the left and on both
    # sides
    zero, minus_Q0 = (), _signed_row(data.Q0, True, neg)
    lam_fwd = secondary_relation_apply(data.mu, data.lam, data.Q0, zero)
    lam_rev_left = secondary_relation_apply(data.mu, data.lam, zero, minus_Q0)
    lam_rev = secondary_relation_apply(data.mu, data.lam, data.Q0,
                                       minus_Q0).row

    # built on first request: the sparse transpose of lam_rev, slot tables
    # of lam_fwd and lam_rev_left
    lam_rev_table = functools.cache(lambda: transpose_rows(
        range(len(deg)), lam_rev))
    tau_R_table = functools.cache(lambda x: slot_table(
        lam_fwd.row(x), A2, M, last=True))
    tau_L_table = functools.cache(lambda x: slot_table(
        lam_rev_left.row(x), A2, M))
    # <f (x) g (x) 1, B> = sum (-1)^{|g||B1|} <f,B1> <g,B2> B3
    B_rows = {f: slot_table(T.items(), A2, M) for f, T in
              slot_table(data.B, tensor(A, A, A), M).items()}

    # one row function per block, a part's sign being its operation's times
    # (-1)^{j |u|} per row: x and x^ have one parity and a row's x one
    # degree, so m_L's sign is (-1)^{|b|}, sigma's (-1)^{|f|+|g|+1} and
    # beta's (-1)^{|f||g|}
    plus, minus, where = data.cone.layout
    minus_dual = [minus[f] for f in dual]   # A's x -> the cone's -x^
    shift_A, shift_M = _op_shift_signs(odd, 1), _op_shift_signs(odd_M, 1)
    of_degree, transposes = A.layout().keys, {}

    def mu_columns(fixed, d, left):
        # y -> [(-x^, <y^, fixed x>)] when left, else [(-x^, <y^, x fixed>)],
        # over the positions x of degree d: m_R's and m_L's parts, whose
        # signs cancel, read from mu's row dict once per (fixed, d, left)
        out = transposes.get((fixed, d, left))
        if out is None:
            out = transposes[fixed, d, left] = {}
            first, step = (fixed * stride, 1) if left else (fixed, stride)
            for x in of_degree.get(d, ()):
                for y, c in mu_rows[first + x * step]:
                    if (col := out.get(y)) is None:
                        out[y] = [(minus_dual[x], c)]
                    else:
                        col.append((minus_dual[x], c))
        return out

    def plus_plus(a, b):   # mu
        return tuple([(plus[k], c) for k, c in mu_rows[a * stride + b]])

    def plus_minus(b, f):   # tau_R[0,1;0] and m_L[0,1;1]
        y, s = base[f], shift_A[b]
        return tuple([(plus[w], neg(c) if s else c)
                      for w, c in tau_R_table(b).get(f, {}).items()]
                     + mu_columns(b, deg[y] - deg[b], False).get(y, []))

    def minus_plus(f, a):   # tau_L[1,0;0] and m_R[1,0;1]: j = 0, no shift sign
        y = base[f]
        return tuple([(plus[w], c if odd_M[f] else neg(c))
                      for w, c in tau_L_table(a).get(f, {}).items()]
                     + mu_columns(a, deg[y] - deg[a], True).get(y, []))

    def minus_minus(f, g):   # beta[1,1;0] and sigma[1,1;1]
        s = shift_M[f]
        s_p = s != (odd_M[g] and odd_M[f])
        s_m = s != (odd_M[f] == odd_M[g])
        return tuple([(plus[x], neg(c) if s_p else c)
                      for x, c in B_rows.get(f, {}).get(g, {}).items()]
                     + [(minus_dual[x], neg(c) if s_m else c) for x, c in
                        lam_rev_table().get((base[g], base[f]), ())])

    blocks = ((plus_plus, plus_minus), (minus_plus, minus_minus))

    def row(u, v):
        (tu, i), (tv, j) = where[u], where[v]
        return blocks[tu][tv](i, j)

    C = data.cone.complex.module
    return GradedMap(tensor(C, C), C, 0, row, name="mu_cone")


# ---------------------------------------------------------------------------
# Closed-form components and their cross-check
# ---------------------------------------------------------------------------

def closed_form_components(data: ConeProductData) -> dict:
    """The seven product components that need not vanish, transcribed
    directly:

    (pp->p)  mu
    (mm->m)  <m(fbar,gbar), a> = (-1)^{|g|+|g||f|+1}
                 <g(x)f, lam(a) + (-1)^{|a|}(mu(x)1)(a(x)c) + (1(x)mu)(c(x)a)>
    (mp->p)  m(fbar,a) = (-1)^{|f|+1} <f(x)1, lam(a) + (1(x)mu)(c(x)a)>
    (pm->p)  m(b,fbar) = (-1)^{|b|} <lam(b) + (-1)^{|b|}(mu(x)1)(b(x)c), 1(x)f>
    (mp->m)  <m(fbar,a), b> = <f, mu(a,b)>
    (pm->m)  <a, m(b,fbar)> = (-1)^{|b|} <mu(a,b), f>
    (mm->p)  m(fbar,gbar) = (-1)^{|f|(|g|+1)} sum <f,B1> <g,B2> B3

    with c the secondary bivector and B = sum B1 (x) B2 (x) B3 the cubic
    vector.  The last is (-1)^{|f|} <f (x) g (x) 1, B>: the shift of the
    second factor moves past f ([i,j;k] rule, j = 1), and g moves past B1
    in the evaluation, with |B1| = |f| where <f,B1> != 0: (-1)^{|f||g|}.
    In (pm->m) the pairings sign mu(x,b)'s term at y = base of f by
    (-1)^{|b|(|x|+|f|+1)} = +1: |mu| = 0 and f sits in degree -|y|-2n, so
    |x|+|f| = |b| mod 2.  An odd shift of M (open strings) re-derives it.
    Keys: "pp_p", "mm_m", "mp_p", "pm_p", "mp_m", "pm_m", "mm_p", plus the
    vanishing block "pp_m".  Each is a row map, built from the rows of mu,
    lam and B and not from the cone product.
    """
    A = data.A
    R = A.ring
    mul, neg = R.mul, R.neg
    cbiv = data.Q0
    M, Mbar, at = data.M, data.Mbar, data.layout
    odd, odd_M = A.index().odd, M.index().odd
    deg, dual, base = A.index().degree, at.dual, at.base
    mu, lam = data.mu.row, data.lam.row

    def mu1_right(a):
        # (mu (x) 1)(a (x) c)
        for (c1, c2), c in cbiv:
            for y, m in mu(a, c1):
                yield (y, c2), mul(m, c)

    def mu1_left(a):
        # (1 (x) mu)(c (x) a)
        for (c1, c2), c in cbiv:
            for y, m in mu(c2, a):
                yield (c1, y), mul(c, m)

    def W_left(a):
        # lam(a) + (1(x)mu)(c(x)a)
        return _sum_rows(R, lam(a), mu1_left(a))

    def W_right(b):
        # lam(b) + (-1)^{|b|}(mu(x)1)(b(x)c)
        return _sum_rows(R, lam(b), _signed_row(mu1_right(b), odd[b], neg))

    def W(x):
        # lam(a) + (-1)^{|a|}(mu(x)1)(a(x)c) + (1(x)mu)(c(x)a)
        return _sum_rows(R, W_right(x), mu1_left(x))

    # the closed form's own sparse transposes of mu's rows and of W
    W_table = functools.cache(lambda: transpose_rows(range(len(deg)), W))
    mu_el_left_rows = at.columns(A, mu)
    mu_el_right_rows = at.columns(A, lambda b, x: mu(x, b))
    # (fbar, gbar) -> [(B3, signed coefficient)], one entry per term of B
    B_at = {}
    for (b1, b2, b3), c in data.B:
        B_at.setdefault((dual[b1], dual[b2]), []).append(
            (b3, neg(c) if odd[b1] and not odd[b2] else c))

    def mm_m(fb, gb):
        df, dg = odd_M[fb], odd_M[gb]      # |f|, |g| unbarred
        w1, w2 = base[gb], base[fb]
        # s times the pairing sign (-1)^{|f||w1|} of <g (x) f, w1 (x) w2>
        flip = (dg + dg * df + 1 + df * odd[w1]) % 2
        return _signed_row(((dual[x], c)
                            for x, c in W_table().get((w1, w2), ())), flip, neg)

    def mp_m(fb, a):
        y = base[fb]
        return tuple((dual[x], c) for x, c in
                     mu_el_left_rows(a, deg[y] - deg[a]).get(y, ()))

    def pm_m(b, fb):
        y = base[fb]
        return tuple((dual[x], c) for x, c in
                     mu_el_right_rows(b, deg[y] - deg[b]).get(y, ()))

    A2 = tensor(A, A)
    AMb, MbA, MbMb = tensor(A, Mbar), tensor(Mbar, A), tensor(Mbar, Mbar)
    return {
        "pp_p": GradedMap(A2, A, 0, mu, name="pp_p"),
        "pp_m": GradedMap(A2, Mbar, 0, lambda i, j: (), name="pp_m"),
        "mm_p": GradedMap(MbMb, A, 0, lambda i, j: B_at.get((i, j), ()),
                          name="mm_p"),
        "mm_m": GradedMap(MbMb, Mbar, 0, mm_m, name="mm_m"),
        "mp_p": _contraction(MbA, M, W_left, False, 0,
                             lambda a, f: koszul_sign(odd_M[f] + 1), "mp_p"),
        "pm_p": _contraction(AMb, M, W_right, True, 0,
                             lambda b, f: koszul_sign(odd[b]), "pm_p"),
        "mp_m": GradedMap(MbA, Mbar, 0, mp_m, name="mp_m"),
        "pm_m": GradedMap(AMb, Mbar, 0, pm_m, name="pm_m"),
    }


def cross_check_components(data: ConeProductData) -> Outcome:
    """The package's closed-form components (`data.components`) == the
    blocks of its cone product (`data.product`), on all safe inputs,
    compared row by row; a failure names the first five mismatches."""
    comps = data.components
    A = data.A
    plus, minus, where = data.cone.layout
    assembled = data.product.row
    names = data.cone.complex.module.index().names
    window, n = data.cone_window, len(data.safe)
    safe = {"p": window[:n], "m": window[n:]}

    def show(d_p, d_m):
        return (f"({format_row(A, d_p.items())} | "
                f"{format_row(data.Mbar, d_m.items())})")

    failures, count = [], 0
    for label in ("pp", "pm", "mp", "mm"):
        count += len(safe[label[0]]) * len(safe[label[1]])
        keys = (f"{label}_p", f"{label}_m")
        row_p, row_m = (comps[key].row for key in keys)
        for u in safe[label[0]]:
            i = where[u][1]
            for v in safe[label[1]]:
                # the closed form's rows in cone positions, in their order:
                # rows that agree term by term need no dicts
                j, got = where[v][1], assembled(u, v)
                if got == tuple([(plus[k], c) for k, c in row_p(i, j)]
                                + [(minus[k], c) for k, c in row_m(i, j)]):
                    continue
                split = ({}, {})
                for k, c in got:
                    block, p = where[k]
                    split[block][p] = c
                want = dict(row_p(i, j)), dict(row_m(i, j))
                if split != want:
                    differ = ", ".join(k for k, g, w in zip(keys, split, want)
                                       if g != w)
                    failures.append(
                        f"{label} mismatch at {names[u]}(x){names[v]} in "
                        f"{differ}: assembled {show(*split)} vs closed form "
                        f"{show(*want)}")
    if failures:
        return Outcome("fail", "; ".join(failures[:5]), count)
    return Outcome("pass", "all components agree with the assembled product",
                   count)


def check_cone_associativity(data: ConeProductData) -> Outcome:
    """mu_cone(mu_cone (x) 1) = mu_cone(1 (x) mu_cone) on safe cone triples,
    for the package's product (`data.product`)."""
    count, triple, lhs, rhs = associativity_witness(data.product,
                                                    data.cone_window)
    if triple is None:
        return Outcome("pass", "associative on the safe window", count)
    C = data.product.target
    u, v, w = map(names_of(C), triple)
    return Outcome("fail", f"{u}(x){v}(x){w}: {format_row(C, lhs.items())} "
                   f"vs {format_row(C, rhs.items())}", count)


def check_assoc_implies_infinitesimal(data: ConeProductData) -> Outcome:
    """The (+,+,-) -> + associativity component, expanded through the
    closed-form components, must equal the unital-infinitesimal defect of
    (mu, lam) contracted against the dual input:

        m_pp_p(1 (x) m_pm_p) + m_pm_p(1 (x) m_pm_m)
          - m_pm_p(m_pp_p (x) 1) - m_mm_p(m_pp_m (x) 1)
        = (-1)^{|a|+|b|+1} <defect(a (x) b), 1 (x) f>

    where defect = lam mu - (1(x)mu)(lam(x)1) - (mu(x)1)(1(x)lam)
    + (mu(x)mu)(1(x)lam eta(x)1).  The package carries no unit, so the
    defect is computed in unit-free form, with -Q0 in place of lam eta;
    the two agree exactly when the package comes from a unital instance
    satisfying the secondary-continuation identity.

    Cone associativity is the precondition, read from the package's
    verdict (`data.associativity`); a failing one fails the check with a
    "precondition: " detail.  The components are the package's
    (`data.components`).  The defect is
    read from `data.kernel`, past the precondition: a package from
    `cone_data_from_bialgebra` holds its instance's, whose unital
    infinitesimal quantifier has already expanded the defect of each pair
    it checked when |mu| is even.

    The triples (a, b, f) run over the safe window in lexicographic order,
    and the verdict and the failing triple's text are those of comparing
    both sides of every triple in turn.  The sides are regrouped so that
    each is expanded once per distinct row, not once per triple:

        mu(a, P) + m_pm_p(a, Q)  =  m_pm_p(mu(a, b), f) + expected

    with P = m_pm_p(b, f) and Q = m_pm_m(b, f).  The left side depends on
    (b, f) only through the pair of rows (P, Q): the distinct pairs are
    numbered once, before the first a, and a's table holds its left side
    per pair.  The right side depends on (a, b) only through the row
    mu(a, b), one tuple over f per such row (`graded._row_expansion`),
    with the contracted defect added at the f where it is nonzero.  Both
    run on the one quantifier of `graded._first_failing_triple`; the
    failing triple's left side is printed less m_pm_p(mu(a, b), f).
    """
    if (assoc := data.associativity).status != "pass":
        return Outcome("fail", "precondition: cone product is not "
                       f"associative: {assoc.detail}", 0)
    comps, kernel = data.components, data.kernel
    A, M, safe = data.A, data.M, data.safe
    A2 = tensor(A, A)
    idx = A.index()
    R = A.ring
    mul, neg = R.mul, R.neg
    mu, pm_p, pm_m = data.mu.row, comps["pm_p"].row, comps["pm_m"].row

    # Mbar has M's positions, so the position of f^ keys both
    duals = [data.layout.dual[i] for i in safe]
    at_f = {k: kf for kf, k in enumerate(duals)}   # Mbar position -> f
    ids = SideIds(R)
    sides, intern = ids.sides, ids.row
    pm_p_rows, pm_p_sides = _row_expansion(ids, comps["pm_p"], duals)

    def expected(i, j):   # the signed contracted defect, per safe f
        negate = not (idx.odd[i] + idx.odd[j]) % 2
        return {at_f[k]: dict(_signed_row(terms.items(), negate, neg))
                for k, terms in slot_table(kernel.defect(i, j).items(), A2, M,
                                           last=True).items() if k in at_f}

    def rhs_ids(a, b):   # the ids of m_pm_p(mu(a, b), f) + expected, over f
        i, j = safe[a], safe[b]
        rhs, contracted = pm_p_sides(intern(mu(i, j))), expected(i, j)
        if contracted:
            rhs = list(rhs)
            for kf, terms in contracted.items():
                rhs[kf] = ids(itertools.chain(sides[rhs[kf]], terms.items()))
            rhs = tuple(rhs)
        return rhs

    # per b, the slots of its (P, Q) id pairs over f; the pairs' sides by slot
    slot = {}
    gathers = [_gather([slot.setdefault((p, intern(pm_m(j, k))), len(slot))
                        for p, k in zip(pm_p_rows(j), duals)])
               for j in safe]
    pqs = [(sides[p], sides[q]) for p, q in slot]

    def fill(a):   # the ids of mu(a, P) + m_pm_p(a, Q), by slot
        i = safe[a]
        return [ids([(t, mul(c, v)) for y, c in P for t, v in mu(i, y)]
                    + [(t, mul(c, v)) for g, c in Q for t, v in pm_p(i, g)])
                for P, Q in pqs]

    count, failed, lhs, _ = _first_failing_triple(fill, gathers, rhs_ids,
                                                  len(safe))
    if failed is None:
        return Outcome("pass", "", count)
    a, b, kf = failed
    i, j = safe[a], safe[b]
    # m_pp_p(1 (x) m_pm_p) + m_pm_p(1 (x) m_pm_m)
    # - m_pm_p(m_pp_p (x) 1); m_mm_p(m_pp_m (x) 1) = 0
    total = sides[ids(itertools.chain(sides[lhs], _signed_row(
        sides[pm_p_sides(intern(mu(i, j)))[kf]], True, neg)))]
    return Outcome(
        "fail", f"fails at a={idx.names[i]}, b={idx.names[j]}, "
        f"f={M.index().names[duals[kf]]}: "
        f"{format_row(A, total)} vs "
        f"{format_row(A, expected(i, j).get(kf, {}).items())}", count)


# ---------------------------------------------------------------------------
# Fixture-facing constructor
# ---------------------------------------------------------------------------

def cone_data_from_bialgebra(inst: BialgebraData, n: int,
                             name: str = "") -> ConeProductData:
    """Package a d = 0 unital instance: c0 = 0, Q0 = -lam(eta), B = 0,
    holding the instance's kernel (v = lam eta = -Q0); an instance with a
    nonzero differential is refused (ValueError)."""
    A = inst.module
    d = inst.differential
    if d is not None and any(map(d.row, range(len(A.index().names)))):
        raise ValueError("a cone needs d = 0; the differential is nonzero")
    Q0 = _signed_row(inst.lambda_eta_terms().items(), True, A.ring.neg)
    data = ConeProductData(ChainComplex(A), inst.mu, inst.lam, c0=(), Q0=Q0,
                           B=(), n=n, safe_names=inst.safe_names,
                           name=name or inst.name)
    data.kernel = inst.kernel
    return data
