"""Cone products from product/coproduct/bivector data on one complex.

Given a complex A with product mu, coproduct lam of degree 1-2n, a
continuation bivector c0, a secondary continuation bivector Q0 (the "c" of
the component formulas), and a cyclically symmetric cubic vector B, the
derived operations are fixed by exact dualization against the dual-basis
pairing (M denotes the 2n-shifted dual of A, Mbar its further shift by -1,
so barred elements sit one degree higher):

    <a, m_L(b,f)>   = <mu(a,b), f>
    <m_R(f,a), b>   = <f, mu(a,b)>
    <sigma(f,g), a> = (-1)^{(|f|+1)(|g|+1)} <g (x) f, lam_rev(a)>
    tau_R(b,f)      = <lam_fwd(b), 1 (x) f>
    tau_L(f,a)      = (-1)^{|f|+1} <f (x) 1, lam_rev_left(a)>
    beta(f,g)       = <f (x) g (x) 1, B>

with lam_fwd = lam + (mu (x) 1)(1 (x) Q0), lam_rev_left = lam +
(1 (x) mu)(Q0 (x) 1), and lam_rev carrying both corrections.  The cone
product places the [i,j;k]-shifted versions in the blocks

    (+,+)->+ : mu        (+,-)->+ : tau_R[0,1;0]   (+,-)->- : m_L[0,1;1]
    (-,+)->+ : tau_L[1,0;0]                        (-,+)->- : m_R[1,0;1]
    (-,-)->- : sigma[1,1;1]                        (-,-)->+ : beta[1,1;0]
    (+,+)->- : 0

The closed-form components are transcribed independently and cross-checked
against the assembled blocks.

The dual operations (m_L, m_R, sigma here; mp_m, pm_m, mm_m in the closed
form) are lookups into sparse transposes of mu and of the corrected
coproducts: output basis name -> {input x: coefficient}.  Each transpose is
built once per package, in one pass over the basis of A (the mu rows one
fixed factor at a time, on first request).  The derived side and the closed
form build their own tables from their own formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .graded import (
    GradedModule,
    GradedMap,
    Vector,
    tensor,
    twist_vector,
    shift,
    shift_map,
    dual_module,
    dual_map,
    slot_table,
    unapply_op_shift,
    insert_left,
    insert_right,
    tensor_map,
    tensor_differential,
    associativity_witness,
    format_vector,
    TENSOR_SEP,
    koszul_sign,
)
from .complexes import ChainComplex, ChainMap, mapping_cone, Cone
from .bialgebra import BialgebraData, PairKernel


def _transpose(inputs, image) -> dict:
    """Sparse transpose of x -> image(x) over the basis names `inputs`:
    output basis name -> {x: coefficient}, each inner dict in input order."""
    out = {}
    for x in inputs:
        for y, c in image(x).coeffs.items():
            out.setdefault(y, {})[x] = c
    return out


def _contraction(source, M, W, last, degree, sign, name) -> GradedMap:
    """x (x) f -> sign(x, f) <W(x), 1 (x) f> on source = A (x) M' (last),
    or f (x) x -> sign(x, f) <f (x) 1, W(x)> on source = M' (x) A, where
    M' is M or a shift of it and f pairs as an element of M; one slot table
    of each row W(x) serves every f."""
    A = source.factors[0 if last else 1]
    rows = functools.cache(lambda x: slot_table(W(x), M, last))

    def fn(nm):
        x, f = source.parts_of(nm)
        if not last:
            x, f = f, x
        return Vector._trusted(A, rows(x).get(f, {})).scale(sign(x, f))

    return GradedMap(source, A, degree, fn, name=name)


class ConeProductData:
    """Product/coproduct/bivector package over a single complex.

    Invariants enforced at construction: operation degrees match the
    half-dimension parameter n (|mu| = 0, |lam| = 1-2n, |c0| = -2n,
    |Q0| = 1-2n, |B| = 2-4n when the values are nonzero), the secondary
    bivector trivializes the twist defect of c0 (tau c0 - c0 = d Q0), and
    B is invariant under the graded cyclic rotation.
    """

    def __init__(self, complex_: ChainComplex, mu: GradedMap, lam: GradedMap,
                 c0: Vector, Q0: Vector, B: Vector, n: int, safe_names=None,
                 name: str = ""):
        A = complex_.module
        A2 = tensor(A, A)
        A3 = tensor(A, A, A)
        if mu.source != A2 or mu.target != A or mu.degree != 0:
            raise ValueError("mu must be a degree-0 map A(x)A -> A")
        if lam.source != A or lam.target != A2 or lam.degree != 1 - 2 * n:
            raise ValueError(f"lam must be a degree-{1 - 2 * n} map A -> A(x)A")
        for label, v, mod, want in (("c0", c0, A2, -2 * n),
                                    ("Q0", Q0, A2, 1 - 2 * n),
                                    ("B", B, A3, 2 - 4 * n)):
            if v.module != mod:
                raise ValueError(f"{label} lives in the wrong module")
            d = v.degree()
            if d is not None and d != want:
                raise ValueError(f"{label} has degree {d}, expected {want}")

        d2 = tensor_differential(complex_.d)
        defect = twist_vector(c0) - c0 - d2(Q0)
        if not defect.is_zero():
            raise ValueError(
                "secondary bivector does not trivialize the twist defect: "
                f"tau c0 - c0 - dQ0 = {format_vector(defect)}")
        if not B.is_zero():
            rotated = _cyclic_rotate(B)
            if rotated != B:
                raise ValueError("cubic vector is not cyclically symmetric")

        self.complex = complex_
        self.A = A
        self.mu = mu
        self.lam = lam
        self.c0 = c0
        self.Q0 = Q0
        self.B = B
        self.n = n
        self.name = name
        self.safe_names = (tuple(safe_names) if safe_names is not None
                           else A.basis_names())
        if len(set(self.safe_names)) != len(self.safe_names):
            raise ValueError("safe names repeat a basis element")
        for nm in self.safe_names:
            if not A.has(nm):
                raise ValueError(f"safe name {nm!r} is not a basis element")


def cyclic_symmetrize(t: Vector) -> Vector:
    """t + rot(t) + rot^2(t); the graded rotation has order 3, so the
    result is cyclically symmetric."""
    r1 = _cyclic_rotate(t)
    return t + r1 + _cyclic_rotate(r1)


def _cyclic_rotate(B: Vector) -> Vector:
    """x(x)y(x)z -> (-1)^{|z|(|x|+|y|)} z(x)x(x)y."""
    mod = B.module
    out = {}
    R = mod.ring
    for name, c in B.coeffs.items():
        x, y, z = mod.parts_of(name)
        dz = mod.factors[2].degree_of(z)
        dxy = mod.factors[0].degree_of(x) + mod.factors[1].degree_of(y)
        s = koszul_sign(dz * dxy)
        key = f"{z}{TENSOR_SEP}{x}{TENSOR_SEP}{y}"
        new = R.mul(R.canon(s), c)
        out[key] = R.add(out.get(key, R.zero()), new)
    return Vector(mod, out)


def dual_side(A: GradedModule, n: int) -> GradedModule:
    """M = A-dual shifted by 2n; dual basis names keep the "^" suffix."""
    return shift(dual_module(A), 2 * n)


@dataclass
class ConeProductOps:
    """Derived operations of a cone-product package, unbarred and barred,
    the assembled product on the cone, and the cone itself."""

    data: ConeProductData
    M: GradedModule
    Mbar: GradedModule
    m_L: GradedMap
    m_R: GradedMap
    sigma: GradedMap
    tau_L: GradedMap
    tau_R: GradedMap
    beta: GradedMap
    barred: dict = field(default_factory=dict)
    cone: Cone = None
    product: GradedMap = None

    def safe_cone_names(self):
        return (tuple(f"+{n}" for n in self.data.safe_names)
                + tuple(f"-{n}^" for n in self.data.safe_names))


def derive_secondary_ops(data: ConeProductData) -> ConeProductOps:
    """Construct all derived operations by exact dualization."""
    A = data.A
    mu, lam, Q0 = data.mu, data.lam, data.Q0
    n = data.n
    M = dual_side(A, n)
    Mbar = shift(M, -1)
    one = GradedMap.identity(A)

    # coproducts corrected by the secondary bivector
    if Q0.is_zero():
        lam_fwd = lam
        lam_rev_left = lam
        lam_rev = lam
    else:
        corr_R = insert_right(Q0, A).then(tensor_map(mu, one))
        corr_L = insert_left(Q0, A).then(tensor_map(one, mu))
        lam_fwd = lam + corr_R
        lam_rev_left = lam + corr_L
        lam_rev = lam + corr_R + corr_L

    AM = tensor(A, M)
    MA = tensor(M, A)
    MM = tensor(M, M)
    R = A.ring
    names_A = [x.name for x in A.basis()]

    # sparse transposes of mu and lam_rev; the mu rows are filled per fixed
    # factor on first request, so mu is read on exactly the inputs a scan
    # over the basis of A would read
    @functools.cache
    def mu_right_rows(b):
        # y -> {x: <y^, mu(x (x) b)>}
        return _transpose(names_A, lambda x: mu.eval_basis(f"{x}{TENSOR_SEP}{b}"))

    @functools.cache
    def mu_left_rows(a):
        # y -> {x: <y^, mu(a (x) x)>}
        return _transpose(names_A, lambda x: mu.eval_basis(f"{a}{TENSOR_SEP}{x}"))

    @functools.cache
    def lam_rev_table():
        # w1 (x) w2 -> {x: coefficient of w1 (x) w2 in lam_rev(x)}
        return _transpose(names_A, lam_rev.eval_basis)

    def m_L_fn(nm):
        b, f = AM.parts_of(nm)
        odd_b = A.degree_of(b) % 2
        df = M.degree_of(f)
        out = {}
        for x, c in mu_right_rows(b).get(f[:-1], {}).items():
            if odd_b and ((A.degree_of(x) + df) % 2):
                c = R.neg(c)
            out[x + "^"] = c
        return Vector(M, out)

    def m_R_fn(nm):
        f, a = MA.parts_of(nm)
        col = mu_left_rows(a).get(f[:-1], {})
        return Vector(M, {x + "^": c for x, c in col.items()})

    def sigma_fn(nm):
        # <g (x) f, w1 (x) w2> = (-1)^{|f||w1|} for g = w1^, f = w2^
        f, g = MM.parts_of(nm)
        w1, w2 = g[:-1], f[:-1]
        df = M.degree_of(f)
        neg = ((df + 1) * (M.degree_of(g) + 1) + df * A.degree_of(w1)) % 2
        col = lam_rev_table().get(f"{w1}{TENSOR_SEP}{w2}", {})
        return Vector(M, {x + "^": R.neg(c) if neg else c
                          for x, c in col.items()})

    # <f (x) g (x) 1, B> = sum (-1)^{|g||B1|} <f,B1> <g,B2> B3
    B_rows = {f: slot_table(Vector._trusted(tensor(A, A), T), M)
              for f, T in slot_table(data.B, M).items()}

    def beta_fn(nm):
        f, g = MM.parts_of(nm)
        out = Vector._trusted(A, B_rows.get(f, {}).get(g, {}))
        return -out if M.degree_of(g) % 2 and A.degree_of(f[:-1]) % 2 else out

    m_L = GradedMap(AM, M, 0, m_L_fn, name="m_L")
    m_R = GradedMap(MA, M, 0, m_R_fn, name="m_R")
    sigma = GradedMap(MM, M, 1, sigma_fn, name="sigma")
    tau_R = _contraction(AM, M, lam_fwd.eval_basis, True, 1,
                         lambda b, f: 1, "tau_R")
    tau_L = _contraction(MA, M, lam_rev_left.eval_basis, False, 1,
                         lambda a, f: koszul_sign(M.degree_of(f) + 1), "tau_L")
    beta = GradedMap(MM, A, 2, beta_fn, name="beta")

    # barred versions: op = barred[i,j;k] per the component placement, so
    # each barred operation is the [i,j;k]-unshift of its unbarred form
    barred = {
        "m_L": unapply_op_shift(m_L, 0, 1, 1),
        "m_R": unapply_op_shift(m_R, 1, 0, 1),
        "sigma": unapply_op_shift(sigma, 1, 1, 1),
        "tau_R": unapply_op_shift(tau_R, 0, 1, 0),
        "tau_L": unapply_op_shift(tau_L, 1, 0, 0),
        "beta": unapply_op_shift(beta, 1, 1, 0),
    }

    # the cone of the continuation map, with the dual complex on the source
    d_M = shift_map(dual_map(data.complex.d), 2 * n)
    M_complex = ChainComplex(M, d_M)
    c0_rows = slot_table(data.c0, M)
    c_map = ChainMap(M_complex, data.complex,
                     GradedMap(M, A, 0,
                               lambda f: Vector._trusted(A, c0_rows.get(f, {})),
                               name="c"))
    cone = mapping_cone(c_map)

    ops = ConeProductOps(data, M, Mbar, m_L, m_R, sigma, tau_L, tau_R, beta,
                         barred, cone)
    ops.product = assemble_cone_product(ops)
    return ops


def assemble_cone_product(ops: ConeProductOps) -> GradedMap:
    """Block product on Cone(c): dispatch each basis pair to its component."""
    cone_mod = ops.cone.complex.module
    src = tensor(cone_mod, cone_mod)
    A = ops.data.A
    R = A.ring
    mu = ops.data.mu
    b = ops.barred

    # the block values are valid names of A and M, so "+" and "-" of them
    # are names of the cone
    def plus(v: Vector) -> Vector:
        return Vector._trusted(cone_mod, {f"+{n}": c for n, c in v.coeffs.items()})

    def minus(v: Vector) -> Vector:
        return Vector._trusted(cone_mod, {f"-{n}": c for n, c in v.coeffs.items()})

    def fn(nm):
        u, v = src.parts_of(nm)
        tu, bu = u[0], u[1:]
        tv, bv = v[0], v[1:]
        if tu == "+" and tv == "+":
            return plus(mu.eval_basis(f"{bu}{TENSOR_SEP}{bv}"))
        if tu == "+" and tv == "-":
            key = f"{bu}{TENSOR_SEP}{bv}"
            return plus(b["tau_R"].eval_basis(key)) + minus(b["m_L"].eval_basis(key))
        if tu == "-" and tv == "+":
            key = f"{bu}{TENSOR_SEP}{bv}"
            return plus(b["tau_L"].eval_basis(key)) + minus(b["m_R"].eval_basis(key))
        key = f"{bu}{TENSOR_SEP}{bv}"
        return plus(b["beta"].eval_basis(key)) + minus(b["sigma"].eval_basis(key))

    return GradedMap(src, cone_mod, 0, fn, name="mu_cone")


# ---------------------------------------------------------------------------
# Closed-form components and their cross-check
# ---------------------------------------------------------------------------

def closed_form_components(data: ConeProductData) -> dict:
    """The six nonzero product components, transcribed directly:

    (pp->p)  mu
    (mm->m)  <m(fbar,gbar), a> = (-1)^{|g|+|g||f|+1}
                 <g(x)f, lam(a) + (-1)^{|a|}(mu(x)1)(a(x)c) + (1(x)mu)(c(x)a)>
    (mp->p)  m(fbar,a) = (-1)^{|f|+1} <f(x)1, lam(a) + (1(x)mu)(c(x)a)>
    (pm->p)  m(b,fbar) = (-1)^{|b|} <lam(b) + (-1)^{|b|}(mu(x)1)(b(x)c), 1(x)f>
    (mp->m)  <m(fbar,a), b> = <f, mu(a,b)>
    (pm->m)  <a, m(b,fbar)> = (-1)^{|b|} <mu(a,b), f>

    with c the secondary bivector.  Keys: "pp_p", "mm_m", "mp_p", "pm_p",
    "mp_m", "pm_m", plus the vanishing blocks "pp_m" and "mm_p".
    """
    A = data.A
    R = A.ring
    mu, lam, cbiv = data.mu, data.lam, data.Q0
    n = data.n
    M = dual_side(A, n)
    Mbar = shift(M, -1)

    def mu_el(x: Vector, y: Vector) -> Vector:
        return mu(x.tensor(y))

    def mu1_right(a_el: Vector) -> Vector:
        # (mu (x) 1)(a (x) c)
        out = tensor(A, A).zero()
        for nm, c in cbiv.coeffs.items():
            c1, c2 = cbiv.module.parts_of(nm)
            out = out + mu_el(a_el, A.el(c1)).tensor(A.el(c2)).scale(c)
        return out

    def mu1_left(a_el: Vector) -> Vector:
        # (1 (x) mu)(c (x) a)
        out = tensor(A, A).zero()
        for nm, c in cbiv.coeffs.items():
            c1, c2 = cbiv.module.parts_of(nm)
            out = out + A.el(c1).tensor(mu_el(A.el(c2), a_el)).scale(c)
        return out

    AMb = tensor(A, Mbar)
    MbA = tensor(Mbar, A)
    MbMb = tensor(Mbar, Mbar)

    def pp_p(nm):
        return mu.eval_basis(nm)

    # the closed form's own sparse transposes of mu's basis values and of W
    names_A = [x.name for x in A.basis()]

    def W_left(a):
        # lam(a) + (1(x)mu)(c(x)a)
        return lam.eval_basis(a) + mu1_left(A.el(a))

    def W_right(b):
        # lam(b) + (-1)^{|b|}(mu(x)1)(b(x)c)
        return (lam.eval_basis(b)
                + mu1_right(A.el(b)).scale(koszul_sign(A.degree_of(b))))

    def W(x):
        # lam(a) + (-1)^{|a|}(mu(x)1)(a(x)c) + (1(x)mu)(c(x)a)
        return W_right(x) + mu1_left(A.el(x))

    @functools.cache
    def W_table():
        return _transpose(names_A, W)

    @functools.cache
    def mu_el_left_rows(a):
        return _transpose(names_A, lambda x: mu.eval_basis(f"{a}{TENSOR_SEP}{x}"))

    @functools.cache
    def mu_el_right_rows(b):
        return _transpose(names_A, lambda x: mu.eval_basis(f"{x}{TENSOR_SEP}{b}"))

    def mm_m(nm):
        fb, gb = MbMb.parts_of(nm)
        df = M.degree_of(fb)      # |f| unbarred
        dg = M.degree_of(gb)
        w1, w2 = gb[:-1], fb[:-1]
        # s times the pairing sign (-1)^{|f||w1|} of <g (x) f, w1 (x) w2>
        s_exp = dg + dg * df + 1 + df * A.degree_of(w1)
        col = W_table().get(f"{w1}{TENSOR_SEP}{w2}", {})
        return Vector(Mbar, {x + "^": R.mul(R.canon(koszul_sign(s_exp)), c)
                             for x, c in col.items()})

    def mp_m(nm):
        fb, a = MbA.parts_of(nm)
        col = mu_el_left_rows(a).get(fb[:-1], {})
        return Vector(Mbar, {x + "^": c for x, c in col.items()})

    def pm_m(nm):
        bnm, fb = AMb.parts_of(nm)
        db = A.degree_of(bnm)
        df = M.degree_of(fb)
        out = {}
        for x, c in mu_el_right_rows(bnm).get(fb[:-1], {}).items():
            # (-1)^{|b|} <mu(a,b), f> read through the element-first
            # pairing and the functional of degree |b|+|f|
            s_exp = db * (A.degree_of(x) + df + 1)
            out[x + "^"] = R.mul(R.canon(koszul_sign(s_exp)), c)
        return Vector(Mbar, out)

    A2 = tensor(A, A)
    return {
        "pp_p": GradedMap(A2, A, 0, pp_p, name="pp_p"),
        "pp_m": GradedMap.zero(A2, Mbar, 0, name="pp_m"),
        "mm_p": GradedMap.zero(MbMb, A, 0, name="mm_p"),
        "mm_m": GradedMap(MbMb, Mbar, 0, mm_m, name="mm_m"),
        "mp_p": _contraction(MbA, M, W_left, False, 0,
                             lambda a, f: koszul_sign(M.degree_of(f) + 1),
                             "mp_p"),
        "pm_p": _contraction(AMb, M, W_right, True, 0,
                             lambda b, f: koszul_sign(A.degree_of(b)), "pm_p"),
        "mp_m": GradedMap(MbA, Mbar, 0, mp_m, name="mp_m"),
        "pm_m": GradedMap(AMb, Mbar, 0, pm_m, name="pm_m"),
    }


@dataclass
class CrossCheckResult:
    passed: bool
    failures: list

    def describe(self) -> str:
        if self.passed:
            return "all components agree with the assembled product"
        return "; ".join(self.failures[:5])


def cross_check_components(ops: ConeProductOps,
                           comps: dict = None) -> CrossCheckResult:
    """Closed-form components == assembled blocks, on all safe inputs.
    `comps` is closed_form_components(ops.data), when already built."""
    data = ops.data
    if comps is None:
        comps = closed_form_components(data)
    cone_mod = ops.cone.complex.module
    safe_plus = [n for n in data.safe_names]
    safe_minus = [f"{n}^" for n in data.safe_names]
    failures = []

    def assembled(u, v):
        return ops.product.eval_basis(f"{u}{TENSOR_SEP}{v}")

    def split(v: Vector):
        plus = {}
        minus = {}
        for n, c in v.coeffs.items():
            (plus if n[0] == "+" else minus)[n[1:]] = c
        return plus, minus

    cases = [
        ("pp", [("+" + a, "+" + b, f"{a}{TENSOR_SEP}{b}")
                for a in safe_plus for b in safe_plus], "pp_p", "pp_m"),
        ("pm", [("+" + a, "-" + f, f"{a}{TENSOR_SEP}{f}")
                for a in safe_plus for f in safe_minus], "pm_p", "pm_m"),
        ("mp", [("-" + f, "+" + a, f"{f}{TENSOR_SEP}{a}")
                for f in safe_minus for a in safe_plus], "mp_p", "mp_m"),
        ("mm", [("-" + f, "-" + g, f"{f}{TENSOR_SEP}{g}")
                for f in safe_minus for g in safe_minus], "mm_p", "mm_m"),
    ]
    for label, triples, key_p, key_m in cases:
        for u, v, key in triples:
            got_p, got_m = split(assembled(u, v))
            want_p = comps[key_p].eval_basis(key)
            want_m = comps[key_m].eval_basis(key)
            if got_p != want_p.coeffs or got_m != want_m.coeffs:
                failures.append(
                    f"{label} mismatch at {u}(x){v}: assembled "
                    f"(+{got_p} | -{got_m}) vs closed form "
                    f"(+{want_p.coeffs} | -{want_m.coeffs})")
    return CrossCheckResult(not failures, failures)


@dataclass
class AssociativityResult:
    passed: bool
    witness: str = ""


def check_cone_associativity(ops: ConeProductOps) -> AssociativityResult:
    """mu_cone(mu_cone (x) 1) = mu_cone(1 (x) mu_cone) on safe cone triples."""
    _, triple, lhs, rhs = associativity_witness(ops.product,
                                                ops.safe_cone_names())
    if triple is None:
        return AssociativityResult(True)
    u, v, w = triple
    return AssociativityResult(
        False, f"{u}(x){v}(x){w}: {format_vector(lhs)} vs {format_vector(rhs)}")


@dataclass
class InfinitesimalFromAssocResult:
    precondition_ok: bool
    passed: bool
    detail: str = ""


def check_assoc_implies_infinitesimal(
        data: ConeProductData,
        require_associativity: bool | AssociativityResult = True,
        comps: dict = None,
        ) -> InfinitesimalFromAssocResult:
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

    Cone associativity is the precondition.  require_associativity=True
    derives the cone product and checks it; an AssociativityResult already
    computed for this package is used as the verdict instead; False skips
    the precondition.  `comps` is closed_form_components(data), when
    already built.

    The triples (a, b, f) run over the safe names in lexicographic order;
    both sides are read from the tables of mu and the closed-form
    components, and each defect is contracted by its last slot once.
    """
    assoc = require_associativity
    if assoc is True:
        assoc = check_cone_associativity(derive_secondary_ops(data))
    if assoc is not False and not assoc.passed:
        return InfinitesimalFromAssocResult(
            False, False, f"cone product is not associative: {assoc.witness}")
    if comps is None:
        comps = closed_form_components(data)
    A = data.A
    M = dual_side(A, data.n)
    idx = A.index()
    R = A.ring
    mul, add, neg = R.mul, R.add, R.neg

    def add_scaled(out, c, row):
        for n, v in row:
            t = mul(c, v)
            old = out.get(n)
            out[n] = t if old is None else add(old, t)

    mu = data.mu.table().row
    pm_p = comps["pm_p"].table().row
    pm_m = comps["pm_m"].table().row
    kernel = PairKernel(data.mu, data.lam, -data.Q0)
    f_pos = comps["pm_p"].source.factors[1].index().pos

    safe = [(n, idx.pos[n]) for n in data.safe_names]
    duals = [(f"{n}^", f_pos[f"{n}^"]) for n in data.safe_names]
    for a, i in safe:
        for b, j in safe:
            negate = not (idx.odd[i] + idx.odd[j]) % 2
            contracted = slot_table(kernel.vector(kernel.defect(i, j)), M,
                                    last=True)
            ab = mu(i, j)
            for fb, k in duals:
                total = {}
                for y, c in pm_p(j, k):     # m_pp_p(1 (x) m_pm_p)
                    add_scaled(total, c, mu(i, y))
                for g, c in pm_m(j, k):     # m_pm_p(1 (x) m_pm_m)
                    add_scaled(total, c, pm_p(i, g))
                for x, c in ab:             # - m_pm_p(m_pp_p (x) 1)
                    add_scaled(total, neg(c), pm_p(x, k))
                # m_mm_p(m_pp_m (x) 1) vanishes: m_pp_m = 0
                total = {idx.names[n]: c for n, c in total.items() if c != 0}
                expected = {w: neg(c) if negate else c
                            for w, c in contracted.get(fb, {}).items()}
                if total != expected:
                    return InfinitesimalFromAssocResult(
                        True, False,
                        f"fails at a={a}, b={b}, f={fb}: "
                        f"{format_vector(Vector._trusted(A, total))} vs "
                        f"{format_vector(Vector._trusted(A, expected))}")
    return InfinitesimalFromAssocResult(True, True)


# ---------------------------------------------------------------------------
# Fixture-facing constructor
# ---------------------------------------------------------------------------

def cone_data_from_bialgebra(inst: BialgebraData, n: int,
                             name: str = "") -> ConeProductData:
    """Package a d = 0 unital instance: c0 = 0, Q0 = -lam(eta), B = 0."""
    A = inst.module
    complex_ = ChainComplex(A)
    A2 = tensor(A, A)
    A3 = tensor(A, A, A)
    return ConeProductData(complex_, inst.mu, inst.lam,
                           c0=A2.zero(), Q0=-inst.lambda_eta(), B=A3.zero(),
                           n=n, safe_names=inst.safe_names,
                           name=name or inst.name)
