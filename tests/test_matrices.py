import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from chainalg.rings import ZZ, QQ, GF
from chainalg.matrices import (
    ExactMatrix,
    DimensionError,
    smith_normal_form,
    diagonal_of,
    image_rank,
    ImageSolver,
    _xgcd,
)


def columns_matrix(ring, nrows, cols):
    """Assemble column vectors into a matrix (cols may be empty)."""
    cols = list(cols)
    return ExactMatrix(ring, nrows, len(cols),
                       [c[i] for i in range(nrows) for c in cols])


def rank_oracle_over_Q(rows):
    """Independent Gaussian-elimination rank over the rationals."""
    from fractions import Fraction

    A = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(A[0]) if A else 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(A)) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        for r in range(len(A)):
            if r != row and A[r][col] != 0:
                f = A[r][col] / A[row][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[row])]
        rank += 1
        row += 1
    return rank


def bareiss(M):
    """(rank, determinant) of an integer matrix by fraction-free Gaussian
    elimination (Bareiss, Math. Comp. 22, 1968): every division is exact.
    The determinant is that of a square M, 0 when it is singular."""
    A = M.to_rows()
    rank, sign, prev = 0, 1, 1
    for c in range(M.cols):
        piv = next((i for i in range(rank, M.rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv], sign = A[piv], A[rank], -sign
        p, top = A[rank][c], A[rank]
        for row in A[rank + 1:]:
            a = row[c]
            for j in range(c + 1, M.cols):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev, rank = p, rank + 1
    full = M.rows == M.cols == rank
    return rank, sign * prev if full else 0


def check_snf_certificate(M, U, D, V):
    """The Smith normal form contract: U*M*V = D in plain integers, U and V
    unimodular, D diagonal with nonnegative entries d_1 | d_2 | ... and its
    zero entries last; the number of nonzero entries is M's rank over Q."""
    assert U * M * V == D
    assert abs(bareiss(U)[1]) == 1
    assert abs(bareiss(V)[1]) == 1
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert D[i, j] == 0
    diag = diagonal_of(D)
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    assert diag[:len(nonzero)] == nonzero, "zero diagonal entries come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert bareiss(M)[0] == len(nonzero)


def test_bareiss_against_cofactors_and_the_rational_rank():
    def cofactor_det(rows):
        return 1 if not rows else sum(
            (-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
            for j, a in enumerate(rows[0]))

    assert bareiss(ExactMatrix(ZZ, 0, 0, [])) == (0, 1)
    assert bareiss(ExactMatrix.from_rows(
        ZZ, [[0, 2, 1], [3, 1, 4], [1, 5, 9]])) == (3, -32)
    rng = random.Random(13)
    for _ in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        M = ExactMatrix(ZZ, rows, cols, [rng.choice((0, 0, 1, -1, 2, -3, 7))
                                         for _ in range(rows * cols)])
        rank, det = bareiss(M)
        assert rank == rank_oracle_over_Q(M.to_rows())
        if rows == cols:
            assert det == cofactor_det(M.to_rows())


def test_snf_oracle_rejects_a_certificate_that_is_not_unimodular():
    # U*M*V = D holds and D is a Smith form, but U = (2) has no inverse
    # over Z; and a zero diagonal entry may not come first
    M = ExactMatrix.from_rows(ZZ, [[1]])
    two = ExactMatrix.from_rows(ZZ, [[2]])
    one = ExactMatrix.identity(ZZ, 1)
    with pytest.raises(AssertionError):
        check_snf_certificate(M, two, two, one)
    M = ExactMatrix.from_rows(ZZ, [[0, 0], [0, 1]])
    with pytest.raises(AssertionError):
        check_snf_certificate(M, ExactMatrix.identity(ZZ, 2), M,
                              ExactMatrix.identity(ZZ, 2))


def test_xgcd_is_positive_on_mixed_signs_and_zeros():
    # Euclid ends each of these at a negative remainder, so _xgcd negates
    # the gcd and both Bezout coefficients
    for a, b in ((4, -6), (6, -4), (-4, -6), (0, -3), (-3, 0)):
        g, x, y = _xgcd(a, b)
        assert x * a + y * b == g == gcd(abs(a), abs(b)) > 0, (a, b)


def test_snf_zero_matrix():
    M = ExactMatrix.from_rows(ZZ, [[0]])
    U, D, V = smith_normal_form(M)
    assert D == ExactMatrix.from_rows(ZZ, [[0]])
    assert U * M * V == D


def test_snf_identity():
    M = ExactMatrix.identity(ZZ, 3)
    U, D, V = smith_normal_form(M)
    assert D == M
    assert U * M * V == D


def test_snf_hand_reduced_example():
    # row/column reduction by hand: R2 -= 3 R1, C2 -= 2 C1 gives diag(2, -4),
    # sign-normalized to diag(2, 4); invariant factors gcd = 2, |det|/gcd = 4
    M = ExactMatrix.from_rows(ZZ, [[2, 4], [6, 8]])
    U, D, V = smith_normal_form(M)
    assert U * M * V == D
    assert diagonal_of(D) == [2, 4]
    assert image_rank(M) == 2


def _check_snf(M):
    U, D, V = smith_normal_form(M)
    check_snf_certificate(M, U, D, V)
    assert rank_oracle_over_Q(M.to_rows()) == len(
        [d for d in diagonal_of(D) if d != 0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_snf_random_matrices(data):
    rows = data.draw(st.integers(0, 6))
    cols = data.draw(st.integers(0, 6))
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols,
                                 max_size=rows * cols))
    _check_snf(ExactMatrix(ZZ, rows, cols, entries))


def _solver(M):
    return ImageSolver(M.ring, M.rows, [_sparse(M.col(j)) for j in range(M.cols)])


def _sparse(v):
    """A dense vector as the sparse column `ImageSolver` reads."""
    return {i: x for i, x in enumerate(v) if x != 0}


def _dense(col, n):
    """A sparse column that `ImageSolver` returned, as a dense tuple of
    length n (for `ExactMatrix.apply`); its keys must be positions below n
    and its entries nonzero."""
    assert all(i in range(n) and x != 0 for i, x in col.items()), col
    return tuple(col.get(i, 0) for i in range(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_image_solver_matches_dense_factoring(data):
    # sparse columns with units and non-units: the unit-pivot elimination
    # and its Smith normal form residual against the dense Smith normal
    # form over Z and a reduced row echelon form over each field
    rows = data.draw(st.integers(0, 7))
    cols = data.draw(st.integers(0, 7))
    entries = data.draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 4, 6)),
                                 min_size=rows * cols, max_size=rows * cols))
    for ring in (ZZ, QQ, GF(2), GF(5)):
        M = ExactMatrix(ring, rows, cols, entries)
        solver = _solver(M)
        if ring is ZZ:
            diag = diagonal_of(smith_normal_form(M)[1])
            assert solver.rank == sum(1 for d in diag if d)
            assert list(solver.torsion) == [d for d in diag if d > 1]
        else:
            assert solver.rank == _reference_rank(M)
            assert solver.torsion == ()
        kernel = [_dense(v, cols) for v in solver.kernel()]
        assert len(kernel) == cols - solver.rank
        for v in kernel:
            assert all(x == 0 for x in M.apply(v))
        if ring is ZZ and kernel:
            # saturated: the kernel basis spans a direct summand of Z^cols
            K = columns_matrix(ring, cols, kernel)
            assert diagonal_of(smith_normal_form(K)[1]) == [1] * len(kernel)
        # image() and M's columns span the same lattice, each side's
        # columns being combinations of the other's
        image = solver.image()
        G = columns_matrix(ring, rows, [_dense(g, rows) for g in image])
        for g in image:
            assert _eliminate_from_scratch(M, _dense(g, rows)) is not None
        for j in range(cols):
            assert _eliminate_from_scratch(G, M.col(j)) is not None
        for t, g in enumerate(image):
            assert solver.coordinates(g) == {t: ring.one()}


def test_a_residual_is_factored_on_its_sparse_columns(monkeypatch):
    # no unit entry: the whole matrix is the residual, whose Smith normal
    # form is taken straight from its sparse columns: no dense matrix is
    # built, and U, V and D are those of the dense smith_normal_form
    built = []
    real_init = ExactMatrix.__init__

    def counting(self, *args):
        built.append(args[:3])
        real_init(self, *args)

    k = 6
    monkeypatch.setattr(ExactMatrix, "__init__", counting)
    solver = ImageSolver(ZZ, k, [{i: 2} for i in range(k)])
    assert built == []
    assert (solver.rank, solver.torsion) == (k, (2,) * k)
    monkeypatch.undo()
    rng = random.Random(46)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = ExactMatrix(ZZ, rows, cols, [rng.choice((0, 0, 2, -2, 3, 4, -6))
                                         for _ in range(rows * cols)])
        solver = _solver(M)
        left = solver._left
        right = [j for j, _ in solver._residual]
        U, D, V = smith_normal_form(ExactMatrix(
            ZZ, len(left), len(right), [M[i, j] for i in left for j in right]))
        assert list(solver._U) == [
            [(s, u) for s, u in enumerate(U.row(r)) if u] for r in range(U.rows)]
        assert [list(col.items()) for col in solver._V] == [   # in order
            [(c, v) for c, v in enumerate(V.col(s)) if v]
            for s in range(V.cols)]
        assert solver._d == [x for x in diagonal_of(D) if x]


def test_image_solver_places_q_on_first_use():
    # rank and torsion (all that homology() reads) never build Q's
    # placement; the first kernel or solve does
    M = ExactMatrix.from_rows(ZZ, [[2, 4, 1, 0], [6, 8, 3, 0], [0, 0, 0, 0]])
    b = M.apply([1, 1, 1, 1])
    for first in ("kernel", "solve"):
        solver = _solver(M)
        assert (solver.rank, solver.torsion) == (2, (4,))
        assert solver._Q0 is None
        if first == "kernel":
            kernel = solver.kernel()
            assert len(kernel) == 2
            assert all(M.apply(_dense(v, 4)) == (0, 0, 0) for v in kernel)
        else:
            assert M.apply(_dense(solver.solve(_sparse(b)), 4)) == b
        assert solver._Q0 is not None


def test_kernel_is_saturated_over_Z():
    # kernel of [2 4] as a subspace is spanned by (2, -1); the lattice
    # kernel must contain it primitively, not only (4, -2)
    M = ExactMatrix.from_rows(ZZ, [[2, 4]])
    ker = _solver(M).kernel()
    assert len(ker) == 1
    v = _dense(ker[0], 2)
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd

    assert gcd(v[0], v[1]) == 1


@pytest.mark.parametrize("ring", [QQ, GF(5), GF(2)])
def test_kernel_orthogonality_fields(ring):
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = ExactMatrix(ring, rows, cols,
                        [rng.randint(-9, 9) for _ in range(rows * cols)])
        ker = _solver(M).kernel()
        for v in ker:
            assert all(x == 0 for x in M.apply(_dense(v, cols)))
        assert image_rank(M) + len(ker) == cols


def test_kernel_orthogonality_integers():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = ExactMatrix(ZZ, rows, cols,
                        [rng.randint(-9, 9) for _ in range(rows * cols)])
        for v in _solver(M).kernel():
            assert all(x == 0 for x in M.apply(_dense(v, cols)))


def test_kernel_over_Q_example():
    M = ExactMatrix.from_rows(QQ, [[1, 1]])
    ker = _solver(M).kernel()
    assert len(ker) == 1
    a, b = _dense(ker[0], 2)
    assert a == -b and a != 0


def test_solve_in_image_divisibility():
    solver = _solver(ExactMatrix.from_rows(ZZ, [[2]]))
    assert solver.solve({0: 3}) is None
    assert solver.solve({0: 4}) == {0: 2}


def _row_echelon(M):
    """Reduced row echelon form over a field, (rows, pivot columns), by
    dense Gauss-Jordan elimination: the reference for the fields."""
    R = M.ring
    A = M.to_rows()
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        pr = next((i for i in range(r, M.rows) if A[i][c] != 0), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = R.inv(A[r][c])
        A[r] = [R.mul(inv, y) for y in A[r]]
        for i in range(M.rows):
            f = A[i][c]
            if i != r and f != 0:
                A[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def _reference_rank(M):
    if M.ring.is_field:
        return len(_row_echelon(M)[1])
    return rank_oracle_over_Q(M.to_rows())


def _eliminate_from_scratch(M, b):
    """One solve the way it is done without a factored solver: row-reduce
    [M | b] over a field, or take the Smith form of M over Z, for this b."""
    R = M.ring
    b = [R.canon(v) for v in b]
    if M.cols == 0:
        return () if all(v == 0 for v in b) else None
    if R.is_field:
        aug = ExactMatrix(R, M.rows, M.cols + 1,
                          [x for i in range(M.rows) for x in (*M.row(i), b[i])])
        A, pivots = _row_echelon(aug)
        if M.cols in pivots:
            return None
        x = [R.zero()] * M.cols
        for r, pc in enumerate(pivots):
            x[pc] = A[r][M.cols]
        return tuple(x)
    U, D, V = smith_normal_form(M)
    y, diag, z = U.apply(b), diagonal_of(D), [0] * M.cols
    for i in range(M.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if y[i] != 0:
                return None
        else:
            q, r = divmod(y[i], d)
            if r != 0:
                return None
            z[i] = q
    return V.apply(z)


def test_solve_in_image_random():
    rng = random.Random(3)
    for ring in (ZZ, QQ, GF(2), GF(5)):
        for _ in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            M = ExactMatrix(ring, rows, cols,
                            [rng.randint(-5, 5) for _ in range(rows * cols)])
            x = [rng.randint(-4, 4) for _ in range(cols)]
            b = M.apply(x)
            sol = _solver(M).solve(_sparse(b))
            assert sol is not None
            assert M.apply(_dense(sol, cols)) == tuple(ring.canon(v) for v in b)
    # many solves against one factored solver, solvable and unsolvable
    # right-hand sides mixed, empty, zero and identity matrices included
    for ring in (ZZ, QQ, GF(2), GF(5)):
        outcomes = set()
        shapes = [(0, 0), (0, 3), (3, 0)] + [
            (rng.randint(1, 6), rng.randint(1, 6)) for _ in range(25)]
        cases = [ExactMatrix(ring, rows, cols,
                             [rng.choice((0, 0, 0, 1, -1, 2, -3))
                              for _ in range(rows * cols)])
                 for rows, cols in shapes]
        cases += [ExactMatrix(ring, 3, 4, [0] * 12), ExactMatrix(ring, 2, 2, [0] * 4),
                  ExactMatrix.identity(ring, 4), ExactMatrix.identity(ring, 1)]
        for M in cases:
            rows, cols = M.rows, M.cols
            solver = _solver(M)
            _check_torsion(solver, M)
            for _ in range(12):
                if cols and rng.random() < 0.5:
                    b = M.apply([rng.randint(-4, 4) for _ in range(cols)])
                    if ring == ZZ and rng.random() < 0.5:
                        b = [v + rng.choice((0, 1)) for v in b]
                else:
                    b = [rng.randint(-4, 4) for _ in range(rows)]
                sol = solver.solve(_sparse(b))
                # the particular solution is not a contract, solvability is
                assert (sol is None) == (_eliminate_from_scratch(M, b) is None)
                b = tuple(ring.canon(v) for v in b)
                if sol is not None:
                    assert M.apply(_dense(sol, cols)) == b
                outcomes.add(sol is None)
                z = solver.coordinates(_sparse(b))
                assert (z is None) == (sol is None)
                if z is not None:
                    image = [_dense(g, rows) for g in solver.image()]
                    z = _dense(z, len(image))
                    assert tuple(_sum(ring, rows, [
                        [ring.mul(c, a) for a in g] for c, g in zip(z, image)])) == b
        assert outcomes == {True, False}


def _sum(R, n, vectors):
    out = [R.zero()] * n
    for v in vectors:
        out = [R.add(x, y) for x, y in zip(out, v)]
    return out


def _check_torsion(solver, M):
    """rank and torsion of one solver against M's reference rank and, over
    Z, against its Smith normal form."""
    assert solver.rank == _reference_rank(M)
    if M.ring == ZZ and M.rows and M.cols:
        diag = diagonal_of(smith_normal_form(M)[1])
        assert list(solver.torsion) == [d for d in diag if d > 1]
    else:
        assert solver.torsion == ()


def test_solve_reports_unsolvable():
    M = ExactMatrix.from_rows(ZZ, [[2, 0], [0, 3]])
    assert _solver(M).solve({0: 1, 1: 1}) is None
    Mq = ExactMatrix.from_rows(QQ, [[1, 0], [0, 0]])
    assert _solver(Mq).solve({1: 1}) is None


def test_image_solver_rejects_rows_outside_the_matrix():
    # a key outside [0, rows), in a column or in a right-hand side, is
    # refused before it can be read as a row
    for ring, columns in ((ZZ, [{5: 1}]), (QQ, [{-1: 1}]), (GF(5), [{0: 1}, {2: 3}])):
        with pytest.raises(DimensionError, match="outside"):
            ImageSolver(ring, 2, columns)
    solver = ImageSolver(ZZ, 2, [{0: 1}])
    for query in (solver.solve, solver.coordinates):
        for b in ({2: 1}, {-1: 1}, {"0": 1}):
            with pytest.raises(DimensionError, match="outside"):
                query(b)


def test_lattice_column_basis_spans():
    rng = random.Random(5)
    cases = [ExactMatrix.from_rows(ZZ, [[2, 4], [6, 8]])]
    for ring in (ZZ, QQ, GF(2), GF(5)):
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            cases.append(ExactMatrix(ring, rows, cols,
                                     [rng.choice((0, 0, 1, -1, 2, -3, 6))
                                      for _ in range(rows * cols)]))
    for M in cases:
        solver = _solver(M)
        basis = solver.image()
        G = _solver(columns_matrix(M.ring, M.rows,
                                   [_dense(g, M.rows) for g in basis]))
        # independent, as many as the rank, and the same lattice as M's
        # columns: each side's columns are combinations of the other's
        assert len(basis) == G.rank == solver.rank
        for j in range(M.cols):
            assert G.solve(_sparse(M.col(j))) is not None
        for g in basis:
            assert solver.solve(g) is not None


def test_dimension_mismatch_is_an_error():
    M = ExactMatrix.from_rows(ZZ, [[1, 2]])
    with pytest.raises(DimensionError):
        M.apply([1, 2, 3])
    with pytest.raises(DimensionError):
        M * M
    with pytest.raises(DimensionError):
        ExactMatrix(ZZ, 2, 2, [1, 2, 3])


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_canonical_forms():
    from fractions import Fraction

    assert GF(5).canon(12) == 2
    assert GF(5).canon(Fraction(1, 2)) == 3  # 2^{-1} = 3 mod 5
    assert QQ.canon(Fraction(2, 4)) == Fraction(1, 2)
    assert ZZ.canon(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.canon(Fraction(1, 2))


# ---------------------------------------------------------------------------
# The Markowitz pivot search against the full scan
# ---------------------------------------------------------------------------

def _full_scan_pivot(cols, rows, field):
    """The first admissible entry of least Markowitz cost in column order,
    found by reading every admissible entry: the reference for
    `matrices._markowitz_pivot`."""
    best, best_cost = None, None
    for j, col in cols.items():
        cost_j = len(col) - 1
        for i, a in col.items():
            if field or a == 1 or a == -1:
                cost = cost_j * (len(rows[i]) - 1)
                if best is None or cost < best_cost:
                    best, best_cost = (i, j), cost
    return best


@pytest.fixture
def checked_pivots(monkeypatch):
    """Every pivot search checked against the full scan; the list records
    each pivot found."""
    import chainalg.matrices as mx

    search, found = mx._markowitz_pivot, []

    def checked(cols, rows, col_counts, row_counts, field):
        pivot = search(cols, rows, col_counts, row_counts, field)
        assert pivot == _full_scan_pivot(cols, rows, field)
        found.append(pivot)
        return pivot

    monkeypatch.setattr(mx, "_markowitz_pivot", checked)
    return found


def test_pivot_search_matches_the_full_scan_on_random_matrices(checked_pivots):
    rng = random.Random(27)
    shapes = [(0, 0), (12, 12), (1, 12), (12, 1)] + [
        (rng.randint(0, 12), rng.randint(0, 12)) for _ in range(56)]
    values = ((1, -1), (1, -1, 2, -3), (1, -1, 2, -2, 3, 4, 6))
    for rows, cols in shapes:
        for density in (0.15, 0.35, 0.7):
            for pool in values:
                columns = [{i: rng.choice(pool) for i in range(rows)
                            if rng.random() < density} for _ in range(cols)]
                for ring in (ZZ, QQ, GF(2), GF(5)):
                    solver = ImageSolver(ring, rows, columns)
                    M = ExactMatrix(ring, rows, cols, [
                        c.get(i, 0) for i in range(rows) for c in columns])
                    assert solver.rank == _reference_rank(M)
    assert sum(p is not None for p in checked_pivots) > 5_000


def test_pivot_search_matches_the_full_scan_on_scenarios(checked_pivots,
                                                         tmp_path):
    import json
    from pathlib import Path

    from chainalg.cli import main

    data = Path(__file__).resolve().parent / "data"
    files = sorted(f for f in data.glob("*.json") if f.name != "report_digests.json"
                   and json.loads(f.read_text())["kind"] == "complex")
    assert len(files) >= 8
    for f in files:
        for command in ("homology", "check"):
            main([command, str(f), "--format", "json",
                  "--output", str(tmp_path / "report.json")])
    assert len(checked_pivots) > 800


def _surface(n, klein, rng):
    """The boundaries d1 and d2 of the cubical n x n torus, or with
    klein=True the Klein bottle, as sparse columns (rows, columns).
    Vertices v, horizontal and vertical edges h, w and squares s are
    indexed (i, j) mod n; the Klein bottle glues row n to row 0 through
    i -> -i, which reverses that row's horizontal edges.  Each kind of cell
    is numbered in a seeded order and each cell has a seeded orientation."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    at = {}
    for kind in ("v", "e", "s"):
        names = [(k, c) for k in ("h", "w") for c in cells] if kind == "e" \
            else [(kind, c) for c in cells]
        rng.shuffle(names)
        at.update((x, p) for p, x in enumerate(names))
    flip = {x: rng.choice((1, -1)) for x in at}

    def vertex(i, j):
        return ("v", ((-i if klein and j == n else i) % n, j % n))

    def row_edge(i, j):
        if klein and j == n:
            return -1, ("h", ((-i - 1) % n, 0))
        return 1, ("h", (i % n, j % n))

    def column(cell, faces):
        col = {}
        for c, face in faces:
            col[at[face]] = col.get(at[face], 0) + c * flip[cell] * flip[face]
        return {p: c for p, c in col.items() if c}

    d1, d2 = [None] * (2 * n * n), [None] * (n * n)
    for i, j in cells:
        for k, top in (("h", vertex(i + 1, j)), ("w", vertex(i, j + 1))):
            d1[at[k, (i, j)]] = column((k, (i, j)),
                                       [(1, top), (-1, ("v", (i, j)))])
        (c0, e0), (c1, e1) = row_edge(i, j), row_edge(i, j + 1)
        d2[at["s", (i, j)]] = column(("s", (i, j)), [
            (c0, e0), (-c1, e1), (1, ("w", ((i + 1) % n, j))),
            (-1, ("w", (i, j)))])
    return (n * n, d1), (2 * n * n, d2)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2)], ids=repr)
def test_pivot_search_matches_the_full_scan_on_surfaces(checked_pivots, ring):
    # fill-in moves the floor as the elimination goes; the homology is the
    # closed form: (free rank, torsion) of H_0, H_1, H_2
    rng = random.Random(6)
    klein = {ZZ: [(1, ()), (1, (2,)), (0, ())], QQ: [(1, ()), (1, ()), (0, ())],
             GF(2): [(1, ()), (2, ()), (1, ())]}[ring]
    for n in (4, 6, 10):
        for is_klein, want in ((False, [(1, ()), (2, ()), (1, ())]),
                               (True, klein)):
            (n0, d1), (n1, d2) = _surface(n, is_klein, rng)
            s1, s2 = ImageSolver(ring, n0, d1), ImageSolver(ring, n1, d2)
            assert [(n0 - s1.rank, s1.torsion),
                    (n1 - s1.rank - s2.rank, s2.torsion),
                    (n * n - s2.rank, ())] == want, (n, is_klein)
    assert len(checked_pivots) > 500


def _counts(cols, rows, n_rows, n_cols):
    """How many columns, and how many rows, have each length: the counts
    that `ImageSolver` keeps during its elimination, counted anew."""
    col_counts, row_counts = [0] * (n_rows + 1), [0] * (n_cols + 1)
    for col in cols.values():
        col_counts[len(col)] += 1
    for row in rows.values():
        row_counts[len(row)] += 1
    return col_counts, row_counts


def test_elimination_keeps_its_length_counts(monkeypatch):
    # before each pivot, both count arrays equal a recount from the live
    # columns and the rows
    import chainalg.matrices as mx

    search, searches = mx._markowitz_pivot, []

    def recounted(cols, rows, col_counts, row_counts, field):
        shape = len(col_counts) - 1, len(row_counts) - 1
        assert (col_counts, row_counts) == _counts(cols, rows, *shape)
        searches.append(shape)
        return search(cols, rows, col_counts, row_counts, field)

    monkeypatch.setattr(mx, "_markowitz_pivot", recounted)
    rng = random.Random(3)
    values = ((1, -1), (1, -1, 2, -3), (1, -1, 2, -2, 3, 4, 6))
    for _ in range(80):
        rows, cols = rng.randint(0, 14), rng.randint(0, 14)
        density, pool = rng.choice((0.15, 0.35, 0.7)), rng.choice(values)
        columns = [{i: rng.choice(pool) for i in range(rows)
                    if rng.random() < density} for _ in range(cols)]
        for ring in (ZZ, QQ, GF(2), GF(5)):
            ImageSolver(ring, rows, columns)
    assert len(searches) > 1_000


class _Unread(dict):
    """A sparse column whose length can be read but not its entries."""

    def _unread(self, *_):
        raise AssertionError("column read past the floor")

    __iter__ = items = keys = values = __getitem__ = get = _unread


class _Unseen(_Unread):
    """A sparse column whose length cannot be read either."""

    __len__ = _Unread._unread


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=repr)
def test_pivot_search_stops_at_the_floor(ring):
    # a cycle of columns with two entries each, one row emptied by an
    # earlier pivot: the floor is (2 - 1) * (2 - 1), and column 0's first
    # admissible entry attains it (over Z its first entry, 2, is not
    # admissible), so no later column is read, not even its length
    from chainalg.matrices import _markowitz_pivot

    n = 5
    cols = {j: {j: 2 if j == 0 else 1, (j + 1) % n: 1} for j in range(n)}
    rows = {i: {i, (i - 1) % n} for i in range(n)}
    rows[n] = set()
    counts = _counts(cols, rows, n + 1, n)
    cols.update((j, _Unseen(cols[j])) for j in range(1, n))
    want = (0, 0) if ring.is_field else (1, 0)
    assert _markowitz_pivot(cols, rows, *counts, ring.is_field) == want
    cols[0] = _Unseen(cols[0])
    with pytest.raises(AssertionError, match="past the floor"):
        _markowitz_pivot(cols, rows, *counts, ring.is_field)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=repr)
def test_pivot_search_skips_a_column_that_cannot_beat_the_best(ring):
    # the floor is (2 - 1) * (2 - 1); column 0's entries cost (2 - 1) *
    # (3 - 1) = 2, column 1's bound is (3 - 1) * (2 - 1) = 2, no less, so
    # its entries are not read, and column 2's entry in row 2 attains the
    # floor
    from chainalg.matrices import _markowitz_pivot

    cols = {0: {0: 1, 1: 1}, 1: {0: 1, 1: 1, 2: 1}, 2: {2: 1, 3: 1},
            3: {0: 1, 1: 1, 3: 1}}
    rows = {0: {0, 1, 3}, 1: {0, 1, 3}, 2: {1, 2}, 3: {2, 3}}
    counts = _counts(cols, rows, 4, 4)
    assert _full_scan_pivot(cols, rows, ring.is_field) == (2, 2)
    cols[1] = _Unread(cols[1])
    assert _markowitz_pivot(cols, rows, *counts, ring.is_field) == (2, 2)


def test_unit_pivots_over_a_field_skip_the_inverse(monkeypatch):
    # over Q a +-1 pivot is its own inverse; any other pivot is inverted
    from chainalg.rings import Ring

    inverted = []
    inverse = Ring.inv
    monkeypatch.setattr(Ring, "inv",
                        lambda R, a: inverted.append(a) or inverse(R, a))
    solver = ImageSolver(QQ, 2, [{0: -1}, {0: 1, 1: -1}])
    assert (solver.rank, inverted) == (2, [])
    assert solver.solve({0: 2, 1: 1}) == {0: -3, 1: -1}
    solver = ImageSolver(QQ, 1, [{0: 2}])
    assert inverted == [2]
    assert solver.solve({0: 1}) == {0: Fraction(1, 2)}


def test_image_solver_canonicalises_its_entries():
    # entries go through the ring's canon: inexact ones are refused, and a
    # residue is reduced, dropped when it vanishes
    for bad in (1.0, 2.5, True):
        with pytest.raises(TypeError, match="not an exact"):
            ImageSolver(ZZ, 2, [{0: 1, 1: bad}])
    assert ImageSolver(GF(5), 1, [{0: 5}]).rank == 0
    solver = ImageSolver(GF(5), 1, [{0: 7}])
    assert (solver.rank, solver.image()) == (1, [{0: 2}])
    assert ImageSolver(QQ, 1, [{0: Fraction(4, 2)}]).image() == [{0: 2}]
