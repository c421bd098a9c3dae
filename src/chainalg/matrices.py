"""Exact matrices over Z, Q, and GF(p).

Provides the linear-algebra kernel the rest of the package sits on.  On
dense matrices: Smith normal form with unimodular certificates over Z,
Gaussian elimination over the fields, and `ImageSolver`, which factors a
matrix once as P*M*Q = D and answers its rank, kernel, image, coordinate,
solvability and cokernel queries the same way over every ring
(`image_rank`, `kernel_basis`, `lattice_column_basis` and `solve_in_image`
each read one solver).  On sparse columns:
`rank_and_torsion`, which reads a matrix's rank and invariant factors by
unit-pivot elimination, with Smith normal form only on the residual that
has no unit entry.  Matrices are immutable after construction;
zero-dimensional matrices are legal everywhere.
"""

from __future__ import annotations

from .rings import Ring, ZZ


class DimensionError(ValueError):
    """Shapes of the operands do not match."""


class ExactMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = tuple(ring.canon(x) for x in entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, ring: Ring, rows_list) -> "ExactMatrix":
        rows_list = [list(r) for r in rows_list]
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if rows_list else 0
        if any(len(r) != ncols for r in rows_list):
            raise DimensionError("ragged rows")
        return cls(ring, nrows, ncols, [x for r in rows_list for x in r])

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "ExactMatrix":
        return cls(ring, n, n, [ring.one() if i == j else ring.zero()
                                for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "ExactMatrix":
        z = ring.zero()
        return cls(ring, rows, cols, [z] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.ring}, {self.rows}x{self.cols}, [{body}])"

    def __add__(self, other):
        self._same_shape(other)
        R = self.ring
        return ExactMatrix(R, self.rows, self.cols,
                           [R.add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        R = self.ring
        return ExactMatrix(R, self.rows, self.cols,
                           [R.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        R = self.ring
        return ExactMatrix(R, self.rows, self.cols, [R.neg(a) for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ring != other.ring:
            raise DimensionError("ring mismatch")
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        R = self.ring
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = R.zero()
                for k in range(self.cols):
                    a = ri[k]
                    if a != 0:
                        acc = R.add(acc, R.mul(a, other.entries[k * other.cols + j]))
                out.append(acc)
        return ExactMatrix(R, self.rows, other.cols, out)

    def scale(self, c):
        R = self.ring
        c = R.canon(c)
        return ExactMatrix(R, self.rows, self.cols, [R.mul(c, a) for a in self.entries])

    def transpose(self):
        return ExactMatrix(self.ring, self.cols, self.rows,
                           [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def apply(self, vec):
        """Matrix times column vector (sequence of length cols)."""
        vec = [self.ring.canon(x) for x in vec]
        if len(vec) != self.cols:
            raise DimensionError(f"vector length {len(vec)} != cols {self.cols}")
        R = self.ring
        return tuple(
            _dot(R, self.row(i), vec) for i in range(self.rows)
        )

    def is_zero(self):
        return all(x == 0 for x in self.entries)

    def _same_shape(self, other):
        if self.ring != other.ring or self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape or ring mismatch")


def _dot(R, u, v):
    acc = R.zero()
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            acc = R.add(acc, R.mul(a, b))
    return acc


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

def smith_normal_form(M: ExactMatrix):
    """U, D, V with U*M*V = D, D diagonal with d1 | d2 | ..., di >= 0.

    U and V are unimodular (products of elementary integer operations).
    Only defined over Z.
    """
    if M.ring != ZZ:
        raise ValueError("Smith normal form requires integer entries")
    m, n = M.rows, M.cols
    A = M.to_rows()
    U = _identity_rows(m)
    V = _identity_rows(n)

    def row_op(i1, i2, a, b, c, d):
        # (row i1, row i2) <- (a*row i1 + b*row i2, c*row i1 + d*row i2);
        # caller guarantees a*d - b*c = +-1
        for X in (A, U):
            r1, r2 = X[i1], X[i2]
            for j in range(len(r1)):
                r1[j], r2[j] = a * r1[j] + b * r2[j], c * r1[j] + d * r2[j]

    def col_op(j1, j2, a, b, c, d):
        for X in (A, V):
            for r in X:
                r[j1], r[j2] = a * r[j1] + b * r[j2], c * r[j1] + d * r[j2]

    def swap_rows(i1, i2):
        A[i1], A[i2] = A[i2], A[i1]
        U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        for X in (A, V):
            for r in X:
                r[j1], r[j2] = r[j2], r[j1]

    t = 0
    limit = min(m, n)
    while t < limit:
        # find a pivot of least absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)

        dirty = True
        while dirty:
            dirty = False
            # clear the pivot column
            for i in range(t + 1, m):
                a, b = A[t][t], A[i][t]
                if b == 0:
                    continue
                if b % a == 0:
                    q = b // a
                    row_op(t, i, 1, 0, -q, 1)
                else:
                    g, x, y = _xgcd(a, b)
                    row_op(t, i, x, y, -(b // g), a // g)
                    dirty = True
            # clear the pivot row
            for j in range(t + 1, n):
                a, b = A[t][t], A[t][j]
                if b == 0:
                    continue
                if b % a == 0:
                    q = b // a
                    col_op(t, j, 1, 0, -q, 1)
                else:
                    g, x, y = _xgcd(a, b)
                    col_op(t, j, x, y, -(b // g), a // g)
                    dirty = True
            if not dirty:
                # pivot must divide every remaining entry; if not, fold the
                # offending row into the pivot row and start over
                a = A[t][t]
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if A[i][j] % a != 0:
                            row_op(t, i, 1, 1, 0, 1)
                            dirty = True
                            break
                    if dirty:
                        break
        if A[t][t] < 0:
            # negate the pivot row (unimodular)
            for X in (A, U):
                X[t] = [-x for x in X[t]]
        t += 1

    D = ExactMatrix(ZZ, m, n, [x for r in A for x in r])
    U_out = ExactMatrix(ZZ, m, m, [x for r in U for x in r])
    V_out = ExactMatrix(ZZ, n, n, [x for r in V for x in r])
    return U_out, D, V_out


def _identity_rows(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _xgcd(a: int, b: int):
    """g, x, y with x*a + y*b = g = gcd(a, b) > 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def diagonal_of(D: ExactMatrix):
    return [D[i, i] for i in range(min(D.rows, D.cols))]


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination
# ---------------------------------------------------------------------------

def rank_and_torsion(R: Ring, columns):
    """(rank, invariant factors > 1 in divisibility order) of the matrix
    whose columns are given as {row position: coefficient} dicts.

    Eliminates pivots on the sparse columns: any nonzero entry over a
    field, only +-1 over Z, each time the one of least Markowitz cost
    (entries in its row - 1) * (entries in its column - 1).  A pivot a at
    (i, j) clears row i by adding multiples of column j to the others, then
    row i and column j leave the matrix; the rest of column j could be
    cleared by row operations that touch nothing else.  Over Z these steps
    are unimodular with a = +-1, so the matrix is equivalent to the identity
    on the pivots plus the residual, a block with no unit entry, and only
    that residual goes through `smith_normal_form`.  Over a field nothing
    is left.
    """
    field = R.is_field
    cols = {}
    rows = {}
    for j, col in enumerate(columns):
        col = {i: c for i, c in col.items() if c != 0}
        if col:
            cols[j] = col
            for i in col:
                rows.setdefault(i, set()).add(j)
    rank = 0
    while True:
        piv = _markowitz_pivot(cols, rows, field)
        if piv is None:
            break
        i, j = piv
        col = cols.pop(j)
        f = R.inv(col.pop(i)) if field else col.pop(i)   # 1/a = a for a = +-1
        for r in col:
            rows[r].discard(j)
        rows[i].discard(j)
        for j2 in rows.pop(i):
            c2 = cols[j2]
            g = R.mul(c2.pop(i), f)
            for r, v in col.items():
                new = R.sub(c2.get(r, 0), R.mul(g, v))
                if new != 0:
                    c2[r] = new
                    rows[r].add(j2)
                elif r in c2:
                    del c2[r]
                    rows[r].discard(j2)
            if not c2:
                del cols[j2]
        rank += 1
    if not cols:
        return rank, ()
    left = sorted({i for col in cols.values() for i in col})
    residual = ExactMatrix(R, len(left), len(cols),
                           [col.get(i, 0) for i in left for col in cols.values()])
    diag = diagonal_of(smith_normal_form(residual)[1])
    return (rank + sum(1 for d in diag if d != 0),
            tuple(d for d in diag if d > 1))


def _markowitz_pivot(cols, rows, field):
    """(row, column) of an admissible entry of least Markowitz cost, or
    None when no entry is admissible."""
    best, best_cost = None, None
    for j, col in cols.items():
        cost_j = len(col) - 1
        for i, a in col.items():
            if field or a == 1 or a == -1:
                cost = cost_j * (len(rows[i]) - 1)
                if best is None or cost < best_cost:
                    if cost == 0:
                        return i, j
                    best, best_cost = (i, j), cost
    return best


# ---------------------------------------------------------------------------
# Gaussian elimination over fields
# ---------------------------------------------------------------------------

def _row_echelon(M: ExactMatrix):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    A = M.to_rows()
    return A, _reduce_rows(M.ring, A, M.cols)


def _reduce_rows(R: Ring, A, ncols):
    """Bring the rows A (lists, changed in place) to reduced row echelon
    form, searching pivots only among the first ncols columns; every column
    takes part in the row operations.  Returns the pivot columns.

    Each update runs over the pivot row's nonzero entries only, so sparse
    rows (boundary matrices, identity blocks) cost what they hold.
    """
    pivots = []
    r = 0
    nrows = len(A)
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if A[i][c] != 0), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        row = A[r]
        inv = R.inv(row[c])
        nonzero = [(j, R.mul(inv, y)) for j, y in enumerate(row) if y != 0]
        for j, y in nonzero:
            row[j] = y
        for i in range(nrows):
            other = A[i]
            f = other[c]
            if i != r and f != 0:
                for j, y in nonzero:
                    other[j] = R.sub(other[j], R.mul(f, y))
        pivots.append(c)
        r += 1
    return pivots


class ImageSolver:
    """One factorization P*M*Q = D of M, read the same way over every ring.

    D is diagonal with d_1 | d_2 | ... (d_i = 0 past the rank, rows beyond
    the columns included); P is invertible and kept as sparse rows, Q is
    invertible and kept as sparse columns.  Over Z it is the Smith normal
    form, P = U and Q = V.  Over a field it is one row reduction of [M | I]
    with pivots taken among M's columns: P is the row transform T kept in
    the identity block, d_i = 1 up to the rank, and Q's columns are the
    unit vectors at the pivot columns followed by one kernel vector per
    free column, read off the reduced row echelon form.  A zero or identity
    matrix (no rows or no columns included) is not factored: P = Q = I.

    Only the factoring knows the ring; every query has one path:
    `kernel()` is Q's columns beyond the rank (a saturated lattice basis of
    ker M over Z); `image()` is M*Q's columns below the rank (a basis of
    the column lattice over Z); `coordinates(b)` is z with
    b = sum z_j image()[j], or None when b is not in the image: y = P*b
    must vanish past the rank and d_i must divide y_i below it, and then
    z_i = y_i / d_i; `solve(b)` is x = Q*z, with M*x = b.  `cokernel(b)` is
    the class of b in coker M, (P*b)_i reduced modulo d_i on the rows with
    d_i != 1; `orders` lists those d_i (0 for a free generator) and
    `cokernel_generators()` the columns of P^-1 at those rows, read by
    factoring P.  The kernel, image and solve answers are exactly what
    eliminating M (or [M | b]) from scratch yields.
    """

    __slots__ = ("ring", "rows", "cols", "rank", "orders", "_M", "_P", "_Q",
                 "_d", "_keep")

    def __init__(self, M: ExactMatrix):
        R = M.ring
        self.ring, self.rows, self.cols, self._M = R, M.rows, M.cols, M
        self._P = self._Q = None     # None stands for the identity
        n = M.cols
        if M.is_zero():
            d = []
        elif M.rows == n and all(x == (1 if i % (n + 1) == 0 else 0)
                                 for i, x in enumerate(M.entries)):
            d = [1] * n
        elif R.is_field:
            one, zero = R.one(), R.zero()
            A = [list(M.row(i)) + [one if j == i else zero for j in range(M.rows)]
                 for i in range(M.rows)]
            pivots = _reduce_rows(R, A, n)
            self._P = [[(j, t) for j, t in enumerate(row[n:]) if t != 0]
                       for row in A]
            free = sorted(set(range(n)).difference(pivots))
            self._Q = [{pc: one} for pc in pivots] + [
                {fc: one, **{pc: R.neg(row[fc])
                             for row, pc in zip(A, pivots) if row[fc] != 0}}
                for fc in free]
            d = [1] * len(pivots)
        else:
            U, D, V = smith_normal_form(M)
            self._P = [[(j, u) for j, u in enumerate(U.row(i)) if u != 0]
                       for i in range(M.rows)]
            self._Q = [{i: v for i, v in enumerate(V.col(j)) if v != 0}
                       for j in range(n)]
            d = [x for x in diagonal_of(D) if x != 0]
        self.rank = len(d)
        self._d = d + [0] * (M.rows - len(d))
        self._keep = [i for i, x in enumerate(self._d) if x != 1]
        self.orders = tuple(self._d[i] for i in self._keep)

    def _q(self, j):
        """Column j of Q as a {row: entry} dict."""
        return {j: self.ring.one()} if self._Q is None else self._Q[j]

    def _p_times(self, b):
        R = self.ring
        b = [R.canon(v) for v in b]
        if len(b) != self.rows:
            raise DimensionError(f"rhs length {len(b)} != rows {self.rows}")
        if self._P is None:
            return b
        out = []
        for row in self._P:
            acc = R.zero()
            for j, t in row:
                if b[j] != 0:
                    acc = R.add(acc, R.mul(t, b[j]))
            out.append(acc)
        return out

    def _combine(self, n, terms):
        """sum of c*v over the (c, v) pairs, v given as (position, entry)
        pairs, as a tuple of length n."""
        R = self.ring
        acc = [R.zero()] * n
        for c, v in terms:
            if c != 0:
                for i, a in v:
                    if a != 0:
                        acc[i] = R.add(acc[i], R.mul(c, a))
        return tuple(acc)

    def kernel(self):
        zero = self.ring.zero()
        return [tuple(q.get(i, zero) for i in range(self.cols))
                for q in map(self._q, range(self.rank, self.cols))]

    def image(self):
        M = self._M
        return [self._combine(self.rows, ((c, enumerate(M.col(k)))
                                          for k, c in self._q(j).items()))
                for j in range(self.rank)]

    def coordinates(self, b):
        y = self._p_times(b)
        if any(v != 0 for v in y[self.rank:]):
            return None
        z = y[:self.rank]
        for i, d in enumerate(self._d[:self.rank]):
            if d != 1:
                z[i], r = divmod(z[i], d)
                if r != 0:
                    return None
        return tuple(z)

    def solve(self, b):
        z = self.coordinates(b)
        if z is None:
            return None
        return self._combine(self.cols, ((c, self._q(j).items())
                                         for j, c in enumerate(z)))

    def cokernel(self, b):
        y = self._p_times(b)
        return tuple(y[i] % d if d else y[i]
                     for i, d in zip(self._keep, self.orders))

    def cokernel_generators(self):
        R = self.ring
        units = [[R.one() if j == i else R.zero() for j in range(self.rows)]
                 for i in self._keep]
        if self._P is None:
            return [tuple(e) for e in units]
        m = self.rows
        P = [R.zero()] * (m * m)
        for i, row in enumerate(self._P):
            for j, t in row:
                P[i * m + j] = t
        P_inverse = ImageSolver(ExactMatrix(R, m, m, P))
        return [P_inverse.solve(e) for e in units]

def image_rank(M: ExactMatrix) -> int:
    """Rank of the image (= column rank, = number of nonzero SNF entries)."""
    return ImageSolver(M).rank


def kernel_basis(M: ExactMatrix):
    """Columns spanning ker M (`ImageSolver.kernel`)."""
    return ImageSolver(M).kernel()


def lattice_column_basis(M: ExactMatrix):
    """Independent columns generating the same column span (lattice over Z)."""
    return ImageSolver(M).image()


def solve_in_image(M: ExactMatrix, b):
    """x with M*x = b, or None when b is not in the image (lattice) of M."""
    return ImageSolver(M).solve(b)


def columns_matrix(ring: Ring, nrows: int, cols) -> ExactMatrix:
    """Assemble column vectors into a matrix (cols may be empty)."""
    cols = list(cols)
    return ExactMatrix(ring, nrows, len(cols),
                       [c[i] for i in range(nrows) for c in cols])
