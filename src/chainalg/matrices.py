"""Exact matrices over Z, Q, and GF(p).

Provides the linear-algebra kernel the rest of the package sits on: dense
`ExactMatrix` arithmetic, Smith normal form with unimodular certificates
over Z, and `ImageSolver`, which factors a matrix given by its sparse
columns once as P*M*Q = D, by unit-pivot elimination with Smith normal
form only on the residual that has no unit entry, and answers its rank,
kernel, image, coordinate, solvability and cokernel queries the same way
over every ring (`image_rank`, `kernel_basis`, `lattice_column_basis` and
`solve_in_image` each read one solver of a dense matrix's columns).
Matrices are immutable after construction; zero-dimensional matrices are
legal everywhere.
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

    def column_dicts(self):
        """Columns as {row: entry} dicts, the form `ImageSolver` takes."""
        return [dict(enumerate(self.col(j))) for j in range(self.cols)]

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

class ImageSolver:
    """One factorization P*M*Q = D of the rows x len(columns) matrix M whose
    columns are given as {row position: coefficient} dicts (zero entries
    are dropped), read the same way over every ring.

    D is diagonal with d_1 | d_2 | ... (d_i = 0 past the rank, rows beyond
    the columns included).  It comes from eliminating pivots on the sparse
    columns (Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004,
    ch. 3): any nonzero entry over a field, only +-1 over Z, each time the
    one of least Markowitz cost (entries in its row - 1) * (entries in its
    column - 1).  A pivot a at (i, j) clears row i by adding multiples of
    column j to the others, recorded as the pairs (j2, g) of column
    j2 -= g * column j; then row i and column j leave the matrix, and the
    rest of column j, kept as it stands, is cleared by row operations that
    touch nothing else.  Over Z every step is unimodular with a = +-1, and
    only the residual, the block with no unit entry left, goes through
    `smith_normal_form` (U * residual * V diagonal); over a field nothing is
    left.  D's rows are the pivots in order, U's rows, then the rows that no
    column reaches; its columns are the pivots, V's columns, then the zero
    columns.  P and Q are never formed: P*b replays the row operations in
    pivot order, scales pivot row i by 1/a and applies U to the residual
    rows; Q*z places z on the pivot, residual (through V) and zero columns
    and undoes the column operations in reverse pivot order.

    `kernel()` is Q's columns beyond the rank (a saturated lattice basis of
    ker M over Z, where Q is unimodular); `image()` is M*Q's columns below
    the rank (a basis of the column lattice over Z): the pivot columns as
    they were eliminated, then the residual's columns combined by V.
    `coordinates(b)` is z with b = sum z_j image()[j], or None when b is
    not in the image: y = P*b must vanish past the rank and d_i must divide
    y_i below it, and then z_i = y_i / d_i; `solve(b)` is x = Q*z, with
    M*x = b.  `cokernel(b)` is the class of b in coker M, (P*b)_i reduced
    modulo d_i on the rows with d_i != 1; `orders` lists those d_i (0 for a
    free generator) and `cokernel_generators()` the columns of P^-1 at
    those rows.  None of them is a pivot row, and the row operations only
    add multiples of pivot rows, so each generator is a unit vector or a
    column of U^-1, read by an `ImageSolver` of U.
    """

    __slots__ = ("ring", "rows", "cols", "rank", "orders", "_pivots",
                 "_residual", "_left", "_U", "_V", "_free", "_Q0", "_d",
                 "_ones")

    def __init__(self, R: Ring, rows: int, columns):
        field = R.is_field
        self.ring, self.rows, self.cols = R, rows, len(columns)
        cols = {}
        by_row = {}
        for j, col in enumerate(columns):
            col = {i: c for i, c in col.items() if c != 0}
            if col:
                cols[j] = col
                for i in col:
                    by_row.setdefault(i, set()).add(j)
        # (i, j, a, 1/a, rest of column j, column operations) per pivot
        pivots = self._pivots = []
        while True:
            piv = _markowitz_pivot(cols, by_row, field)
            if piv is None:
                break
            i, j = piv
            col = cols.pop(j)
            a = col.pop(i)
            f = R.inv(a) if field else a   # 1/a = a for a = +-1
            for r in col:
                by_row[r].discard(j)
            others = by_row.pop(i)
            others.discard(j)
            ops = []
            for j2 in others:
                c2 = cols[j2]
                g = R.mul(c2.pop(i), f)
                ops.append((j2, g))
                for r, v in col.items():
                    new = R.sub(c2.get(r, 0), R.mul(g, v))
                    if new != 0:
                        c2[r] = new
                        by_row[r].add(j2)
                    elif r in c2:
                        del c2[r]
                        by_row[r].discard(j2)
                if not c2:
                    del cols[j2]
            pivots.append((i, j, a, f, col, ops))
        one = R.one()
        Q0 = [{p[1]: one} for p in pivots]
        d = [1] * len(pivots)
        self._residual = list(cols.values())
        self._left = left = sorted({i for col in self._residual for i in col})
        self._U = self._V = ()
        if cols:
            U, D, V = smith_normal_form(ExactMatrix(
                R, len(left), len(cols),
                [col.get(i, 0) for i in left for col in self._residual]))
            self._U = [[(s, u) for s, u in enumerate(U.row(r)) if u != 0]
                       for r in range(U.rows)]
            self._V = [{c: v for c, v in enumerate(V.col(s)) if v != 0}
                       for s in range(V.cols)]
            right = list(cols)
            Q0 += [{right[c]: v for c, v in vcol.items()} for vcol in self._V]
            d += [x for x in diagonal_of(D) if x != 0]
        reached = {p[0] for p in pivots}.union(left)
        self._free = [i for i in range(rows) if i not in reached]
        placed = {p[1] for p in pivots}.union(cols)
        self._Q0 = Q0 + [{j: one} for j in range(self.cols) if j not in placed]
        # d_1 | d_2 | ...: the d_i = 1 come first, the rows past the rank last
        self._d, self.rank, self._ones = d, len(d), d.count(1)
        self.orders = tuple(d[self._ones:]) + (0,) * (rows - self.rank)

    def _p_times(self, b):
        R = self.ring
        b = [R.canon(v) for v in b]
        if len(b) != self.rows:
            raise DimensionError(f"rhs length {len(b)} != rows {self.rows}")
        y = []
        for i, _, _, f, rest, _ in self._pivots:
            c = b[i]
            if c != 0:
                c = R.mul(f, c)
                for r, v in rest.items():
                    b[r] = R.sub(b[r], R.mul(v, c))
            y.append(c)
        for row in self._U:
            acc = R.zero()
            for s, u in row:
                x = b[self._left[s]]
                if x != 0:
                    acc = R.add(acc, R.mul(u, x))
            y.append(acc)
        y.extend(b[i] for i in self._free)
        return y

    def _combine(self, n, terms):
        """sum of c*v over the (c, v) pairs, v given as (position, entry)
        pairs, as a list of length n."""
        R = self.ring
        acc = [R.zero()] * n
        for c, v in terms:
            if c != 0:
                for i, a in v:
                    if a != 0:
                        acc[i] = R.add(acc[i], R.mul(c, a))
        return acc

    def _q_times(self, z):
        """Q*z for z given as (position, entry) pairs."""
        R = self.ring
        x = self._combine(self.cols, ((c, self._Q0[p].items()) for p, c in z))
        for _, j, _, _, _, ops in reversed(self._pivots):
            acc = x[j]
            for j2, g in ops:
                if x[j2] != 0:
                    acc = R.sub(acc, R.mul(g, x[j2]))
            x[j] = acc
        return tuple(x)

    def kernel(self):
        one = self.ring.one()
        return [self._q_times([(p, one)]) for p in range(self.rank, self.cols)]

    def image(self):
        R = self.ring
        out = []
        for i, _, a, _, rest, _ in self._pivots:
            col = [R.zero()] * self.rows
            col[i] = a
            for r, v in rest.items():
                col[r] = v
            out.append(tuple(col))
        for vcol in self._V[:self.rank - len(self._pivots)]:
            out.append(tuple(self._combine(self.rows, (
                (v, self._residual[c].items()) for c, v in vcol.items()))))
        return out

    def coordinates(self, b):
        y = self._p_times(b)
        if any(v != 0 for v in y[self.rank:]):
            return None
        z = y[:self.rank]
        for i in range(self._ones, self.rank):
            z[i], r = divmod(z[i], self._d[i])
            if r != 0:
                return None
        return tuple(z)

    def solve(self, b):
        z = self.coordinates(b)
        return None if z is None else self._q_times(enumerate(z))

    def cokernel(self, b):
        y = self._p_times(b)
        return tuple(x % d if d else x
                     for x, d in zip(y[self._ones:], self.orders))

    def cokernel_generators(self):
        R = self.ring
        left = self._left
        if self._U:
            columns = [{} for _ in left]
            for r, row in enumerate(self._U):
                for s, u in row:
                    columns[s][r] = u
            U_inverse = ImageSolver(R, len(left), columns)
        out = []
        for p in range(self._ones, self.rows):
            g = [R.zero()] * self.rows
            p -= len(self._pivots)
            if p < len(left):
                e = [int(r == p) for r in range(len(left))]
                for s, x in enumerate(U_inverse.solve(e)):
                    g[left[s]] = x
            else:
                g[self._free[p - len(left)]] = R.one()
            out.append(tuple(g))
        return out


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


def image_rank(M: ExactMatrix) -> int:
    """Rank of the image (= column rank, = number of nonzero SNF entries)."""
    return ImageSolver(M.ring, M.rows, M.column_dicts()).rank


def kernel_basis(M: ExactMatrix):
    """Columns spanning ker M (`ImageSolver.kernel`)."""
    return ImageSolver(M.ring, M.rows, M.column_dicts()).kernel()


def lattice_column_basis(M: ExactMatrix):
    """Independent columns generating the same column span (lattice over Z)."""
    return ImageSolver(M.ring, M.rows, M.column_dicts()).image()


def solve_in_image(M: ExactMatrix, b):
    """x with M*x = b, or None when b is not in the image (lattice) of M."""
    return ImageSolver(M.ring, M.rows, M.column_dicts()).solve(b)


def columns_matrix(ring: Ring, nrows: int, cols) -> ExactMatrix:
    """Assemble column vectors into a matrix (cols may be empty)."""
    cols = list(cols)
    return ExactMatrix(ring, nrows, len(cols),
                       [c[i] for i in range(nrows) for c in cols])
