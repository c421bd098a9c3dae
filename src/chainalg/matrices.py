"""Exact matrices over Z, Q, and GF(p).

The linear-algebra kernel the rest of the package sits on.  Inside the
package a matrix is a list of sparse columns, {row position: entry}
dicts; dense `ExactMatrix` values appear only where a caller hands one in
or gets one back.  `smith_normal_form` works over Z with unimodular
certificates, by alternating row and column Hermite passes with size
reduction (Kannan-Bachem 1979), so coefficients stay polynomial in size.
`ImageSolver` factors a matrix given by its sparse columns once as
P*M*Q = D, by unit-pivot elimination with Smith normal form only on the
residual that has no unit entry, and answers its rank, torsion, kernel,
image, coordinate and solvability queries on sparse columns, the same
way over every ring.  Matrices are immutable after construction;
zero-dimensional matrices are legal everywhere.
"""

from __future__ import annotations

from collections import defaultdict

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
    """U, D, V with U*M*V = D, D diagonal with d1 | d2 | ..., di >= 0 and
    its zero entries last, U and V unimodular.  Only defined over Z.

    Kannan-Bachem (SIAM J. Comput. 8, 1979) elimination: a row Hermite pass
    (`_hermite`, recorded in U), then the same pass on the transpose as a
    column pass (recorded in V), alternating until each row keeps at most
    one entry; those move to the diagonal, and 2x2 gcd/lcm steps on
    diagonal pairs give the divisibility chain.  The passes' size reduction
    keeps every entry polynomial in size: on seeded dense 100x100 inputs
    with one-digit entries the certificates' stay below 1,100 bits.
    Rows are sparse dicts and an update touches only the nonzero entries
    of the row it adds, so an already diagonal matrix costs one pass.
    """
    if M.ring != ZZ:
        raise ValueError("Smith normal form requires integer entries")
    m, n = M.rows, M.cols
    T, d, S = _smith([{j: x for j, x in enumerate(M.row(i)) if x}
                      for i in range(m)], n)
    d += [0] * (min(m, n) - len(d))
    return (ExactMatrix(ZZ, m, m, [row.get(j, 0) for row in T for j in range(m)]),
            ExactMatrix(ZZ, m, n, [d[i] if i == j else 0
                                   for i in range(m) for j in range(n)]),
            ExactMatrix(ZZ, n, n, [row.get(i, 0) for i in range(n) for row in S]))


def _smith(A, n):
    """`smith_normal_form` of the integer matrix with the sparse rows A
    ({column: nonzero entry}) and n columns, on sparse rows: (U's rows,
    the nonzero d_i in order, V's columns), each row or column a
    {position: nonzero entry} dict.  A is consumed."""
    m = len(A)
    # T * M * S^T = A, or T * M^T * S^T = A when flipped
    T, S = [{i: 1} for i in range(m)], [{j: 1} for j in range(n)]
    width, flipped = n, False
    while True:
        _hermite(A, T, width)
        if all(len(row) <= 1 for row in A):
            break
        B = [{} for _ in range(width)]
        for i, row in enumerate(A):
            for j, x in row.items():
                B[j][i] = x
        A, width, T, S, flipped = B, len(A), S, T, not flipped
    pairs = [(i, j, x) for i, row in enumerate(A) for j, x in row.items()]
    if flipped:
        pairs, T, S = [(j, i, x) for i, j, x in pairs], S, T
    # move the entries to the diagonal, the rows and columns they leave last
    for X, k, size in ((T, 0, m), (S, 1, n)):
        at = [p[k] for p in pairs]
        X[:] = [X[i] for i in at + sorted(set(range(size)).difference(at))]
    d = [x for _, _, x in pairs]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                # [x y; -b/g a/g] diag(a, b) [1 -yb/g; 1 xa/g] = diag(g, ab/g)
                g, x, y = _xgcd(a, b)
                T[i], T[j] = _combine_rows(T[i], T[j], x, y, -b // g, a // g)
                S[i], S[j] = _combine_rows(S[i], S[j], 1, 1, -y * b // g, x * a // g)
                d[i], d[j] = g, a * b // g
    return T, d, S


def _hermite(A, T, width):
    """Row Hermite normal form of the sparse rows A in place, each row
    operation applied to T too.  Each column is cleared below the pivots
    found so far by Euclid with nearest-integer quotients, its pivot made
    positive.  Then, from the last pivot row up, each row's entries at the
    pivots below it are reduced to at most half the pivot by those rows,
    already reduced: every reduced row is in the Hermite form of a lattice
    the input fixes (the row lattice's vectors vanishing before its pivot
    column).  Reduced right after each pivot instead, the rows above would
    swell quadratically in bit length until the last pivot."""
    pivots = []
    for c in range(width):
        r = len(pivots)
        live = [i for i in range(r, len(A)) if c in A[i]]
        while len(live) > 1:
            # Euclid on the column: reduce the rest by its least entry
            p = min(live, key=lambda i: (abs(A[i][c]), len(A[i])))
            for i in live:
                if i != p:
                    _reduce(A, T, i, p, c)
            live = [i for i in live if c in A[i]]
        if live:
            p = live[0]
            A[r], A[p], T[r], T[p] = A[p], A[r], T[p], T[r]
            if A[r][c] < 0:
                A[r], T[r] = ({k: -v for k, v in X[r].items()} for X in (A, T))
            pivots.append(c)
    for i in reversed(range(len(pivots))):
        for k in range(i + 1, len(pivots)):
            if pivots[k] in A[i]:
                _reduce(A, T, i, k, pivots[k])


def _reduce(A, T, i, p, c):
    """Row i -= q * row p in A and T, q the nearest integer to A[i][c] /
    A[p][c], which leaves |A[i][c]| <= |A[p][c]| / 2."""
    a = A[p][c]
    q = (2 * A[i][c] + a) // (2 * a)
    if q:
        for X in (A, T):
            row = X[i]
            for k, v in X[p].items():
                s = row.get(k, 0) - q * v
                if s:
                    row[k] = s
                else:
                    del row[k]


def _combine_rows(r1, r2, a, b, c, d):
    """(a*r1 + b*r2, c*r1 + d*r2) of two sparse rows."""
    keys = r1.keys() | r2.keys()
    return tuple({k: z for k in keys if (z := s * r1.get(k, 0) + t * r2.get(k, 0))}
                 for s, t in ((a, b), (c, d)))


def _xgcd(a: int, b: int):
    """g, x, y with x*a + y*b = g = gcd(a, b) > 0."""
    x, y, u, v = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, x, y, u, v = b, a - q * b, u, v, x - q * u, y - q * v
    return (a, x, y) if a > 0 else (-a, -x, -y)


def diagonal_of(D: ExactMatrix):
    return [D[i, i] for i in range(min(D.rows, D.cols))]


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination
# ---------------------------------------------------------------------------

class ImageSolver:
    """One factorization P*M*Q = D of the rows x len(columns) matrix M whose
    columns are given as sparse columns, {row position: coefficient} dicts
    (each entry goes through the ring's `canon`, so an inexact one raises
    TypeError and a residue is reduced; zero entries are dropped, and a key
    outside [0, rows) raises DimensionError), read the same way over every
    ring.  Every query takes and returns vectors in that form, without zero
    entries.

    D is diagonal with d_1 | d_2 | ... (d_i = 0 past the rank, rows beyond
    the columns included).  It comes from eliminating pivots on the sparse
    columns (Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004,
    ch. 3): any nonzero entry over a field, only +-1 over Z, each time the
    first in column order of least Markowitz cost (entries in its row - 1) *
    (entries in its column - 1).  No entry costs less than the floor (fewest
    entries in a column - 1) * (fewest entries in a nonempty row - 1), so
    the search stops at the first admissible entry that attains it; and no
    entry of a column costs less than (entries in it - 1) * (fewest entries
    in a nonempty row - 1), so a column whose bound is not below the least
    cost found so far is skipped unread.  The floor is read from two count
    arrays, how many live columns and how many rows have each number of
    entries, which the elimination keeps up to date wherever it changes a
    length, so no pivot rescans the matrix for it.  A
    pivot a at (i, j) clears row i by adding multiples of column j to the
    others, recorded as the pairs (j2, g) of column j2 -= g * column j;
    then row i and column j leave the matrix, and the rest of column j,
    kept as it stands, is cleared by row operations that touch nothing
    else.  Over Z every step is unimodular with a = +-1, and only the
    residual, the block with no unit entry left, goes through `_smith`
    (U * residual * V diagonal, `smith_normal_form`'s elimination on the
    residual's sparse rows, read off its columns); over a field nothing is
    left.  D's rows are the pivots in order, U's rows, then the rows that no
    column reaches; its columns are the pivots, V's columns, then the zero
    columns.  P and Q are never formed: P*b replays the row operations in
    pivot order, scales pivot row i by 1/a, applies U to the residual rows
    and places the rows that no column reaches, a placement built on the
    first `_p_times`; Q*z places z on the pivot, residual (through V) and
    zero columns, a placement built on the first `kernel` or `solve`, and
    undoes the column operations in reverse pivot order.

    `kernel()` is Q's columns beyond the rank (a saturated lattice basis of
    ker M over Z, where Q is unimodular); `image()` is M*Q's columns below
    the rank (a basis of the column lattice over Z): the pivot columns as
    they were eliminated, then the residual's columns combined by V.
    `coordinates(b)` is z with b = sum z_j image()[j], or None when b is
    not in the image: y = P*b must vanish past the rank and d_i must divide
    y_i below it, and then z_i = y_i / d_i; `solve(b)` is x = Q*z, with
    M*x = b.  `torsion` lists the invariant factors d_i > 1, the torsion
    of coker M.
    """

    __slots__ = ("ring", "rows", "cols", "rank", "torsion", "_pivots",
                 "_residual", "_left", "_U", "_V", "_free", "_Q0", "_d",
                 "_ones")

    def __init__(self, R: Ring, rows: int, columns):
        field = R.is_field
        self.ring, self.rows, self.cols = R, rows, len(columns)
        cols = {}
        by_row = defaultdict(set)
        canon, positions = R.canon, range(rows)
        for j, col in enumerate(columns):
            live = {}
            for i, x in col.items():
                if i not in positions:
                    _check_rows(col, rows)   # raises DimensionError
                c = canon(x)
                if c != 0:
                    live[i] = c
                    by_row[i].add(j)
            if live:
                cols[j] = live
        # how many live columns, and how many rows, have each length: kept
        # wherever the elimination changes a length
        col_counts, row_counts = [0] * (rows + 1), [0] * (len(columns) + 1)
        for col in cols.values():
            col_counts[len(col)] += 1
        for row in by_row.values():
            row_counts[len(row)] += 1
        # (i, j, a, 1/a, rest of column j, column operations) per pivot
        pivots = self._pivots = []
        mul, sub = R.mul, R.sub
        while True:
            piv = _markowitz_pivot(cols, by_row, col_counts, row_counts, field)
            if piv is None:
                break
            i, j = piv
            col = cols.pop(j)
            col_counts[len(col)] -= 1
            a = col.pop(i)
            f = a if a == 1 or a == -1 else R.inv(a)   # 1/a = a for +-1
            for r in col:
                row = by_row[r]
                n = len(row)
                row_counts[n] -= 1
                row_counts[n - 1] += 1
                row.discard(j)
            others = by_row.pop(i)
            row_counts[len(others)] -= 1
            others.discard(j)
            ops = []
            for j2 in others:
                c2 = cols[j2]
                col_counts[len(c2)] -= 1
                g = mul(c2.pop(i), f)
                ops.append((j2, g))
                for r, v in col.items():
                    old = c2.get(r)
                    if old is None:   # a fill-in: g * v != 0
                        c2[r] = sub(0, mul(g, v))
                        row = by_row[r]
                        n = len(row)
                        row_counts[n] -= 1
                        row_counts[n + 1] += 1
                        row.add(j2)
                    elif (new := sub(old, mul(g, v))) != 0:
                        c2[r] = new
                    else:
                        del c2[r]
                        row = by_row[r]
                        n = len(row)
                        row_counts[n] -= 1
                        row_counts[n - 1] += 1
                        row.discard(j2)
                if c2:
                    col_counts[len(c2)] += 1
                else:
                    del cols[j2]
            pivots.append((i, j, a, f, col, ops))
        d = [1] * len(pivots)
        self._residual = list(cols.items())
        self._left = left = sorted({i for col in cols.values() for i in col})
        self._U = self._V = ()
        if cols:
            at, by_left = {i: r for r, i in enumerate(left)}, [{} for _ in left]
            for c, col in enumerate(cols.values()):
                for i, x in col.items():
                    by_left[at[i]][c] = x
            T, diagonal, S = _smith(by_left, len(cols))
            self._U = [sorted(row.items()) for row in T]
            self._V = [dict(sorted(col.items())) for col in S]
            d += diagonal
        self._free = None   # built by the first `_free_rows`
        self._Q0 = None   # built by the first `_q_times`
        # d_1 | d_2 | ...: the d_i = 1 come first, the rows past the rank last
        self._d, self.rank, self._ones = d, len(d), d.count(1)
        self.torsion = tuple(d[self._ones:])

    def _free_rows(self):
        """The rows that no column reaches, each with its row of D."""
        if self._free is None:
            reached = {p[0] for p in self._pivots}.union(self._left)
            free = [i for i in range(self.rows) if i not in reached]
            self._free = dict(zip(free, range(
                len(self._pivots) + len(self._left), self.rows)))
        return self._free

    def _p_times(self, b):
        """P*b as {row of D: entry}."""
        R = self.ring
        _check_rows(b, self.rows)
        b = {i: c for i, x in b.items() if (c := R.canon(x)) != 0}
        y = {}
        for k, (i, _, _, f, rest, _) in enumerate(self._pivots):
            c = b.pop(i, 0)
            if c != 0:
                c = y[k] = R.mul(f, c)
                for r, v in rest.items():
                    b[r] = R.sub(b.get(r, 0), R.mul(v, c))
        for k, row in enumerate(self._U, len(self._pivots)):
            acc = 0
            for s, u in row:
                x = b.get(self._left[s], 0)
                if x != 0:
                    acc = R.add(acc, R.mul(u, x))
            if acc != 0:
                y[k] = acc
        free = self._free_rows()
        for i, x in b.items():
            if x != 0 and i in free:
                y[free[i]] = x
        return y

    def _q_times(self, z):
        """Q*z for z given as (position, entry) pairs."""
        R, one = self.ring, self.ring.one()
        if self._Q0 is None:
            # Q's columns before the column operations: the pivots, the
            # residual's columns combined by V, then the zero columns
            right = [j for j, _ in self._residual]
            placed = {p[1] for p in self._pivots}.union(right)
            self._Q0 = ([{p[1]: one} for p in self._pivots]
                        + [{right[c]: v for c, v in vc.items()} for vc in self._V]
                        + [{j: one} for j in range(self.cols) if j not in placed])
        x = _combine(R, ((c, self._Q0[p]) for p, c in z))
        for _, j, _, _, _, ops in reversed(self._pivots):
            acc = x.get(j, 0)
            for j2, g in ops:
                if j2 in x:
                    acc = R.sub(acc, R.mul(g, x[j2]))
            if acc != 0:
                x[j] = acc
            else:
                x.pop(j, None)
        return x

    def kernel(self):
        one = self.ring.one()
        return [self._q_times([(p, one)]) for p in range(self.rank, self.cols)]

    def image(self):
        return [{i: a, **rest} for i, _, a, _, rest, _ in self._pivots] + [
            _combine(self.ring, ((v, self._residual[c][1]) for c, v in vc.items()))
            for vc in self._V[:self.rank - len(self._pivots)]]

    def coordinates(self, b):
        z = self._p_times(b)
        for k, y in z.items():
            if k >= self.rank:
                return None
            if k >= self._ones:
                z[k], r = divmod(y, self._d[k])
                if r != 0:
                    return None
        return z

    def solve(self, b):
        z = self.coordinates(b)
        return None if z is None else self._q_times(z.items())


def _check_rows(col, rows):
    """DimensionError unless every key of the sparse column is in [0, rows)."""
    positions = range(rows)
    for i in col:
        if i not in positions:
            raise DimensionError(f"row {i!r} outside [0, {rows})")


def _markowitz_pivot(cols, rows, col_counts, row_counts, field):
    """(row, column) of the first admissible entry of least Markowitz cost
    in column order, or None when no entry is admissible.

    `col_counts[n]` and `row_counts[n]` are how many live columns and how
    many rows have n entries.  No entry costs less than the floor (fewest
    entries in a column - 1) * (fewest entries in a nonempty row - 1), so
    the first admissible entry that attains it is the first of least cost,
    and the search stops there.  No entry of a column costs less than
    (entries in it - 1) * (fewest entries in a nonempty row - 1), so a
    column whose bound is not below the least cost found so far is not
    read: it holds no entry that costs strictly less."""
    if not cols:
        return None
    row_floor = _least(row_counts) - 1
    floor = (_least(col_counts) - 1) * row_floor
    best, best_cost = None, None
    for j, col in cols.items():
        cost_j = len(col) - 1
        if best is not None and cost_j * row_floor >= best_cost:
            continue
        for i, a in col.items():
            if field or a == 1 or a == -1:
                cost = cost_j * (len(rows[i]) - 1)
                if best is None or cost < best_cost:
                    if cost == floor:
                        return i, j
                    best, best_cost = (i, j), cost
    return best


def _least(counts):
    """The least n > 0 with counts[n] != 0 (one exists)."""
    n = 1
    while not counts[n]:
        n += 1
    return n


def _combine(R: Ring, terms):
    """sum of c*v over the (c, v) pairs, each v a sparse column, as a sparse
    column."""
    acc = {}
    for c, v in terms:
        if c != 0:
            for i, a in v.items():
                t = R.mul(c, a)
                acc[i] = t if (old := acc.get(i)) is None else R.add(old, t)
    return {i: a for i, a in acc.items() if a != 0}


def image_rank(M: ExactMatrix) -> int:
    """Rank of the image (= column rank): over Z the number of nonzero
    entries of `smith_normal_form`'s D, over a field an `ImageSolver`'s
    rank."""
    if M.ring == ZZ:
        return sum(1 for d in diagonal_of(smith_normal_form(M)[1]) if d)
    return ImageSolver(M.ring, M.rows,
                       [dict(enumerate(M.col(j))) for j in range(M.cols)]).rank
