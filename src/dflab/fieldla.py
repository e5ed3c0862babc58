"""Exact linear algebra over F_p and Q: sparse columns and dense matrices.

The sparse routines take columns as dicts {row: coeff} and use the
field's own arithmetic, one code path for F_p and Q.  ``sparse_rank``
ranks columns (the graded engine ranks slices and mapping cones with
it), and ``ColumnSpace`` keeps a column space in reduced echelon form
(``m21_complex`` builds its filtration basis with it).  Neither needs
numpy.

The dense routines (``zeros``, ``identity``, ``reduce``, ``echelon``,
``rank``, ``rank_two``, ``nullspace``, ``solve_columns``, ``matmul``,
``random_matrix``) work on numpy arrays and import numpy when called, so
a pipeline that never builds a dense matrix never loads it.  Each field
has one dense backend, and only the backends know how its matrices are
stored; every dense routine picks the backend of its field once.  There
is one dense elimination, ``_echelon`` (Gauss-Jordan on a whole matrix),
written over the backend's ``reduce`` and ``inv``.

F_p matrices are int64 arrays of least non-negative residues.  The
elimination reduces after every row operation, so each product it forms
is below p**2.  ``matmul`` sums k products of residues in int64 and
raises ``OverflowError`` instead of wrapping once k * (p - 1)**2 could
reach 2**63.  ``MAX_PRIME`` = 2**23 keeps p**2 below 2**46, so every
product of up to 2**17 terms is exact; the F_p backend refuses a larger
p.

Q matrices use dtype=object with ``Fraction`` entries; they are only
used at small sizes.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Rationals

# p**2 < 2**46: int64 products of up to 2**17 residue terms are exact
MAX_PRIME = 2**23


def _echelon(la, A):
    """Gauss-Jordan elimination of a copy of A; returns (rank, pivcols, E).

    E is the reduced row echelon form of A: row s is 1 at ``pivcols[s]``
    and 0 at every other pivot column, and the rows from the rank on are
    zero.
    """
    import numpy as np

    E = la.reduce(A)
    m, n = E.shape
    r = 0
    pivcols: list[int] = []
    for j in range(n):
        if r == m:
            break
        nz = np.flatnonzero(E[r:, j])
        if not nz.size:
            continue
        i = r + int(nz[0])
        # rows r.. are zero left of column j, so only columns j.. move
        if i != r:
            E[[r, i], j:] = E[[i, r], j:]
        E[r, j:] = la.reduce(E[r, j:] * la.inv(E[r, j]))
        rows = np.flatnonzero(E[:, j])
        rows = rows[rows != r]
        if rows.size:
            E[rows, j:] = la.reduce(E[rows, j:] - E[rows, j][:, None] * E[r, j:])
        pivcols.append(j)
        r += 1
    return r, pivcols, E


class _Fp:
    """F_p matrices: int64 arrays of least non-negative residues."""

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise ValueError(f"exact elimination over F_p needs p <= {MAX_PRIME}, got {p}")
        self.p = p
        self._square = (p - 1) ** 2

    def zeros(self, m: int, n: int):
        import numpy as np

        return np.zeros((m, n), dtype=np.int64)

    def identity(self, n: int):
        import numpy as np

        return np.eye(n, dtype=np.int64)

    def reduce(self, M):
        import numpy as np

        return np.asarray(M, dtype=np.int64) % self.p

    def inv(self, a):
        return pow(int(a), self.p - 2, self.p)

    def matmul(self, A, B):
        k = A.shape[1]
        if k * self._square < 2**63:
            return (A @ B) % self.p
        raise OverflowError(f"a {k}-term product over F_{self.p} would overflow int64")

    def random(self, m: int, n: int, rng):
        import numpy as np

        return rng.integers(0, self.p, size=(m, n), dtype=np.int64)


class _QQ:
    """Q matrices: object arrays of ``Fraction``."""

    def zeros(self, m: int, n: int):
        import numpy as np

        M = np.empty((m, n), dtype=object)
        M[:] = Fraction(0)
        return M

    def identity(self, n: int):
        import numpy as np

        M = self.zeros(n, n)
        np.fill_diagonal(M, Fraction(1))
        return M

    def reduce(self, M):
        import numpy as np

        return np.array(M, dtype=object)

    def inv(self, a):
        return 1 / Fraction(a)

    def matmul(self, A, B):
        return A @ B

    def random(self, m: int, n: int, rng):
        M = self.zeros(m, n)
        for i in range(m):
            for j in range(n):
                M[i, j] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        return M


def _backend(field):
    return _QQ() if isinstance(field, Rationals) else _Fp(field.p)


def zeros(field, m: int, n: int):
    return _backend(field).zeros(m, n)


def identity(field, n: int):
    return _backend(field).identity(n)


def reduce(field, M):
    """M in the field's representation: residues mod p, or a Q copy."""
    return _backend(field).reduce(M)


def echelon(field, M):
    """(rank, pivcols, E) of M, leaving M intact; E is its reduced row
    echelon form."""
    return _echelon(_backend(field), M)


def matmul(field, A, B):
    return _backend(field).matmul(A, B)


def random_matrix(field, m, n, rng):
    return _backend(field).random(m, n, rng)


def rank(field, M) -> int:
    r, _, _ = echelon(field, M)
    return r


def sparse_rank(field, cols) -> int:
    """Rank of the matrix with the given sparse columns, {row: coeff}.

    Each pivot column is stored normalized to 1 at its lowest row.  An
    incoming column is reduced by taking its lowest row again and again:
    where a pivot sits at that row it is eliminated, otherwise the column
    becomes the pivot of that row.  The pivots' lowest rows are distinct,
    so they are independent and span every column seen: the rank is
    their number.  Memory is that of the pivots, at most one per row.
    Zero coefficients are ignored; the columns are not modified.
    """
    zero = field.zero
    pivots: dict = {}  # lowest row -> column, 1 at that row
    for col in cols:
        col = {i: c for i, c in col.items() if c}
        while col:
            low = min(col)
            piv = pivots.get(low)
            if piv is None:
                inv = field.inv(col[low])
                pivots[low] = {i: field.mul(c, inv) for i, c in col.items()}
                break
            c = col[low]
            for i, a in piv.items():
                v = field.sub(col.get(i, zero), field.mul(c, a))
                if v:
                    col[i] = v
                else:
                    del col[i]
    return len(pivots)


def rank_two(field, A, B) -> tuple[int, int]:
    """rank(A) and rank([A | B]) from one elimination.

    Valid because left-to-right pivoting puts exactly rank(A) pivots in
    the first block.
    """
    import numpy as np

    r_all, pivcols, _ = echelon(field, np.concatenate([A, B], axis=1))
    r_a = sum(1 for j in pivcols if j < A.shape[1])
    return r_a, r_all


def nullspace(field, M):
    """Columns form a basis of the right kernel of M."""
    la = _backend(field)
    n = M.shape[1]
    r, pivcols, E = _echelon(la, M)
    pivset = set(pivcols)
    free = [j for j in range(n) if j not in pivset]
    # one kernel vector per free column: 1 there, pivots read off E
    N = la.zeros(n, len(free))
    N[free] = la.identity(len(free))
    N[pivcols] = la.reduce(-E[:r][:, free])
    return N


def solve_columns(field, B, V):
    """Solve B @ X = V; None if some column of V is outside the span of B.

    Intended for small systems (expressing vectors in a chosen basis).
    """
    import numpy as np

    la = _backend(field)
    nb = B.shape[1]
    r, pivcols, E = _echelon(la, np.concatenate([B, V], axis=1))
    if any(j >= nb for j in pivcols):
        return None
    X = la.zeros(nb, V.shape[1])
    X[pivcols] = E[:r, nb:]
    return X


def _subtract(field, v: dict, c, row: dict):
    """v -= c * row in place, dropping the entries that become zero."""
    zero = field.zero
    for i, a in row.items():
        w = field.sub(v.get(i, zero), field.mul(c, a))
        if w:
            v[i] = w
        else:
            del v[i]


class ColumnSpace:
    """Incrementally extendable column space over the field, sparse.

    Vectors are sparse columns {row: coeff}; coefficients are coerced
    into the field and zeros are ignored.  ``rows`` hold the basis in
    reduced echelon form, as dicts {row: coeff} without zeros: row k is 1
    at ``pivots[k]`` and no other row has that position.  A new row's
    pivot is the lowest position of the reduced vector.  Reduced echelon
    form with given pivots is unique, so ``rows`` and ``pivots`` depend
    only on the vectors added, in their order.
    """

    def __init__(self, field, dim: int):
        self.field = field
        self.dim = dim
        self.pivots: list[int] = []
        self.rows: list[dict] = []
        self._row_at: dict = {}  # pivot -> its row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v) -> dict:
        """v minus its pivot components; a new dict without zeros.

        Every row is 0 at the other rows' pivots, so subtracting one row
        leaves v's coefficients at the other pivots as they were.
        """
        field = self.field
        v = {i: field.coerce(c) for i, c in v.items()}
        v = {i: c for i, c in v.items() if c}
        for piv in [i for i in v if i in self._row_at]:
            _subtract(field, v, v[piv], self._row_at[piv])
        return v

    def add(self, v) -> bool:
        """Adjoin a sparse column; True if it enlarged the space."""
        v = self._reduce(v)
        if not v:
            return False
        field = self.field
        piv = min(v)
        inv = field.inv(v[piv])
        v = {i: field.mul(c, inv) for i, c in v.items()}
        for row in self.rows:
            if piv in row:
                _subtract(field, row, row[piv], v)
        self.pivots.append(piv)
        self.rows.append(v)
        self._row_at[piv] = v
        return True

    def add_columns(self, cols) -> int:
        """Adjoin sparse columns in order; the number that enlarged the space."""
        return sum(self.add(v) for v in cols)

    def contains(self, v) -> bool:
        return not self._reduce(v)
