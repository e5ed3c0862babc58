"""Exact linear algebra over F_p and Q on sparse columns.

A matrix is a list of columns, each a dict {row: coeff} of field
elements (ints mod p, or ``Fraction``) with absent rows zero.  Every
routine uses the field's own arithmetic, one code path for F_p and Q,
and there are two eliminations:

- ``sparse_rank`` ranks columns, keeping one pivot column per lowest
  row; the graded engine ranks its slices and mapping cones with it.
- ``ColumnSpace`` keeps the span of the columns added so far in reduced
  echelon form (Gauss-Jordan).  ``m21_complex`` builds its filtration
  basis with it, a cross-effect's basis is the idempotent's columns it
  accepts, and ``rank_two`` and ``nullspace`` are read off it.
"""

from __future__ import annotations

# the largest prime modulus a scenario accepts (larger ones exit 2); the
# eliminations are exact for any p, this is the range the CLI and the
# tests pin
MAX_PRIME = 2**23


def rank(field, cols) -> int:
    """Rank of the matrix with the given sparse columns: ``sparse_rank``.

    A function of its own, not an alias: perfbench's tracer wraps every
    binding of a traced function, so an alias would trace the graded
    engine's ``sparse_rank`` calls as ``rank``.
    """
    return sparse_rank(field, cols)


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


def _height(cols) -> int:
    """One past the largest row of the columns."""
    return 1 + max((i for col in cols for i in col), default=-1)


def rank_two(field, A, B) -> tuple[int, int]:
    """rank(A) and rank([A | B]) of sparse columns, from one elimination."""
    space = ColumnSpace(field)
    r_a = space.add_columns(A)
    return r_a, r_a + space.add_columns(B)


def nullspace(field, cols) -> list[dict]:
    """A basis of the right kernel of the matrix with the given sparse columns.

    One vector {column: coeff} per column j that lies in the span of the
    columns before it: 1 at j, 0 at every other such column, nonzero only
    at j and at earlier columns.  This is the basis read off the reduced
    row echelon form, one vector per free column.

    Column j is tagged with a unit entry at a row below the matrix, the
    later the column the lower the row, and added to a ``ColumnSpace``.
    A reduced row whose pivot is a tag is zero on the matrix, so its tag
    entries are a kernel vector, and its pivot is the tag of the last
    column it uses.  These rows span the kernel, and each arrives with
    its free column, in order.
    """
    cols = list(cols)
    top = _height(cols)
    last = top + len(cols) - 1  # the tag of column 0
    space = ColumnSpace(field)
    for j, col in enumerate(cols):
        space.add({**col, last - j: field.one})
    return [{last - i: c for i, c in row.items()} for row in space.rows if min(row) >= top]


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

    def __init__(self, field):
        self.field = field
        self.pivots: list[int] = []
        self.rows: list[dict] = []
        self._row_at: dict = {}  # pivot -> its row

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
