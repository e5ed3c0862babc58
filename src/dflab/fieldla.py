"""Exact linear algebra over F_p (numpy int64) and Q (object arrays).

Each field has one backend, and only the backends know how its matrices
are stored; every routine below picks the backend of its field once.

F_p matrices are int64 arrays of least non-negative residues.  The
echelon routine does right-looking elimination in panels: pivoting and
multiplier bookkeeping happen on a narrow reduced panel, and the
trailing block is updated with one float64 matmul per panel.  That
product sums up to ``_PANEL`` terms below (p - 1)**2, so it is exact
while ``_PANEL * (p - 1)**2 < 2**53``, which gives ``MAX_PRIME`` = 2**23;
the F_p backend refuses a larger p.  The int64 entries it leaves
unreduced stay below (n + _PANEL) * p**2 for n columns, which the
backend checks against 2**63.  ``matmul`` sums k products in float64
only while ``k * (p - 1)**2 < 2**53``, in int64 while it stays below
2**63, and raises beyond that instead of wrapping.

Q matrices use dtype=object with ``Fraction`` entries and a naive
elimination; they are only used at small sizes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

from .ring import Rationals

_PANEL = 128
# the largest modulus with _PANEL * (p - 1)**2 < 2**53 (exact panel products)
MAX_PRIME = isqrt((2**53 - 1) // _PANEL) + 1


def _fp_echelon(A: np.ndarray, p: int):
    """Destructive echelon; returns (rank, pivcols, E).

    E holds the echelon rows 0..rank-1 reduced mod p; anything below
    row ``rank`` is garbage and must not be used.
    """
    m, n = A.shape
    r = 0
    pivcols: list[int] = []
    j0 = 0
    while j0 < n and r < m:
        j1 = min(j0 + _PANEL, n)
        r0 = r
        # panel worked on as a contiguous copy with deferred reduction;
        # entries stay below PANEL * p**2, far inside int64
        P = A[r0:, j0:j1] % p
        mult = np.zeros((m - r0, j1 - j0), dtype=np.int64)
        for j in range(j0, j1):
            s = r - r0  # pivot sequence number within this panel
            jc = j - j0
            P[s:, jc] %= p
            nz = np.nonzero(P[s:, jc])[0]
            if nz.size == 0:
                continue
            i = s + int(nz[0])
            if i != s:
                A[[r0 + s, r0 + i], :] = A[[r0 + i, r0 + s], :]
                P[[s, i], :] = P[[i, s], :]
                mult[[s, i], :] = mult[[i, s], :]
            P[s, :] %= p
            inv = pow(int(P[s, jc]), p - 2, p)
            f = (P[s + 1 :, jc] * inv) % p
            nz_f = np.nonzero(f)[0]
            if nz_f.size * 3 < f.size:
                P[s + 1 + nz_f, :] -= f[nz_f, None] * P[s, :]
            else:
                P[s + 1 :, :] -= f[:, None] * P[s, :]
            mult[s + 1 :, s] = f
            pivcols.append(j)
            r += 1
            if r == m:
                break
        A[r0:, j0:j1] = P % p
        npv = r - r0
        if j1 < n and npv > 0:
            A[r0:r, j1:] %= p
            # replay the panel's eliminations among the pivot rows
            for s in range(npv - 1):
                rows = np.nonzero(mult[s + 1 : npv, s])[0]
                if rows.size:
                    A[r0 + s + 1 + rows, j1:] -= (
                        mult[s + 1 + rows, s][:, None] * A[r0 + s, j1:]
                    )
                    A[r0 + s + 1 + rows, j1:] %= p
            if r < m:
                # leave the below block unreduced: it is re-reduced when a
                # later panel or pivot-row pass touches it, and magnitudes
                # stay below p + npanels*PANEL*p**2 << 2**62
                Mf = mult[npv:, :npv].astype(np.float64)
                Uf = A[r0:r, j1:].astype(np.float64)
                A[r:, j1:] -= (Mf @ Uf).astype(np.int64)
        j0 = j1
    if r:
        A[:r] %= p
    return r, pivcols, A


def _qq_echelon(A: np.ndarray):
    """Naive fraction echelon; returns (rank, pivcols, E)."""
    A = A.copy()
    m, n = A.shape
    r = 0
    pivcols: list[int] = []
    for j in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if A[i, j] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv], :] = A[[piv, r], :]
        inv = 1 / A[r, j]
        for i in range(r + 1, m):
            if A[i, j] != 0:
                A[i, j:] = A[i, j:] - (A[i, j] * inv) * A[r, j:]
        pivcols.append(j)
        r += 1
    return r, pivcols, A


class _Fp:
    """F_p matrices: int64 arrays of least non-negative residues."""

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise ValueError(f"exact elimination over F_p needs p <= {MAX_PRIME}, got {p}")
        self.p = p
        self._square = (p - 1) ** 2

    def zeros(self, m: int, n: int):
        return np.zeros((m, n), dtype=np.int64)

    def identity(self, n: int):
        return np.eye(n, dtype=np.int64)

    def reduce(self, M):
        return np.asarray(M, dtype=np.int64) % self.p

    def inv(self, a):
        return pow(int(a), self.p - 2, self.p)

    def echelon(self, M):
        if (M.shape[1] + _PANEL) * self._square >= 2**63:
            raise OverflowError(f"{M.shape[1]} columns over F_{self.p} would overflow int64")
        return _fp_echelon(self.reduce(M), self.p)

    def matmul(self, A, B):
        k = A.shape[1]
        if k * self._square < 2**53:
            return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % self.p
        if k * self._square < 2**63:
            return (A @ B) % self.p
        raise OverflowError(f"a {k}-term product over F_{self.p} would overflow int64")

    def random(self, m: int, n: int, rng):
        return rng.integers(0, self.p, size=(m, n), dtype=np.int64)


class _QQ:
    """Q matrices: object arrays of ``Fraction``."""

    def zeros(self, m: int, n: int):
        M = np.empty((m, n), dtype=object)
        M[:] = Fraction(0)
        return M

    def identity(self, n: int):
        M = self.zeros(n, n)
        np.fill_diagonal(M, Fraction(1))
        return M

    def reduce(self, M):
        return np.array(M, dtype=object)

    def inv(self, a):
        return 1 / Fraction(a)

    def echelon(self, M):
        return _qq_echelon(M)

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
    """(rank, pivcols, E) of M, leaving M intact; E's rows 0..rank-1 are
    its echelon form and anything below them is garbage."""
    return _backend(field).echelon(M)


def matmul(field, A, B):
    return _backend(field).matmul(A, B)


def random_matrix(field, m, n, rng):
    return _backend(field).random(m, n, rng)


def rank(field, M) -> int:
    if M.shape[0] == 0 or M.shape[1] == 0:
        return 0
    r, _, _ = echelon(field, M)
    return r


def rank_two(field, A, B) -> tuple[int, int]:
    """rank(A) and rank([A | B]) from one elimination.

    Valid because left-to-right pivoting puts exactly rank(A) pivots in
    the first block.
    """
    if A.shape[1] == 0:
        rb = rank(field, B)
        return 0, rb
    if B.shape[1] == 0:
        r = rank(field, A)
        return r, r
    stacked = np.concatenate([A, B], axis=1)
    r_all, pivcols, _ = echelon(field, stacked)
    r_a = sum(1 for j in pivcols if j < A.shape[1])
    return r_a, r_all


def _back_substitute(la, P, R):
    """X with P @ X = R, for P upper triangular with a nonzero diagonal."""
    r = P.shape[0]
    X = la.zeros(r, R.shape[1])
    for s in range(r - 1, -1, -1):
        acc = R[s : s + 1] - la.matmul(P[s : s + 1, s + 1 :], X[s + 1 :])
        X[s] = la.reduce(acc * la.inv(P[s, s]))[0]
    return X


def nullspace(field, M):
    """Columns form a basis of the right kernel of M."""
    la = _backend(field)
    m, n = M.shape
    if n == 0:
        return la.zeros(0, 0)
    if m == 0:
        return la.identity(n)
    r, pivcols, E = la.echelon(M)
    pivset = set(pivcols)
    free = [j for j in range(n) if j not in pivset]
    # one kernel vector per free column: 1 there, pivots solved for
    N = la.zeros(n, len(free))
    N[free] = la.identity(len(free))
    if free:
        N[pivcols] = la.reduce(-_back_substitute(la, E[:r][:, pivcols], E[:r][:, free]))
    return N


def solve_columns(field, B, V):
    """Solve B @ X = V; None if some column of V is outside the span of B.

    Intended for small systems (expressing vectors in a chosen basis).
    """
    la = _backend(field)
    nb = B.shape[1]
    nv = V.shape[1]
    if nb == 0:
        if V.shape[0] and any(np.any(V[:, j] != 0) for j in range(nv)):
            return None
        return la.zeros(0, nv)
    stacked = np.concatenate([B, V], axis=1)
    r, pivcols, E = la.echelon(stacked)
    if any(j >= nb for j in pivcols):
        return None
    X = la.zeros(nb, nv)
    X[pivcols] = _back_substitute(la, E[:r][:, pivcols], E[:r, nb:])
    return X


class ColumnSpace:
    """Incrementally extendable column-space basis over the field.

    ``rows`` hold the basis in reduced echelon form: row k is 1 at
    ``pivots[k]`` and every other row is 0 there.
    """

    def __init__(self, field, dim: int):
        self._la = _backend(field)
        self.dim = dim
        self.pivots: list[int] = []
        self.rows: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v):
        la = self._la
        v = la.reduce(v)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = la.reduce(v - c * row)
        return v

    def add(self, v) -> bool:
        """Adjoin a vector; True if it enlarged the space."""
        v = self._reduce(v)
        nz = np.flatnonzero(v)
        if not nz.size:
            return False
        piv = int(nz[0])
        la = self._la
        v = la.reduce(v * la.inv(v[piv]))
        for k, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[k] = la.reduce(row - c * v)
        self.pivots.append(piv)
        self.rows.append(v)
        return True

    def add_columns(self, M) -> int:
        added = 0
        for j in range(M.shape[1]):
            added += bool(self.add(M[:, j]))
        return added

    def contains(self, v) -> bool:
        return not np.flatnonzero(self._reduce(v)).size
