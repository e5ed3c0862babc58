"""Exact linear algebra on sparse columns against a naive elimination and
sympy's ``DomainMatrix`` over GF(p) and QQ."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sparse_columns, sympy_columns, sympy_matrix
from dflab import fieldla
from dflab.ring import PrimeField, Rationals
from dflab.scenarios import ConfigError, ScenarioConfig

F = PrimeField(97)


def sympy_nullspace(field, cols, m):
    """sympy's kernel basis of the m-row matrix, scaled to 1 at each vector's
    last entry (its free column), as sparse columns."""
    kernel = sympy_matrix(field, cols, m).nullspace(divide_last=True)
    return sympy_columns(field, kernel.transpose())


def dense(cols, m):
    """The m x len(cols) int64 array of sparse columns over F_p."""
    A = np.zeros((m, len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        for i, c in col.items():
            A[i, j] = c
    return A


def naive_rank(M, p=97):
    A = np.array(M, dtype=np.int64) % p
    m, n = A.shape
    r = 0
    for j in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, j])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, j]), p - 2, p)
        A[r] = (A[r] * inv) % p
        for i2 in range(r + 1, m):
            if A[i2, j]:
                A[i2] = (A[i2] - A[i2, j] * A[r]) % p
        r += 1
    return r


@pytest.mark.parametrize("seed", range(6))
def test_rank_and_nullspace_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        m, n = (int(v) for v in rng.integers(1, 70, 2))
        k = int(rng.integers(0, min(m, n) + 1))
        M = (
            rng.integers(0, 97, (m, k), dtype=np.int64)
            @ rng.integers(0, 97, (k, n), dtype=np.int64)
        ) % 97
        cols = sparse_columns(M)
        r = fieldla.rank(F, cols)
        assert r == naive_rank(M)
        N = fieldla.nullspace(F, cols)
        assert (M @ dense(N, n) % 97 == 0).all()
        assert len(N) == n - r
        assert fieldla.rank(F, N) == len(N)
        assert N == sympy_nullspace(F, cols, m)


def test_panel_boundaries():
    rng = np.random.default_rng(11)
    for (m, n, k) in [(200, 300, 150), (300, 200, 190), (257, 260, 255)]:
        M = (
            rng.integers(0, 97, (m, k), dtype=np.int64)
            @ rng.integers(0, 97, (k, n), dtype=np.int64)
        ) % 97
        assert fieldla.rank(F, sparse_columns(M)) == k


def test_solve_and_membership():
    rng = np.random.default_rng(5)
    B = sparse_columns(rng.integers(0, 97, (30, 8), dtype=np.int64))
    X = sympy_matrix(F, sparse_columns(rng.integers(0, 97, (8, 3))), 8)
    V = sympy_columns(F, sympy_matrix(F, B, 30) * X)
    ra, rab = fieldla.rank_two(F, B, V)
    assert ra == rab
    # B's columns are independent, so the kernel of [B | V] has one vector
    # per column of V: 1 there, and minus its coordinates X on B, B @ X = V
    kernel = fieldla.nullspace(F, B + V)
    assert sympy_matrix(F, B, 30).lu_solve(sympy_matrix(F, V, 30)) == X
    assert [{i - 8: c for i, c in v.items() if i >= 8} for v in kernel] == [{0: 1}, {1: 1}, {2: 1}]
    assert [{i: F.neg(c) for i, c in v.items() if i < 8} for v in kernel] == sympy_columns(F, X)
    W = sparse_columns(rng.integers(0, 97, (30, 1), dtype=np.int64))
    assert fieldla.nullspace(F, B + W) == []
    cs = fieldla.ColumnSpace(F, 30)
    cs.add_columns(B)
    assert cs.rank == fieldla.rank(F, B) == sympy_matrix(F, B, 30).rank()
    assert cs.contains(V[0]) and not cs.contains(W[0])


def test_empty_shapes():
    assert fieldla.rank(F, [{}] * 5) == 0  # 0 x 5
    assert fieldla.rank(F, []) == 0  # 5 x 0
    N = fieldla.nullspace(F, [{}] * 4)
    assert N == [{j: 1} for j in range(4)]


def _random(field, m, n, rng):
    """A random m x n sympy matrix: residues mod p, or small fractions over Q."""
    if isinstance(field, Rationals):

        def draw():
            return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))

    else:

        def draw():
            return int(rng.integers(0, field.p))

    return sympy_matrix(field, [{i: draw() for i in range(m)} for _ in range(n)], m)


def test_rationals_backend():
    FQ = Rationals()
    rng = np.random.default_rng(7)
    M = _random(FQ, 6, 9, rng)
    N = fieldla.nullspace(FQ, sympy_columns(FQ, M))
    assert (M * sympy_matrix(FQ, N, 9)).is_zero_matrix
    r = fieldla.rank(FQ, sympy_columns(FQ, M))
    assert r + len(N) == 9


BIG = 8388593  # the largest prime <= fieldla.MAX_PRIME = 2**23


def test_largest_prime_against_naive_rank():
    FB = PrimeField(BIG)
    rng = np.random.default_rng(3)
    # ranks above 128, with residues up to BIG - 1 in every product
    for m, n, k in [(150, 260, 145), (260, 150, 140)]:
        M = (rng.integers(0, BIG, (m, k)) @ rng.integers(0, BIG, (k, n))) % BIG
        cols = sparse_columns(M)
        r = fieldla.rank(FB, cols)
        assert r == naive_rank(M, BIG) == k
        N = fieldla.nullspace(FB, cols)
        assert len(N) == n - r
        assert (M @ dense(N, n) % BIG == 0).all()
        assert fieldla.rank(FB, N) == len(N)


def test_largest_prime_against_sympy():
    FB = PrimeField(BIG)
    rng = np.random.default_rng(4)
    M = (rng.integers(0, BIG, (30, 20)) @ rng.integers(0, BIG, (20, 40))) % BIG
    cols = sparse_columns(M)
    dm = sympy_matrix(FB, cols, 30)
    assert fieldla.rank(FB, cols) == dm.rank() == 20
    ref = sympy_nullspace(FB, cols, 30)
    N = fieldla.nullspace(FB, cols)
    # the same kernel, and the same basis: one vector per free column
    assert len(N) == len(ref) == 20
    assert fieldla.rank(FB, N + ref) == 20
    assert N == ref


def _low_rank(field, m, n, k, rng):
    """A random m x n sympy matrix of rank at most k (the F_p product in int64)."""
    if isinstance(field, Rationals):
        return _random(field, m, k, rng) * _random(field, k, n, rng)
    p = field.p
    M = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))) % p
    return sympy_matrix(field, sparse_columns(M), m)


@pytest.mark.parametrize(
    "field, shapes",
    [
        (F, [(1, 1, 1), (7, 5, 0), (9, 13, 4), (40, 30, 12), (30, 150, 20), (140, 135, 60)]),
        (PrimeField(BIG), [(9, 13, 4), (40, 30, 12), (30, 150, 20), (140, 135, 60)]),
        (Rationals(), [(1, 1, 1), (7, 5, 0), (9, 13, 4), (12, 140, 5), (20, 16, 9)]),
    ],
    ids=["GF(97)", "GF(8388593)", "QQ"],
)
def test_echelon_is_the_reduced_row_echelon_form(field, shapes):
    """A ColumnSpace fed the rows of M holds M's reduced row echelon form."""
    rng = np.random.default_rng(13)
    for m, n, k in shapes:
        M = _low_rank(field, m, n, k, rng)
        rows = sympy_columns(field, M.transpose())
        before = [dict(row) for row in rows]
        cs = fieldla.ColumnSpace(field, n)
        r = cs.add_columns(rows)
        R, pivots = M.rref()
        assert (r, sorted(cs.pivots)) == (len(pivots), list(pivots)), (m, n, k)
        echelon = [row for _, row in sorted(zip(cs.pivots, cs.rows))] + [{}] * (m - r)
        assert echelon == sympy_columns(field, R.transpose()), (m, n, k)
        assert rows == before


def test_primes_above_the_bound_are_refused():
    assert fieldla.MAX_PRIME == 2**23
    with pytest.raises(ConfigError):
        ScenarioConfig(prime=67108859).ring()


# --- sparse rank and column space against sympy ----------------------------------

SPARSE_FIELDS = {"F_2": PrimeField(2), "F_97": F, "QQ": Rationals()}


def _nonzero(field, data):
    if isinstance(field, Rationals):
        return Fraction(data.draw(st.integers(1, 4)) * data.draw(st.sampled_from([1, -1])),
                        data.draw(st.integers(1, 3)))
    return data.draw(st.integers(1, field.p - 1))


def _draw_columns(field, data, m=None):
    """(m, sparse columns of an m-row matrix): empty, zero, sparse, dense,
    repeated and dependent columns."""
    if m is None:
        m = data.draw(st.integers(0, 9))
    n = data.draw(st.integers(0, 12))
    rows = st.sets(st.integers(0, m - 1), max_size=m) if m else st.just(set())
    cols = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["empty", "zero", "sparse", "dense", "repeat", "sum"]))
        if kind == "zero":
            col = {i: field.zero for i in data.draw(rows)}
        elif kind == "sparse":
            col = {i: _nonzero(field, data) for i in data.draw(rows)}
        elif kind == "dense":
            col = {i: _nonzero(field, data) for i in range(m)}
        elif kind in ("repeat", "sum") and cols:
            a, b = data.draw(st.sampled_from(cols)), data.draw(st.sampled_from(cols))
            if kind == "repeat":
                b = {}
            ca, cb = _nonzero(field, data), _nonzero(field, data)
            col = {}
            for i in set(a) | set(b):
                c = field.add(field.mul(ca, a.get(i, field.zero)), field.mul(cb, b.get(i, field.zero)))
                if c:
                    col[i] = c
        else:
            col = {}
        cols.append(col)
    return m, cols


@settings(max_examples=300)
@given(st.data())
def test_sparse_rank_matches_the_dense_rank(data):
    """Empty, zero, sparse, dense, repeated and dependent columns over
    F_2, F_97 and Q: sparse_rank equals sympy's rank of the matrix."""
    field = SPARSE_FIELDS[data.draw(st.sampled_from(sorted(SPARSE_FIELDS)))]
    m, cols = _draw_columns(field, data)
    before = [dict(col) for col in cols]
    assert fieldla.sparse_rank(field, iter(cols)) == sympy_matrix(field, cols, m).rank()
    assert cols == before


@settings(max_examples=200)
@given(st.data())
def test_column_space_is_the_reduced_echelon_basis(data):
    """Over F_2, F_97 and Q the sparse ColumnSpace holds sympy's reduced
    row echelon form of M's transpose, pivots in the order the columns
    brought them, and ``contains`` agrees with sympy's ranks."""
    field = SPARSE_FIELDS[data.draw(st.sampled_from(sorted(SPARSE_FIELDS)))]
    m, cols = _draw_columns(field, data)
    before = [dict(col) for col in cols]
    cs = fieldla.ColumnSpace(field, m)
    assert cs.add_columns(iter(cols)) == cs.rank
    assert cols == before
    E, pivcols = sympy_matrix(field, cols, m).transpose().rref()
    r = len(pivcols)
    assert cs.rank == r and sorted(cs.pivots) == list(pivcols)
    # a column that enlarges the space brings the one new pivot of its prefix
    order, seen = [], set()
    for j in range(len(cols)):
        prefix = sympy_matrix(field, cols[: j + 1], m).transpose()
        order += [p for p in prefix.rref()[1] if p not in seen]
        seen.update(order)
    assert cs.pivots == order
    assert all(c for row in cs.rows for c in row.values())
    by_pivot = [row for _, row in sorted(zip(cs.pivots, cs.rows))]
    assert by_pivot == sympy_columns(field, E.transpose())[:r]
    _, probes = _draw_columns(field, data, m)
    rank_m = sympy_matrix(field, cols, m).rank()
    for w in probes:
        assert cs.contains(w) == (sympy_matrix(field, cols + [w], m).rank() == rank_m)
    assert all(cs.contains(col) for col in cols)
