"""Exact linear algebra kernel against a naive elimination oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sparse_columns
from dflab import fieldla
from dflab.ring import PrimeField, Rationals

F = PrimeField(97)


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
        r = fieldla.rank(F, M)
        assert r == naive_rank(M)
        N = fieldla.nullspace(F, M)
        assert (M @ N % 97 == 0).all()
        assert N.shape[1] == n - r
        assert fieldla.rank(F, N) == N.shape[1]


def test_panel_boundaries():
    rng = np.random.default_rng(11)
    for (m, n, k) in [(200, 300, 150), (300, 200, 190), (257, 260, 255)]:
        M = (
            rng.integers(0, 97, (m, k), dtype=np.int64)
            @ rng.integers(0, 97, (k, n), dtype=np.int64)
        ) % 97
        assert fieldla.rank(F, M) == k


def test_solve_and_membership():
    rng = np.random.default_rng(5)
    B = rng.integers(0, 97, (30, 8), dtype=np.int64)
    V = (B @ rng.integers(0, 97, (8, 3), dtype=np.int64)) % 97
    ra, rab = fieldla.rank_two(F, B, V)
    assert ra == rab
    X = fieldla.solve_columns(F, B, V)
    assert (B @ X % 97 == V % 97).all()
    W = rng.integers(0, 97, (30, 1), dtype=np.int64)
    assert fieldla.solve_columns(F, B, W) is None
    cs = fieldla.ColumnSpace(F, 30)
    cs.add_columns(sparse_columns(B))
    assert cs.rank == fieldla.rank(F, B)
    assert cs.contains(sparse_columns(V)[0]) and not cs.contains(sparse_columns(W)[0])


def test_empty_shapes():
    assert fieldla.rank(F, np.zeros((0, 5), dtype=np.int64)) == 0
    assert fieldla.rank(F, np.zeros((5, 0), dtype=np.int64)) == 0
    N = fieldla.nullspace(F, np.zeros((0, 4), dtype=np.int64))
    assert N.shape == (4, 4)


def test_rationals_backend():
    FQ = Rationals()
    rng = np.random.default_rng(7)
    M = fieldla.random_matrix(FQ, 6, 9, rng)
    N = fieldla.nullspace(FQ, M)
    prod = M @ N
    assert all(prod[i, j] == 0 for i in range(6) for j in range(N.shape[1]))
    r = fieldla.rank(FQ, M)
    assert r + N.shape[1] == 9


BIG = 8388593  # the largest prime <= fieldla.MAX_PRIME = 2**23


def test_largest_prime_against_naive_rank():
    FB = PrimeField(BIG)
    rng = np.random.default_rng(3)
    # ranks above 128, with residues up to BIG - 1 in every product
    for m, n, k in [(150, 260, 145), (260, 150, 140)]:
        M = (rng.integers(0, BIG, (m, k)) @ rng.integers(0, BIG, (k, n))) % BIG
        r = fieldla.rank(FB, M)
        assert r == naive_rank(M, BIG) == k
        N = fieldla.nullspace(FB, M)
        assert N.shape[1] == n - r
        assert (M @ N % BIG == 0).all()
        assert fieldla.rank(FB, N) == N.shape[1]


def test_largest_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.GF(BIG)
    rng = np.random.default_rng(4)
    M = (rng.integers(0, BIG, (30, 20)) @ rng.integers(0, BIG, (20, 40))) % BIG
    dm = DomainMatrix([[K(int(v)) for v in row] for row in M.tolist()], M.shape, K)
    FB = PrimeField(BIG)
    assert fieldla.rank(FB, M) == dm.rank() == 20
    ref = np.array([[int(v) % BIG for v in row] for row in dm.nullspace().to_list()])
    N = fieldla.nullspace(FB, M)
    # the same kernel: each basis lies in the span of the other
    assert N.shape[1] == ref.shape[0] == 20
    assert fieldla.rank(FB, np.concatenate([N, ref.T], axis=1)) == 20


def _sympy_rref(field, M):
    """(pivots, rows) of M's reduced row echelon form computed by sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    if isinstance(field, Rationals):
        K = sympy.QQ
        rows = [[K(v.numerator, v.denominator) for v in row] for row in M.tolist()]

        def back(v):
            return Fraction(int(v.numerator), int(v.denominator))

    else:
        K = sympy.GF(field.p)
        rows = [[K(int(v)) for v in row] for row in M.tolist()]

        def back(v):
            return int(v) % field.p

    R, pivots = DomainMatrix(rows, M.shape, K).rref()
    return list(pivots), [[back(v) for v in row] for row in R.to_list()]


def _low_rank(field, m, n, k, rng):
    A = fieldla.random_matrix(field, m, k, rng)
    B = fieldla.random_matrix(field, k, n, rng)
    return fieldla.reduce(field, A @ B) if k else fieldla.zeros(field, m, n)


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
    rng = np.random.default_rng(13)
    for m, n, k in shapes:
        M = _low_rank(field, m, n, k, rng)
        before = M.copy()
        r, pivcols, E = fieldla.echelon(field, M)
        pivots, rows = _sympy_rref(field, M)
        assert (r, pivcols) == (len(pivots), pivots), (m, n, k)
        assert E.tolist() == rows, (m, n, k)
        assert (M == before).all()


def test_solve_columns_over_rationals():
    FQ = Rationals()
    rng = np.random.default_rng(9)
    B = fieldla.random_matrix(FQ, 10, 4, rng)
    # a dependent column leaves a free variable, which the solution sets to 0
    for basis in (B, np.concatenate([B, B[:, :1] + B[:, 1:2]], axis=1)):
        V = B @ fieldla.random_matrix(FQ, 4, 3, rng)
        X = fieldla.solve_columns(FQ, basis, V)
        assert (basis @ X == V).all()
        assert fieldla.solve_columns(FQ, basis, fieldla.random_matrix(FQ, 10, 1, rng)) is None


def test_primes_above_the_bound_are_refused():
    assert fieldla.MAX_PRIME == 2**23
    with pytest.raises(ValueError):
        fieldla.rank(PrimeField(67108859), np.eye(3, dtype=np.int64))
    k = 2**63 // (BIG - 1) ** 2 + 1  # k terms of (BIG - 1)**2 would wrap int64
    with pytest.raises(OverflowError):
        fieldla.matmul(PrimeField(BIG), np.ones((1, k), np.int64), np.ones((k, 1), np.int64))


# --- sparse rank against the dense elimination ---------------------------------

SPARSE_FIELDS = {"F_2": PrimeField(2), "F_97": F, "QQ": Rationals()}


def _nonzero(field, data):
    if isinstance(field, Rationals):
        return Fraction(data.draw(st.integers(1, 4)) * data.draw(st.sampled_from([1, -1])),
                        data.draw(st.integers(1, 3)))
    return data.draw(st.integers(1, field.p - 1))


def _draw_columns(field, data, m=None):
    """(m, sparse columns, the dense m x n matrix): empty, zero, sparse,
    dense, repeated and dependent columns."""
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
    M = fieldla.zeros(field, m, n)
    for j, col in enumerate(cols):
        for i, c in col.items():
            M[i, j] = c
    return m, cols, M


@settings(max_examples=300)
@given(st.data())
def test_sparse_rank_matches_the_dense_rank(data):
    """Empty, zero, sparse, dense, repeated and dependent columns over
    F_2, F_97 and Q: sparse_rank equals fieldla.rank of the dense matrix."""
    field = SPARSE_FIELDS[data.draw(st.sampled_from(sorted(SPARSE_FIELDS)))]
    _, cols, M = _draw_columns(field, data)
    before = [dict(col) for col in cols]
    assert fieldla.sparse_rank(field, iter(cols)) == fieldla.rank(field, M)
    assert cols == before


@settings(max_examples=200)
@given(st.data())
def test_column_space_is_the_reduced_echelon_basis(data):
    """Over F_2, F_97 and Q the sparse ColumnSpace holds the reduced row
    echelon form of M's transpose, pivots in the order the columns
    brought them, and ``contains`` agrees with the dense rank_two."""
    field = SPARSE_FIELDS[data.draw(st.sampled_from(sorted(SPARSE_FIELDS)))]
    m, cols, M = _draw_columns(field, data)
    before = [dict(col) for col in cols]
    cs = fieldla.ColumnSpace(field, m)
    assert cs.add_columns(iter(cols)) == cs.rank
    assert cols == before
    r, pivcols, E = fieldla.echelon(field, M.T)
    assert cs.rank == r and sorted(cs.pivots) == pivcols
    # a column that enlarges the space brings the one new pivot of its prefix
    order, seen = [], set()
    for j in range(M.shape[1]):
        order += [p for p in fieldla.echelon(field, M[:, : j + 1].T)[1] if p not in seen]
        seen.update(order)
    assert cs.pivots == order
    assert all(c for row in cs.rows for c in row.values())
    by_pivot = [row for _, row in sorted(zip(cs.pivots, cs.rows))]
    assert [[row.get(i, field.zero) for i in range(m)] for row in by_pivot] == E[:r].tolist()
    _, probes, P = _draw_columns(field, data, m)
    for j, w in enumerate(probes):
        r_m, r_mw = fieldla.rank_two(field, M, P[:, j : j + 1])
        assert cs.contains(w) == (r_m == r_mw)
    assert all(cs.contains(col) for col in cols)
