"""Koszul and co-Koszul complexes, resolutions, quasi-isomorphism tables."""

import pytest

from conftest import entries
from dflab import functors as fu
from dflab import linear as ln
from dflab.complexes import ChainComplex, homology_graded, truncate
from dflab.koszul import (
    _check_koszul_match,
    cokoszul_complex,
    cyclic_two_term,
    koszul_complex,
    regular_sequence_resolution,
    two_term_complex,
)
from dflab.ring import ring_descriptor
from dflab.simplicial import apply_pointwise_functor, gamma, normalize

R = ring_descriptor()
X, Y = R.var("x"), R.var("y")


def mkmap(ring, src_gens, tgt_gens, entries):
    P = ln.LabeledFreeModule(ring, [ln.atom(n, d) for n, d in src_gens])
    Q = ln.LabeledFreeModule(ring, [ln.atom(n, d) for n, d in tgt_gens])
    return ln.MapMatrix(P, Q, entries)


FX = mkmap(R, [("p", 1)], [("q", 0)], {0: {0: X}})
FXY = mkmap(R, [("p1", 1), ("p2", 1)], [("q", 0)], {0: {0: X}, 1: {0: Y}})
F23 = mkmap(  # a 2 x 3 map
    R,
    [("p1", 1), ("p2", 1), ("p3", 1)],
    [("q1", 0), ("q2", 0)],
    {0: {0: X, 1: Y}, 1: {1: X + Y.scale(2)}, 2: {0: Y.scale(-1), 1: X}},
)


def test_koszul_square_is_resolution():
    C = koszul_complex(FXY, 2)
    assert C.ranks() == {0: 1, 1: 2, 2: 1}
    rep = homology_graded(C, 8)
    assert rep.degrees[0].dims == {0: 1} and rep.degrees[0].ri_rank == 1
    assert rep.degrees[1].total == 0 and rep.degrees[2].total == 0


def test_koszul_cube_of_one_variable_is_two_term():
    C = koszul_complex(FX, 3)
    assert C.ranks() == {0: 1, 1: 1}
    assert C.diff(1).col(0)[0] == X


def test_cokoszul_cube_is_shifted_two_term():
    C = cokoszul_complex(FX, 3)
    assert C.ranks() == {2: 1, 3: 1}
    assert C.diff(3).col(0)[0] == X
    rep = homology_graded(C, 5)
    assert rep.degrees[2].dims == {t: 1 for t in range(2, 6)}
    assert rep.degrees[3].total == 0


def test_cokoszul_degree_one_equals_koszul():
    a = koszul_complex(FX, 1)
    b = cokoszul_complex(FX, 1)
    assert a.ranks() == b.ranks() == {0: 1, 1: 1}
    assert a.diff(1).col(0)[0] == b.diff(1).col(0)[0] == X


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("fmap", [FX, FXY, F23], ids=["x", "xy", "2x3"])
def test_cokoszul_is_the_transpose_of_koszul_of_the_transpose(fmap, n):
    """cokoszul(f, n).diff(j) is the transpose of Kos^n(f^T).diff(n-j+1),
    with tens((w, div(alpha))) matched to tens((w, sym(alpha)))."""
    P, Q = fmap.source, fmap.target
    co = cokoszul_complex(fmap, n)
    kos = koszul_complex(fmap.transpose_raw(Q, P), n)

    def match(lab):
        w, d = lab[1]
        return ln.tens((w, ln.sym(d[1])))

    count = 0
    for j in range(n + 1):
        assert sorted(map(match, co.module(j).labels)) == sorted(kos.module(n - j).labels)
    for j in range(1, n + 1):
        d, k = co.diff(j), kos.diff(n - j + 1)
        got = {(match(d.source.labels[c]), match(d.target.labels[r])): e for r, c, e in entries(d)}
        want = {(k.target.labels[r], k.source.labels[c]): e for r, c, e in entries(k)}
        assert got == want, j
        count += len(got)
    assert count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_for_invertible(n):
    RK = ring_descriptor(variables=(), sequence=())
    idm = mkmap(
        RK,
        [("a", 0), ("b", 0)],
        [("c", 0), ("d", 0)],
        {0: {0: RK.one()}, 1: {1: RK.one()}},
    )
    for C in (koszul_complex(idm, n), cokoszul_complex(idm, n)):
        rep = homology_graded(C, 0, annihilators=[])
        assert all(d.total == 0 for d in rep.degrees.values())


def test_d_squared_various():
    for n in (2, 3, 4):
        koszul_complex(FXY, n)  # construction asserts d^2 = 0
        cokoszul_complex(FXY, n)


def test_regular_sequence_resolution():
    res = regular_sequence_resolution(R)
    assert res.ranks() == {0: 1, 1: 2, 2: 1}
    rep = homology_graded(res, 6)
    assert rep.degrees[0].ri_rank == 1
    R1 = ring_descriptor(variables=("x",), sequence=("x",))
    res1 = regular_sequence_resolution(R1)
    assert res1.ranks() == {0: 1, 1: 1}
    bare = ring_descriptor(sequence=())
    with pytest.raises(ValueError):
        regular_sequence_resolution(bare)


def test_resolution_matches_koszul_for_quadratic_sequence():
    # non-linear homogeneous sequence exercises the degree bookkeeping
    R2 = ring_descriptor(sequence=("x^2", "y"))
    res = regular_sequence_resolution(R2)
    rep = homology_graded(res, 6)
    assert rep.degrees[0].total == 2  # k[x,y]/(x^2, y) has dimension 2
    assert rep.degrees[1].total == 0 and rep.degrees[2].total == 0


@pytest.mark.parametrize("seq,dim", [(("x", "y", "z"), 1), (("x", "y^2", "z^3"), 6)])
def test_resolution_of_three_entries_matches_koszul(seq, dim):
    R3 = ring_descriptor(variables=("x", "y", "z"), sequence=seq)
    T = regular_sequence_resolution(R3)  # raises unless the basis match commutes
    assert T.ranks() == {0: 1, 1: 3, 2: 3, 3: 1}
    rep = homology_graded(T, 8)
    assert [rep.degrees[k].total for k in range(4)] == [dim, 0, 0, 0]  # dim_k R/(seq)
    # the match is not vacuous: flipping the sign of d_2 breaks square 2
    pieces = [cyclic_two_term(R3, name, f) for name, f in zip("klm", R3.regular_sequence)]
    flipped = ChainComplex(R3, T.modules, {**T.diffs, 2: T.diff(2).scale(-1)})
    with pytest.raises(RuntimeError, match="square 2"):
        _check_koszul_match(R3, pieces, flipped)


def test_sym3_at_conormal_rank_three():
    # L_k Sym^3 of the residue field of F_97[x, y, z]: certified ranks over R/(x, y, z)
    R3 = ring_descriptor(variables=("x", "y", "z"), sequence=("x", "y", "z"))
    GP = gamma(regular_sequence_resolution(R3), 4)
    rep = homology_graded(normalize(apply_pointwise_functor(fu.Sym(3), GP)), 7)
    assert rep.rank_vector(range(4)) == [1, 0, 3, 1]
    assert rep.euler_ok and all(rep.degrees[k].ri_rank is not None for k in range(4))


def _dims(C, tmax=6):
    rep = homology_graded(C, tmax, annihilators=[])
    return {k: d.dims for k, d in rep.degrees.items() if d.dims}


@pytest.mark.parametrize("fmap,n", [(FX, n) for n in (1, 2, 3)] + [(FXY, n) for n in (1, 2)])
def test_koszul_quasi_isomorphism_tables(fmap, n):
    T = two_term_complex(fmap)
    G = gamma(T, n + 2)
    sym_side = truncate(normalize(apply_pointwise_functor(fu.Sym(n), G)), n + 1)
    ext_side = truncate(normalize(apply_pointwise_functor(fu.Ext(n), G)), n + 1)
    assert _dims(koszul_complex(fmap, n)) == _dims(sym_side)
    assert _dims(cokoszul_complex(fmap, n)) == _dims(ext_side)
