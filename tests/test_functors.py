"""Polynomial functors, cross-effects, diagonal/plus maps, Cauchy maps."""

import numpy as np
import pytest

from conftest import FIELDS, entries, kmodule, sympy_matrix
from dflab import fieldla
from dflab import functors as fu
from dflab import linear as ln
from dflab.ring import ring_descriptor

RK = ring_descriptor(variables=(), sequence=())
F = RK.field

ALL_TAGS = [
    fu.Sym(2),
    fu.Sym(3),
    fu.Ext(2),
    fu.Ext(3),
    fu.Div(2),
    fu.Div(3),
    fu.TensorPow(2),
    fu.SchurL31,
    fu.CoSchurL31,
]


def km(name, n):
    return kmodule(RK, name, n)


def rand_map(rng, src, tgt, lo=0, hi=5):
    cols = {}
    for j in range(src.rank):
        col = {}
        for i in range(tgt.rank):
            q = src.ring.const(int(rng.integers(lo, hi)))
            if not q.is_zero():
                col[i] = q
        if col:
            cols[j] = col
    return ln.MapMatrix(src, tgt, cols)


def test_sym_cube_of_scaling():
    V = km("v", 1)
    c = ln.MapMatrix(V, V, {0: {0: RK.const(5)}})
    S = fu.functor_on_map(fu.Sym(3), c)
    assert S.col(0)[0] == RK.const(125)


def test_schur_dimensions_against_map_oracle():
    # dim of the shape-(2,1) functor = rank of (a^b)|c -> a|bc - b|ac
    def oracle(n):
        V = km("v", n)
        W = fu.ext_module(V, 2)
        src = ln.tensor_modules([W, V])
        tgt = ln.tensor_modules([V, fu.sym_module(V, 2)])
        cols = {}
        one = RK.one()
        for j, lab in enumerate(src.labels):
            wlab, clab = lab[1]
            a, b = wlab[1]
            col = {tgt.index(ln.tens((a, ln.sym((b, clab))))): one}
            idx2 = tgt.index(ln.tens((b, ln.sym((a, clab)))))
            col[idx2] = col.get(idx2, RK.zero()) - one
            cols[j] = {i: q for i, q in col.items() if not q.is_zero()}
        return sympy_matrix(F, ln.constant_columns(ln.MapMatrix(src, tgt, cols)), tgt.rank).rank()

    for n, d in [(1, 0), (2, 2), (3, 8), (4, 20)]:
        assert fu.functor_module(fu.SchurL31, km("v", n)).rank == d
        assert fu.functor_module(fu.CoSchurL31, km("v", n)).rank == d
        assert oracle(n) == d


def test_divided_cube_of_identity():
    D = fu.functor_on_map(fu.Div(3), ln.identity_map(km("v", 2)))
    assert D.source.rank == 4
    assert D.equals(ln.identity_map(D.source))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}{t.arity}")
def test_functoriality(tag):
    rng = np.random.default_rng(3)
    A, B, C = km("a", 2), km("b", 3), km("c", 2)
    f = rand_map(rng, A, B)
    g = rand_map(rng, B, C)
    Fg = fu.functor_on_map(tag, g)
    Ff = fu.functor_on_map(tag, f)
    Fgf = fu.functor_on_map(tag, g.compose(f))
    assert Fgf.equals(Fg.compose(Ff))
    Fid = fu.functor_on_map(tag, ln.identity_map(B))
    assert Fid.equals(ln.identity_map(Fid.source))


@pytest.mark.parametrize(
    "dual, tag",
    [(fu.Div(2), fu.Sym(2)), (fu.Div(3), fu.Sym(3)), (fu.CoSchurL31, fu.SchurL31)],
    ids=["div2", "div3", "coschur3"],
)
def test_dual_functors_are_transposes_on_the_transpose(dual, tag):
    """Divided powers and co-Schur are evaluated column by column; their
    matrices are those of Sym and Schur on the transposed map, transposed."""
    rng = np.random.default_rng(5)
    A, B = km("a", 3), km("b", 4)
    f = rand_map(rng, A, B)
    Ff, Gt = fu.functor_on_map(dual, f), fu.functor_on_map(tag, f.transpose_raw(B, A))
    Ff = sympy_matrix(F, ln.constant_columns(Ff), Ff.target.rank)
    Gt = sympy_matrix(F, ln.constant_columns(Gt), Gt.target.rank)
    assert Ff.shape == Gt.transpose().shape and Ff == Gt.transpose()


def test_cross_effect_ranks_sym_cube():
    args = lambda k: [km(f"v{i}", 1) for i in range(k)]
    assert fu.cross_effect(fu.Sym(3), args(2)).module.rank == 2
    assert fu.cross_effect(fu.Sym(3), args(3)).module.rank == 1
    assert fu.cross_effect(fu.Sym(3), args(4)).module.rank == 0


def test_cross_effect_ranks_schur_kinds():
    for tag in (fu.SchurL31, fu.CoSchurL31):
        ranks = [
            fu.cross_effect(tag, [km(f"v{i}", 1) for i in range(k)]).module.rank
            for k in (1, 2, 3, 4)
        ]
        assert ranks == [0, 2, 2, 0]


def test_cross_effect_vanishes_on_zero_argument():
    assert fu.cross_effect(fu.Sym(3), [km("a", 2), km("b", 0)]).module.rank == 0


def test_cross_effect_mixed_ranks():
    assert fu.cross_effect(fu.SchurL31, [km("a", 2), km("b", 3)]).module.rank == 30
    assert fu.cross_effect(fu.CoSchurL31, [km("a", 2), km("b", 3)]).module.rank == 30


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}{t.arity}")
def test_cross_effect_decomposition_dimension(tag):
    # F(V + W) = F(V) + F(W) + cr2(F)(V, W) on dimensions
    for nv, nw in [(1, 1), (1, 2), (2, 2)]:
        V, W = km("v", nv), km("w", nw)
        whole = fu.functor_module(tag, ln.direct_sum_modules([V, W])).rank
        parts = (
            fu.functor_module(tag, V).rank
            + fu.functor_module(tag, W).rank
            + fu.cross_effect(tag, [V, W]).module.rank
        )
        assert whole == parts, (tag, nv, nw)


@pytest.mark.parametrize(
    "tag", [fu.Sym(3), fu.Ext(3), fu.Div(3), fu.SchurL31, fu.CoSchurL31],
    ids=lambda t: f"{t.kind}{t.arity}",
)
def test_cross_effect_inductive_identity(tag):
    # cr2(F)(V, W + X) = cr2(F)(V,W) + cr2(F)(V,X) + cr3(F)(V,W,X)
    V, W, Xm = km("v", 1), km("w", 1), km("x", 2)
    lhs = fu.cross_effect(tag, [V, ln.direct_sum_modules([W, Xm])]).module.rank
    rhs = (
        fu.cross_effect(tag, [V, W]).module.rank
        + fu.cross_effect(tag, [V, Xm]).module.rank
        + fu.cross_effect(tag, [V, W, Xm]).module.rank
    )
    assert lhs == rhs


@pytest.mark.parametrize("field", FIELDS)
def test_cross_effect_idempotent_is_idempotent(field):
    ring = ring_descriptor(variables=(), sequence=(), **field)
    args = [kmodule(ring, "a", 2), kmodule(ring, "b", 1)]
    Vsum = ln.direct_sum_modules(args)
    e = fu._idempotent_matrix(fu.Sym(3), Vsum, args)
    E = sympy_matrix(ring.field, ln.constant_columns(e), e.target.rank)
    assert E * E == E


@pytest.mark.parametrize("field", FIELDS)
def test_built_maps_store_only_nonzero_entries(field):
    """Every entry that functor_on_map (each functor kind), tensor_maps,
    the Cauchy maps and the cross-effect idempotent store is nonzero, also
    where a sum cancels: Sym^2 of the all-ones map sends v0 v1 to
    w0^2 + 2 w0 w1 + w1^2, whose middle entry is 0 over F_2."""
    ring = ring_descriptor(variables=(), sequence=(), **field)
    V, W = kmodule(ring, "v", 3), kmodule(ring, "w", 2)
    ones = ln.MapMatrix(V, W, {j: {i: ring.one() for i in range(W.rank)} for j in range(V.rank)})
    drawn = rand_map(np.random.default_rng(7), V, W, lo=-2, hi=3)
    assert len(fu.functor_on_map(fu.Sym(2), ones).col(1)) == (2 if field == {"prime": 2} else 3)
    maps = [fu.functor_on_map(tag, f) for tag in ALL_TAGS for f in (ones, drawn)]
    maps.append(ln.tensor_maps([ones, drawn, ones]))
    P, Q = kmodule(ring, "p", 3), kmodule(ring, "q", 4)
    maps += [fu.cauchy_det_map(P, Q), fu.cauchy_m21_map(P, Q)]
    args = [kmodule(ring, "a", 2), kmodule(ring, "b", 1)]
    Vsum = ln.direct_sum_modules(args)
    maps += [fu._idempotent_matrix(tag, Vsum, args) for tag in ALL_TAGS]
    for m in maps:
        assert all(not q.is_zero() for _, _, q in entries(m)), m


def test_delta_and_plus_examples():
    dm, _, _ = fu.delta_map(fu.Sym(2), (2,), [km("u", 1)])
    assert ln.constant_columns(dm) == [{0: 2}]
    pm, _, _ = fu.plus_map(fu.Sym(2), (2,), [km("u", 1)])
    assert ln.constant_columns(pm) == [{0: 1}]
    d2, _, _ = fu.delta_map(fu.Ext(2), (2,), [km("u", 2)])
    p2, _, _ = fu.plus_map(fu.Ext(2), (2,), [km("u", 2)])
    comp = p2.compose(d2)
    assert (comp.target.rank, comp.source.rank) == (1, 1) and ln.constant_columns(comp) == [{0: 2}]


def test_delta_map_malformed_epsilon():
    with pytest.raises(ValueError):
        fu.delta_map(fu.Sym(2), (0, 2), [km("u", 1), km("w", 1)])


def test_cauchy_rank_identities():
    for np_, nq, expect in [(2, 2, (0, 4, 16)), (3, 3, (1, 64, 100))]:
        P, Q = km("p", np_), km("q", nq)
        det = fu.cauchy_det_map(P, Q)
        m21 = fu.cauchy_m21_map(P, Q)
        r_det, r_union = fieldla.rank_two(F, ln.constant_columns(det), ln.constant_columns(m21))
        total = det.target.rank
        assert (r_det, r_union - r_det, total - r_union) == expect
        assert total == sum(expect)


def test_cauchy_det_injective_rank3():
    P, Q = km("p", 3), km("q", 3)
    det = fu.cauchy_det_map(P, Q)
    M = ln.constant_columns(det)
    assert fieldla.rank(F, M) == det.source.rank == 1
    vals = {v for col in M for v in col.values()}
    assert vals <= {1, 96}  # all entries are +-1


def test_cauchy_m21_rank_2_2():
    P, Q = km("p", 2), km("q", 2)
    m21 = fu.cauchy_m21_map(P, Q)
    assert fieldla.rank(F, ln.constant_columns(m21)) == 4
    det = fu.cauchy_det_map(P, Q)
    assert det.source.rank == 0  # wedge cube of rank 2 vanishes
