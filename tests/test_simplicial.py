"""Level-building functor, normalization, diagonals, EZ comparison maps."""

from itertools import combinations, combinations_with_replacement

import pytest

from conftest import two_term
from dflab import functors as fu
from dflab import linear as ln
from dflab.complexes import is_quasi_iso
from dflab.ring import ring_descriptor
from dflab.simplicial import (
    DegeneracyShapeError,
    apply_pointwise_functor,
    aw_map,
    diagonal_tensor,
    gamma,
    normalize,
    shuffle_map,
)


def surjection_count_oracle(ranks_by_deg, n):
    """Level rank of the level-building functor: one copy of C_k per
    k-subset of the n gaps."""
    from math import comb

    return sum(r * comb(n, k) for k, r in ranks_by_deg.items())


def covering_multiset_oracle(ranks_by_deg, n, power):
    """Non-degenerate basis count of the levelwise power: multisets of
    ``power`` copies whose jump sets cover every gap."""
    labels = []
    for k, r in ranks_by_deg.items():
        if k > n:
            continue
        for J in combinations(range(n), k):
            for v in range(r):
                labels.append(frozenset(J))
    count = 0
    for trip in combinations_with_replacement(range(len(labels)), power):
        if frozenset().union(*(labels[t] for t in trip)) == frozenset(range(n)):
            count += 1
    return count


def test_gamma_level_ranks(kl_pair, resolution):
    K, _ = kl_pair
    GK = gamma(K, 5)
    for n in range(6):
        assert GK.level(n).rank == 1 + n == surjection_count_oracle({0: 1, 1: 1}, n)
    GP = gamma(resolution, 4)
    for n in range(5):
        assert GP.level(n).rank == surjection_count_oracle({0: 1, 1: 2, 2: 1}, n)


def test_gamma_simplicial_identities(kl_pair, resolution):
    K, _ = kl_pair
    assert gamma(K, 5).validate()
    assert gamma(resolution, 4).validate()


def test_gamma_rejects_negative_support(ring97):
    from dflab.complexes import shift

    C = shift(two_term(ring97, "m", ring97.var("x"), 1), 1)
    with pytest.raises(ValueError):
        gamma(C, 3)


def test_normalization_is_identity_on_level_builds(kl_pair, resolution):
    K, _ = kl_pair
    NK = normalize(gamma(K, 5))
    assert NK.ranks() == {0: 1, 1: 1}
    assert NK.diff(1).col(0) == K.diff(1).col(0)
    NP = normalize(gamma(resolution, 5))
    assert NP.ranks() == resolution.ranks()
    for n in (1, 2):
        for j in range(resolution.module(n).rank):
            assert NP.diff(n).col(j) == resolution.diff(n).col(j)


def test_normalize_constant_module(ring97):
    from dflab.complexes import ChainComplex

    C = ChainComplex(ring97, {0: ln.LabeledFreeModule(ring97, [ln.atom("c", 0)])}, {})
    N = normalize(gamma(C, 4))
    assert N.ranks() == {0: 1}


def test_normalized_power_ranks_match_covering_oracle(resolution):
    GP = gamma(resolution, 5)
    S3 = apply_pointwise_functor(fu.Sym(3), GP)
    N = normalize(S3)
    for n in range(6):
        assert N.module(n).rank == covering_multiset_oracle(
            {0: 1, 1: 2, 2: 1}, n, 3
        ), n


def test_diagonal_tensor(kl_pair):
    K, L = kl_pair
    GK, GL = gamma(K, 4), gamma(L, 4)
    D = diagonal_tensor([GK, GL])
    for n in range(5):
        assert D.level(n).rank == (1 + n) ** 2
    assert D.validate(up_to=3)
    # faces and degeneracies run between the level modules themselves
    for n in range(1, 5):
        assert D.face(n, 0).source is D.level(n) and D.face(n, 0).target is D.level(n - 1)
        assert D.degeneracy(n - 1, 0).source is D.level(n - 1)
        assert D.degeneracy(n - 1, 0).target is D.level(n)
        assert D.level(n) == ln.tensor_modules([GK.level(n), GL.level(n)])
    single = diagonal_tensor([GK])
    assert single.level(3).rank == GK.level(3).rank
    with pytest.raises(ValueError):
        diagonal_tensor([GK, gamma(L, 3)])


def test_pointwise_functor_levels_and_identities(resolution):
    GP = gamma(resolution, 3)
    S2 = apply_pointwise_functor(fu.Sym(2), GP)
    r2 = GP.level(2).rank
    assert S2.level(2).rank == r2 * (r2 + 1) // 2
    assert S2.validate(up_to=2)
    E1 = apply_pointwise_functor(fu.Ext(1), GP)
    for n in range(4):
        assert E1.level(n).rank == GP.level(n).rank


def test_normalize_rejects_twisted_degeneracies_over_a_field(field_ring):
    """Conjugating by a random change of basis breaks the monomial shape;
    normalize rejects that over a plain field as over a polynomial ring."""
    import numpy as np

    from dflab.complexes import ChainComplex
    from dflab.simplicial import SimplicialModule

    rng = np.random.default_rng(1)
    M0 = ln.LabeledFreeModule(field_ring, [ln.atom("a", 0), ln.atom("b", 0)])
    M1 = ln.LabeledFreeModule(field_ring, [ln.atom("c", 0)])
    d = ln.MapMatrix(M1, M0, {0: {0: field_ring.one(), 1: field_ring.const(3)}})
    C = ChainComplex(field_ring, {0: M0, 1: M1}, {1: d})
    A = gamma(C, 3)
    # conjugate every level by an invertible change of basis
    from dflab import fieldla

    changes = {}
    for n in range(4):
        r = A.level(n).rank
        while True:
            M = rng.integers(0, 97, (r, r), dtype=np.int64)
            if fieldla.rank(field_ring.field, M) == r:
                changes[n] = M
                break
    inv = {
        n: np.array(
            fieldla.solve_columns(field_ring.field, changes[n], np.eye(len(changes[n]), dtype=np.int64))
        )
        for n in changes
    }
    levels = {n: A.level(n) for n in range(4)}
    faces = {}
    degens = {}
    for (n, i), f in A.faces.items():
        raw = f.materialize().to_field_matrix()
        faces[(n, i)] = ln.from_field_matrix(
            levels[n], levels[n - 1], (inv[n - 1] @ raw @ changes[n]) % 97
        )
    for (n, j), s in A.degeneracies.items():
        raw = s.materialize().to_field_matrix()
        degens[(n, j)] = ln.from_field_matrix(
            levels[n], levels[n + 1], (inv[n + 1] @ raw @ changes[n]) % 97
        )
    twisted = SimplicialModule(field_ring, 3, levels, faces, degens)
    with pytest.raises(DegeneracyShapeError):
        from dflab.simplicial import degenerate_indices

        for n in range(1, 4):
            degenerate_indices(twisted, n)
    with pytest.raises(DegeneracyShapeError):
        normalize(twisted)


def test_moore_fallback_rejected_over_polynomial_ring(ring97, kl_pair):
    K, _ = kl_pair
    A = gamma(K, 3)
    # smear one degeneracy column across two rows
    s = A.degeneracy(0, 0)
    col = dict(s.col(0))
    col[(list(col)[0] + 1) % s.target.rank] = K.ring.one()
    bad = ln.MapMatrix(s.source, s.target, {0: col})
    A.degeneracies[(0, 0)] = bad
    with pytest.raises(DegeneracyShapeError):
        normalize(A)
    # one entry 1 + x: its constant term is 1, but it is not +-1
    cols = {j: dict(s.col(j)) for j in range(s.source.rank)}
    (row, one), = cols[0].items()
    cols[0][row] = one + K.ring.var("x")
    A.degeneracies[(0, 0)] = ln.MapMatrix(s.source, s.target, cols)
    with pytest.raises(DegeneracyShapeError):
        normalize(A)


def test_ez_pair(kl_pair):
    K, L = kl_pair
    GK, GL = gamma(K, 4), gamma(L, 4)
    sh, tot, nd = shuffle_map(GK, GL)
    aw, _, _ = aw_map(GK, GL)
    assert sh.is_chain_map() and aw.is_chain_map()
    comp = aw.compose(sh)
    for n in range(5):
        assert comp.map_at(n).equals(ln.identity_map(tot.module(n)))
    assert sh.map_at(0).col(0) == {0: GK.ring.one()}
    assert is_quasi_iso(sh, 6, k_max=3)
    assert is_quasi_iso(aw, 6, k_max=3)


def test_unnormalized_alternating_sum_squares_to_zero(resolution):
    """The alternating face sum on full levels is already a differential."""
    GP = gamma(resolution, 4)
    for n in range(2, 5):
        total = None
        for i in range(n + 1):
            f = GP.face(n, i) if i % 2 == 0 else GP.face(n, i).scale(-1)
            total = f if total is None else total + f
        prev = None
        for i in range(n):
            f = GP.face(n - 1, i) if i % 2 == 0 else GP.face(n - 1, i).scale(-1)
            prev = f if prev is None else prev + f
        assert prev.compose(total).is_zero()
