"""Level-building functor, normalization, diagonals, EZ comparison maps."""

from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import sparse_columns, sympy_columns, sympy_matrix, two_term
from dflab import functors as fu
from dflab import linear as ln
from dflab import complexes, scenarios, simplicial
from dflab.complexes import is_quasi_iso, total_complex, total_complex_many, truncate
from dflab.ring import ring_descriptor
from dflab.scenarios import SCENARIOS, ScenarioConfig, _cauchy_sources, _one_variable_builds
from dflab.simplicial import (
    DegeneracyShapeError,
    SimplicialModule,
    apply_pointwise_functor,
    degenerate_indices,
    diagonal_tensor,
    eilenberg_zilber,
    gamma,
    normalize,
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
    field = field_ring.field

    def sym(f):
        return sympy_matrix(field, ln.constant_columns(f), f.target.rank)

    def constant_map(src, tgt, M):
        cols = [{i: field_ring.const(c) for i, c in col.items()} for col in sympy_columns(field, M)]
        return ln.MapMatrix(src, tgt, dict(enumerate(cols)))

    changes = {}
    for n in range(4):
        r = A.level(n).rank
        while True:
            M = sympy_matrix(field, sparse_columns(rng.integers(0, 97, (r, r), dtype=np.int64)), r)
            if M.rank() == r:
                changes[n] = M
                break
    inv = {n: changes[n].inv() for n in changes}
    levels = {n: A.level(n) for n in range(4)}
    faces = {}
    degens = {}
    for (n, i), f in A.faces.items():
        faces[(n, i)] = constant_map(levels[n], levels[n - 1], inv[n - 1] * sym(f) * changes[n])
    for (n, j), s in A.degeneracies.items():
        degens[(n, j)] = constant_map(levels[n], levels[n + 1], inv[n + 1] * sym(s) * changes[n])
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
    sh, aw = eilenberg_zilber([GK, GL])
    tot = sh.source
    assert aw.source is sh.target and aw.target is tot
    assert sh.is_chain_map() and aw.is_chain_map()
    comp = aw.compose(sh)
    for n in range(5):
        assert comp.map_at(n).equals(ln.identity_map(tot.module(n)))
    assert sh.map_at(0).col(0) == {0: GK.ring.one()}
    assert is_quasi_iso(sh, 6, k_max=3)
    assert is_quasi_iso(aw, 6, k_max=3)


def test_ez_triple(resolution):
    GP = gamma(resolution, 3)
    sh, aw = eilenberg_zilber([GP, GP, GP])
    assert sh.is_chain_map() and aw.is_chain_map()
    comp = aw.compose(sh)
    for n in range(4):
        assert comp.map_at(n).equals(ln.identity_map(sh.source.module(n)))
    tot = truncate(total_complex_many([normalize(GP)] * 3), 3)
    nd = normalize(diagonal_tensor([GP] * 3))
    for n in range(4):
        assert sh.source.module(n).labels == tot.module(n).labels, n
        assert sh.target.module(n).labels == nd.module(n).labels, n
    assert sh.source.support() == tot.support() and sh.target.support() == nd.support()
    assert is_quasi_iso(sh, 6, k_max=2)
    assert is_quasi_iso(aw, 6, k_max=2)


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


# --- degeneracy decided from labels ------------------------------------------


def mask_oracle_modules(ring, n_max=5):
    """Every kind of module the pipelines normalize, built from gamma."""
    x, y = ring.var("x"), ring.var("y")
    K, L = two_term(ring, "k", x, 1), two_term(ring, "l", y, 1)
    GP, GK, GL = gamma(total_complex(K, L), n_max), gamma(K, n_max), gamma(L, n_max)
    on = apply_pointwise_functor
    return {
        "Sym3(GP)": on(fu.Sym(3), GP),
        "GP^3": diagonal_tensor([GP, GP, GP]),
        "Sym2(GP) x GP": diagonal_tensor([on(fu.Sym(2), GP), GP]),
        "Ext3(GK)": on(fu.Ext(3), GK),
        "L31(GK)": on(fu.SchurL31, GK),
        "coL31(GK)": on(fu.CoSchurL31, GK),
        "Div3(GK)": on(fu.Div(3), GK),
        "T2(GK)": on(fu.TensorPow(2), GK),
        "Sym3(GK x GL)": on(fu.Sym(3), diagonal_tensor([GK, GL])),
        "GK x Sym2(GK)": diagonal_tensor([GK, on(fu.Sym(2), GK)]),
    }


def without_masks(A):
    return SimplicialModule(A.ring, A.n_max, A.levels, A.faces, A.degeneracies)


def assert_normalizations_agree(A, name):
    """normalize(A) from the masks equals normalize from the matrix path."""
    N, M = normalize(A), normalize(without_masks(A))
    assert N.ranks() == M.ranks(), name
    for n in range(A.n_max + 1):
        assert N.module(n).labels == M.module(n).labels, (name, n)
        if n:
            assert N.diff(n).equals(M.diff(n)), (name, n)


@pytest.mark.parametrize("rationals", [False, True])
def test_masks_give_the_degenerate_labels(rationals):
    """The mask rule against the matrix path, level by level, and the
    normalized complexes of both paths: every module up to level 4,
    three of them up to level 5."""
    ring = ring_descriptor(rationals=rationals)
    for name, A in mask_oracle_modules(ring).items():
        masks = A.jump_masks()
        assert masks is not None, name
        for n in range(1, A.n_max + 1):
            full = (1 << n) - 1
            by_mask = {i for i, m in enumerate(masks[n]) if m != full}
            assert by_mask == degenerate_indices(A, n), (name, n)
        if name in ("Sym2(GP) x GP", "L31(GK)", "Div3(GK)"):
            assert_normalizations_agree(A, name)
    for name, A in mask_oracle_modules(ring, n_max=4).items():
        assert_normalizations_agree(A, name)


def test_replaced_degeneracy_takes_the_matrix_path(kl_pair):
    K, _ = kl_pair
    A = gamma(K, 3)
    assert A.jump_masks() is not None
    assert apply_pointwise_functor(fu.Sym(2), A).jump_masks() is not None
    A.degeneracies[(0, 0)] = ln.MapMatrix(A.level(0), A.level(1), dict(A.degeneracy(0, 0)._cols))
    assert A.jump_masks() is None
    assert diagonal_tensor([A, A]).jump_masks() is None
    assert apply_pointwise_functor(fu.Sym(2), A).jump_masks() is None
    assert without_masks(gamma(K, 3)).jump_masks() is None


def test_cauchy_columns_skipped_are_those_projecting_to_zero(ring97):
    GK, GL = _one_variable_builds(ring97, 4)
    S3 = apply_pointwise_functor(fu.Sym(3), diagonal_tensor([GK, GL]))
    NS3 = normalize(S3)
    one = ring97.one()
    sources = _cauchy_sources(GK, GL)
    for n in range(5):
        level, Nmod = S3.level(n), NS3.module(n)
        proj_cols = {level.index(lab): {p: one} for p, lab in enumerate(Nmod.labels)}
        proj = ln.MapMatrix(level, Nmod, proj_cols)
        P, Q = GK.level(n), GL.level(n)
        gens = (fu.cauchy_det_map(P, Q), fu.cauchy_m21_map(P, Q))
        for gen, src in zip(gens, sources):
            assert src.level(n).labels == gen.source.labels, n
            position = {e: j for j, e in enumerate(src.elements(n))}
            keep = [position[e] for e in src.nondegenerate(n)]
            M = ln.constant_columns(proj.compose(gen))
            nonzero = [j for j, col in enumerate(M) if col]
            assert nonzero == keep, n


def test_pipelines_evaluate_no_degeneracy_column(monkeypatch):
    """gk, cross3 and check-l31 build no degeneracy map of a composite
    module (a diagonal tensor or pointwise functor), evaluate no
    degeneracy column of any module and check no degeneracy's shape."""
    modules, gamma_degeneracies, calls = [], set(), []
    init, col = SimplicialModule.__init__, ln.MapMatrix.col

    def record(self, *args, **kw):
        init(self, *args, **kw)
        modules.append(self)  # kept alive, so no id is reused
        gamma_degeneracies.update(id(s) for s in self.degeneracies.values())

    def counted_col(self, j):
        if id(self) in gamma_degeneracies:
            calls.append("col")
        return col(self, j)

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    monkeypatch.setattr(SimplicialModule, "__init__", record)
    monkeypatch.setattr(ln.MapMatrix, "col", counted_col)
    signed = counted("_signed_image", simplicial._signed_image)
    monkeypatch.setattr(simplicial, "_signed_image", signed)
    for cls in (SimplicialModule, simplicial._Composite):
        original = cls.__dict__["degeneracy_col"]
        monkeypatch.setattr(cls, "degeneracy_col", counted("degeneracy_col", original))
    for name in ("gk", "cross3", "check-l31"):
        assert SCENARIOS[name](ScenarioConfig()).passed, name
    composites = [A for A in modules if isinstance(A, simplicial._Composite)]
    assert composites and gamma_degeneracies and calls == []
    assert all(len(A.degeneracies) == 0 for A in composites)


def test_check_l31_builds_few_labels(monkeypatch):
    """Labels exist only for nondegenerate elements (and the small gamma
    levels): one check-l31 run builds at most 30,000 of them (227,807
    when every level and Cauchy source was built in full)."""
    built = []
    init = ln.LabeledFreeModule.__init__

    def counted(self, ring, labels):
        labels = tuple(labels)
        built.append(len(labels))
        init(self, ring, labels)

    monkeypatch.setattr(ln.LabeledFreeModule, "__init__", counted)
    assert SCENARIOS["check-l31"](ScenarioConfig()).passed
    assert 0 < sum(built) <= 30_000, sum(built)


def test_check_ez_build_counts(monkeypatch):
    counts = Counter()
    for module, names in (
        (simplicial, ("normalize", "diagonal_tensor")),
        (complexes, ("homology_graded",)),
    ):
        for name in names:

            def counted(*args, _build=getattr(module, name), _name=name, **kw):
                counts[_name] += 1
                return _build(*args, **kw)

            for owner in (module, scenarios):
                monkeypatch.setattr(owner, name, counted)
    assert SCENARIOS["check-ez"](ScenarioConfig()).passed
    # normalize: the three distinct factors and the two diagonals;
    # homology_graded: both sides of the pair and of the triple, once each
    assert counts == {"normalize": 6, "diagonal_tensor": 3, "homology_graded": 4}, counts
