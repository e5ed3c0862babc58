"""Level-building functor, normalization, diagonals, EZ comparison maps."""

import gc
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import sparse_columns, sympy_columns, sympy_matrix, two_term
from dflab import functors as fu
from dflab import linear as ln
from dflab import complexes, scenarios, simplicial
from dflab.complexes import (
    engines_agree,
    homology_graded,
    is_quasi_iso,
    reduce_complex,
    total_complex,
    truncate,
)
from dflab.koszul import regular_sequence_resolution
from dflab.ring import Poly, ring_descriptor
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


FIELDS = [{"prime": 2}, {"prime": 97}, {"rationals": True}]


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
    from dflab.complexes import ChainComplex

    T = two_term(ring97, "m", ring97.var("x"), 1)
    C = ChainComplex(ring97, {-1: T.module(0), 0: T.module(1)}, {0: T.diff(1)})
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
        # the elements are the pairs of the factors' elements, in label order
        assert D.level(n) == ln.tensor_modules([GK.level(n), GL.level(n)])
        assert [D.label(n, e) for e in D.elements(n)] == list(D.level(n).labels)
    assert D.validate(up_to=3)
    # faces and degeneracies act factorwise on the pairs
    for n in range(1, 5):
        for op, m, maps in (
            ("face_table", n, "faces"),
            ("degeneracy_table", n - 1, "degeneracies"),
        ):
            table = getattr(D, op)(m, 0, D.elements(m))
            f, g = getattr(GK, maps)[(m, 0)], getattr(GL, maps)[(m, 0)]
            for a, b in D.elements(m):
                want = {
                    (r, t): p * q for r, p in f.col(a).items() for t, q in g.col(b).items()
                }
                assert table[a, b] == want, (op, m, a, b)
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
    for n, j in ((n, j) for n in range(3) for j in range(n + 1)):
        s = A.degeneracies[(n, j)]
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
    s = A.degeneracies[(0, 0)]
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
    NGP = normalize(GP)
    tot = truncate(total_complex(total_complex(NGP, NGP), NGP), 3)
    nd = normalize(diagonal_tensor([GP] * 3))
    for n in range(4):
        assert sh.source.module(n).labels == tot.module(n).labels, n
        assert sh.target.module(n).labels == nd.module(n).labels, n
    assert sh.source.support() == tot.support() and sh.target.support() == nd.support()
    assert is_quasi_iso(sh, 6, k_max=2)
    assert is_quasi_iso(aw, 6, k_max=2)


def ez_factor_lists(ring, n_max=3):
    """Four gamma factors, and two lists with composite factors."""
    GK, GL = _one_variable_builds(ring, n_max)
    on = apply_pointwise_functor
    return {
        "GK,GL,GK,GL": [GK, GL, GK, GL],
        "Sym2(GK),GL": [on(fu.Sym(2), GK), GL],
        "Ext2(GK x GL),GK": [on(fu.Ext(2), diagonal_tensor([GK, GL])), GK],
    }


@pytest.mark.parametrize("field", FIELDS)
def test_ez_any_number_of_factors(field):
    """The r-factor shuffle and AW maps are chain maps, AW after the
    shuffle is the identity, the shuffle is a quasi-isomorphism, and its
    source is the truncated left-associated Tot of the normalized factors."""
    ring = ring_descriptor(**field)
    for name, As in ez_factor_lists(ring).items():
        sh, aw = eilenberg_zilber(As)
        assert sh.is_chain_map() and aw.is_chain_map(), name
        comp = aw.compose(sh)
        for n in range(4):
            assert comp.map_at(n).equals(ln.identity_map(sh.source.module(n))), (name, n)
        assert is_quasi_iso(sh, 6, k_max=2), name
        tot = normalize(As[0])
        for A in As[1:]:
            tot = truncate(total_complex(tot, normalize(A)), 3)
        nd = normalize(diagonal_tensor(As))
        assert sh.source.support() == tot.support(), name
        for n in range(4):
            assert sh.source.module(n).labels == tot.module(n).labels, (name, n)
            assert sh.target.module(n).labels == nd.module(n).labels, (name, n)


def test_shuffle_signs_and_counts():
    """For every size tuple of up to four blocks with sum at most 5, the
    shuffles are the distinct ordered partitions into blocks of those
    sizes, as many as the multinomial, each signed by its permutation."""
    from math import factorial, prod
    from itertools import product

    for r in range(1, 5):
        for sizes in product(range(6), repeat=r):
            n = sum(sizes)
            if n > 5:
                continue
            seen = set()
            for w, sign in simplicial._shuffles(sizes):
                blocks = tuple(tuple(t for t in range(n) if w[t] == i) for i in range(r))
                assert tuple(map(len, blocks)) == sizes
                assert sign == fu._perm_sign([t for b in blocks for t in b]), (sizes, blocks)
                seen.add(blocks)
            assert len(seen) == factorial(n) // prod(map(factorial, sizes)), sizes


def test_ez_needs_masks(kl_pair):
    K, _ = kl_pair
    A = Unmasked(gamma(K, 3))
    for As in ([A], [A, A], [gamma(K, 3), A]):
        with pytest.raises(ValueError):
            eilenberg_zilber(As)


def test_unnormalized_alternating_sum_squares_to_zero(resolution):
    """The alternating face sum on full levels is already a differential."""
    GP = gamma(resolution, 4)
    for n in range(2, 5):
        total = None
        for i in range(n + 1):
            f = GP.faces[(n, i)] if i % 2 == 0 else GP.faces[(n, i)].scale(-1)
            total = f if total is None else total + f
        prev = None
        for i in range(n):
            f = GP.faces[(n - 1, i)] if i % 2 == 0 else GP.faces[(n - 1, i)].scale(-1)
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


class Unmasked:
    """A view of the module A, composite or not, whose masks do not decide
    degeneracy: normalize and degenerate_indices read its degeneracy
    tables, and eilenberg_zilber refuses it."""

    def __init__(self, A):
        self._A = A

    def __getattr__(self, name):
        return getattr(self._A, name)

    def has_masks(self) -> bool:
        return False


def assert_equal_entries_shared(C, name):
    """Equal entries of C's differentials are one Poly object."""
    seen = {}
    for n, d in C.diffs.items():
        for j in range(d.source.rank):
            for q in d.col(j).values():
                assert seen.setdefault(q, q) is q, (name, n, j, q)


def assert_normalizations_agree(A, name):
    """normalize(A) from the masks equals normalize from the degeneracy
    tables, and on both paths equal entries are one Poly."""
    N, M = normalize(A), normalize(Unmasked(A))
    assert N.ranks() == M.ranks(), name
    for n in range(A.n_max + 1):
        assert N.module(n).labels == M.module(n).labels, (name, n)
        if n:
            assert N.diff(n).equals(M.diff(n)), (name, n)
    assert_equal_entries_shared(N, name)
    assert_equal_entries_shared(M, name)


@pytest.mark.parametrize("rationals", [False, True])
def test_masks_give_the_degenerate_labels(rationals):
    """The mask rule against the degeneracy tables, level by level, and
    the normalized complexes of both paths: every module up to level 4,
    three of them up to level 5."""
    ring = ring_descriptor(rationals=rationals)
    for name, A in mask_oracle_modules(ring).items():
        assert A.has_masks(), name
        for n in range(1, A.n_max + 1):
            full = (1 << n) - 1
            by_mask = {e for e in A.elements(n) if A.mask(n, e) != full}
            assert by_mask == degenerate_indices(A, n), (name, n)
        if name in ("Sym2(GP) x GP", "L31(GK)", "Div3(GK)"):
            assert_normalizations_agree(A, name)
    for name, A in mask_oracle_modules(ring, n_max=4).items():
        assert_normalizations_agree(A, name)


@pytest.mark.parametrize("field", FIELDS)
def test_normalize_shares_equal_entries(field):
    """normalize shares equal entries on the mask path and on the
    degeneracy-table path, and both give the same complex: every mask oracle module up to
    level 4, and the normalized cube of GK (x) GL that check l31 filters,
    up to level 5."""
    ring = ring_descriptor(**field)
    for name, A in mask_oracle_modules(ring, n_max=4).items():
        assert_normalizations_agree(A, name)
    GK, GL = _one_variable_builds(ring, 5)
    assert_normalizations_agree(
        apply_pointwise_functor(fu.Sym(3), diagonal_tensor([GK, GL])), "NS3"
    )


@pytest.mark.parametrize("field", FIELDS)
def test_shared_entries_are_never_mutated(field):
    """Equal entries are one object, so an operation that changed a Poly
    in place would change many entries at once.  The terms of every
    entry of gk's normalized cube are unchanged after the graded engine,
    the reduction, composition and the engine comparison run on it."""
    ring = ring_descriptor(**field)
    N = normalize(apply_pointwise_functor(fu.Sym(3), gamma(regular_sequence_resolution(ring), 4)))
    entries = [q for d in N.diffs.values() for j in range(d.source.rank) for q in d.col(j).values()]
    before = [list(q.terms.items()) for q in entries]
    homology_graded(N, 6)
    reduce_complex(N)
    for n in range(2, 5):
        assert N.diff(n - 1).compose(N.diff(n)).is_zero()
    assert engines_agree(truncate(N, 3), 6)
    assert [list(q.terms.items()) for q in entries] == before


def face_table_modules(ring, n_max):
    """The mask oracle's modules, and two over the Koszul complex of
    (x^2 + y^2, xy), whose face entries have several terms."""
    x, y = ring.var("x"), ring.var("y")
    K, L = two_term(ring, "k", x * x + y * y, 2), two_term(ring, "l", x * y, 2)
    GQ = gamma(total_complex(K, L), n_max)
    on = apply_pointwise_functor
    modules = mask_oracle_modules(ring, n_max)
    modules["Sym3(GQ)"] = on(fu.Sym(3), GQ)
    modules["GQ x L31(GQ)"] = diagonal_tensor([GQ, on(fu.SchurL31, GQ)])
    return modules


def oracle_map(A, maps, n, i):
    """The face or degeneracy (n, i) of A, from ``maps`` ("faces" or
    "degeneracies"), as ``functor_on_map`` or ``tensor_maps`` of its
    factors' maps, recursively down to gamma's matrices."""
    if not isinstance(A, simplicial._Composite):
        return getattr(A, maps)[(n, i)]
    parts = [oracle_map(F, maps, n, i) for F in A.factors]
    return ln.tensor_maps(parts) if A.tag is None else fu.functor_on_map(A.tag, parts[0])


@pytest.mark.parametrize("field", FIELDS)
def test_face_tables_match_functor_and_tensor_maps(field):
    """face_table and degeneracy_table over a whole level equal the
    columns of the maps built by functor_on_map and tensor_maps."""
    ring = ring_descriptor(**field)
    for name, A in face_table_modules(ring, n_max=3).items():
        for op, step, maps in (("face", -1, "faces"), ("degeneracy", 1, "degeneracies")):
            for n in range(max(0, -step), A.n_max + 1 - max(0, step)):
                els = A.elements(n)
                rows = {e: r for r, e in enumerate(A.elements(n + step))}
                for i in range(n + 1):
                    table = getattr(A, f"{op}_table")(n, i, els)
                    f = oracle_map(A, maps, n, i)
                    for j, e in enumerate(els):
                        col = {rows[key]: q for key, q in table[e].items()}
                        assert col == f.col(j), (name, op, n, i, e)


def test_replaced_degeneracy_takes_the_matrix_path(kl_pair):
    """Once a degeneracy matrix of gamma is replaced, its masks, and those
    of every composite over it, no longer decide degeneracy; normalize
    then reads the degeneracy tables and gives the same complex."""
    K, _ = kl_pair
    A = gamma(K, 3)
    assert A.has_masks() and apply_pointwise_functor(fu.Sym(2), A).has_masks()
    s = A.degeneracies[(0, 0)]
    A.degeneracies[(0, 0)] = ln.MapMatrix(s.source, s.target, {0: dict(s.col(0))})
    assert not A.has_masks()
    assert not diagonal_tensor([A, A]).has_masks()
    assert not apply_pointwise_functor(fu.Sym(2), A).has_masks()
    assert not Unmasked(gamma(K, 3)).has_masks()
    for B, C in ((A, gamma(K, 3)), (diagonal_tensor([A, A]), diagonal_tensor([gamma(K, 3)] * 2))):
        N, M = normalize(B), normalize(C)
        assert N.ranks() == M.ranks()
        assert all(N.diff(n).equals(M.diff(n)) for n in N.diffs)


@pytest.mark.parametrize("field", FIELDS)
def test_validate_rejects_a_scaled_operator(field):
    """A gamma with one face, or one degeneracy, scaled by 2 fails validate,
    and so do a diagonal and a square built over it."""
    ring = ring_descriptor(**field)
    K = two_term(ring, "k", ring.var("x"), 1)
    assert gamma(K, 3).validate()
    for maps, key in (("faces", (2, 1)), ("degeneracies", (1, 0))):
        bad = gamma(K, 3)
        getattr(bad, maps)[key] = getattr(bad, maps)[key].scale(2)
        built = (diagonal_tensor([bad, gamma(K, 3)]), apply_pointwise_functor(fu.Sym(2), bad))
        for A in (bad, *built):
            assert not A.validate(), (maps, A)


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
    """gk, cross3 and check-l31 build no degeneracy map of gamma's modules.
    A composite holds no matrices and builds its degeneracy columns from
    its factors', so they evaluate no degeneracy column of any module and
    check no degeneracy's shape."""
    modules = []
    init = SimplicialModule.__init__

    def record(self, *args, **kw):
        init(self, *args, **kw)
        modules.append(self)

    monkeypatch.setattr(SimplicialModule, "__init__", record)
    for name in ("gk", "cross3", "check-l31"):
        assert SCENARIOS[name](ScenarioConfig()).passed, name
    assert modules and not any(isinstance(A, simplicial._Composite) for A in modules)
    assert all(len(A.degeneracies) == 0 for A in modules)


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


def test_check_l31_traced_peak():
    """One check-l31 run peaks at most 6 MB of traced memory.  On
    Python 3.11.7 it peaked at 17.0 MB while composite modules memoized
    every face column they built, at 9.2 MB with face columns built per
    (level, face) and never kept, and at 3.55 MB with equal entries of
    each built matrix shared (``ring.entry_pool``)."""
    gc.collect()
    tracemalloc.start()
    try:
        assert SCENARIOS["check-l31"](ScenarioConfig()).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak


def test_sym3_normalize_computes_each_product_once_per_table(ring97, monkeypatch):
    """normalize of Sym^3(GP) at n_max 7 makes at most 300 Poly products:
    171 with each distinct product computed once per table and per
    compose (``EntryPool``), 3,924 when every product was computed anew."""
    GP = gamma(regular_sequence_resolution(ring97), 7)
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    N = normalize(apply_pointwise_functor(fu.Sym(3), GP))
    assert N.ranks() == {0: 1, 1: 9, 2: 37, 3: 81, 4: 97, 5: 60, 6: 15}
    assert 0 < len(calls) <= 300, len(calls)


def test_d3_cube_normalize_traced_peak():
    """normalize of the diagonal of GP^3 over F_97[x,y,z], with GP the
    Koszul resolution of (x, y, z) at n_max 3, peaks at most 12 MB of
    traced memory.  On Python 3.11.7 it peaked at 13.6 MB while every
    entry was its own Poly, and at 6.2 MB with equal entries shared
    (``ring.entry_pool``)."""
    ring = ring_descriptor(variables=("x", "y", "z"), sequence=("x", "y", "z"))
    GP = gamma(regular_sequence_resolution(ring), 3)
    gc.collect()
    tracemalloc.start()
    try:
        N = normalize(diagonal_tensor([GP, GP, GP]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert N.ranks() == {0: 1, 1: 63, 2: 873, 3: 5191}
    assert peak <= 12e6, peak


def test_check_ez_builds_few_labels(monkeypatch):
    """check-ez builds labels only for the normalized bases and the small
    gamma levels, at most 2,100 of them: 16,516 when the Eilenberg-Zilber
    maps looked every basis element up by its label in the full levels
    of GP^3, 2,251 when the three-factor maps were two-factor maps folded
    through the normalized diagonal of GP^2, and 1,991 with one
    construction for all three factors."""
    built = []
    init = ln.LabeledFreeModule.__init__

    def counted(self, ring, labels):
        labels = tuple(labels)
        built.append(len(labels))
        init(self, ring, labels)

    monkeypatch.setattr(ln.LabeledFreeModule, "__init__", counted)
    assert SCENARIOS["check-ez"](ScenarioConfig()).passed
    assert 0 < sum(built) <= 2_100, sum(built)


def test_check_ez_build_counts(monkeypatch):
    """check-ez normalizes each distinct factor and each diagonal once and
    builds one diagonal per Eilenberg-Zilber call: 6 normalizations and 3
    diagonals when the triple was folded pairwise through GP^2."""
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
    assert counts == {"normalize": 5, "diagonal_tensor": 2, "homology_graded": 4}, counts
