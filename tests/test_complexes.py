"""Chain complexes, total complexes, shifts, and the homology engines."""

import hashlib
import json
import pathlib
from math import comb

import pytest

from conftest import engines_complex, sympy_columns, sympy_matrix, two_term
from dflab import complexes, fieldla
from dflab import groebner as gb
from dflab import linear as ln
from dflab.complexes import (
    ChainComplex,
    ChainMap,
    NonHomogeneousComplex,
    engines_agree,
    homology_graded,
    homology_groebner,
    homology_groebner_report,
    is_quasi_iso,
    reduce_complex,
    shift,
    total_complex,
    truncate,
)
from dflab.functors import Sym
from dflab.koszul import regular_sequence_resolution
from dflab.ring import ring_descriptor
from dflab.scenarios import _one_variable_builds, m21_complex
from dflab.simplicial import (
    apply_pointwise_functor,
    diagonal_tensor,
    eilenberg_zilber,
    gamma,
    normalize,
)

R = ring_descriptor()
X, Y = R.var("x"), R.var("y")


def test_total_complex_ranks_and_d_squared(resolution):
    assert resolution.ranks() == {0: 1, 1: 2, 2: 1}
    # d^2 = 0 is checked at construction; tamper and expect rejection
    bad_d2 = ln.MapMatrix(
        resolution.module(2), resolution.module(1), {0: {0: X, 1: X}}
    )
    with pytest.raises(ValueError):
        ChainComplex(
            R,
            dict(resolution.modules),
            {1: resolution.diff(1), 2: bad_d2},
        )


def test_total_with_point(resolution, ring97):
    pt = ChainComplex(ring97, {0: ln.LabeledFreeModule(ring97, [ln.atom("pt", 0)])}, {})
    T = total_complex(resolution, pt)
    assert T.ranks() == resolution.ranks()


def test_resolution_homology(resolution):
    rep = homology_graded(resolution, 8)
    assert rep.degrees[0].dims == {0: 1}
    assert rep.degrees[0].ri_rank == 1
    assert rep.degrees[0].annihilator_ok == {"x": True, "y": True}
    assert rep.degrees[1].total == 0 and rep.degrees[2].total == 0
    assert rep.euler_ok


def test_shift(resolution):
    S = shift(resolution, -2)
    assert S.ranks() == {2: 1, 3: 2, 4: 1}
    rep = homology_graded(S, 4)
    assert rep.degrees[2].dims == {0: 1}
    S2 = shift(shift(resolution, 2), -2)
    assert S2.ranks() == resolution.ranks()
    for n in resolution.diffs:
        assert S2.diff(n).equals(resolution.diff(n))


def test_cokernel_of_x(ring97):
    C = two_term(ring97, "m", X, 1)
    rep = homology_graded(C, 6)
    assert rep.degrees[0].dims == {t: 1 for t in range(7)}  # k[y]
    assert not rep.degrees[0].stabilized
    assert rep.degrees[0].annihilator_ok == {"x": True, "y": False}
    assert rep.degrees[1].total == 0
    # R/(x) + R/(y): x kills the first summand only, so its check must read past it
    M0 = ln.LabeledFreeModule(ring97, [ln.atom("a", 0), ln.atom("b", 0)])
    M1 = ln.LabeledFreeModule(ring97, [ln.atom("fa", 1), ln.atom("fb", 1)])
    C = ChainComplex(ring97, {0: M0, 1: M1}, {1: ln.MapMatrix(M1, M0, {0: {0: X}, 1: {1: Y}})})
    assert homology_graded(C, 3).degrees[0].annihilator_ok == {"x": False, "y": False}


def test_rank_faults_raise_or_certify_nothing(resolution, monkeypatch):
    """A sparse_rank that overcounts makes a negative homology dim or an
    induced rank out of range; one that undercounts leaves homology at the
    top degrees, so no rank stabilizes."""
    exact = fieldla.sparse_rank
    monkeypatch.setattr(fieldla, "sparse_rank", lambda field, cols: exact(field, cols) + 1)
    for annihilators in (None, []):
        with pytest.raises(RuntimeError):
            homology_graded(resolution, 4, annihilators=annihilators)
    monkeypatch.setattr(fieldla, "sparse_rank", lambda field, cols: exact(field, cols) - 1)
    rep = homology_graded(resolution, 4)
    assert all(d.ri_rank is None for d in rep.degrees.values())


def test_euler_check_counts_the_input_complex(resolution, monkeypatch):
    assert homology_graded(resolution, 4).euler_ok
    reduce = complexes.reduce_complex

    def drop_top(C):
        M = reduce(C)
        return ChainComplex(M.ring, {n: m for n, m in M.modules.items() if n < M.hi}, M.diffs)

    monkeypatch.setattr(complexes, "reduce_complex", drop_top)
    assert not homology_graded(resolution, 4).euler_ok


def test_quasi_iso_needs_a_bijection_on_every_slice(resolution):
    """The zero map has equal homology dims on both sides but kills H_0."""
    ids = {n: ln.identity_map(resolution.module(n)) for n in resolution.support()}
    one, zero = ChainMap(resolution, resolution, ids), ChainMap(resolution, resolution, {})
    assert zero.is_chain_map() and one.is_chain_map()
    assert is_quasi_iso(one, 6)
    assert not is_quasi_iso(zero, 6)


# --- the dense oracle for the certificates: sympy's DomainMatrix --------------------


def dense_space(field, C, k, t, basis):
    """ColumnSpace of the boundaries B_k(t)."""
    space = fieldla.ColumnSpace(field, len(basis))
    space.add_columns(ln.graded_slice(C.diff(k + 1), t, tgt_basis=basis)[0])
    return space


def dense_cycles(field, C, k, t, basis):
    """The cycles Z_k(t): sympy's nullspace of d_k's slice, one column each."""
    cols, tb, _ = ln.graded_slice(C.diff(k), t, src_basis=basis)
    return sympy_matrix(field, cols, len(tb)).nullspace().transpose()


def dense_kills(C, f, k, t):
    """f * Z_k(t) lies in B_k(t + deg f)."""
    field, fdeg = C.ring.field, f.degree()
    sb, tb = ln.slice_basis(C.module(k), t), ln.slice_basis(C.module(k), t + fdeg)
    mult = sympy_matrix(field, ln.multiplication_slice(C.module(k), f, t, sb, tb), len(tb))
    fZ = mult * dense_cycles(field, C, k, t, sb)
    space = dense_space(field, C, k, t + fdeg, tb)
    return all(space.contains(col) for col in sympy_columns(field, fZ))


def dense_quasi_iso(cm, t_max, k_max):
    """Equal homology dims, and g * Z_k(t) spans dim H_k(t) modulo B_k(t)."""
    field = cm.source.ring.field
    hs, ht = unreduced_dims(cm.source, t_max), unreduced_dims(cm.target, t_max)
    ks = range(min(cm.source.lo, cm.target.lo), k_max + 1)
    if any(hs.get(k, {}) != ht.get(k, {}) for k in ks):
        return False
    for k in ks:
        for t, dim_h in hs.get(k, {}).items():
            sb, tb = ln.slice_basis(cm.source.module(k), t), ln.slice_basis(cm.target.module(k), t)
            g = sympy_matrix(field, ln.graded_slice(cm.map_at(k), t, sb, tb)[0], len(tb))
            gZ = g * dense_cycles(field, cm.source, k, t, sb)
            space = dense_space(field, cm.target, k, t, tb)
            if space.add_columns(sympy_columns(field, gZ)) != dim_h:
                return False
    return True


@pytest.mark.parametrize("rationals", [False, True], ids=["F_97", "QQ"])
def test_certificates_match_the_dense_oracle(rationals):
    ring = ring_descriptor(rationals=rationals)
    x, y, one = ring.var("x"), ring.var("y"), ring.one()
    P = regular_sequence_resolution(ring)
    M0 = ln.LabeledFreeModule(ring, [ln.atom("a", 0), ln.atom("b", 0)])
    M1 = ln.LabeledFreeModule(ring, [ln.atom("fa", 1), ln.atom("fb", 1)])
    sums = ChainComplex(ring, {0: M0, 1: M1}, {1: ln.MapMatrix(M1, M0, {0: {0: x}, 1: {1: y}})})
    ring3 = ring_descriptor(rationals=rationals, variables=("x", "y", "z"), sequence=("x", "y", "z"))
    x3, z3 = ring3.var("x"), ring3.var("z")
    sym3 = normalize(apply_pointwise_functor(Sym(3), gamma(regular_sequence_resolution(ring3), 3)))
    cases = {
        "resolution": (P, 6, [x, y, x * y, one]),
        "cokernel of x": (two_term(ring, "m", x, 1), 5, [x, y, x * y, one]),
        "R/(x) + R/(y)": (sums, 4, [x, y, x * y, x + y]),
        "engines": (reduce_complex(engines_complex(ring)), 8, [x, y, x * x, one]),
        "Sym3, d = 3": (reduce_complex(sym3), 5, [x3, z3 * z3, x3 + z3, ring3.one()]),
    }
    seen = set()
    for name, (C, t_max, fs) in cases.items():
        rep = homology_graded(C, t_max, annihilators=fs)
        dims = unreduced_dims(C, t_max)
        assert graded_dims(rep) == dims, name
        for k in C.support():
            want = {str(f): all(dense_kills(C, f, k, t) for t in dims.get(k, ())) for f in fs}
            assert rep.degrees[k].annihilator_ok == want, (name, k)
            seen.update(want.values())
    assert seen == {True, False}

    ids = {n: ln.identity_map(P.module(n)) for n in P.support()}
    kl = (two_term(ring, "k", x, 1), two_term(ring, "l", y, 1))
    sh, aw = eilenberg_zilber([gamma(K, 4) for K in kl])
    maps = {
        "identity": (ChainMap(P, P, ids), 6, 2),
        "zero": (ChainMap(P, P, {}), 6, 2),
        "shuffle": (sh, 6, 3),
        "front face": (aw, 6, 3),
    }
    for name, (cm, t_max, k_max) in maps.items():
        assert cm.is_chain_map(), name
        want = dense_quasi_iso(cm, t_max, k_max)
        assert is_quasi_iso(cm, t_max, k_max=k_max) == want == (name != "zero"), name


def test_the_graded_engine_builds_no_dense_matrix(ring97, monkeypatch):
    """One sparse elimination serves ranks, annihilators and quasi-isomorphisms."""
    N = engines_complex(ring97)
    sh, _ = eilenberg_zilber(_one_variable_builds(ring97, 5))

    def dense(*args, **kwargs):
        raise AssertionError("the graded engine reached a dense routine")

    for owner, name in ((ln, "graded_slice"), (fieldla, "nullspace"), (fieldla, "ColumnSpace")):
        monkeypatch.setattr(owner, name, dense)
        assert not hasattr(complexes, name)
    rep = homology_graded(N, 12)
    assert rep.rank_vector(range(5)) == [1, 2, 1, 0, 0] and rep.euler_ok
    assert is_quasi_iso(sh, 8, k_max=4)


def test_graded_rejects_nonhomogeneous(ring97):
    C = two_term(ring97, "m", X + ring97.one(), 1)
    with pytest.raises(NonHomogeneousComplex):
        homology_graded(C, 4)


def test_groebner_engine_presentation(resolution, ring97):
    M0 = ln.LabeledFreeModule(ring97, [ln.atom("q", 0)])
    M1 = ln.LabeledFreeModule(ring97, [ln.atom("p1", 1), ln.atom("p2", 1)])
    C = ChainComplex(ring97, {0: M0, 1: M1}, {1: ln.MapMatrix(M1, M0, {0: {0: X}, 1: {0: Y}})})
    pres0 = homology_groebner(C, 0)
    assert (pres0.finite, pres0.dim) == (True, 1)
    pres1 = homology_groebner(C, 1)
    assert pres1.generator_count == 1 and not pres1.finite
    # H_1 of the resolution is zero: presentation with quotient dimension 0
    p1 = homology_groebner(resolution, 1)
    assert gb.quotient_dim(p1) == (True, 0)


def test_nonhomogeneous_groebner(ring97):
    # H_0 of (R -> R, x^2 + y) is R/(x^2+y), infinite over the base field
    C = two_term(ring97, "m", X * X + Y, 0)
    pres = homology_groebner(C, 0)
    assert not pres.finite
    # Kos-style: quotient by (x^2+y, y^2) is 4-dimensional
    M0 = ln.LabeledFreeModule(ring97, [ln.atom("q", 0)])
    M1 = ln.LabeledFreeModule(ring97, [ln.atom("p1", 0), ln.atom("p2", 0)])
    C2 = ChainComplex(
        ring97,
        {0: M0, 1: M1},
        {1: ln.MapMatrix(M1, M0, {0: {0: X * X + Y}, 1: {0: Y * Y}})},
    )
    pres2 = homology_groebner(C2, 0)
    assert (pres2.finite, pres2.dim) == (True, 4)


def test_engine_agreement(resolution, ring97):
    assert engines_agree(resolution, 6)
    assert engines_agree(two_term(ring97, "m", X, 1), 6)
    assert engines_agree(total_complex(resolution, resolution), 6)


@pytest.mark.parametrize("seq", [("x", "y"), ("y", "x"), ("x^2", "y^2")])
def test_engine_agreement_at_benchmark_scale(seq):
    # normalize(GP (x) GP) cut at 4 has ranks (1, 8, 19, 18, 6); the Groebner
    # engine runs on it unreduced, so this checks reduce_complex too
    N = engines_complex(ring_descriptor(sequence=seq))
    assert N.ranks() == {0: 1, 1: 8, 2: 19, 3: 18, 4: 6}
    assert engines_agree(N, 12)


def test_truncate(resolution):
    T = truncate(resolution, 1)
    assert T.ranks() == {0: 1, 1: 2}
    rep = homology_graded(T, 4)
    assert rep.degrees[0].dims == {0: 1}


# --- reduction over R -------------------------------------------------------


def unreduced_dims(C, t_max):
    """Per-(k, t) homology dims from sympy's ranks of the unreduced graded slices."""
    field = C.ring.field
    ks = list(C.support())
    out = {}
    for t in range(t_max + 1):
        dim = {k: len(ln.slice_basis(C.module(k), t)) for k in ks}
        rank = {}
        for k in ks:
            rank[k] = 0
            if dim[k] and dim.get(k - 1, 0):
                cols, tb, _ = ln.graded_slice(C.diff(k), t)
                rank[k] = sympy_matrix(field, cols, len(tb)).rank()
        for k in ks:
            h = dim[k] - rank[k] - rank.get(k + 1, 0)
            if h:
                out.setdefault(k, {})[t] = h
    return out


def graded_dims(rep):
    return {k: d.dims for k, d in rep.degrees.items() if d.dims}


@pytest.mark.parametrize("ring_name", ["ring97", "ring_q"])
def test_reduced_dims_match_unreduced_slices(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    P = regular_sequence_resolution(ring)
    square = total_complex(P, P)
    cube = total_complex(square, P)
    GP = gamma(P, 5)
    pair = truncate(normalize(diagonal_tensor([GP, GP])), 4)
    for name, C, t_max in (("P", P, 6), ("P2", square, 6), ("P3", cube, 6), ("GP2", pair, 8)):
        rep = homology_graded(C, t_max)
        assert graded_dims(rep) == unreduced_dims(C, t_max), name
        assert rep.euler_ok and set(rep.degrees) == set(C.support()), name
        if name in ("P", "P2"):
            assert graded_dims(rep) == graded_dims(homology_groebner_report(C, t_max)), name
    assert rep.rank_vector(range(5)) == [1, 2, 1, 0, 0]


def test_sparse_slice_ranks_match_the_dense_ranks(ring97):
    """For every (k, t), the rank homology_graded takes from the sparse
    slice columns equals sympy's rank of the graded_slice."""
    GP = gamma(regular_sequence_resolution(ring97), 7)
    N = engines_complex(ring97)
    complexes_ = {
        "gk": reduce_complex(normalize(apply_pointwise_functor(Sym(3), GP))),
        "cross3": reduce_complex(normalize(diagonal_tensor([GP, GP, GP]))),
        "engines": reduce_complex(N),
        "engines unreduced": N,  # larger slices, with fill-in
    }
    field = ring97.field
    for name, M in complexes_.items():
        nonzero = 0
        for t in range(13):
            for k in list(M.support())[1:]:
                src, tgt = ln.slice_basis(M.module(k), t), ln.slice_basis(M.module(k - 1), t)
                cols = list(ln.slice_columns(M.diff(k), src, ln.slice_positions(tgt)))
                dense = sympy_matrix(field, cols, len(tgt)).rank()
                assert fieldla.sparse_rank(field, iter(cols)) == dense, (name, k, t)
                nonzero += dense > 0
        assert nonzero, name
        assert graded_dims(homology_graded(M, 12)) == unreduced_dims(M, 12), name


def test_cross3_in_three_variables():
    """The third cross-effect at conormal rank 3: certified C(6, k) for k <= 2."""
    ring = ring_descriptor(variables=("x", "y", "z"), sequence=("x", "y", "z"))
    GP = gamma(regular_sequence_resolution(ring), 3)
    rep = homology_graded(normalize(diagonal_tensor([GP, GP, GP])), 5)
    assert rep.rank_vector(range(3)) == [1, 6, 15]
    assert rep.euler_ok


def test_reduce_complex_gives_minimal_complexes(ring97):
    GP = gamma(regular_sequence_resolution(ring97), 7)
    gk = normalize(apply_pointwise_functor(Sym(3), GP))
    cross3 = normalize(diagonal_tensor([GP, GP, GP]))
    for C, want in ((gk, [1, 2, 2, 2, 2, 2, 1]), (cross3, [comb(6, k) for k in range(7)])):
        M = reduce_complex(C)
        assert [M.module(k).rank for k in range(7)] == want
        assert M.is_homogeneous()
        for n in M.diffs:
            assert M.diff(n).compose(M.diff(n + 1)).is_zero()
            assert not any(q.is_unit() for _, _, q in M.diff(n).entries())


def test_report_keeps_degrees_the_reduction_empties(ring97, resolution):
    cone = shift(two_term(ring97, "u", ring97.one(), 0), -3)  # R --1--> R in degrees 4, 3
    assert reduce_complex(cone).ranks() == {0: 0}
    rep = homology_graded(cone, 4)
    assert sorted(rep.degrees) == [3, 4]
    assert all(d.total == 0 and d.ri_rank == 0 for d in rep.degrees.values())
    # resolution plus a contractible pair on top: degrees 3 and 4 vanish
    modules = {**resolution.modules, 3: cone.module(3), 4: cone.module(4)}
    diffs = {**resolution.diffs, 4: cone.diff(4)}
    C = ChainComplex(ring97, modules, diffs)
    assert reduce_complex(C).ranks() == resolution.ranks()
    rep = homology_graded(C, 4)
    assert sorted(rep.degrees) == [0, 1, 2, 3, 4]
    assert rep.rank_vector(range(5)) == [1, 0, 0, 0, 0]


def test_ri_rank_counts_free_generators_over_the_quotient(resolution):
    ring = ring_descriptor(sequence=("x", "y^2-x^2"))
    P = regular_sequence_resolution(ring)
    rep = homology_graded(total_complex(P, P), 8)
    # H_k is free over R/I with dim_k R/I = 2
    assert rep.rank_vector(range(3)) == [1, 2, 1]
    assert [rep.degrees[k].total for k in range(3)] == [2, 4, 2]
    # k = R/(x, y) is killed by (x, y^2) but is not free over R/(x, y^2)
    rep = homology_graded(resolution, 6, annihilators=[X, Y * Y])
    assert rep.degrees[0].annihilator_ok == {"x": True, "y^2": True}
    assert rep.degrees[0].stabilized and rep.degrees[0].ri_rank is None
    assert rep.rank_vector([0, 1, 2]) == [None, 0, 0]


# --- pinned reductions ---------------------------------------------------------
#
# tests/data/reduced-complexes.json holds, for the normalized gk and cross3
# complexes at default scale (F_97, (x, y), n_max 7) and for m21_complex's
# complex, the ranks and the sha256 of ``_reduced_digest``: every label,
# degree and entry (with its terms) of ``reduce_complex``'s output.  It was
# written before the pivots moved from a full min-scan to a heap, so any
# change to the pivot order shows up here.

REDUCED = pathlib.Path(__file__).parent / "data" / "reduced-complexes.json"


def _reduced_digest(C):
    M = reduce_complex(C)
    doc = {
        str(n): {
            "labels": [repr(lab) for lab in M.module(n).labels],
            "degrees": list(M.module(n).degrees),
            "entries": [
                [j, i, sorted([list(m), str(c)] for m, c in q.terms.items())]
                for j in range(M.module(n).rank)
                for i, q in sorted(M.diff(n).col(j).items())
            ],
        }
        for n in M.support()
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return {"ranks": [M.module(n).rank for n in M.support()], "sha256": digest}


def _pinned_complexes(ring):
    GP = gamma(regular_sequence_resolution(ring), 7)
    return {
        "gk": normalize(apply_pointwise_functor(Sym(3), GP)),
        "cross3": normalize(diagonal_tensor([GP, GP, GP])),
        "m21": m21_complex(ring, 7)[0],
    }


def test_reduced_complexes_match_the_pinned_digests(ring97):
    expected = json.loads(REDUCED.read_text())
    got = {name: _reduced_digest(C) for name, C in _pinned_complexes(ring97).items()}
    assert got == expected


# --- the pivot heap against a full scan ----------------------------------------


class ScanPivots:
    """Reference queue: every pivot is min((cost, i, j)) over a full scan
    of the live candidates."""

    def __init__(self, rows, cols):
        self.rows, self.cols, self.live = rows, cols, set()
        self.order = []

    def push(self, i, j):
        self.live.add((i, j))

    def discard(self, i, j):
        self.live.discard((i, j))

    def shrunk(self, rows, cols):
        pass

    def pop(self):
        if not self.live:
            return None
        _, i, j = min(
            ((len(self.rows[i]) - 1) * (len(self.cols[j]) - 1), i, j) for i, j in self.live
        )
        self.live.discard((i, j))
        self.order.append((i, j))
        return i, j


class RecordedHeap(complexes._PivotHeap):
    def __init__(self, rows, cols):
        super().__init__(rows, cols)
        self.order = []

    def pop(self):
        pivot = super().pop()
        if pivot is not None:
            self.order.append(pivot)
        return pivot


def _reduced_with(C, queue):
    """(reduced complex, pivot order per degree) with the queue class ``queue``."""
    queues = []

    def make(rows, cols):
        queues.append(queue(rows, cols))
        return queues[-1]

    return complexes._reduce_complex(C, make), [q.order for q in queues]


def _small_complexes(ring):
    x, y = ring.var("x"), ring.var("y")
    resolution = total_complex(two_term(ring, "k", x, 1), two_term(ring, "l", y, 1))
    cone = shift(two_term(ring, "u", ring.one(), 0), -3)
    stacked = ChainComplex(
        ring,
        {**resolution.modules, 3: cone.module(3), 4: cone.module(4)},
        {**resolution.diffs, 4: cone.diff(4)},
    )
    return {"cone": cone, "resolution+cone": stacked, "engines": engines_complex(ring)}


@pytest.mark.parametrize(
    "ring", [ring_descriptor(prime=2), ring_descriptor(), ring_descriptor(rationals=True)],
    ids=["F_2", "F_97", "QQ"],
)
def test_pivot_heap_matches_the_full_scan(ring):
    for name, C in _small_complexes(ring).items():
        heap, heap_order = _reduced_with(C, RecordedHeap)
        scan, scan_order = _reduced_with(C, ScanPivots)
        assert heap_order == scan_order and any(heap_order), name
        assert heap.ranks() == scan.ranks(), name
        for n in heap.support():
            assert heap.module(n).labels == scan.module(n).labels, name
            assert heap.diff(n).equals(scan.diff(n)), name
        assert reduce_complex(C).ranks() == heap.ranks(), name
