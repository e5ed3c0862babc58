"""Bounded chain complexes, total complexes, and two homology engines.

The graded engine first reduces a homogeneous complex over R
(``reduce_complex``): each nonzero constant entry of a differential
cancels a pair of generators by Gaussian elimination, which leaves the
minimal complex.  The reduction is a homotopy equivalence of complexes
of graded R-modules, so homology is the same graded R-module and every
certificate (dims, stabilization, annihilators) carries over.  The engine
then slices the reduced complex into exact field linear algebra, one
internal degree at a time: each slice is a stream of sparse columns
(``linear.slice_columns``) ranked by sparse elimination
(``fieldla.sparse_rank``), so memory follows the nonzeros and the pivots,
not rows times columns.  It certifies R/I-module ranks by annihilator
checks (f must kill H_k at every t where H_k is nonzero), each the rank
of one mapping-cone slice taken by the same sparse elimination, and a
Hilbert-function freeness check.

The Groebner engine presents each homology module by generators
(syzygies of the differential) and relations (lifted boundaries plus
kernel syzygies) and is the finiteness certificate.  It runs on the
unreduced complex, so ``engines_agree`` also checks the reduction.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import chain
from math import comb

from . import fieldla
from . import groebner as gb_mod
from .linear import (
    LabeledFreeModule,
    MapMatrix,
    slice_basis,
    slice_columns,
    slice_positions,
    tens,
    zero_map,
)
from .ring import EntryPool


class NonHomogeneousComplex(ValueError):
    """Raised when the graded engine is handed non-homogeneous data."""


class ChainComplex:
    """Complex of labeled free modules with degree -1 differentials."""

    def __init__(self, ring, modules: dict, diffs: dict, check: bool = True):
        self.ring = ring
        self.modules = {n: m for n, m in modules.items() if m.rank > 0}
        degs = sorted(self.modules)
        self.lo = degs[0] if degs else 0
        self.hi = degs[-1] if degs else 0
        self.diffs = {}
        for n, d in diffs.items():
            if d is None:
                continue
            if n - 1 in self.modules and n in self.modules:
                self.diffs[n] = d
        if check:
            self._check()

    def _check(self):
        for n, d in self.diffs.items():
            if d.source.labels != self.module(n).labels or d.target.labels != self.module(n - 1).labels:
                raise ValueError(f"differential at {n} has wrong shape")
        for n in list(self.diffs):
            if n + 1 in self.diffs:
                if not self.diffs[n].compose(self.diffs[n + 1]).is_zero():
                    raise ValueError(f"d^2 != 0 at degree {n + 1}")

    def module(self, n: int) -> LabeledFreeModule:
        m = self.modules.get(n)
        if m is None:
            m = LabeledFreeModule(self.ring, [])
        return m

    def diff(self, n: int) -> MapMatrix:
        d = self.diffs.get(n)
        if d is None:
            d = zero_map(self.module(n), self.module(n - 1))
        return d

    def ranks(self) -> dict:
        return {n: self.module(n).rank for n in range(self.lo, self.hi + 1)}

    def is_homogeneous(self) -> bool:
        return all(d.is_homogeneous() for d in self.diffs.values())

    def support(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        return f"ChainComplex({self.ranks()})"


def total_complex(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """Tot(C (x) D), built from its differential.

    Degree n is the direct sum of the blocks C_p (x) D_q with p + q = n,
    in order of p, each with labels tens((a, b)), b fastest.  The column
    of a (x) b in C_p (x) D_q is d_C(a) (x) b + (-1)^p a (x) d_D(b); each
    distinct entry is negated once, through an ``EntryPool``.
    """
    ring = C.ring
    pool = EntryPool()
    blocks: dict[int, list] = {}
    for p in C.support():
        for q in D.support():
            if C.module(p).rank and D.module(q).rank:
                blocks.setdefault(p + q, []).append((p, q))
    modules = {}
    start = {}  # (p, q) -> offset of C_p (x) D_q in Tot_{p+q}
    for n, pq in blocks.items():
        labels = []
        for p, q in pq:
            start[p, q] = len(labels)
            labels.extend(tens((a, b)) for a in C.module(p).labels for b in D.module(q).labels)
        modules[n] = LabeledFreeModule(ring, labels)
    diffs = {}
    for n in sorted(blocks):
        if n - 1 not in blocks:
            continue
        cols = {}
        for p, q in blocks[n]:
            dc, dd = C.diff(p), D.diff(q)
            rank_d, rank_d1 = D.module(q).rank, D.module(q - 1).rank
            left = start.get((p - 1, q))  # d_C(a) (x) b: row left + i * rank D_q + b
            right = start.get((p, q - 1))  # a (x) d_D(b): row right + a * rank D_{q-1} + i
            for a in range(C.module(p).rank):
                for b in range(rank_d):
                    col = {}
                    if left is not None:
                        for i, e in dc.col(a).items():
                            col[left + i * rank_d + b] = e
                    if right is not None:
                        for i, e in dd.col(b).items():
                            col[right + a * rank_d1 + i] = pool.neg(e) if p % 2 else e
                    col = {i: e for i, e in col.items() if not e.is_zero()}
                    if col:
                        cols[start[p, q] + a * rank_d + b] = col
        diffs[n] = MapMatrix(modules[n], modules[n - 1], cols)
    return ChainComplex(ring, modules, diffs)


def truncate(C: ChainComplex, top: int) -> ChainComplex:
    """Drop all degrees above ``top`` (homology below ``top`` unchanged)."""
    modules = {n: m for n, m in C.modules.items() if n <= top}
    diffs = {n: d for n, d in C.diffs.items() if n <= top}
    return ChainComplex(C.ring, modules, diffs, check=False)


# --- reduction over R --------------------------------------------------------


class _PivotHeap:
    """Unit-pivot candidates of one degree, popped by least Markowitz cost.

    The cost of (i, j) is (row count - 1) * (column count - 1) in the
    current matrix.  ``pop`` returns exactly min((cost, i, j)) over the
    live candidates: every candidate keeps a heap entry whose stored cost
    is at most its current cost (``push`` on entry, ``shrunk`` again
    whenever its row or column loses an entry), so the first entry that
    is live and not stale is the minimum, ties included.  A stale entry
    (the row or column has grown since) is pushed again at its cost.
    """

    def __init__(self, rows: dict, cols: dict):
        self.rows, self.cols = rows, cols
        self.live: set = set()
        self.heap: list = []

    def cost(self, i, j) -> int:
        return (len(self.rows[i]) - 1) * (len(self.cols[j]) - 1)

    def push(self, i, j):
        self.live.add((i, j))
        heapq.heappush(self.heap, (self.cost(i, j), i, j))

    def discard(self, i, j):
        self.live.discard((i, j))

    def shrunk(self, rows, cols):
        """Push again the candidates of rows and columns that lost entries."""
        live, heap = self.live, self.heap
        for r in rows:
            for b in self.rows.get(r, ()):
                if (r, b) in live:
                    heapq.heappush(heap, (self.cost(r, b), r, b))
        for b in cols:
            for r in self.cols.get(b, ()):
                if (r, b) in live:
                    heapq.heappush(heap, (self.cost(r, b), r, b))

    def pop(self):
        """The cheapest candidate (i, j), removed; None when none is left."""
        heap = self.heap
        while heap:
            stored, i, j = heapq.heappop(heap)
            if (i, j) not in self.live:
                continue
            now = self.cost(i, j)
            if stored != now:
                heapq.heappush(heap, (now, i, j))
                continue
            self.live.discard((i, j))
            return i, j
        return None


def reduce_complex(C: ChainComplex) -> ChainComplex:
    """A smaller complex homotopy equivalent to C over R.

    Gaussian elimination with unit pivots (the unit-pivot reduction of
    algebraic Morse theory, Sköldberg, Trans. AMS 358 (2006)): for a
    nonzero constant entry u = d_n[i, j] between generators of equal
    internal degree, the pair (e_j, e_i) is cancelled.  Every other
    column b of d_n becomes col_b - (col_b[i] / u) col_j, row i of d_n
    and column j are dropped, row j of d_{n+1} and column i of d_{n-1}
    are dropped.  Pivots are taken by least Markowitz cost (row count - 1)
    * (column count - 1) (Markowitz, Management Sci. 3 (1957)), ties by
    (i, j), one degree at a time from the bottom; dropping rows and
    columns never creates a unit, so a finished degree stays finished.
    The candidates sit in a lazily invalidated heap (``_PivotHeap``) that
    pops exactly the candidate a full scan for min((cost, i, j)) would
    pick, so the pivot order, and the result, are those of that scan.
    Homogeneity is kept, and the result has no unit entries left: on
    homogeneous input it is the minimal complex.
    """
    return _reduce_complex(C, _PivotHeap)


def _reduce_complex(C: ChainComplex, pivots) -> ChainComplex:
    """reduce_complex; ``pivots(rows, cols)`` makes each degree's candidate
    queue (``push``, ``discard``, ``shrunk``, ``pop`` as in ``_PivotHeap``).
    The entries it makes come from one ``EntryPool``, so each distinct
    product, sum and scalar multiple is computed once."""
    field = C.ring.field
    pool = EntryPool()
    cols = {
        n: {j: dict(d.col(j)) for j in range(d.source.rank) if d.col(j)}
        for n, d in C.diffs.items()
    }
    rows = {n: {} for n in cols}
    for n, cn in cols.items():
        for j, col in cn.items():
            for i in col:
                rows[n].setdefault(i, set()).add(j)
    alive = {n: set(range(C.module(n).rank)) for n in C.modules}

    for n in sorted(cols):
        cn, rn = cols[n], rows[n]
        sdeg, tdeg = C.module(n).degrees, C.module(n - 1).degrees

        def is_pivot(i, j, q):
            return q.is_unit() and sdeg[j] == tdeg[i]

        cand = pivots(rn, cn)
        for j, col in cn.items():
            for i, q in col.items():
                if is_pivot(i, j, q):
                    cand.push(i, j)
        while (pivot := cand.pop()) is not None:
            i, j = pivot
            cj = cn.pop(j)
            for r in cj:
                rn[r].discard(j)
                cand.discard(r, j)
            ratio = field.neg(field.inv(cj.pop(i).leading()[1]))
            row_i = rn.pop(i)
            for b in row_i:
                cb = cn[b]
                cand.discard(i, b)
                factor = pool.scale(cb.pop(i), ratio)
                for r, p in cj.items():
                    q = pool.mul(factor, p)
                    if r in cb:
                        q = pool.add(q, cb[r])
                    if q.is_zero():
                        del cb[r]
                        rn[r].discard(b)
                        cand.discard(r, b)
                        continue
                    cb[r] = q
                    rn.setdefault(r, set()).add(b)
                    if is_pivot(r, b, q):
                        cand.push(r, b)
                    else:
                        cand.discard(r, b)
                if not cb:
                    del cn[b]
            cand.shrunk(cj, row_i)
            if n + 1 in cols:
                above = cols[n + 1]
                for b in rows[n + 1].pop(j, ()):
                    del above[b][j]
                    if not above[b]:
                        del above[b]
            if n - 1 in cols:
                for r in cols[n - 1].pop(i, {}):
                    rows[n - 1][r].discard(i)
            alive[n].discard(j)
            alive[n - 1].discard(i)

    modules, index = {}, {}
    for n, keep in alive.items():
        keep = sorted(keep)
        index[n] = {old: new for new, old in enumerate(keep)}
        modules[n] = LabeledFreeModule(C.ring, [C.module(n).labels[old] for old in keep])
    diffs = {
        n: MapMatrix(
            modules[n],
            modules[n - 1],
            {index[n][j]: {index[n - 1][i]: q for i, q in col.items()} for j, col in cn.items()},
        )
        for n, cn in cols.items()
    }
    return ChainComplex(C.ring, modules, diffs)


# --- graded homology engine ------------------------------------------------


@dataclass
class GradedDegree:
    dims: dict = dc_field(default_factory=dict)  # internal degree t -> dim_k
    total: int = 0
    annihilator_ok: dict = dc_field(default_factory=dict)  # str(poly) -> bool
    stabilized: bool = True
    ri_rank: int | None = None


@dataclass
class HomologyReport:
    engine: str
    t_max: int
    degrees: dict = dc_field(default_factory=dict)  # k -> GradedDegree
    euler_ok: bool = True

    def rank_vector(self, ks) -> list:
        """Ranks over R/I; None where a degree's rank is not certified."""
        return [0 if k not in self.degrees else self.degrees[k].ri_rank for k in ks]

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "t_max": self.t_max,
            "per_degree": {
                str(k): {
                    "dims": {str(t): v for t, v in sorted(d.dims.items())},
                    "total": d.total,
                    "annihilators_zero": d.annihilator_ok,
                    "stabilized": d.stabilized,
                    "ri_rank": d.ri_rank,
                }
                for k, d in sorted(self.degrees.items())
            },
            "euler_ok": self.euler_ok,
        }


def homology_graded(C: ChainComplex, t_max: int, annihilators=None) -> HomologyReport:
    """Per-degree, per-internal-degree homology dimensions over the field.

    The complex is first cut down by ``reduce_complex``; the report keeps
    a key for every degree of the input.  At each internal degree t the
    slice basis of every C_k is built once and serves as d_k's source and
    d_{k+1}'s target; the rank of d_k is ``fieldla.sparse_rank`` of its
    ``slice_columns``.  The Euler check counts the slices of the *input*
    complex, so a reduction that loses homology shows.  ``annihilators``
    defaults to the ring's regular sequence; each generator f must induce
    zero on H_k wherever H_k is nonzero (``_induced_rank``, with the
    loop's ranks; those past t_max are ranked when first needed).
    """
    ring = C.ring
    field = ring.field
    if ring.nvars and not C.is_homogeneous():
        raise NonHomogeneousComplex("complex is not homogeneous; use homology_groebner")
    if annihilators is None:
        annihilators = list(ring.regular_sequence or [])

    quotient = _quotient_hilbert(ring, annihilators, t_max) if annihilators else None
    ks = list(C.support())
    input_degrees = {k: Counter(C.module(k).degrees) for k in ks}
    C = reduce_complex(C)
    report = HomologyReport(engine="graded", t_max=t_max)
    for k in ks:
        report.degrees[k] = GradedDegree()

    ranks = {}  # (k, t) -> rank of d_k at t
    for t in range(0, t_max + 1):
        bases = {k: slice_basis(C.module(k), t) for k in ks}  # d_k's source, d_{k+1}'s target
        for k in ks:
            ranks[k, t] = _slice_rank(field, C.diff(k), bases[k], bases.get(k - 1, ()))
        lhs = rhs = 0
        for k in ks:
            dim_h = len(bases[k]) - ranks[k, t] - ranks.get((k + 1, t), 0)
            if dim_h < 0:
                raise RuntimeError(f"negative homology dimension at (k, t) = ({k}, {t})")
            lhs += (-1) ** k * dim_h
            rhs += (-1) ** k * _slice_dim(input_degrees[k], ring.nvars, t)
            if dim_h:
                deg = report.degrees[k]
                deg.dims[t] = dim_h
                deg.total += dim_h
        report.euler_ok = report.euler_ok and lhs == rhs

    def rank(k, t):
        if (k, t) not in ranks:
            bases = (slice_basis(C.module(k), t), slice_basis(C.module(k - 1), t))
            ranks[k, t] = _slice_rank(field, C.diff(k), *bases)
        return ranks[k, t]

    for k in ks:
        deg = report.degrees[k]
        deg.stabilized = all(deg.dims.get(t, 0) == 0 for t in (t_max - 1, t_max))
        for f in annihilators:
            fdeg = f.degree()
            mult = MapMatrix(C.module(k), C.module(k), provider=lambda j, f=f: {j: f})
            deg.annihilator_ok[str(f)] = all(
                not _induced_rank(C, C, mult, k, t, t + fdeg, ranks[k, t], rank(k + 1, t + fdeg), h)
                for t, h in deg.dims.items()
            )
        if deg.stabilized and all(deg.annihilator_ok.values()) and annihilators:
            deg.ri_rank = _free_rank(deg, *quotient)
    return report


def _slice_rank(field, d: MapMatrix, src_basis, tgt_basis) -> int:
    """Rank of d restricted to the slice with these source and target bases."""
    if not src_basis or not tgt_basis:
        return 0
    return fieldla.sparse_rank(field, slice_columns(d, src_basis, slice_positions(tgt_basis)))


def _slice_dim(degrees: Counter, nvars: int, t: int) -> int:
    """Dimension at t of a free module with ``degrees[d]`` labels of degree d: each
    has comb(m + nvars - 1, m) monomials of degree m = t - d (just m = 0 if nvars = 0)."""
    return sum(c * comb(max(t - d + nvars - 1, 0), t - d) for d, c in degrees.items() if t >= d)


def _induced_rank(A, B, g, k, s, t, rank_a, rank_b, dim_h) -> int:
    """Rank of the map H_k(A)_s -> H_k(B)_t that g: A_k -> B_k induces.

    g must send cycles to cycles and boundaries to boundaries (a chain
    map, or multiplication by a ring element).  The mapping cone's slice
    [[d^A_k(s), 0], [g, d^B_{k+1}(t)]] then has rank rank_a + rank_b +
    rank H_k(g), with rank_a = rank d^A_k(s), rank_b = rank d^B_{k+1}(t):
    a complement of the cycles Z in A_k(s) adds rank_a, and Z leaves
    [g Z | d^B_{k+1}], of rank rank_b + dim (g Z + B) / B.  Its rows are
    B_k(t), then A_{k-1}(s).  A result outside 0..dim_h = dim H_k(A)_s
    means the ranks handed in are wrong and raises ``RuntimeError``.
    """
    src = slice_basis(A.module(k), s)
    rows = slice_positions(slice_basis(B.module(k), t))
    below = {pair: len(rows) + pos for pos, pair in enumerate(slice_basis(A.module(k - 1), s))}
    cone = chain(
        map(dict.__or__, slice_columns(g, src, rows), slice_columns(A.diff(k), src, below)),
        slice_columns(B.diff(k + 1), slice_basis(B.module(k + 1), t), rows),
    )
    induced = fieldla.sparse_rank(A.ring.field, cone) - rank_a - rank_b
    if not 0 <= induced <= dim_h:
        raise RuntimeError(f"induced rank {induced} at (k, s, t) = {k, s, t} is not in 0..{dim_h}")
    return induced


def _quotient_hilbert(ring, ideal, t_max):
    """(Hilbert function of R/I in degrees 0..t_max, dim_k R/I), R/I finite."""
    gens = [gb_mod.from_map_column({0: f}) for f in ideal]
    gb = gb_mod.buchberger(gens, 1, ring, basis_only=True)
    pres = gb_mod.Presentation(1, gb, gen_degrees=(0,))
    finite, dim = gb_mod.quotient_dim(pres)
    if not finite:
        raise NotImplementedError(
            "ranks over R/I are certified only where R/I is finite-dimensional"
        )
    return gb_mod.hilbert_dims(pres, t_max), dim


def _free_rank(deg: GradedDegree, h, dim_quotient):
    """Rank over R/I of the homology, if its dims are those of a free module.

    Peels generator counts c_t = dims(t) - sum_{s<t} c_s h(t-s) off the
    dims table; the rank sum(c_t) stands only when every c_t >= 0 and
    sum(c_t) * dim_k(R/I) is the total.
    """
    c = {}
    for t in range(len(h)):
        c_t = deg.dims.get(t, 0) - sum(c_s * h[t - s] for s, c_s in c.items())
        if c_t < 0:
            return None
        if c_t:
            c[t] = c_t
    rank = sum(c.values())
    if rank and rank * dim_quotient != deg.total:
        return None
    return rank


# --- Groebner homology engine ----------------------------------------------


def homology_groebner(C: ChainComplex, k: int) -> gb_mod.Presentation:
    """Presentation of H_k: kernel generators modulo lifted boundaries."""
    ring = C.ring
    module_k = C.module(k)
    if k <= C.lo:
        kernel = [
            {(i, (0,) * ring.nvars): ring.field.one} for i in range(module_k.rank)
        ]
    else:
        cols = [gb_mod.from_map_column(C.diff(k).col(j)) for j in range(module_k.rank)]
        kernel, _ = gb_mod.kernel_of_columns(cols, C.module(k - 1).rank, ring)
    gen_degs = tuple(_element_degree(module_k, v) for v in kernel)
    if not kernel:
        empty = gb_mod.buchberger([], 0, ring)
        pres = gb_mod.Presentation(0, empty, gen_degrees=())
        gb_mod.quotient_dim(pres)
        return pres
    gb_k = gb_mod.buchberger([dict(v) for v in kernel], module_k.rank, ring)
    relations = list(gb_k.input_syzygies)
    if k + 1 <= C.hi:
        for j in range(C.module(k + 1).rank):
            v = gb_mod.from_map_column(C.diff(k + 1).col(j))
            rem, expr = gb_mod.normal_form_with_cofactors(v, gb_k)
            if not gb_mod.elem_is_zero(rem):
                raise RuntimeError("boundary not contained in kernel: broken complex")
            if not gb_mod.elem_is_zero(expr):
                relations.append(expr)
    rel_gb = gb_mod.buchberger(relations, len(kernel), ring, basis_only=True)
    pres = gb_mod.Presentation(len(kernel), rel_gb, gen_degrees=gen_degs)
    gb_mod.quotient_dim(pres)
    return pres


def _element_degree(module, v: dict) -> int:
    degs = {module.degrees[pos] + sum(mono) for (pos, mono) in v}
    return max(degs) if degs else 0


def homology_groebner_report(C: ChainComplex, t_max: int, annihilators=None) -> HomologyReport:
    """Groebner-engine report mirroring the graded report's shape."""
    ring = C.ring
    if annihilators is None:
        annihilators = list(ring.regular_sequence or [])
    report = HomologyReport(engine="groebner", t_max=t_max)
    for k in C.support():
        pres = homology_groebner(C, k)
        deg = GradedDegree()
        dims = gb_mod.hilbert_dims(pres, t_max)
        deg.dims = {t: d for t, d in enumerate(dims) if d}
        deg.total = pres.dim if pres.finite else sum(dims)
        deg.stabilized = pres.finite
        for f in annihilators:
            deg.annihilator_ok[str(f)] = gb_mod.annihilates(pres, f)
        if pres.finite and all(deg.annihilator_ok.values()) and annihilators:
            deg.ri_rank = pres.dim
        report.degrees[k] = deg
    return report


def engines_agree(C: ChainComplex, t_max: int) -> bool:
    """Per-degree, per-internal-degree agreement of the two engines."""
    gr = homology_graded(C, t_max)
    go = homology_groebner_report(C, t_max)
    for k in C.support():
        a = gr.degrees.get(k, GradedDegree()).dims
        b = go.degrees.get(k, GradedDegree()).dims
        if {t: v for t, v in a.items() if v} != {t: v for t, v in b.items() if v}:
            return False
        g = go.degrees[k]
        if g.stabilized and g.total != gr.degrees[k].total:
            return False
    return True


# --- chain maps and quasi-isomorphisms --------------------------------------


class ChainMap:
    def __init__(self, source: ChainComplex, target: ChainComplex, maps: dict):
        self.source = source
        self.target = target
        self.maps = maps

    def map_at(self, n: int) -> MapMatrix:
        m = self.maps.get(n)
        if m is None:
            m = zero_map(self.source.module(n), self.target.module(n))
        return m

    def is_chain_map(self) -> bool:
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for n in range(lo, hi + 1):
            lhs = self.target.diff(n).compose(self.map_at(n))
            rhs = self.map_at(n - 1).compose(self.source.diff(n))
            if not lhs.equals(rhs):
                return False
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        maps = {}
        lo = min(self.source.lo, other.source.lo)
        hi = max(self.source.hi, other.source.hi)
        for n in range(lo, hi + 1):
            maps[n] = self.map_at(n).compose(other.map_at(n))
        return ChainMap(other.source, self.target, maps)


def is_quasi_iso(cm: ChainMap, t_max: int, k_max: int | None = None, reports=None) -> bool:
    """Equal graded homology dims and induced bijections on every slice.

    ``cm`` must be a chain map (check ``is_chain_map`` first): it then
    sends cycles to cycles and boundaries to boundaries, and the map it
    induces on each nonzero H_k(t) (``_induced_rank``, with the
    differentials' ranks read off the dims) must have rank dim H_k(t).
    ``k_max`` bounds the compared homological degrees; use it when the
    complexes are truncations whose top degree is an artifact.
    ``reports``, when given, are homology_graded(source) and
    homology_graded(target) at this t_max, already computed by the caller
    (only their dims are read).
    """
    src, tgt = cm.source, cm.target
    if reports is None:
        reports = [homology_graded(C, t_max, annihilators=[]) for C in (src, tgt)]
    hs, ht = reports
    ks = sorted(set(hs.degrees) | set(ht.degrees))
    if k_max is not None:
        ks = [k for k in ks if k <= k_max]
    for k in ks:
        a = hs.degrees.get(k, GradedDegree()).dims
        b = ht.degrees.get(k, GradedDegree()).dims
        if a != b:
            return False
    for k in ks:
        for t, dim_h in hs.degrees.get(k, GradedDegree()).dims.items():
            rank_a, rank_b = _boundary_rank(src, hs, k, t), _boundary_rank(tgt, ht, k + 1, t)
            if _induced_rank(src, tgt, cm.map_at(k), k, t, t, rank_a, rank_b, dim_h) != dim_h:
                return False
    return True


def _boundary_rank(C: ChainComplex, report: HomologyReport, k: int, t: int) -> int:
    """Rank of d_k at t: rank d_{j+1} = dim C_j - dim H_j - rank d_j, from 0."""
    rank = 0
    for j in range(C.lo, k):
        dim_h = report.degrees.get(j, GradedDegree()).dims.get(t, 0)
        rank = _slice_dim(Counter(C.module(j).degrees), C.ring.nvars, t) - dim_h - rank
    return rank
