"""Koszul and co-Koszul complexes of a map between free modules.

Kos^n(f: P -> Q) has degree-k part Lambda^k P (x) Sym^{n-k} Q and the
contraction differential

  p_1^...^p_{k+1} (x) s  |->  sum_i (-1)^(k+1-i) p_1^..^p_i-hat^..^p_{k+1} (x) f(p_i)s.

The co-Koszul complex is the dual of Kos^n(f*), reindexed as a chain
complex whose degree-j part is Lambda^{n-j} Q (x) D^j P (so its top
nonzero degree is n); on rank-one modules this reproduces the shifted
two-term complex the Sym/Lambda comparison expects.
"""

from __future__ import annotations

from .complexes import ChainComplex, total_complex
from .functors import div_module, ext_module, sym_module
from .linear import (
    LabeledFreeModule,
    MapMatrix,
    atom,
    div as div_label,
    dual_map,
    sym,
    tens,
    tensor_modules,
    wedge,
)
from .ring import Poly, RingDescriptor


def koszul_complex(f: MapMatrix, n: int) -> ChainComplex:
    P, Q = f.source, f.target
    ring = P.ring
    modules = {}
    for k in range(n + 1):
        W = ext_module(P, k)
        S = sym_module(Q, n - k)
        if W.rank and S.rank:
            modules[k] = tensor_modules([W, S])
    diffs = {}
    for k in range(1, n + 1):
        if k not in modules or k - 1 not in modules:
            continue
        src, tgt = modules[k], modules[k - 1]
        cols = {}
        for cidx, lab in enumerate(src.labels):
            wl, sl = lab[1]
            wparts = wl[1]
            sparts = sl[1]
            col: dict = {}
            for i, p in enumerate(wparts):
                sign = -1 if (len(wparts) - 1 - i) % 2 else 1
                rest = wparts[:i] + wparts[i + 1 :]
                pidx = P.index(p)
                for qidx, poly in f.col(pidx).items():
                    qlab = Q.labels[qidx]
                    tlab = tens((wedge(rest)[1] if rest else wedge(())[1], sym(sparts + (qlab,))))
                    ti = tgt.index(tlab)
                    term = poly.scale(sign)
                    cur = col.get(ti)
                    col[ti] = term if cur is None else cur + term
            col = {i2: q for i2, q in col.items() if not q.is_zero()}
            if col:
                cols[cidx] = col
        diffs[k] = MapMatrix(src, tgt, cols)
    return ChainComplex(ring, modules, diffs)


def cokoszul_complex(f: MapMatrix, n: int) -> ChainComplex:
    """Dual of Kos^n(f*): degree j holds Lambda^{n-j} Q (x) D^j P."""
    P, Q = f.source, f.target
    ring = P.ring
    M = koszul_complex(dual_map(f), n)
    # dual basis of Lambda^k Q* (x) Sym^{n-k} P*  ~  Lambda^k Q (x) D^{n-k} P
    modules = {}
    relabel = {}
    for k in range(n + 1):
        W = ext_module(Q, k)
        D = div_module(P, n - k)
        if W.rank == 0 or D.rank == 0:
            continue
        j = n - k
        mod = tensor_modules([W, D])
        modules[j] = mod
        src = M.module(k)
        mapping = []
        for lab in src.labels:
            wl, sl = lab[1]
            qs = tuple(q[1] for q in wl[1])  # unwrap dual labels
            ps = tuple(p[1] for p in sl[1])
            primal = tens((wedge(qs)[1], div_label(ps)))
            mapping.append(mod.index(primal))
        relabel[k] = mapping
    diffs = {}
    for j in range(1, n + 1):
        if j not in modules or j - 1 not in modules:
            continue
        k = n - j  # M-degree paired with co-degree j
        D = M.diff(k + 1)  # M_{k+1} -> M_k
        src, tgt = modules[j], modules[j - 1]
        cols: dict = {}
        map_src = relabel[k]      # rows of D -> labels of modules[j]
        map_tgt = relabel[k + 1]  # cols of D -> labels of modules[j-1]
        for c in range(D.source.rank):
            for r, poly in D.col(c).items():
                cols.setdefault(map_src[r], {})[map_tgt[c]] = poly
        diffs[j] = MapMatrix(src, tgt, cols)
    return ChainComplex(ring, modules, diffs)


def two_term_complex(f: MapMatrix) -> ChainComplex:
    """The map f: P -> Q as a complex concentrated in degrees 1 and 0."""
    return ChainComplex(f.source.ring, {0: f.target, 1: f.source}, {1: f})


def cyclic_two_term(ring: RingDescriptor, name: str, f: Poly, deg: int | None = None) -> ChainComplex:
    """R(-deg) --f--> R as a two-term complex with basis labels name1, name0.

    ``deg`` defaults to the degree of f, so the differential is homogeneous
    of degree 0 whenever f is homogeneous.
    """
    M0 = LabeledFreeModule(ring, [atom(f"{name}0", 0)])
    M1 = LabeledFreeModule(ring, [atom(f"{name}1", max(f.degree(), 0) if deg is None else deg)])
    return two_term_complex(MapMatrix(M1, M0, {0: {0: f}}))


def regular_sequence_resolution(ring: RingDescriptor) -> ChainComplex:
    """Koszul resolution of R/(regular sequence), as Tot of two-term pieces.

    Length 1 gives (R -> R, f); length 2 gives Tot(K (x) L) and checks
    the explicit isomorphism with Kos^2 of (f,g): R^2 -> R.
    """
    if not ring.regular_sequence:
        raise ValueError("ring has no configured regular sequence")
    pieces = [cyclic_two_term(ring, name, f) for name, f in zip("kl", ring.regular_sequence)]
    if len(pieces) == 1:
        return pieces[0]
    T = total_complex(pieces[0], pieces[1])
    _check_koszul_match(ring, T)
    return T


def _check_koszul_match(ring: RingDescriptor, T: ChainComplex):
    """Verify Tot(K (x) L) is isomorphic to Kos^2((f,g): R^2 -> R)."""
    f, g = ring.regular_sequence
    P = LabeledFreeModule(
        ring, [atom("p1", max(f.degree(), 0)), atom("p2", max(g.degree(), 0))]
    )
    Q = LabeledFreeModule(ring, [atom("q", 0)])
    fg = MapMatrix(P, Q, {0: {0: f}, 1: {0: g}})
    kos = koszul_complex(fg, 2)
    if kos.ranks() != T.ranks():
        raise RuntimeError("Koszul comparison: rank mismatch")
    # explicit basis matching: degree 1 sends K1(x)L0 -> p1, K0(x)L1 -> p2,
    # degree 2 sends K1(x)L1 -> -(p1^p2); degree 0 matches the generators
    iso = {
        0: MapMatrix(T.module(0), kos.module(0), {0: {0: ring.one()}}),
        1: MapMatrix(
            T.module(1),
            kos.module(1),
            {0: {1: ring.one()}, 1: {0: ring.one()}},
        ),
        2: MapMatrix(T.module(2), kos.module(2), {0: {0: ring.const(-1)}}),
    }
    for n in (1, 2):
        lhs = iso[n - 1].compose(T.diff(n))
        rhs = kos.diff(n).compose(iso[n])
        if not lhs.equals(rhs):
            raise RuntimeError(f"Koszul comparison: square {n} does not commute")
