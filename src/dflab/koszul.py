"""Koszul and co-Koszul complexes of a map between free modules.

Kos^n(f: P -> Q) has degree-k part Lambda^k P (x) Sym^{n-k} Q and the
contraction differential

  p_1^...^p_{k+1} (x) s  |->  sum_i (-1)^(k+1-i) p_1^..^p_i-hat^..^p_{k+1} (x) f(p_i)s.

The co-Koszul complex has degree-j part Lambda^{n-j} Q (x) D^j P (so its
top nonzero degree is n) and is written down by its formula (see
``cokoszul_complex``), the transpose of Kos^n(f^T)'s differential; on
rank-one modules it is the shifted two-term complex the Sym/Lambda
comparison expects.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

from .complexes import ChainComplex, total_complex
from .functors import div_module, ext_module, sym_module
from .linear import (
    LabeledFreeModule,
    MapMatrix,
    atom,
    div as div_label,
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
    """Degree j holds Lambda^{n-j} Q (x) D^j P; the differential is

      w (x) p^(alpha)  |->  sum_{q not in w} sum_{distinct p in alpha}
                            (-1)^(k-i) f[q, p] (w ^ q) (x) p^(alpha - p),

    with k = |w| and i the 0-based position of q in w ^ q: the transpose
    of the differential of Kos^n(f^T: Q -> P).
    """
    P, Q = f.source, f.target
    modules = {}
    for j in range(n + 1):
        W, D = ext_module(Q, n - j), div_module(P, j)
        if W.rank and D.rank:
            modules[j] = tensor_modules([W, D])
    diffs = {}
    for j in range(1, n + 1):
        if j not in modules or j - 1 not in modules:
            continue
        src, tgt = modules[j], modules[j - 1]
        cols = {}
        for c, lab in enumerate(src.labels):
            (_, w, _), (_, alpha, _) = lab[1]
            col = {}
            for p in dict.fromkeys(alpha):
                rest = list(alpha)
                rest.remove(p)
                rest = div_label(rest)
                for qidx, poly in f.col(P.index(p)).items():
                    wq = wedge(w + (Q.labels[qidx],))  # sign (-1)^(k-i); None if q is in w
                    if wq is not None:
                        col[tgt.index(tens((wq[1], rest)))] = poly.scale(wq[0])
            col = {i: e for i, e in sorted(col.items()) if not e.is_zero()}
            if col:
                cols[c] = col
        diffs[j] = MapMatrix(src, tgt, cols)
    return ChainComplex(P.ring, modules, diffs)


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
    """Koszul resolution of R/(f_1..f_d), as Tot of the two-term pieces.

    The pieces are named k, l, m, ... in sequence order; the result is
    checked against Kos^d of (f_1..f_d): R^d -> R.
    """
    if not ring.regular_sequence:
        raise ValueError("ring has no configured regular sequence")
    pieces = [
        cyclic_two_term(ring, chr(ord("k") + i), f) for i, f in enumerate(ring.regular_sequence)
    ]
    T = reduce(total_complex, pieces)
    _check_koszul_match(ring, pieces, T)
    return T


def _check_koszul_match(ring: RingDescriptor, pieces, T: ChainComplex):
    """Verify T = Tot(pieces) is isomorphic to Kos^d((f_1..f_d): R^d -> R).

    Kos^d is built on P = the pieces' degree-1 generators p_i.  The basis
    element of T whose degree-1 factors are the pieces in S goes to
    (-1)^(|S|(|S|-1)/2) times the wedge of the p_i, i in S.
    """
    d = len(pieces)
    P = LabeledFreeModule(ring, [C.module(1).labels[0] for C in pieces])
    q = atom("q", 0)
    fs = {i: {0: f} for i, f in enumerate(ring.regular_sequence)}
    kos = koszul_complex(MapMatrix(P, LabeledFreeModule(ring, [q]), fs), d)
    if kos.ranks() != T.ranks():
        raise RuntimeError("Koszul comparison: rank mismatch")
    iso = {}
    for n in range(d + 1):
        cols = {}
        sign_n = (-1) ** (n * (n - 1) // 2)
        for S in combinations(range(d), n):
            factors = [C.module(int(i in S)).labels[0] for i, C in enumerate(pieces)]
            label = reduce(lambda a, b: tens((a, b)), factors)
            sign, w = wedge([P.labels[i] for i in S])
            target = kos.module(n).index(tens((w, sym((q,) * (d - n)))))
            cols[T.module(n).index(label)] = {target: ring.const(sign * sign_n)}
        iso[n] = MapMatrix(T.module(n), kos.module(n), cols)
    for n in range(1, d + 1):
        lhs = iso[n - 1].compose(T.diff(n))
        rhs = kos.diff(n).compose(iso[n])
        if not lhs.equals(rhs):
            raise RuntimeError(f"Koszul comparison: square {n} does not commute")
