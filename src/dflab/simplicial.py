"""Truncated simplicial modules and the Dold-Kan machinery.

The level-building functor sends a nonnegatively supported complex C to
the simplicial module whose level n is one copy of C_k for every
weakly monotone surjection [n] ->> [k] (stored by its jump set).  A
monotone operator acts on the copy indexed by s through the epi-monic
factorization of s composed with the operator: identity when the monic
part is the identity, the differential of C when the monic part omits
the bottom element 0, zero otherwise.  With the bottom-omission
convention the normalized complex of the construction IS C, with
identity matrices, which the test suite pins down.

Normalization uses the quotient model: levels are cut down to the
non-degenerate coordinates (degeneracies here are signed basis
injections, which the builders preserve), and the differential is the
alternating face sum followed by deletion of degenerate coordinates.

Which coordinates are degenerate is decided from the labels.  A copy
gam(J, v) at level n lies in the image of s_j exactly when j is not in
J.  The diagonal tensor and the pointwise functors act on labels built
from such leaves by basis injections, so a label is in the image of s_j
exactly when j is in none of its leaves' jump sets: it is degenerate
exactly when the union of those jump sets is not {0, ..., n-1}.  This
is the normalization theorem for a simplicial module whose basis is
closed under degeneracies (May, Simplicial Objects in Algebraic
Topology, 22; Goerss-Jardine, Simplicial Homotopy Theory, III.2).
``gamma``, ``diagonal_tensor`` and ``apply_pointwise_functor`` record
that union per label as a bitmask, and ``normalize`` keeps the labels
whose mask is full.  A module without masks (one built directly, or
one whose degeneracy maps were replaced after construction) takes the
matrix path instead: ``degenerate_indices`` evaluates every degeneracy
column and checks that it is a signed basis injection.  The test suite
checks the masks against that path.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import ChainComplex, ChainMap, total_complex, truncate
from .functors import FunctorTag, functor_module, functor_on_map, functor_parts
from .linear import (
    LabeledFreeModule,
    MapMatrix,
    gam,
    identity_map,
    label_key,
    tens,
    tensor_maps,
    tensor_modules,
    zero_map,
)


class SimplicialModule:
    """Degreewise free modules with faces and degeneracies up to n_max.

    ``masks``, given only by the constructors below, holds for every level
    n one int per basis label: the union of its leaves' jump sets, as a
    bitmask over the gaps 0..n-1.  It describes the degeneracies given
    with it, so it is used only while every degeneracy is still that map.
    """

    def __init__(
        self, ring, n_max: int, levels: dict, faces: dict, degeneracies: dict, masks=None
    ):
        self.ring = ring
        self.n_max = n_max
        self.levels = levels
        self.faces = faces  # (n, i): level n -> n-1
        self.degeneracies = degeneracies  # (n, j): level n -> n+1
        self._masks = masks
        self._masked = dict(degeneracies)  # the maps the masks describe

    def jump_masks(self) -> dict | None:
        """The masks, or None when there are none or a degeneracy was replaced."""
        if self._masks is None or self.degeneracies.keys() != self._masked.keys():
            return None
        if any(self.degeneracies[key] is not s for key, s in self._masked.items()):
            return None
        return self._masks

    def level(self, n: int) -> LabeledFreeModule:
        return self.levels[n]

    def face(self, n: int, i: int) -> MapMatrix:
        return self.faces[(n, i)]

    def degeneracy(self, n: int, j: int) -> MapMatrix:
        return self.degeneracies[(n, j)]

    def validate(self, up_to: int | None = None) -> bool:
        """Check every simplicial identity inside the truncation window."""
        top = self.n_max if up_to is None else min(up_to, self.n_max)
        for n in range(2, top + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.face(n - 1, i).compose(self.face(n, j))
                    rhs = self.face(n - 1, j - 1).compose(self.face(n, i))
                    if not lhs.equals(rhs):
                        return False
        for n in range(0, top - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    lhs = self.degeneracy(n + 1, i).compose(self.degeneracy(n, j))
                    rhs = self.degeneracy(n + 1, j + 1).compose(self.degeneracy(n, i))
                    if not lhs.equals(rhs):
                        return False
        for n in range(0, top):
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self.face(n + 1, i).compose(self.degeneracy(n, j))
                    if i == j or i == j + 1:
                        ok = lhs.equals(identity_map(self.level(n)))
                    elif i < j:
                        ok = lhs.equals(self.degeneracy(n - 1, j - 1).compose(self.face(n, i)))
                    else:
                        ok = lhs.equals(self.degeneracy(n - 1, j).compose(self.face(n, i - 1)))
                    if not ok:
                        return False
        return True


# --- the level-building functor (complex -> simplicial) ---------------------


def _jumps_of(values) -> tuple:
    return tuple(t for t in range(len(values) - 1) if values[t + 1] > values[t])


def functor_masks(tag: FunctorTag, masks) -> list:
    """Masks of the labels of F(V) from the masks of V's labels."""
    out = []
    for parts in functor_parts(tag, len(masks)):
        m = 0
        for i in parts:
            m |= masks[i]
        out.append(m)
    return out


def tensor_masks(mask_lists) -> list:
    """Masks of the labels of a tensor_modules product from its factors'."""
    out = [0]
    for masks in mask_lists:
        out = [a | b for a in out for b in masks]
    return out


def gamma(C: ChainComplex, n_max: int) -> SimplicialModule:
    """Simplicial module of the complex C, truncated at n_max."""
    if C.lo < 0:
        raise ValueError("complex must be supported in degrees >= 0")
    ring = C.ring
    degrees = [k for k in C.support() if C.module(k).rank > 0]
    levels, masks = {}, {}
    for n in range(n_max + 1):
        labels = []
        for k in degrees:
            if k > n:
                continue
            for J in combinations(range(n), k):
                labels.extend(gam(J, v) for v in C.module(k).labels)
        labels.sort(key=label_key)
        levels[n] = LabeledFreeModule(ring, labels)
        masks[n] = [sum(1 << t for t in lab[1]) for lab in labels]

    def structure_map(n: int, alpha_values) -> MapMatrix:
        """Matrix of the operator with the given composite values [m] -> [n]."""
        m = len(alpha_values) - 1
        src, tgt = levels[n], levels[m]
        cols = {}
        for cidx, lab in enumerate(src.labels):
            J, v = lab[1], lab[2]
            k = len(J)
            sigma = [0] * (n + 1)
            for t in range(1, n + 1):
                sigma[t] = sigma[t - 1] + (1 if (t - 1) in J else 0)
            tvals = [sigma[a] for a in alpha_values]
            image = sorted(set(tvals))
            col = {}
            if image == list(range(k + 1)):
                tj = _jumps_of(tvals)
                col[tgt.index(gam(tj, v))] = ring.one()
            elif k >= 1 and image == list(range(1, k + 1)):
                tj = _jumps_of(tvals)
                vidx = C.module(k).index(v)
                for w, poly in C.diff(k).col(vidx).items():
                    wl = C.module(k - 1).labels[w]
                    col[tgt.index(gam(tj, wl))] = poly
            if col:
                cols[cidx] = col
        return MapMatrix(src, tgt, cols)

    faces = {}
    degeneracies = {}
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            vals = [t for t in range(n + 1) if t != i]
            faces[(n, i)] = structure_map(n, vals)
    for n in range(0, n_max):
        for j in range(n + 1):
            vals = list(range(j + 1)) + list(range(j, n + 1))
            degeneracies[(n, j)] = structure_map(n, vals)
    return SimplicialModule(ring, n_max, levels, faces, degeneracies, masks)


# --- normalization -----------------------------------------------------------


class DegeneracyShapeError(ValueError):
    """A degeneracy column is not a signed basis injection."""


def _signed_image(A: SimplicialModule, n: int, j: int, idx: int):
    """(row, sign) with s_j(e_idx) = sign * e_row for the degeneracy s_j
    of level n; DegeneracyShapeError unless the column is a single +-1."""
    col = A.degeneracy(n, j).col(idx)
    if len(col) != 1:
        raise DegeneracyShapeError(f"degeneracy s_{j} at level {n} is not monomial")
    (row, poly), = col.items()
    c = poly.terms.get((0,) * A.ring.nvars) if len(poly.terms) == 1 else None
    fld = A.ring.field
    if c == fld.one:
        return row, 1
    if c == fld.neg(fld.one):
        return row, -1
    raise DegeneracyShapeError("degeneracy entry is not +-1")


def degenerate_indices(A: SimplicialModule, n: int) -> set:
    """Rows of level n hit by some degeneracy; validates signed-monomial shape."""
    return {
        _signed_image(A, n - 1, j, c)[0] for j in range(n) for c in range(A.level(n - 1).rank)
    }


def normalize(A: SimplicialModule) -> ChainComplex:
    """Quotient of each level by the degenerate coordinates.

    With jump masks (see the module docstring) a label is kept exactly
    when its mask is full, and no degeneracy is evaluated.  Otherwise the
    degenerate coordinates are read off the degeneracy matrices, and
    DegeneracyShapeError is raised when those are not signed basis
    injections.
    """
    masks = A.jump_masks()
    nondeg = {}
    for n in range(A.n_max + 1):
        if masks is not None:
            full = (1 << n) - 1
            nondeg[n] = [i for i, m in enumerate(masks[n]) if m == full]
            continue
        deg_rows = degenerate_indices(A, n) if n else set()
        nondeg[n] = [i for i in range(A.level(n).rank) if i not in deg_rows]
    ring = A.ring
    modules = {}
    for n, keep in nondeg.items():
        modules[n] = LabeledFreeModule(ring, [A.level(n).labels[i] for i in keep])
    diffs = {}
    for n in range(1, A.n_max + 1):
        if modules[n].rank == 0 or modules[n - 1].rank == 0:
            continue
        keep_src = nondeg[n]
        pos_of = {row: p for p, row in enumerate(nondeg[n - 1])}
        cols = {}
        for cpos, c in enumerate(keep_src):
            acc: dict = {}
            for i in range(n + 1):
                for row, poly in A.face(n, i).col(c).items():
                    p = pos_of.get(row)
                    if p is None:
                        continue
                    term = poly if i % 2 == 0 else -poly
                    cur = acc.get(p)
                    acc[p] = term if cur is None else cur + term
            acc = {p: q for p, q in acc.items() if not q.is_zero()}
            if acc:
                cols[cpos] = acc
        diffs[n] = MapMatrix(modules[n], modules[n - 1], cols)
    return ChainComplex(ring, modules, diffs)


# --- diagonal tensor and pointwise functors ---------------------------------


def diagonal_tensor(As) -> SimplicialModule:
    """Diagonal of the multi-simplicial tensor: level n is the tensor of
    the levels n, faces and degeneracies act factorwise."""
    n_max = As[0].n_max
    if any(A.n_max != n_max for A in As):
        raise ValueError("mismatched truncation degrees")
    ring = As[0].ring
    levels = {n: tensor_modules([A.level(n) for A in As]) for n in range(n_max + 1)}
    faces = {}
    degeneracies = {}
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            maps = [A.face(n, i) for A in As]
            faces[(n, i)] = tensor_maps(maps, levels[n], levels[n - 1])
    for n in range(0, n_max):
        for j in range(n + 1):
            maps = [A.degeneracy(n, j) for A in As]
            degeneracies[(n, j)] = tensor_maps(maps, levels[n], levels[n + 1])
    factor_masks = [A.jump_masks() for A in As]
    masks = None
    if all(m is not None for m in factor_masks):
        masks = {n: tensor_masks([m[n] for m in factor_masks]) for n in range(n_max + 1)}
    return SimplicialModule(ring, n_max, levels, faces, degeneracies, masks)


def apply_pointwise_functor(tag: FunctorTag, A: SimplicialModule) -> SimplicialModule:
    levels = {n: functor_module(tag, A.level(n)) for n in range(A.n_max + 1)}
    faces = {}
    degeneracies = {}
    for n in range(1, A.n_max + 1):
        for i in range(n + 1):
            faces[(n, i)] = functor_on_map(tag, A.face(n, i), levels[n], levels[n - 1])
    for n in range(0, A.n_max):
        for j in range(n + 1):
            degeneracies[(n, j)] = functor_on_map(
                tag, A.degeneracy(n, j), levels[n], levels[n + 1]
            )
    inner = A.jump_masks()
    masks = None if inner is None else {n: functor_masks(tag, m) for n, m in inner.items()}
    return SimplicialModule(A.ring, A.n_max, levels, faces, degeneracies, masks)


# --- Eilenberg-Zilber comparison maps ----------------------------------------


def _nondeg_positions(A: SimplicialModule, NA: ChainComplex, n: int) -> dict:
    """level-label index -> coordinate in NA_n (quotient model)."""
    lv = A.level(n)
    return {lv.index(lab): p for p, lab in enumerate(NA.module(n).labels)}


def _apply_degeneracies_label(A: SimplicialModule, level: int, idx: int, positions):
    """Apply degeneracies at ascending absolute positions to a basis label."""
    coeff = 1
    for lv, pos in enumerate(sorted(positions), start=level):
        idx, sign = _signed_image(A, lv, pos, idx)
        coeff *= sign
    return idx, coeff


def _shuffle_sign(a_positions, b_positions) -> int:
    inv = sum(1 for s in b_positions for t in a_positions if s < t)
    return -1 if inv % 2 else 1


def _apply_face_vec(A: SimplicialModule, level: int, i: int, vec: dict) -> dict:
    out: dict = {}
    face = A.face(level, i)
    for idx, poly in vec.items():
        for row, q in face.col(idx).items():
            term = q * poly
            cur = out.get(row)
            out[row] = term if cur is None else cur + term
    return {r: q for r, q in out.items() if not q.is_zero()}


def _degreewise_map(S: ChainComplex, T: ChainComplex, top: int, column) -> ChainMap:
    """Chain map S -> T in degrees 0..top.

    ``column(n, label, tgt_pos)`` gives the image of a basis label of S_n
    as {row: poly}, where ``tgt_pos`` sends each label of T_n to its row.
    """
    maps = {}
    for n in range(top + 1):
        src, tgt = S.module(n), T.module(n)
        if src.rank == 0 or tgt.rank == 0:
            maps[n] = zero_map(src, tgt)
            continue
        tgt_pos = {lab: p for p, lab in enumerate(tgt.labels)}
        cols = {}
        for cidx, lab in enumerate(src.labels):
            col = {i: q for i, q in column(n, lab, tgt_pos).items() if not q.is_zero()}
            if col:
                cols[cidx] = col
        maps[n] = MapMatrix(src, tgt, cols)
    return ChainMap(S, T, maps)


def _ez_pair(A, NA, B, NB, D):
    """Shuffle and front/back-face maps between Tot(NA (x) NB), truncated
    at n_max, and N(D), where D is the diagonal of A (x) B with the label
    (a, b) of level n at index a * rank B_n + b."""
    ring = A.ring
    ND = normalize(D)
    tot = truncate(total_complex(NA, NB), A.n_max)
    top = min(tot.hi, A.n_max)
    na_pos = {p: _nondeg_positions(A, NA, p) for p in range(top + 1)}
    nb_pos = {q: _nondeg_positions(B, NB, q) for q in range(top + 1)}
    nd_pos = {n: _nondeg_positions(D, ND, n) for n in range(top + 1)}
    # label of NA_p or NB_q -> (p or q, index in the level)
    a_at = {NA.module(p).labels[c]: (p, i) for p, pos in na_pos.items() for i, c in pos.items()}
    b_at = {NB.module(q).labels[c]: (q, i) for q, pos in nb_pos.items() for i, c in pos.items()}

    def shuffle_column(n, lab, _):
        (p, a_idx), (q, b_idx) = a_at[lab[1][0]], b_at[lab[1][1]]
        rank_b = B.level(n).rank
        col: dict = {}
        for b_pos in combinations(range(n), q):
            a_pos = tuple(t for t in range(n) if t not in b_pos)
            ia, ca = _apply_degeneracies_label(A, p, a_idx, b_pos)
            ib, cb = _apply_degeneracies_label(B, q, b_idx, a_pos)
            row = nd_pos[n].get(ia * rank_b + ib)
            if row is None:
                continue
            coeff = ring.one().scale(_shuffle_sign(a_pos, b_pos) * ca * cb)
            cur = col.get(row)
            col[row] = coeff if cur is None else cur + coeff
        return col

    def aw_column(n, lab, tgt_pos):
        a_idx, b_idx = divmod(D.level(n).index(lab), B.level(n).rank)
        col: dict = {}
        for p in range(n + 1):
            q = n - p
            va = {a_idx: ring.one()}
            for lv in range(n, p, -1):
                va = _apply_face_vec(A, lv, lv, va)
            vb = {b_idx: ring.one()}
            for lv in range(n, q, -1):
                vb = _apply_face_vec(B, lv, 0, vb)
            for ra, qa in va.items():
                pa = na_pos[p].get(ra)
                if pa is None:
                    continue
                for rb, qb in vb.items():
                    pb = nb_pos[q].get(rb)
                    if pb is None:
                        continue
                    pair = tens((NA.module(p).labels[pa], NB.module(q).labels[pb]))
                    tpos = tgt_pos.get(pair)
                    if tpos is None:
                        continue
                    term = qa * qb
                    cur = col.get(tpos)
                    col[tpos] = term if cur is None else cur + term
        return col

    return _degreewise_map(tot, ND, top, shuffle_column), _degreewise_map(ND, tot, top, aw_column)


def _tot_map_left(f: ChainMap, src: ChainComplex, tgt: ChainComplex) -> ChainMap:
    """Tot(f (x) id_Z) from src = Tot(f.source (x) Z) to tgt = Tot(f.target (x) Z)."""
    at = {
        lab: (p, i) for p in f.source.support() for i, lab in enumerate(f.source.module(p).labels)
    }
    maps = {}
    for n in range(src.lo, src.hi + 1):
        S, T = src.module(n), tgt.module(n)
        if S.rank == 0 or T.rank == 0:
            maps[n] = zero_map(S, T)
            continue
        cols = {}
        for cidx, lab in enumerate(S.labels):
            xl, zl = lab[1]
            p, xi = at[xl]
            ylabs = f.target.module(p).labels
            col = {T.index(tens((ylabs[y], zl))): poly for y, poly in f.map_at(p).col(xi).items()}
            if col:
                cols[cidx] = col
        maps[n] = MapMatrix(S, T, cols)
    return ChainMap(src, tgt, maps)


def eilenberg_zilber(As) -> tuple[ChainMap, ChainMap]:
    """Shuffle and front/back-face (Alexander-Whitney) maps of two or more factors.

    ``shuffle`` goes from the left-associated Tot(NA_1 (x) ... (x) NA_r),
    truncated at n_max, to N of the diagonal of A_1 (x) ... (x) A_r;
    ``aw`` goes back.  The first two factors are compared directly.  Each
    further factor C is folded in against the diagonal D built so far:
    sh' o Tot(sh (x) 1) and Tot(aw (x) 1) o aw', where sh' and aw' compare
    D with C and N(D) is the previous ``shuffle.target``.
    """
    top = As[0].n_max
    D, ND = As[0], normalize(As[0])
    sh = aw = None
    for k in range(1, len(As)):
        C, NC = As[k], normalize(As[k])
        E = diagonal_tensor(As[: k + 1])
        sh_k, aw_k = _ez_pair(D, ND, C, NC, E)
        if sh is not None:
            mid = sh_k.source  # Tot(N(D) (x) NC)
            tot = truncate(total_complex(sh.source, NC), top)
            sh_k = sh_k.compose(_tot_map_left(sh, tot, mid))
            aw_k = _tot_map_left(aw, mid, tot).compose(aw_k)
        sh, aw = sh_k, aw_k
        D, ND = E, sh.target
    return sh, aw
