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
``gamma`` records each label's jump set as a bitmask; the mask of a
composite element is the union of its parts' masks.

One interface.  A module is read through its basis elements:
``elements``, ``label``, ``mask``, ``face_table`` and
``degeneracy_table``.  ``normalize``, ``validate``,
``degenerate_indices`` and the Eilenberg-Zilber maps read nothing else.
The elements of ``gamma``'s levels, or of a module built directly from
level modules and matrices, are the level positions, and its tables
read the matrices.  ``gamma`` builds its levels and faces at once; they
are small.  Its degeneracies are built on demand.

A basis element of a ``diagonal_tensor`` or ``apply_pointwise_functor``
level is the tuple of its parts over the factors' level bases, in label
order, and its mask and label are computed from the factors' and kept.
A composite holds no face or degeneracy matrix: ``face_table(n, i,
els)`` builds the columns of face i at level n for a list of elements in
one pass, from one table per factor for the parts those elements use,
and keeps none of them.  One ``EntryPool`` per table makes the entries,
so equal entries are one Poly and each distinct product or sum of
factor entries is computed once per table.  Its level modules give
their ranks at once and build their labels only when read.
``normalize`` enumerates only the tuples whose masks cover [n], builds
labels for those alone and builds the differential face by face, so at
most one face table is alive at a time; it never evaluates a
degeneracy.  A module without masks (one
built directly, one whose degeneracy maps were replaced after
construction, or a composite over such a module) has its degenerate
elements read off its degeneracy tables instead: ``degenerate_indices``
checks that every degeneracy column is a signed basis injection.  The
test suite checks the masks against that path.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import combinations, product
from math import prod

from .complexes import ChainComplex, ChainMap, total_complex, truncate
from .functors import FunctorTag, functor_column, functor_label, functor_parts, functor_rank
from .linear import (
    LabeledFreeModule,
    LazyModule,
    MapMatrix,
    gam,
    tens,
    tensor_column,
    zero_map,
)
from .ring import EntryPool


class _Maps(dict):
    """(n, i) -> MapMatrix, built by ``build(n, i)`` on first access.

    ``replaced`` records an assignment after construction: the jump masks
    then no longer describe the degeneracies.
    """

    def __init__(self, items=(), build=None):
        super().__init__(items)
        self._build = build
        self.replaced = False

    def __missing__(self, key):
        if self._build is None:
            raise KeyError(key)
        value = self._build(*key)
        dict.__setitem__(self, key, value)
        return value

    def __setitem__(self, key, value):
        self.replaced = True
        dict.__setitem__(self, key, value)


class SimplicialModule:
    """Degreewise free modules with faces and degeneracies up to n_max.

    The basis of level n is ``elements(n)``, in label order; here the
    elements are the level positions, and ``face_table``,
    ``degeneracy_table``, ``label`` and ``mask`` read the level modules
    and matrices.
    ``masks``, given only by ``gamma``, holds for every level one int per
    label: its jump set as a bitmask over the gaps 0..n-1.  It describes
    the degeneracies given with it, so it is used only while none of them
    was replaced.
    """

    def __init__(
        self, ring, n_max: int, levels: dict, faces: dict, degeneracies: dict, masks=None
    ):
        self.ring = ring
        self.n_max = n_max
        self.levels = levels
        self.faces = faces  # (n, i): level n -> n-1
        self.degeneracies = (  # (n, j): level n -> n+1
            degeneracies if isinstance(degeneracies, _Maps) else _Maps(degeneracies)
        )
        self._masks = masks
        self._nondeg: dict = {}

    def has_masks(self) -> bool:
        """Whether the masks decide degeneracy (see the module docstring)."""
        return self._masks is not None and not self.degeneracies.replaced

    # basis elements ----------------------------------------------------

    def elements(self, n: int):
        return range(self.levels[n].rank)

    def label(self, n: int, e):
        return self.levels[n].labels[e]

    def mask(self, n: int, e) -> int:
        return self._masks[n][e]

    def face_table(self, n: int, i: int, els) -> dict:
        """{e: column of the face d_i of level n at e} for e in ``els``."""
        face = self.faces[(n, i)]
        return {e: face.col(e) for e in els}

    def degeneracy_table(self, n: int, j: int, els) -> dict:
        """{e: column of the degeneracy s_j of level n at e} for e in ``els``."""
        s = self.degeneracies[(n, j)]
        return {e: s.col(e) for e in els}

    def nondegenerate(self, n: int) -> list:
        """The elements of level n whose mask is full, in order."""
        keep = self._nondeg.get(n)
        if keep is None:
            keep = self._nondeg[n] = self._full_mask_elements(n)
        return keep

    def _full_mask_elements(self, n: int) -> list:
        full = (1 << n) - 1
        return [e for e in self.elements(n) if self.mask(n, e) == full]

    def validate(self, up_to: int | None = None) -> bool:
        """Check every simplicial identity inside the truncation window on
        each basis element.  Each face or degeneracy table is built over
        its whole level once per call, and one ``EntryPool`` for the call
        makes the entries of the vectors they are applied to."""
        top = self.n_max if up_to is None else min(up_to, self.n_max)
        tables: dict = {}
        pool = EntryPool()

        def op(name, n, i, vec):
            table = tables.get((name, n, i))
            if table is None:
                table = tables[name, n, i] = getattr(self, name)(n, i, self.elements(n))
            return _apply(table, vec, pool)

        d, s = partial(op, "face_table"), partial(op, "degeneracy_table")
        one = self.ring.one()
        for n in range(top + 1):
            for e in self.elements(n):
                x = {e: one}
                # d_i d_j = d_{j-1} d_i for i < j
                for j in range(n + 1 if n >= 2 else 0):
                    dj = d(n, j, x)
                    for i in range(j):
                        if d(n - 1, i, dj) != d(n - 1, j - 1, d(n, i, x)):
                            return False
                # s_i s_j = s_{j+1} s_i for i <= j
                for j in range(n + 1 if n + 2 <= top else 0):
                    sj = s(n, j, x)
                    for i in range(j + 1):
                        if s(n + 1, i, sj) != s(n + 1, j + 1, s(n, i, x)):
                            return False
                # d_i s_j = s_{j-1} d_i (i < j), 1 (i = j, j + 1), s_j d_{i-1} (i > j + 1)
                for j in range(n + 1 if n + 1 <= top else 0):
                    sj = s(n, j, x)
                    for i in range(n + 2):
                        lhs = d(n + 1, i, sj)
                        if i < j:
                            rhs = s(n - 1, j - 1, d(n, i, x))
                        elif i > j + 1:
                            rhs = s(n - 1, j, d(n, i - 1, x))
                        else:
                            rhs = x
                        if lhs != rhs:
                            return False
        return True


# --- the level-building functor (complex -> simplicial) ---------------------


def _jumps_of(values) -> tuple:
    return tuple(t for t in range(len(values) - 1) if values[t + 1] > values[t])


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
        labels.sort()
        levels[n] = LabeledFreeModule(ring, labels)
        masks[n] = [sum(1 << t for t in lab[2]) for lab in labels]

    def structure_map(n: int, alpha_values) -> MapMatrix:
        """Matrix of the operator with the given composite values [m] -> [n]."""
        m = len(alpha_values) - 1
        src, tgt = levels[n], levels[m]
        cols = {}
        for cidx, lab in enumerate(src.labels):
            J, v = lab[2], lab[3]
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

    def degeneracy(n: int, j: int) -> MapMatrix:
        if not 0 <= j <= n < n_max:
            raise KeyError((n, j))
        return structure_map(n, list(range(j + 1)) + list(range(j, n + 1)))

    faces = {}
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            vals = [t for t in range(n + 1) if t != i]
            faces[(n, i)] = structure_map(n, vals)
    degeneracies = _Maps(build=degeneracy)
    return SimplicialModule(ring, n_max, levels, faces, degeneracies, masks)


# --- normalization -----------------------------------------------------------


class DegeneracyShapeError(ValueError):
    """A degeneracy column is not a signed basis injection."""


def degenerate_indices(A: SimplicialModule, n: int) -> set:
    """Elements of level n hit by some degeneracy; DegeneracyShapeError
    unless every degeneracy column into level n is a single entry +-1."""
    hit = set()
    fld = A.ring.field
    units = (fld.one, fld.neg(fld.one))
    for j in range(n):
        for col in A.degeneracy_table(n - 1, j, A.elements(n - 1)).values():
            if len(col) != 1:
                raise DegeneracyShapeError(f"degeneracy s_{j} at level {n - 1} is not monomial")
            (e, poly), = col.items()
            c = poly.terms.get((0,) * A.ring.nvars) if len(poly.terms) == 1 else None
            if c not in units:
                raise DegeneracyShapeError("degeneracy entry is not +-1")
            hit.add(e)
    return hit


def normalize(A: SimplicialModule) -> ChainComplex:
    """Quotient of each level by the degenerate coordinates.

    With masks (see the module docstring) the basis is the elements whose
    mask is full, and no degeneracy is evaluated.  A face row outside
    them is dropped once its mask shows it degenerate.  Otherwise the
    degenerate elements are read off the degeneracy tables
    (``degenerate_indices``), and DegeneracyShapeError is raised when
    those are not signed basis injections.  Either way only the kept
    elements get labels, and d_n is summed one face at a time, i
    ascending, from a table of that face's columns on the kept elements;
    the table is dropped before the next is built.  Every entry is shared
    through one ``EntryPool`` for the call as it enters a column's sum, and
    each distinct negation and sum is computed once.
    """
    masked = A.has_masks()
    keep = {}
    for n in range(A.n_max + 1):
        if masked:
            keep[n] = A.nondegenerate(n)
        else:
            degenerate = degenerate_indices(A, n) if n else set()
            keep[n] = [e for e in A.elements(n) if e not in degenerate]
    ring = A.ring
    pool = EntryPool()
    modules = {
        n: LabeledFreeModule(ring, [A.label(n, e) for e in kept]) for n, kept in keep.items()
    }
    diffs = {}
    for n in range(1, A.n_max + 1):
        if modules[n].rank == 0 or modules[n - 1].rank == 0:
            continue
        pos_of = {e: p for p, e in enumerate(keep[n - 1])}
        full = (1 << (n - 1)) - 1
        accs = [{} for _ in keep[n]]
        for i in range(n + 1):
            face = A.face_table(n, i, keep[n])
            for e, acc in zip(keep[n], accs):
                for row, poly in face[e].items():
                    p = pos_of.get(row)
                    if p is None:
                        if masked and A.mask(n - 1, row) == full:
                            raise RuntimeError("a face hit a nondegenerate element left out")
                        continue
                    term = pool(poly) if i % 2 == 0 else pool.neg(pool(poly))
                    cur = acc.get(p)
                    acc[p] = term if cur is None else pool.add(cur, term)
            del face
        cols = {}
        for cpos, acc in enumerate(accs):
            acc = {p: q for p, q in acc.items() if not q.is_zero()}
            if acc:
                cols[cpos] = acc
        diffs[n] = MapMatrix(modules[n], modules[n - 1], cols)
    return ChainComplex(ring, modules, diffs)


# --- diagonal tensor and pointwise functors ---------------------------------


class _Composite(SimplicialModule):
    """The diagonal tensor of ``factors``, or the functor ``tag`` applied
    levelwise to its one factor.

    A basis element of level n is the tuple of its parts: one element of
    each factor's level n for the diagonal, the parts of a basis element
    of F (see ``functor_parts``) over the factor's level n for a functor.
    Tuples compare in label order.  Labels and masks are built from the
    factors', element by element, and kept; a mask is the union of its
    parts' masks, and the masks decide degeneracy when every factor's do.
    A composite holds no face or degeneracy matrix.  Face and degeneracy
    columns are built per (level, face) as tables over a list of elements
    and never kept: each factor gives one table for the parts those
    elements use, and the operator acts factorwise on them, or through
    the functor's column kernel.  One ``EntryPool`` per table makes its
    entries: equal entries are one Poly, and each distinct product and
    sum of factor entries is computed once.  The level modules give their ranks at once and
    build their labels only when read.
    """

    def __init__(self, factors, tag: FunctorTag | None = None):
        A = factors[0]
        self.ring, self.n_max = A.ring, A.n_max
        self.factors, self.tag = factors, tag
        self._one = A.ring.one()
        self._slots = factors if tag is None else [A] * tag.arity  # the factor of each part
        self._cache: dict = {}  # ("elements" | "label" | "mask", n) -> list or {element: value}
        self._nondeg: dict = {}
        self.levels = {
            n: LazyModule(A.ring, self._rank(n), partial(self._labels, n))
            for n in range(A.n_max + 1)
        }

    def has_masks(self) -> bool:
        return all(F.has_masks() for F in self.factors)

    def _rank(self, n: int) -> int:
        if self.tag is None:
            return prod(F.levels[n].rank for F in self.factors)
        return functor_rank(self.tag, self.factors[0].levels[n].rank)

    def _part_tuples(self, pools):
        """The basis tuples over ``pools``, one sequence per factor, in order."""
        if self.tag is None:
            return product(*pools)
        return functor_parts(self.tag, pools[0])

    def elements(self, n: int) -> list:
        els = self._cache.get(("elements", n))
        if els is None:
            pools = [list(F.elements(n)) for F in self.factors]
            els = self._cache["elements", n] = list(self._part_tuples(pools))
        return els

    def label(self, n: int, e):
        memo = self._cache.setdefault(("label", n), {})
        lab = memo.get(e)
        if lab is None:
            parts = [F.label(n, x) for F, x in zip(self._slots, e)]
            lab = tens(tuple(parts)) if self.tag is None else functor_label(self.tag, parts)
            memo[e] = lab
        return lab

    def _labels(self, n: int) -> list:
        return [self.label(n, e) for e in self.elements(n)]

    def mask(self, n: int, e) -> int:
        memo = self._cache.setdefault(("mask", n), {})
        m = memo.get(e)
        if m is None:
            m = 0
            for F, x in zip(self._slots, e):
                m |= F.mask(n, x)
            memo[e] = m
        return m

    def _full_mask_elements(self, n: int) -> list:
        """Enumerate position tuples over the factors' levels and keep those
        whose masks cover [n]; no other element is formed.  A factor
        element whose mask is too small to be completed to n gaps by the
        other parts' largest masks is left out of the enumeration."""
        full = (1 << n) - 1
        pools = []
        for F in self.factors:
            pairs = [(x, F.mask(n, x)) for x in F.elements(n)]
            pools.append((pairs, max((m.bit_count() for _, m in pairs), default=0)))
        arity = len(pools) if self.tag is None else self.tag.arity
        room = sum(top for _, top in pools) * (1 if self.tag is None else arity)
        pools = [
            [(x, m) for x, m in pairs if m.bit_count() + room - top >= n] for pairs, top in pools
        ]
        slots = pools if self.tag is None else pools * arity
        out = []
        for idx in self._part_tuples([range(len(pool)) for pool in pools]):
            m = 0
            for pool, i in zip(slots, idx):
                m |= pool[i][1]
            if m == full:
                out.append(tuple(pool[i][0] for pool, i in zip(slots, idx)))
        return out

    def face_table(self, n: int, i: int, els) -> dict:
        return self._table("face_table", n, i, els)

    def degeneracy_table(self, n: int, j: int, els) -> dict:
        return self._table("degeneracy_table", n, j, els)

    def _table(self, op: str, n: int, i: int, els) -> dict:
        """{e: column of the operator ``op`` (i, level n) at e} for e in
        ``els``, from one table per factor over the parts they use; its
        entries come from one ``EntryPool``."""
        pool = EntryPool()
        if self.tag is None:
            cols = [
                getattr(F, op)(n, i, {e[k] for e in els}).__getitem__
                for k, F in enumerate(self.factors)
            ]
            return {e: tensor_column(cols, e, pool) for e in els}
        col = getattr(self.factors[0], op)(n, i, {x for e in els for x in e}).__getitem__
        return {e: functor_column(self.tag, col, e, self._one, pool) for e in els}


def diagonal_tensor(As) -> SimplicialModule:
    """Diagonal of the multi-simplicial tensor: level n is the tensor of
    the levels n, faces and degeneracies act factorwise."""
    if any(A.n_max != As[0].n_max for A in As):
        raise ValueError("mismatched truncation degrees")
    return _Composite(list(As))


def apply_pointwise_functor(tag: FunctorTag, A: SimplicialModule) -> SimplicialModule:
    return _Composite([A], tag)


# --- Eilenberg-Zilber comparison maps ----------------------------------------


def _apply(table: dict, vec: dict, pool) -> dict:
    """A face or degeneracy table {element: column} applied to a vector
    {element: poly} of elements it covers, its products and sums made by
    ``pool``, an ``EntryPool``; zeros are dropped."""
    out: dict = {}
    for e, c in vec.items():
        for row, q in table[e].items():
            term = pool.mul(q, c)
            out[row] = term if row not in out else pool.add(out[row], term)
    return {r: q for r, q in out.items() if not q.is_zero()}


def _apply_table(A: SimplicialModule, op: str, n: int, i: int, vec: dict, pool) -> dict:
    """The face or degeneracy ``op`` ("face_table" or "degeneracy_table")
    i of level n applied to a vector, from a table over its elements."""
    return _apply(getattr(A, op)(n, i, list(vec)), vec, pool)


def _shuffles(sizes):
    """(w, sign) for every word w with sizes[i] letters i: the blocks
    {t : w[t] = i} are an ordered partition of {0, ..., len(w) - 1}, and
    ``sign`` is the sign of the permutation listing them one by one."""
    if not any(sizes):
        yield (), 1
        return
    for i, k in enumerate(sizes):
        if k:
            rest = list(sizes)
            rest[i] -= 1
            for w, sign in _shuffles(rest):
                yield (i, *w), -sign if sum(sizes[:i]) % 2 else sign


def _degreewise_map(S: ChainComplex, T: ChainComplex, top: int, column) -> ChainMap:
    """Chain map S -> T in degrees 0..top; ``column(n, c)`` is the image
    of the basis element c of S_n as {row of T_n: poly}."""
    maps = {}
    for n in range(top + 1):
        src, tgt = S.module(n), T.module(n)
        if src.rank == 0 or tgt.rank == 0:
            maps[n] = zero_map(src, tgt)
            continue
        cols = {}
        for c in range(src.rank):
            col = {i: q for i, q in column(n, c).items() if not q.is_zero()}
            if col:
                cols[c] = col
        maps[n] = MapMatrix(src, tgt, cols)
    return ChainMap(S, T, maps)


def eilenberg_zilber(As) -> tuple[ChainMap, ChainMap]:
    """Shuffle and front/back-face (Alexander-Whitney) maps of the factors.

    ``shuffle`` goes from the left-associated Tot(NA_1 (x) ... (x) NA_r),
    truncated at n_max, to N of the diagonal D of A_1 (x) ... (x) A_r;
    ``aw`` goes back.  Both are built for all r factors at once, on basis
    elements; they equal the iterated two-factor maps, since both maps
    are associative (Eilenberg-Mac Lane, Ann. Math. 58 (1953)).

    The shuffle sends a_1 (x) ... (x) a_r, deg a_i = p_i, to the signed
    sum over the ordered partitions of {0, ..., n-1} into blocks B_i with
    |B_i| = p_i: part i is a_i with the degeneracies at the positions
    outside B_i applied in ascending order, and the sign is that of the
    shuffle.  AW sends a nondegenerate x of D_n to the sum over
    p_1 + ... + p_r = n of the tensors of its parts, part i cut down to
    the vertices p_1 + ... + p_{i-1} .. p_1 + ... + p_i by last faces,
    then 0-th faces.  Only degrees where NA_i is nonzero are used, and
    each cut is made once per call.  One ``EntryPool`` for the call makes
    every product, negation and sum of entries.  Every factor needs masks
    (see the module docstring); ValueError otherwise.
    """
    if not all(A.has_masks() for A in As):
        raise ValueError("eilenberg_zilber needs factors whose masks decide degeneracy")
    top, one = As[0].n_max, As[0].ring.one()
    pool = EntryPool()
    normalized = {}  # id -> N(A), so a factor repeated in As is normalized once
    for A in As:
        if id(A) not in normalized:
            normalized[id(A)] = normalize(A)
    Ns = [normalized[id(A)] for A in As]
    tot = Ns[0]
    for N in Ns[1:]:
        tot = truncate(total_complex(tot, N), top)
    D = diagonal_tensor(As)
    ND = normalize(D)
    top = min(tot.hi, top)
    # label of NA_i -> (degree, element); a Tot label nests the factors' labels
    at = [
        {
            lab: (p, e)
            for p in range(top + 1)
            for e, lab in zip(A.nondegenerate(p), N.module(p).labels)
        }
        for A, N in zip(As, Ns)
    ]
    nondeg = [set(a.values()) for a in at]

    def parts_of(lab) -> tuple:
        parts = []
        for a in at[:0:-1]:
            lab, last = lab[1]
            parts.append(a[last])
        return (at[0][lab], *reversed(parts))

    src_parts = {n: [parts_of(lab) for lab in tot.module(n).labels] for n in range(top + 1)}
    tot_row = {n: {parts: c for c, parts in enumerate(ps)} for n, ps in src_parts.items()}
    nd_row = {n: {e: c for c, e in enumerate(D.nondegenerate(n))} for n in range(top + 1)}

    def add(col, vecs, sign, rows):
        """col += sign * (tensor of ``vecs``) at rows[key tuple], keys outside ``rows`` dropped."""
        for combo in product(*(v.items() for v in vecs)):
            row = rows.get(tuple(e for e, _ in combo))
            if row is not None:
                term = reduce(pool.mul, (q for _, q in combo))
                term = term if sign > 0 else pool.neg(term)
                col[row] = term if row not in col else pool.add(col[row], term)

    def shuffle_column(n, c):
        parts, col = src_parts[n][c], {}
        for w, sign in _shuffles([p for p, _ in parts]):
            vecs = []
            for k, (A, (p, a)) in enumerate(zip(As, parts)):
                vec = {a: one}
                for level, j in enumerate((t for t in range(n) if w[t] != k), start=p):
                    vec = _apply_table(A, "degeneracy_table", level, j, vec, pool)
                vecs.append(vec)
            add(col, vecs, sign, nd_row[n])
        return col

    sizes_of: dict = {}  # n -> the degree tuples (p_1, ..., p_r) summing to n
    for sizes in product(*([p for p in range(top + 1) if N.module(p).rank] for N in Ns)):
        sizes_of.setdefault(sum(sizes), []).append(sizes)
    cuts: dict = {}  # (factor, n, element, lo, p) -> {(p, element): poly}, nondegenerate

    def cut(k, n, x, lo, p):
        key = (id(As[k]), n, x, lo, p)
        if key not in cuts:
            vec = {x: one}
            for level in range(n, lo + p, -1):
                vec = _apply_table(As[k], "face_table", level, level, vec, pool)
            for level in range(lo + p, p, -1):
                vec = _apply_table(As[k], "face_table", level, 0, vec, pool)
            cuts[key] = {(p, e): q for e, q in vec.items() if (p, e) in nondeg[k]}
        return cuts[key]

    def aw_column(n, c):
        x, col = D.nondegenerate(n)[c], {}
        for sizes in sizes_of.get(n, ()):
            los = [sum(sizes[:k]) for k in range(len(sizes))]
            vecs = [cut(k, n, x[k], lo, p) for k, (lo, p) in enumerate(zip(los, sizes))]
            add(col, vecs, 1, tot_row[n])
        return col

    return _degreewise_map(tot, ND, top, shuffle_column), _degreewise_map(ND, tot, top, aw_column)
