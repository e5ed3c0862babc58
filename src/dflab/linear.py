"""Labeled free modules and sparse matrices over a ring descriptor.

Basis labels are immutable tagged trees (plain nested tuples), so they
hash and compare cheaply.  Every constructed module carries internal
degrees on its labels; with a homogeneous regular sequence this makes
every differential in the pipelines homogeneous of internal degree 0,
which is what validates the graded homology engine.

There are ten label kinds: ``atom`` (a named generator), ``gam`` (a
basis copy in a Dold-Puppe level), ``tens``, ``sym``, ``wedge`` and
``div`` (words and multisets of labels), ``schur`` and ``cosch``
(tableaux of the shape (2,1) Schur functor and its dual), ``smd`` (an
element of one summand of a direct sum) and ``cr`` (a cross-effect
basis element).

The label invariant: a label's last slot is its internal degree, and
Python's tuple order on labels is the basis order, used for all
tie-breaking (wedge normalization, multiset sorting, slice ordering).
A label starts with its kind, and labels of one kind have the same
slots, so any two labels compare.  Except in an ``atom``, whose degree is
given, the degree slot is a function of the slots before it, so it never
decides between distinct labels.  A ``gam`` label stores ``len(J)``
before its jump set J, so smaller jump sets come first.
"""

from __future__ import annotations

from itertools import product

from .ring import (
    EntryPool,
    Poly,
    RingDescriptor,
    addmul,
    addto,
    monomial_key,
    monomial_mul,
    monomials_of_degree,
)

# --- labels --------------------------------------------------------------

ATOM, GAM, TENS, SYM, WEDGE, DIV, SCHUR, COSCH, SMD, CR = range(10)


def _degree(parts) -> int:
    return sum(p[-1] for p in parts)


def atom(name: str, degree: int = 0):
    return (ATOM, name, degree)


def gam(jumps: tuple, inner):
    """Basis copy label inside a Dold-Puppe level, indexed by jump set."""
    jumps = tuple(jumps)
    return (GAM, len(jumps), jumps, inner, inner[-1])


def tens(parts: tuple):
    parts = tuple(parts)
    return (TENS, parts, _degree(parts))


def sym(parts) -> tuple:
    parts = tuple(sorted(parts))
    return (SYM, parts, _degree(parts))


def wedge(parts):
    """Strictly increasing wedge label, or (sign, label); None if degenerate."""
    parts = tuple(parts)
    order = sorted(range(len(parts)), key=parts.__getitem__)
    sorted_parts = tuple(parts[i] for i in order)
    for a, b in zip(sorted_parts, sorted_parts[1:]):
        if a == b:
            return None
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
    )
    sign = -1 if inversions % 2 else 1
    return sign, (WEDGE, sorted_parts, _degree(sorted_parts))


def div(parts) -> tuple:
    parts = tuple(sorted(parts))
    return (DIV, parts, _degree(parts))


def schur(a, b, c):
    return (SCHUR, a, b, c, _degree((a, b, c)))


def cosch(a, b, c):
    return (COSCH, a, b, c, _degree((a, b, c)))


def smd(i: int, label):
    return (SMD, i, label, label[-1])


def cr(label):
    return (CR, label, label[-1])


# --- modules -------------------------------------------------------------


class LabeledFreeModule:
    """Finite free module with an ordered, internally graded basis."""

    __slots__ = ("ring", "labels", "_index", "degrees")

    def __init__(self, ring: RingDescriptor, labels):
        self.ring = ring
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.degrees = tuple(lab[-1] for lab in self.labels)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def __eq__(self, other):
        return (
            isinstance(other, LabeledFreeModule)
            and self.ring.compatible(other.ring)
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"FreeModule(rank {self.rank})"


class LazyModule(LabeledFreeModule):
    """A LabeledFreeModule of known rank whose labels are built on first use.

    ``build()`` returns the labels.  Until something reads ``labels``,
    ``index`` or ``degrees`` (or compares the module), only the rank
    exists.
    """

    __slots__ = ("_rank", "_build")

    def __init__(self, ring: RingDescriptor, rank: int, build):
        self.ring = ring
        self._rank = rank
        self._build = build

    @property
    def rank(self) -> int:
        return self._rank

    def __getattr__(self, name):  # reached only while a label slot is unset
        if name not in ("labels", "_index", "degrees"):
            raise AttributeError(name)
        LabeledFreeModule.__init__(self, self.ring, self._build())
        if len(self.labels) != self._rank:
            raise ValueError("lazy module built a different rank")
        return getattr(self, name)


def tensor_modules(mods) -> LabeledFreeModule:
    """Flat tensor product; labels are tens() words, rightmost fastest."""
    ring = mods[0].ring
    labels = [()]
    for m in mods:
        labels = [prev + (lab,) for prev in labels for lab in m.labels]
    return LabeledFreeModule(ring, [tens(w) for w in labels])


def direct_sum_modules(mods) -> LabeledFreeModule:
    ring = mods[0].ring
    labels = [smd(i, lab) for i, m in enumerate(mods) for lab in m.labels]
    return LabeledFreeModule(ring, labels)


# --- matrices ------------------------------------------------------------


class MapMatrix:
    """Sparse column-major matrix between labeled free modules.

    ``cols`` maps a column index to its column {row: entry}, built once
    by the caller, who stores only nonzero entries; a column missing from
    it is zero.  Reading a column builds and stores nothing.
    """

    __slots__ = ("source", "target", "_cols")

    def __init__(self, source, target, cols: dict):
        self.source = source
        self.target = target
        self._cols = cols

    def col(self, j: int) -> dict:
        c = self._cols.get(j)
        return {} if c is None else c

    def is_zero(self) -> bool:
        return all(not self.col(j) for j in range(self.source.rank))

    def equals(self, other: "MapMatrix") -> bool:
        if self.source.labels != other.source.labels or self.target.labels != other.target.labels:
            return False
        return all(self.col(j) == other.col(j) for j in range(self.source.rank))

    def is_homogeneous(self) -> bool:
        """Entry degrees satisfy deg(target) + deg(entry) = deg(source).

        Each distinct entry object is examined once."""
        sdeg, tdeg = self.source.degrees, self.target.degrees
        seen: dict = {}  # id(entry) -> (its degree, None if not homogeneous; entry)
        for j in range(self.source.rank):
            for i, q in self.col(j).items():
                hit = seen.get(id(q))
                if hit is None:
                    hit = seen[id(q)] = (q.degree() if q.is_homogeneous() else None, q)
                if hit[0] != sdeg[j] - tdeg[i]:
                    return False
        return True

    # algebra ------------------------------------------------------------

    def compose(self, f: "MapMatrix") -> "MapMatrix":
        """self ∘ f (apply f first).

        The terms of each distinct (entry, entry) product are computed
        once per call (``addmul``), after the rings of both entries are
        checked against this map's (identity first, then
        ``check_compatible``).  Each output column accumulates raw term
        dicts (``addto``) and makes one Poly per nonzero entry, shared
        with the equal entries made before it (``EntryPool``).
        """
        if f.target.labels != self.source.labels:
            raise ValueError("shape mismatch in compose")
        ring = self.source.ring
        field = ring.field
        pool = EntryPool()
        products: dict = {}  # (id(r), id(q)) -> (terms of r * q, r, q)
        cols = {}
        for j in range(f.source.rank):
            acc: dict = {}
            for i, q in f.col(j).items():
                for k, r in self.col(i).items():
                    hit = products.get((id(r), id(q)))
                    if hit is None:
                        for e in (r, q):
                            if e.ring is not ring:
                                ring.check_compatible(e.ring)
                        hit = products[id(r), id(q)] = (addmul({}, r.terms, q.terms, field), r, q)
                    into = acc.get(k)
                    if into is None:
                        acc[k] = dict(hit[0])
                    else:
                        addto(into, hit[0], field)
            col = {k: pool(Poly(ring, terms)) for k, terms in acc.items() if terms}
            if col:
                cols[j] = col
        return MapMatrix(f.source, self.target, cols)

    def transpose_raw(self, new_source, new_target) -> "MapMatrix":
        """Transpose entries onto the given relabeled modules."""
        out = MapMatrix(new_source, new_target, {})
        for j in range(self.source.rank):
            for i, q in self.col(j).items():
                out._cols.setdefault(i, {})[j] = q
        return out


def identity_map(module: LabeledFreeModule) -> MapMatrix:
    one = module.ring.one()
    return MapMatrix(module, module, {j: {j: one} for j in range(module.rank)})


def zero_map(source, target) -> MapMatrix:
    return MapMatrix(source, target, {})


def constant_columns(f: MapMatrix) -> list[dict]:
    """The columns {row: coefficient} of a map whose entries are constants."""
    const = (0,) * f.source.ring.nvars
    cols = []
    for j in range(f.source.rank):
        col = f.col(j)
        if any(q.degree() > 0 for q in col.values()):
            raise ValueError("constant_columns needs constant entries")
        cols.append({i: q.terms[const] for i, q in col.items()})
    return cols


def tensor_column(cols, parts, pool) -> dict:
    """Column of a Kronecker product at the index tuple ``parts``.

    ``cols[k](x)`` is the k-th factor's column at x as {row: poly}; the
    result is keyed by target index tuples (one row per factor), and its
    entries come from ``pool``, an ``EntryPool``.
    """
    out = {(): None}
    for col, x in zip(cols, parts):
        c = col(x)
        out = {
            rows + (r,): pool(q) if poly is None else pool.mul(poly, q)
            for rows, poly in out.items()
            for r, q in c.items()
        }
    return out


def tensor_maps(maps) -> MapMatrix:
    """Kronecker product over a flat list of maps, labels tens() words;
    its entries come from one ``EntryPool``."""
    src = tensor_modules([f.source for f in maps])
    tgt = tensor_modules([f.target for f in maps])
    row_of = {rows: i for i, rows in enumerate(product(*(range(f.target.rank) for f in maps)))}
    cols = [f.col for f in maps]
    pool = EntryPool()
    out = {}
    for j, parts in enumerate(product(*(range(f.source.rank) for f in maps))):
        column = tensor_column(cols, parts, pool)
        col = {row_of[rows]: q for rows, q in column.items() if not q.is_zero()}
        if col:
            out[j] = col
    return MapMatrix(src, tgt, out)


# --- graded slices -------------------------------------------------------


def slice_basis(module: LabeledFreeModule, t: int):
    """(label index, monomial) pairs of internal degree t, in label order
    then decreasing monomial order."""
    ring = module.ring
    monos = {  # label degree -> the monomials that complete it to t, sorted once
        d: sorted(monomials_of_degree(ring.nvars, t - d), key=monomial_key)
        for d in set(module.degrees)
    }
    return [(i, m) for i, d in enumerate(module.degrees) for m in reversed(monos[d])]


def slice_positions(basis):
    return {pair: pos for pos, pair in enumerate(basis)}


def slice_columns(f: MapMatrix, src_basis, tgt_positions):
    """The columns of f restricted to one internal degree, sparse.

    Yields, for each (label index, monomial) pair of ``src_basis`` in
    order, the dict {target position: coefficient} of its image, where
    ``tgt_positions`` is ``slice_positions`` of the target slice basis.
    Distinct (row, term) pairs of a column land on distinct positions,
    so every coefficient is a nonzero term coefficient.  An entry that
    is not homogeneous of the right degree lands outside the target
    slice and raises ``ValueError``.
    """
    for j, mono in src_basis:
        col = {}
        for i, q in f.col(j).items():
            for mterm, coeff in q.terms.items():
                rpos = tgt_positions.get((i, monomial_mul(mono, mterm)))
                if rpos is None:
                    raise ValueError("non-homogeneous entry hit a missing slice row")
                col[rpos] = coeff
        yield col


def graded_slice(f: MapMatrix, t: int, src_basis=None, tgt_basis=None):
    """f restricted to internal degree t.

    Returns (columns, tgt_basis, src_basis): the list of
    ``slice_columns``, sparse columns over the target slice's positions.
    """
    if src_basis is None:
        src_basis = slice_basis(f.source, t)
    if tgt_basis is None:
        tgt_basis = slice_basis(f.target, t)
    return list(slice_columns(f, src_basis, slice_positions(tgt_basis))), tgt_basis, src_basis


def multiplication_slice(module: LabeledFreeModule, poly: Poly, t: int, src_basis=None, tgt_basis=None):
    """Sparse columns of multiplication by a homogeneous poly from slice t to t+deg.

    The ``graded_slice`` of the diagonal map with every entry ``poly``; a
    non-homogeneous poly raises ``slice_columns``' ``ValueError``.
    """
    if src_basis is None:
        src_basis = slice_basis(module, t)
    if tgt_basis is None:
        tgt_basis = slice_basis(module, t + poly.degree())
    cols = {} if poly.is_zero() else {j: {j: poly} for j in range(module.rank)}
    return graded_slice(MapMatrix(module, module, cols), t, src_basis, tgt_basis)[0]
