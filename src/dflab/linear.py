"""Labeled free modules and sparse matrices over a ring descriptor.

Basis labels are immutable tagged trees (plain nested tuples), so they
hash and compare cheaply.  Every constructed module carries internal
degrees on its labels; with a homogeneous regular sequence this makes
every differential in the pipelines homogeneous of internal degree 0,
which is what validates the graded homology engine.

The label order is the structural recursive order of ``label_key``; it
is fixed once and used for all tie-breaking (wedge normalization,
multiset sorting, slice ordering).
"""

from __future__ import annotations

from . import fieldla
from .ring import Poly, RingDescriptor, addmul, monomial_key, monomial_mul, monomials_of_degree

# --- labels --------------------------------------------------------------

ATOM, GAM, TENS, SYM, WEDGE, DIV, SCHUR, COSCH, DUAL, SMD, CR = range(11)

_degree_cache: dict = {}
_key_cache: dict = {}


def atom(name: str, degree: int = 0):
    return (ATOM, name, degree)


def gam(jumps: tuple, inner):
    """Basis copy label inside a Dold-Puppe level, indexed by jump set."""
    return (GAM, tuple(jumps), inner)


def tens(parts: tuple):
    return (TENS, tuple(parts))


def sym(parts) -> tuple:
    return (SYM, tuple(sorted(parts, key=label_key)))


def wedge(parts):
    """Strictly increasing wedge label, or (sign, label); None if degenerate."""
    parts = tuple(parts)
    order = sorted(range(len(parts)), key=lambda i: label_key(parts[i]))
    sorted_parts = tuple(parts[i] for i in order)
    for a, b in zip(sorted_parts, sorted_parts[1:]):
        if a == b:
            return None
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
    )
    sign = -1 if inversions % 2 else 1
    return sign, (WEDGE, sorted_parts)


def div(parts) -> tuple:
    return (DIV, tuple(sorted(parts, key=label_key)))


def schur(a, b, c):
    return (SCHUR, a, b, c)


def cosch(a, b, c):
    return (COSCH, a, b, c)


def dual(label):
    if label[0] == DUAL:
        return label[1]
    return (DUAL, label)


def smd(i: int, label):
    return (SMD, i, label)


def cr(label):
    return (CR, label)


def label_key(label):
    k = _key_cache.get(label)
    if k is not None:
        return k
    kind = label[0]
    if kind == ATOM:
        k = (ATOM, label[1], label[2])
    elif kind == GAM:
        k = (GAM, len(label[1]), label[1], label_key(label[2]))
    elif kind in (TENS, SYM, WEDGE, DIV):
        k = (kind, tuple(label_key(x) for x in label[1]))
    elif kind in (SCHUR, COSCH):
        k = (kind, label_key(label[1]), label_key(label[2]), label_key(label[3]))
    elif kind == DUAL:
        k = (DUAL, label_key(label[1]))
    elif kind == SMD:
        k = (SMD, label[1], label_key(label[2]))
    elif kind == CR:
        k = (CR, label_key(label[1]))
    else:
        raise ValueError(f"unknown label {label!r}")
    _key_cache[label] = k
    return k


def label_degree(label) -> int:
    d = _degree_cache.get(label)
    if d is not None:
        return d
    kind = label[0]
    if kind == ATOM:
        d = label[2]
    elif kind == GAM:
        d = label_degree(label[2])
    elif kind in (TENS, SYM, WEDGE, DIV):
        d = sum(label_degree(x) for x in label[1])
    elif kind in (SCHUR, COSCH):
        d = label_degree(label[1]) + label_degree(label[2]) + label_degree(label[3])
    elif kind == DUAL:
        d = -label_degree(label[1])
    elif kind in (SMD, CR):
        d = label_degree(label[2] if kind == SMD else label[1])
    else:
        raise ValueError(f"unknown label {label!r}")
    _degree_cache[label] = d
    return d


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
        self.degrees = tuple(label_degree(lab) for lab in self.labels)

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

    Columns may be backed by a provider function and are cached on
    first access, so functor images of huge face matrices never have to
    materialize fully.
    """

    __slots__ = ("source", "target", "_cols", "_provider")

    def __init__(self, source, target, cols=None, provider=None):
        self.source = source
        self.target = target
        self._cols = {} if cols is None else cols
        self._provider = provider

    def col(self, j: int) -> dict:
        c = self._cols.get(j)
        if c is None:
            if self._provider is not None:
                c = self._provider(j)
                c = {i: q for i, q in c.items() if not q.is_zero()}
                self._cols[j] = c
            else:
                c = self._cols[j] = {}
        return c

    def materialize(self) -> "MapMatrix":
        for j in range(self.source.rank):
            self.col(j)
        self._provider = None
        return self

    def entries(self):
        for j in range(self.source.rank):
            for i, q in self.col(j).items():
                yield i, j, q

    def is_zero(self) -> bool:
        return all(not self.col(j) for j in range(self.source.rank))

    def equals(self, other: "MapMatrix") -> bool:
        if self.source.labels != other.source.labels or self.target.labels != other.target.labels:
            return False
        return all(self.col(j) == other.col(j) for j in range(self.source.rank))

    def is_homogeneous(self) -> bool:
        """Entry degrees satisfy deg(target) + deg(entry) = deg(source)."""
        sdeg, tdeg = self.source.degrees, self.target.degrees
        for j in range(self.source.rank):
            for i, q in self.col(j).items():
                if not q.is_homogeneous() or q.degree() != sdeg[j] - tdeg[i]:
                    return False
        return True

    # algebra ------------------------------------------------------------

    def compose(self, f: "MapMatrix") -> "MapMatrix":
        """self ∘ f (apply f first).

        Each output column accumulates raw term dicts with ``addmul`` and
        makes one Poly per nonzero entry.  Every entry's ring is checked
        against this map's (identity first, then ``check_compatible``).
        """
        if f.target.labels != self.source.labels:
            raise ValueError("shape mismatch in compose")
        ring = self.source.ring
        field = ring.field
        cols = {}
        for j in range(f.source.rank):
            acc: dict = {}
            for i, q in f.col(j).items():
                if q.ring is not ring:
                    ring.check_compatible(q.ring)
                for k, r in self.col(i).items():
                    if r.ring is not ring:
                        ring.check_compatible(r.ring)
                    addmul(acc.setdefault(k, {}), r.terms, q.terms, field)
            col = {k: Poly(ring, terms) for k, terms in acc.items() if terms}
            if col:
                cols[j] = col
        return MapMatrix(f.source, self.target, cols)

    def __add__(self, other: "MapMatrix") -> "MapMatrix":
        cols: dict = {}
        for j in range(self.source.rank):
            col = dict(self.col(j))
            for i, q in other.col(j).items():
                acc = col.get(i)
                col[i] = q if acc is None else acc + q
            col = {i: q for i, q in col.items() if not q.is_zero()}
            if col:
                cols[j] = col
        return MapMatrix(self.source, self.target, cols)

    def scale(self, c) -> "MapMatrix":
        cols = {}
        for j in range(self.source.rank):
            col = {i: q.scale(c) for i, q in self.col(j).items()}
            col = {i: q for i, q in col.items() if not q.is_zero()}
            if col:
                cols[j] = col
        return MapMatrix(self.source, self.target, cols)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def transpose_raw(self, new_source, new_target) -> "MapMatrix":
        """Transpose entries onto the given relabeled modules."""
        out = MapMatrix(new_source, new_target, {})
        for j in range(self.source.rank):
            for i, q in self.col(j).items():
                out._cols.setdefault(i, {})[j] = q
        return out

    def to_field_matrix(self):
        """Dense coefficient matrix; every entry must be a constant."""
        ring = self.source.ring
        const = (0,) * ring.nvars
        M = fieldla.zeros(ring.field, self.target.rank, self.source.rank)
        for j in range(self.source.rank):
            for i, q in self.col(j).items():
                if q.degree() > 0:
                    raise ValueError("to_field_matrix needs constant entries")
                M[i, j] = q.terms.get(const, ring.field.zero)
        return M


def identity_map(module: LabeledFreeModule) -> MapMatrix:
    one = module.ring.one()
    return MapMatrix(module, module, {j: {j: one} for j in range(module.rank)})


def zero_map(source, target) -> MapMatrix:
    return MapMatrix(source, target, {})


def from_field_matrix(source, target, M) -> MapMatrix:
    """Constant map with the target.rank x source.rank field matrix M.

    Reads only the nonzero cells of each column (int64 residues over F_p,
    ``Fraction`` objects over Q).
    """
    import numpy as np

    ring = source.ring
    cols: dict = {}
    for j in range(source.rank):
        column = M[:, j]
        rows = np.flatnonzero(column)
        if len(rows):
            cols[j] = {int(i): ring.const(column[i]) for i in rows}
    return MapMatrix(source, target, cols)


def compose(g: MapMatrix, f: MapMatrix) -> MapMatrix:
    return g.compose(f)


def tensor_column(cols, parts) -> dict:
    """Column of a Kronecker product at the index tuple ``parts``.

    ``cols[k](x)`` is the k-th factor's column at x as {row: poly}; the
    result is keyed by target index tuples (one row per factor).
    """
    out = {(): None}
    for col, x in zip(cols, parts):
        c = col(x)
        out = {
            rows + (r,): q if poly is None else poly * q
            for rows, poly in out.items()
            for r, q in c.items()
        }
    return out


def tensor_maps(maps, source=None, target=None) -> MapMatrix:
    """Kronecker product over a flat list of maps, labels tens() words.

    ``source`` and ``target``, when given, must be the tensor_modules of
    the maps' sources and targets; callers that already hold them pass
    them so the label words are not built again.
    """
    src = tensor_modules([f.source for f in maps]) if source is None else source
    tgt = tensor_modules([f.target for f in maps]) if target is None else target
    cols = [f.col for f in maps]

    def provider(j):
        idx = []
        for f in reversed(maps):
            j, r = divmod(j, f.source.rank)
            idx.append(r)
        out = {}
        for rows, poly in tensor_column(cols, idx[::-1]).items():
            flat = 0
            for r, f in zip(rows, maps):
                flat = flat * f.target.rank + r
            out[flat] = poly
        return out

    return MapMatrix(src, tgt, provider=provider)


def tensor(f: MapMatrix, g: MapMatrix) -> MapMatrix:
    return tensor_maps([f, g])


def dual_module(module: LabeledFreeModule) -> LabeledFreeModule:
    return LabeledFreeModule(module.ring, [dual(lab) for lab in module.labels])


def dual_map(f: MapMatrix) -> MapMatrix:
    """Transpose onto dual labels; dual(dual(f)) == f on the nose."""
    return f.transpose_raw(dual_module(f.target), dual_module(f.source))


# --- graded slices -------------------------------------------------------


def slice_basis(module: LabeledFreeModule, t: int):
    """(label index, monomial) pairs of internal degree t, in label order
    then decreasing monomial order."""
    ring = module.ring
    monos = {  # label degree -> the monomials that complete it to t, sorted once
        d: sorted(monomials_of_degree(ring.nvars, t - d), key=lambda m: monomial_key(m, ring.order))
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
    """Field matrix of f restricted to internal degree t.

    Returns (matrix, tgt_basis, src_basis): the columns of
    ``slice_columns`` scattered into a dense matrix.
    """
    field = f.source.ring.field
    if src_basis is None:
        src_basis = slice_basis(f.source, t)
    if tgt_basis is None:
        tgt_basis = slice_basis(f.target, t)
    M = fieldla.zeros(field, len(tgt_basis), len(src_basis))
    for cpos, col in enumerate(slice_columns(f, src_basis, slice_positions(tgt_basis))):
        for rpos, coeff in col.items():
            M[rpos, cpos] = coeff
    return M, tgt_basis, src_basis


def multiplication_slice(module: LabeledFreeModule, poly: Poly, t: int, src_basis=None, tgt_basis=None):
    """Matrix of multiplication by a homogeneous poly from slice t to t+deg.

    The ``graded_slice`` of the diagonal map with every entry ``poly``; a
    non-homogeneous poly raises ``slice_columns``' ``ValueError``.
    """
    if src_basis is None:
        src_basis = slice_basis(module, t)
    if tgt_basis is None:
        tgt_basis = slice_basis(module, t + poly.degree())
    diagonal = MapMatrix(module, module, provider=lambda j: {j: poly})
    return graded_slice(diagonal, t, src_basis, tgt_basis)[0]
