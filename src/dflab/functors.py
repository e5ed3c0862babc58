"""Polynomial functors on labeled free modules and their cross-effects.

Functor values carry canonical bases: monomials for Sym, strictly
increasing words for exterior powers, multisets for divided powers
(the dual of Sym on the dual), pure tensors for tensor powers, and
standard tableaux (i^j)|k with i<j, i<=k for the shape (2,1) Schur
functor and its dual, the co-Schur functor.  The Schur action
straightens non-standard wedges through the relation
(a^b)|c = (a^c)|b - (b^c)|a for c < a < b, which is the boundary of
a^b^c.  Every functor is evaluated one column at a time, the duals too.

Cross-effects are images of the inclusion-exclusion idempotent
sum_S (-1)^(k-|S|) F(p_S); diagonal and plus maps are computed inside
F(direct sum) and re-expressed in the chosen image bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

from . import fieldla
from .linear import (
    LabeledFreeModule,
    MapMatrix,
    constant_columns,
    cosch,
    cr,
    direct_sum_modules,
    schur,
    smd,
    sym,
    tens,
    tensor_column,
    tensor_maps,
    tensor_modules,
    wedge,
)
from .linear import div as div_label
from .ring import EntryPool


@dataclass(frozen=True)
class FunctorTag:
    kind: str  # sym | ext | div | tensor | schur | coschur
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.kind in ("schur", "coschur") and self.arity != 3:
            raise ValueError("Schur kinds are fixed at arity 3")


def Sym(l: int) -> FunctorTag:
    return FunctorTag("sym", l)


def Ext(l: int) -> FunctorTag:
    return FunctorTag("ext", l)


def Div(l: int) -> FunctorTag:
    return FunctorTag("div", l)


def TensorPow(l: int) -> FunctorTag:
    return FunctorTag("tensor", l)


SchurL31 = FunctorTag("schur", 3)
CoSchurL31 = FunctorTag("coschur", 3)


# --- modules ---------------------------------------------------------------


def _tableau_indices(n: int) -> list:
    """Index triples (i, j, k) of the standard tableaux (i^j)|k: i < j, i <= k."""
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(i, n)]


def _part_tuples(kind: str, arity: int, items):
    """The parts of each basis label of F(V), in basis order, where
    ``items`` stands for the basis of V (its labels, or range(rank))."""
    if kind in ("sym", "div"):
        return combinations_with_replacement(items, arity)
    if kind == "ext":
        return combinations(items, arity)
    if kind == "tensor":
        return product(items, repeat=arity)
    if kind in ("schur", "coschur"):
        return ((items[i], items[j], items[k]) for i, j, k in _tableau_indices(len(items)))
    raise ValueError(f"unknown functor kind {kind!r}")


_LABEL = {
    "sym": sym,
    "ext": lambda parts: wedge(parts)[1],
    "div": div_label,
    "tensor": tens,
    "schur": lambda parts: schur(*parts),
    "coschur": lambda parts: cosch(*parts),
}


def _module(kind: str, arity: int, V: LabeledFreeModule) -> LabeledFreeModule:
    tuples = _part_tuples(kind, arity, V.labels)
    label = _LABEL[kind]
    return LabeledFreeModule(V.ring, [label(parts) for parts in tuples])


def functor_parts(tag: FunctorTag, items) -> list:
    """The parts of the basis elements of F(V), in basis order, where
    ``items`` lists the basis elements of V (e.g. range(rank))."""
    return list(_part_tuples(tag.kind, tag.arity, items))


def functor_rank(tag: FunctorTag, rank: int) -> int:
    """Rank of F(V) for V of the given rank."""
    l = tag.arity
    if tag.kind in ("sym", "div"):
        return comb(rank + l - 1, l)
    if tag.kind == "ext":
        return comb(rank, l)
    if tag.kind == "tensor":
        return rank**l
    return sum((rank - 1 - i) * (rank - i) for i in range(rank))  # (i^j)|k tableaux


def functor_label(tag: FunctorTag, labels) -> tuple:
    """Label of the basis element of F(V) whose parts have these labels."""
    return _LABEL[tag.kind](tuple(labels))


def functor_module(tag: FunctorTag, V: LabeledFreeModule) -> LabeledFreeModule:
    return _module(tag.kind, tag.arity, V)


def sym_module(V: LabeledFreeModule, l: int) -> LabeledFreeModule:
    return _module("sym", l, V)


def ext_module(V: LabeledFreeModule, l: int) -> LabeledFreeModule:
    return _module("ext", l, V)


def div_module(V: LabeledFreeModule, l: int) -> LabeledFreeModule:
    return _module("div", l, V)


# --- maps ------------------------------------------------------------------
#
# Each column kernel takes ``col``, the column function of a map f (an
# element of f's source -> {element of f's target: poly}), and the parts
# of a basis element of F(source) (see _part_tuples); it returns the
# column of F(f) there, keyed by the parts of basis elements of F(target).
# Its products and sums go through ``pool``, the build's ``EntryPool``.
# Elements are level positions or, inside composite simplicial modules,
# index tuples; both compare in basis order.


def _sym_col(col, parts, one, pool) -> dict:
    """Expand the product of f-images of the multiset ``parts``."""
    combos = {(): one}
    for x in parts:
        new: dict = {}
        c = col(x)
        for partial, poly in combos.items():
            for r, q in c.items():
                key = tuple(sorted(partial + (r,)))
                prod = pool.mul(poly, q)
                acc = new.get(key)
                new[key] = prod if acc is None else pool.add(acc, prod)
        combos = new
    return combos


def _ext_col(col, parts, one, pool) -> dict:
    combos = {(): one}
    for x in parts:
        new: dict = {}
        c = col(x)
        for partial, poly in combos.items():
            for r, q in c.items():
                if r in partial:
                    continue
                pos = 0
                while pos < len(partial) and partial[pos] < r:
                    pos += 1
                sign = -1 if (len(partial) - pos) % 2 else 1
                key = partial[:pos] + (r,) + partial[pos:]
                prod = pool.scale(pool.mul(poly, q), sign)
                acc = new.get(key)
                new[key] = prod if acc is None else pool.add(acc, prod)
        combos = new
    return combos


def _div_col(col, parts, one, pool) -> dict:
    """Column of D(f), the transpose of Sym(f^T): the entry at the
    multiset (r_1 <= ... <= r_l) is the coefficient of prod_t x_(parts_t)
    in prod_t (sum_s f[r_t, s] x_s), a sum over the distinct orderings
    of ``parts``."""
    out: dict = {}
    for seq in set(permutations(parts)):
        combos = {(): one}
        for s in seq:
            c = col(s)
            combos = {
                rows + (r,): pool.mul(poly, q)
                for rows, poly in combos.items()
                for r, q in c.items()
                if not rows or rows[-1] <= r
            }
        for key, poly in combos.items():
            acc = out.get(key)
            out[key] = poly if acc is None else pool.add(acc, poly)
    return out


def _schur_straighten(a, b, c):
    """Rewrite the class of (e_a ^ e_b) | e_c on standard tableaux."""
    if a == b:
        return []
    if a > b:
        return [(-coeff, t) for coeff, t in _schur_straighten(b, a, c)]
    if a <= c:
        return [(1, (a, b, c))]
    # c < a < b: subtract the boundary of c ^ a ^ b
    return [(-1, (c, a, b)), (1, (c, b, a))]


def _schur_col(col, parts, one, pool) -> dict:
    i, j, k = parts
    out: dict = {}
    for r, q1 in col(i).items():
        for s, q2 in col(j).items():
            if r == s:
                continue
            for t, q3 in col(k).items():
                poly = pool.mul(pool.mul(q1, q2), q3)
                for sign, key in _schur_straighten(r, s, t):
                    term = pool.scale(poly, sign)
                    acc = out.get(key)
                    out[key] = term if acc is None else pool.add(acc, term)
    return out


def _coschur_col(col, parts, one, pool) -> dict:
    """Column of the co-Schur functor, the transpose of Schur(f^T): the
    triples (r, s, t) whose straightening holds the tableau ``parts``,
    each expanded through f and kept on standard target tableaux."""
    out: dict = {}
    for r, s, t in set(permutations(parts)):
        sign = sum(c for c, tab in _schur_straighten(r, s, t) if tab == parts)
        if not sign:
            continue
        for a, q1 in col(r).items():
            for b, q2 in col(s).items():
                if not a < b:
                    continue
                for c, q3 in col(t).items():
                    if a <= c:
                        term = pool.scale(pool.mul(pool.mul(q1, q2), q3), sign)
                        acc = out.get((a, b, c))
                        out[(a, b, c)] = term if acc is None else pool.add(acc, term)
    return out


_KERNELS = {
    "sym": _sym_col,
    "ext": _ext_col,
    "div": _div_col,
    "schur": _schur_col,
    "coschur": _coschur_col,
}


def functor_column(tag: FunctorTag, col, parts, one, pool) -> dict:
    """Column of F(f) at the basis element with the given parts (see
    above), its nonzero entries; they come from ``pool``, an ``EntryPool``."""
    if tag.kind == "tensor":
        column = tensor_column([col] * tag.arity, parts, pool)
    else:
        column = _KERNELS[tag.kind](col, parts, one, pool)
    return {key: q for key, q in column.items() if not q.is_zero()}


def functor_on_map(tag: FunctorTag, f: MapMatrix) -> MapMatrix:
    """F(f) on the canonical bases, every column built at once; its
    entries come from one ``EntryPool``."""
    row_of = {parts: i for i, parts in enumerate(functor_parts(tag, range(f.target.rank)))}
    one = f.source.ring.one()
    pool = EntryPool()
    cols = {}
    for j, parts in enumerate(functor_parts(tag, range(f.source.rank))):
        column = functor_column(tag, f.col, parts, one, pool)
        if column:
            cols[j] = {row_of[key]: q for key, q in column.items()}
    return MapMatrix(functor_module(tag, f.source), functor_module(tag, f.target), cols)


class ProductFunctor:
    """Tensor product of functors, e.g. V -> D^2(V) (x) V."""

    def __init__(self, tags):
        self.tags = list(tags)

    def on_map(self, f):
        return tensor_maps([functor_on_map(t, f) for t in self.tags])


def _f_map(F, f):
    return functor_on_map(F, f) if isinstance(F, FunctorTag) else F.on_map(f)


# --- cross-effects ----------------------------------------------------------


def _projection_onto(Vsum: LabeledFreeModule, keep: set) -> MapMatrix:
    cols = {}
    one = Vsum.ring.one()
    for j, lab in enumerate(Vsum.labels):
        if lab[1] in keep:
            cols[j] = {j: one}
    return MapMatrix(Vsum, Vsum, cols)


@dataclass
class CrossEffect:
    module: LabeledFreeModule
    inclusion: MapMatrix  # into F(sum of arguments)


def cross_effect(tag: FunctorTag, args) -> CrossEffect:
    """Image of the cross-effect idempotent, basis = pivot columns.

    The pivot columns are the idempotent's columns that ``ColumnSpace.add``
    accepts, in order: those outside the span of the columns before them.

    args: list of LabeledFreeModule over a plain field ring.
    """
    ring = args[0].ring
    if ring.nvars != 0:
        raise ValueError("cross-effects are computed over a plain field ring")
    e = _idempotent_matrix(tag, direct_sum_modules(args), args)
    FV = e.source
    space = fieldla.ColumnSpace(ring.field)
    pivcols = [j for j, col in enumerate(constant_columns(e)) if space.add(col)]
    module = LabeledFreeModule(ring, [cr(FV.labels[j]) for j in pivcols])
    inclusion = MapMatrix(module, FV, {k: e.col(j) for k, j in enumerate(pivcols)})
    return CrossEffect(module, inclusion)


def _idempotent_matrix(tag, Vsum, k_args) -> MapMatrix:
    """sum_S (-1)^(k-|S|) F(p_S) on F(Vsum), over the subsets S of the k
    arguments, summed column by column through one ``EntryPool``."""
    k = len(k_args)
    terms = [
        ((k - size) % 2, _f_map(tag, _projection_onto(Vsum, set(subset))))
        for size in range(1, k + 1)
        for subset in combinations(range(k), size)
    ]
    pool = EntryPool()
    cols = {}
    for j in range(terms[0][1].source.rank):
        acc: dict = {}
        for negate, f in terms:
            for i, q in f.col(j).items():
                q = pool.neg(pool(q)) if negate else pool(q)
                acc[i] = pool.add(acc[i], q) if i in acc else q
        acc = {i: q for i, q in acc.items() if not q.is_zero()}
        if acc:
            cols[j] = acc
    return MapMatrix(terms[0][1].source, terms[0][1].target, cols)


def delta_map(tag: FunctorTag, eps, args):
    """Diagonal map cr_k(F)(V_1..V_k) -> cr_l(F)(V_1,..,V_1,..,V_k,..,V_k).

    eps: tuple of positive multiplicities, sum = l.
    """
    return _repeat_map(tag, eps, args, diagonal=True)


def plus_map(tag: FunctorTag, eps, args):
    """Plus map cr_l(F)(repeats) -> cr_k(F)(V_1..V_k)."""
    return _repeat_map(tag, eps, args, diagonal=False)


def _repeat_map(tag, eps, args, diagonal: bool):
    """The map between cr_k(F)(args) and cr_l(F)(repeats) induced by the fold
    V_i^{eps_i} -> V_i, or with ``diagonal`` by its transpose, the diagonal.

    Returns (map, source cross-effect, target cross-effect).
    """
    _check_eps(eps)
    ring = args[0].ring
    field, one = ring.field, ring.one()
    rep_args = [args[i] for i, e in enumerate(eps) for _ in range(e)]
    flat = [i for i, e in enumerate(eps) for _ in range(e)]
    Asum, Bsum = direct_sum_modules(args), direct_sum_modules(rep_args)
    fold_cols = {
        j: {Asum.index(smd(flat[lab[1]], lab[2])): one} for j, lab in enumerate(Bsum.labels)
    }
    fold = MapMatrix(Bsum, Asum, fold_cols)
    crA, crB = cross_effect(tag, args), cross_effect(tag, rep_args)
    if diagonal:
        f, src, tgt, tgt_args, tgt_sum = fold.transpose_raw(Asum, Bsum), crA, crB, rep_args, Bsum
    else:
        f, src, tgt, tgt_args, tgt_sum = fold, crB, crA, args, Asum
    e = _idempotent_matrix(tag, tgt_sum, tgt_args)
    image = e.compose(_f_map(tag, f).compose(src.inclusion))
    # the target's basis columns are independent, so the kernel of
    # [basis | image] has one vector per image column, 1 there and minus
    # its coordinates on the basis, exactly when every image column lies
    # in their span
    basis = constant_columns(tgt.inclusion)
    kernel = fieldla.nullspace(field, basis + constant_columns(image))
    if len(kernel) < image.source.rank:
        kind = "diagonal" if diagonal else "plus"
        raise RuntimeError(f"{kind} map does not land in the cross-effect")
    r = len(basis)
    coords = [{i: ring.const(field.neg(c)) for i, c in v.items() if i < r} for v in kernel]
    return MapMatrix(src.module, tgt.module, dict(enumerate(coords))), src, tgt


def _check_eps(eps):
    if any(e < 1 for e in eps):
        raise ValueError("epsilon entries must be positive")


# --- Cauchy filtration maps --------------------------------------------------


def cauchy_det_column(parts) -> dict:
    """Column of the 3x3 determinant Lambda^3 P (x) Lambda^3 Q ->
    Sym^3(P (x) Q) at the basis element with parts ((p1, p2, p3),
    (q1, q2, q3)), as {parts of a Sym^3(P (x) Q) element: +-1}; a part of
    Sym^3(P (x) Q) is a pair (p, q) of P and Q basis elements."""
    pi, qi = parts
    out: dict = {}
    for perm in permutations(range(3)):
        key = tuple(sorted((pi[t], qi[perm[t]]) for t in range(3)))
        out[key] = out.get(key, 0) + _perm_sign(perm)
    return {key: c for key, c in out.items() if c}


def cauchy_m21_column(parts) -> dict:
    """Column of Lambda^2 P (x) P (x) Lambda^2 Q (x) Q -> Sym^3(P (x) Q)
    at parts ((p1, p2), p3, (q1, q2), q3): the 2x2 minor on
    (p1,p2|q1,q2) times the pair (p3, q3), keyed as in cauchy_det_column."""
    (p1, p2), p3, (q1, q2), q3 = parts
    out: dict = {}
    for sign, (qa, qb) in ((1, (q1, q2)), (-1, (q2, q1))):
        key = tuple(sorted(((p1, qa), (p2, qb), (p3, q3))))
        out[key] = out.get(key, 0) + sign
    return {key: c for key, c in out.items() if c}


def _cauchy_map(P, Q, source_mods, source_parts, column) -> MapMatrix:
    """The Cauchy map with the given column kernel, on labeled modules."""
    ring = P.ring
    tgt = sym_module(tensor_modules([P, Q]), 3)
    pairs = list(product(range(P.rank), range(Q.rank)))
    row_of = {parts: i for i, parts in enumerate(functor_parts(Sym(3), pairs))}
    one = ring.one()
    cols = {}
    for j, parts in enumerate(source_parts):
        col = {row_of[key]: one.scale(c) for key, c in column(parts).items()}
        col = {i: q for i, q in col.items() if not q.is_zero()}
        if col:
            cols[j] = col
    return MapMatrix(tensor_modules(source_mods), tgt, cols)


def cauchy_det_map(P: LabeledFreeModule, Q: LabeledFreeModule) -> MapMatrix:
    """Lambda^3 P (x) Lambda^3 Q -> Sym^3(P (x) Q), the 3x3 determinant."""
    parts = list(product(combinations(range(P.rank), 3), combinations(range(Q.rank), 3)))
    return _cauchy_map(P, Q, [ext_module(P, 3), ext_module(Q, 3)], parts, cauchy_det_column)


def cauchy_m21_map(P: LabeledFreeModule, Q: LabeledFreeModule) -> MapMatrix:
    """Lambda^2 P (x) P (x) Lambda^2 Q (x) Q -> Sym^3(P (x) Q).

    (p1^p2, p3, q1^q2, q3) goes to the 2x2 minor on (p1,p2|q1,q2) times
    the pair (p3,q3).
    """
    p_pairs, q_pairs = combinations(range(P.rank), 2), combinations(range(Q.rank), 2)
    parts = list(product(p_pairs, range(P.rank), q_pairs, range(Q.rank)))
    mods = [ext_module(P, 2), P, ext_module(Q, 2), Q]
    return _cauchy_map(P, Q, mods, parts, cauchy_m21_column)


def _perm_sign(perm) -> int:
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1
