"""Polynomial functors on labeled free modules and their cross-effects.

Functor values carry canonical bases: monomials for Sym, strictly
increasing words for exterior powers, multisets for divided powers
(realized as the dual of Sym on the dual), pure tensors for tensor
powers, and standard tableaux (i^j)|k with i<j, i<=k for the shape
(2,1) Schur functor.  The Schur action straightens non-standard wedges
through the relation (a^b)|c = (a^c)|b - (b^c)|a for c < a < b, which
is the boundary of a^b^c.

Cross-effects are images of the inclusion-exclusion idempotent
sum_S (-1)^(k-|S|) F(p_S); diagonal and plus maps are computed inside
F(direct sum) and re-expressed in the chosen image bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, product

from . import fieldla
from .linear import (
    LabeledFreeModule,
    MapMatrix,
    cosch,
    cr,
    direct_sum_modules,
    from_field_matrix,
    schur,
    sym,
    tens,
    tensor_maps,
    tensor_modules,
    wedge,
)
from .linear import div as div_label


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


def functor_parts(tag: FunctorTag, rank: int) -> list:
    """Index tuples into the basis of V of the labels of F(V), in order."""
    return list(_part_tuples(tag.kind, tag.arity, range(rank)))


def functor_module(tag: FunctorTag, V: LabeledFreeModule) -> LabeledFreeModule:
    return _module(tag.kind, tag.arity, V)


def sym_module(V: LabeledFreeModule, l: int) -> LabeledFreeModule:
    return _module("sym", l, V)


def ext_module(V: LabeledFreeModule, l: int) -> LabeledFreeModule:
    return _module("ext", l, V)


def div_module(V: LabeledFreeModule, l: int) -> LabeledFreeModule:
    return _module("div", l, V)


def schur_module(V: LabeledFreeModule) -> LabeledFreeModule:
    return _module("schur", 3, V)


def coschur_module(V: LabeledFreeModule) -> LabeledFreeModule:
    return _module("coschur", 3, V)


# --- maps ------------------------------------------------------------------


def _sym_col(f: MapMatrix, tgt: LabeledFreeModule, parts) -> dict:
    """Expand the product of f-images of the multiset ``parts`` (indices)."""
    ring = f.source.ring
    combos = {(): ring.one()}
    for i in parts:
        new: dict = {}
        col = f.col(i)
        for partial, poly in combos.items():
            for r, q in col.items():
                key = tuple(sorted(partial + (r,)))
                prod = poly * q
                acc = new.get(key)
                new[key] = prod if acc is None else acc + prod
        combos = new
    out = {}
    for key, poly in combos.items():
        if poly.is_zero():
            continue
        label = sym(tuple(f.target.labels[r] for r in key))
        out[tgt.index(label)] = poly
    return out


def _ext_col(f: MapMatrix, tgt: LabeledFreeModule, parts) -> dict:
    ring = f.source.ring
    combos = {(): ring.one()}
    for i in parts:
        new: dict = {}
        col = f.col(i)
        for partial, poly in combos.items():
            for r, q in col.items():
                if r in partial:
                    continue
                pos = 0
                while pos < len(partial) and partial[pos] < r:
                    pos += 1
                sign = -1 if (len(partial) - pos) % 2 else 1
                key = partial[:pos] + (r,) + partial[pos:]
                prod = (poly * q).scale(sign)
                acc = new.get(key)
                new[key] = prod if acc is None else acc + prod
        combos = new
    out = {}
    for key, poly in combos.items():
        if poly.is_zero():
            continue
        label = wedge(tuple(f.target.labels[r] for r in key))[1]
        out[tgt.index(label)] = poly
    return out


def _schur_straighten(a: int, b: int, c: int):
    """Rewrite the class of (e_a ^ e_b) | e_c on standard tableaux (indices)."""
    if a == b:
        return []
    if a > b:
        return [(-coeff, t) for coeff, t in _schur_straighten(b, a, c)]
    if a <= c:
        return [(1, (a, b, c))]
    # c < a < b: subtract the boundary of c ^ a ^ b
    return [(-1, (c, a, b)), (1, (c, b, a))]


def _schur_col(f: MapMatrix, tgt: LabeledFreeModule, parts) -> dict:
    ring = f.source.ring
    i, j, k = parts
    out: dict = {}
    for r, q1 in f.col(i).items():
        for s, q2 in f.col(j).items():
            if r == s:
                continue
            for t, q3 in f.col(k).items():
                poly = q1 * q2 * q3
                for sign, (a, b, c) in _schur_straighten(r, s, t):
                    label = schur(
                        f.target.labels[a], f.target.labels[b], f.target.labels[c]
                    )
                    idx = tgt.index(label)
                    term = poly.scale(sign)
                    acc = out.get(idx)
                    out[idx] = term if acc is None else acc + term
    return {i2: q for i2, q in out.items() if not q.is_zero()}


def _dual_functor_map(dual_tag: FunctorTag, f: MapMatrix, src, tgt) -> MapMatrix:
    """F(f) on src -> tgt for the functor F dual to ``dual_tag``: the dual
    functor on the transpose of f, transposed back."""
    D = functor_on_map(dual_tag, f.transpose_raw(f.target, f.source)).materialize()
    return D.transpose_raw(src, tgt)


def functor_on_map(tag: FunctorTag, f: MapMatrix, source=None, target=None) -> MapMatrix:
    """F(f) on the canonical bases; columns are lazily expanded.

    ``source`` and ``target``, when given, must be functor_module of f's
    source and target; callers that already hold them pass them so the
    modules are not built again.
    """
    if tag.kind == "tensor":
        return tensor_maps([f] * tag.arity, source, target)
    src = functor_module(tag, f.source) if source is None else source
    tgt = functor_module(tag, f.target) if target is None else target
    if tag.kind == "div":
        return _dual_functor_map(Sym(tag.arity), f, src, tgt)
    if tag.kind == "coschur":
        return _dual_functor_map(SchurL31, f, src, tgt)
    col = {"sym": _sym_col, "ext": _ext_col, "schur": _schur_col}[tag.kind]
    idx_parts = functor_parts(tag, f.source.rank)
    return MapMatrix(src, tgt, provider=lambda j: col(f, tgt, idx_parts[j]))


class ProductFunctor:
    """Tensor product of functors, e.g. V -> D^2(V) (x) V."""

    def __init__(self, tags):
        self.tags = list(tags)

    def module(self, V):
        return tensor_modules([functor_module(t, V) for t in self.tags])

    def on_map(self, f):
        return tensor_maps([functor_on_map(t, f) for t in self.tags])


def _f_module(F, V):
    return functor_module(F, V) if isinstance(F, FunctorTag) else F.module(V)


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
    ambient: LabeledFreeModule
    pivot_cols: list


def cross_effect(tag: FunctorTag, args, ring=None) -> CrossEffect:
    """Image of the cross-effect idempotent, basis = pivot columns.

    args: list of LabeledFreeModule over a plain field ring.
    """
    ring = ring or args[0].ring
    if ring.nvars != 0:
        raise ValueError("cross-effects are computed over a plain field ring")
    field = ring.field
    FV, total = _idempotent_matrix(tag, direct_sum_modules(args), args, field)
    r, pivcols, _ = fieldla.echelon(field, total)
    basis_labels = [cr(FV.labels[j]) for j in pivcols]
    module = LabeledFreeModule(ring, basis_labels)
    incl_matrix = total[:, pivcols] if pivcols else fieldla.zeros(field, FV.rank, 0)
    inclusion = from_field_matrix(module, FV, incl_matrix)
    return CrossEffect(module, inclusion, FV, list(pivcols))


def _idempotent_matrix(tag, Vsum, k_args, field):
    FV = _f_module(tag, Vsum)
    total = fieldla.zeros(field, FV.rank, FV.rank)
    k = len(k_args)
    for size in range(1, k + 1):
        sign = (-1) ** (k - size)
        for subset in combinations(range(k), size):
            pS = _projection_onto(Vsum, set(subset))
            M = _f_map(tag, pS).materialize().to_field_matrix()
            total = total + (M if sign > 0 else -M)
    return FV, fieldla.reduce(field, total)


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
    field = args[0].ring.field
    one = args[0].ring.one()
    rep_args = [args[i] for i, e in enumerate(eps) for _ in range(e)]
    flat = [i for i, e in enumerate(eps) for _ in range(e)]
    Asum, Bsum = direct_sum_modules(args), direct_sum_modules(rep_args)
    fold_cols = {
        j: {Asum.index((lab[0], flat[lab[1]], lab[2])): one} for j, lab in enumerate(Bsum.labels)
    }
    fold = MapMatrix(Bsum, Asum, fold_cols)
    crA, crB = cross_effect(tag, args), cross_effect(tag, rep_args)
    if diagonal:
        f, src, tgt, tgt_args, tgt_sum = fold.transpose_raw(Asum, Bsum), crA, crB, rep_args, Bsum
    else:
        f, src, tgt, tgt_args, tgt_sum = fold, crB, crA, args, Asum
    Ff = _f_map(tag, f).materialize().to_field_matrix()
    _, e = _idempotent_matrix(tag, tgt_sum, tgt_args, field)
    image = fieldla.matmul(field, e, fieldla.matmul(field, Ff, src.inclusion.to_field_matrix()))
    X = fieldla.solve_columns(field, tgt.inclusion.to_field_matrix(), image)
    if X is None:
        kind = "diagonal" if diagonal else "plus"
        raise RuntimeError(f"{kind} map does not land in the cross-effect")
    return from_field_matrix(src.module, tgt.module, X), src, tgt


def _check_eps(eps):
    if any(e < 1 for e in eps):
        raise ValueError("epsilon entries must be positive")


# --- Cauchy filtration maps --------------------------------------------------


def cauchy_det_map(P: LabeledFreeModule, Q: LabeledFreeModule, target=None) -> MapMatrix:
    """Lambda^3 P (x) Lambda^3 Q -> Sym^3(P (x) Q), the 3x3 determinant.

    ``target``, when given, must be Sym^3(P (x) Q); a caller that holds
    it passes it so it is not built again.
    """
    ring = P.ring
    src = tensor_modules([ext_module(P, 3), ext_module(Q, 3)])
    tgt = sym_module(tensor_modules([P, Q]), 3) if target is None else target
    p_triples = list(combinations(range(P.rank), 3))
    q_triples = list(combinations(range(Q.rank), 3))
    one = ring.one()

    def provider(j):
        pi = p_triples[j // len(q_triples)]
        qi = q_triples[j % len(q_triples)]
        out: dict = {}
        for perm in permutations(range(3)):
            sign = _perm_sign(perm)
            pairs = [
                tens((P.labels[pi[t]], Q.labels[qi[perm[t]]])) for t in range(3)
            ]
            label = sym(tuple(pairs))
            idx = tgt.index(label)
            coeff = one.scale(sign)
            acc = out.get(idx)
            out[idx] = coeff if acc is None else acc + coeff
        return {i: q for i, q in out.items() if not q.is_zero()}

    return MapMatrix(src, tgt, provider=provider)


def cauchy_m21_map(P: LabeledFreeModule, Q: LabeledFreeModule, target=None) -> MapMatrix:
    """Lambda^2 P (x) P (x) Lambda^2 Q (x) Q -> Sym^3(P (x) Q).

    (p1^p2, p3, q1^q2, q3) goes to the 2x2 minor on (p1,p2|q1,q2) times
    the pair (p3,q3).  ``target`` is as for cauchy_det_map.
    """
    ring = P.ring
    src = tensor_modules([ext_module(P, 2), P, ext_module(Q, 2), Q])
    tgt = sym_module(tensor_modules([P, Q]), 3) if target is None else target
    p_pairs = list(combinations(range(P.rank), 2))
    q_pairs = list(combinations(range(Q.rank), 2))
    one = ring.one()
    dims = (len(p_pairs), P.rank, len(q_pairs), Q.rank)

    def provider(j):
        rem = j
        qi3 = rem % dims[3]; rem //= dims[3]
        qpair = q_pairs[rem % dims[2]]; rem //= dims[2]
        pi3 = rem % dims[1]; rem //= dims[1]
        ppair = p_pairs[rem]
        (p1, p2), (q1, q2) = ppair, qpair
        out: dict = {}
        third = tens((P.labels[pi3], Q.labels[qi3]))
        for sign, (qa, qb) in ((1, (q1, q2)), (-1, (q2, q1))):
            pairs = (
                tens((P.labels[p1], Q.labels[qa])),
                tens((P.labels[p2], Q.labels[qb])),
                third,
            )
            idx = tgt.index(sym(pairs))
            coeff = one.scale(sign)
            acc = out.get(idx)
            out[idx] = coeff if acc is None else acc + coeff
        return {i: q for i, q in out.items() if not q.is_zero()}

    return MapMatrix(src, tgt, provider=provider)


def _perm_sign(perm) -> int:
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1
