"""Groebner bases for submodules of free modules over k[x,...].

Elements of a free module R^r are flat sparse dicts
``{(position, monomial): coeff}``.  The module order is
position-over-term: lower position dominates, ties broken by
degrevlex.  By default Buchberger runs with cofactor
shadows in terms of the *input* generators, so zero reductions of
S-vectors hand back kernel elements (Schreyer) with no extra machinery.

Scale note: these routines certify the homology engines at desk scale:
module ranks in the tens to a few thousand (``gk --engine both`` at the
default n_max 7 takes about 1.5 s on a 2-vCPU VM).  Buchberger keeps its
pairs in a heap keyed by the lcm's degree and monomial key, ties in
creation order (Gebauer–Möller, J. Symb. Comp. 6 (1988)), and computes
each pair's cost and lcm once, when the pair is made.  Basis elements
never change once added, so each leading term and the inverse of its
coefficient are computed once: ``buchberger`` keeps lists parallel to
the basis and ``ModuleGB.lts`` caches a finished basis's.  Normal forms
run on a heap of the working element's terms (``_reduce_full``) and
reduce in place, so no step rescans the element or copies it.

Pair criteria: a pair that a criterion skips is one whose syzygy
follows from those of other pairs; reducing it anyway hands back one
more input syzygy.  A caller that reads the syzygies or the cofactors
(``homology_groebner`` presents H_k by the syzygies of its kernel
basis, and fewer of them would change that presentation) gets every
pair reduced.  With ``basis_only=True`` no shadow is
carried and Buchberger's chain criterion skips a pair (i, j) when some
other element k in the same position has a leading monomial dividing
lcm(i, j) and neither (i, k) nor (j, k) is still pending (the guard
that keeps two pairs from each being skipped on the other's account).
The reduced basis is unique, so both modes return the same generators.
The product criterion is not used: it is unsound for module elements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import count
from operator import add, le, sub

from .ring import (
    RingDescriptor,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_key,
    monomial_lcm,
)


def pot_key(pm):
    """Sort key on (position, monomial); max = leading term."""
    pos, mono = pm
    return (-pos, monomial_key(mono))


def elem_is_zero(v: dict) -> bool:
    return not v


def elem_scale(field, v: dict, c) -> dict:
    if c == field.zero:
        return {}
    return {k: field.mul(cv, c) for k, cv in v.items()}


def elem_lt(v: dict):
    """((position, monomial), coeff) of the leading term."""
    pm = max(v, key=pot_key)
    return pm, v[pm]


def from_map_column(col: dict) -> dict:
    """Convert a MapMatrix column ({row: Poly}) to a flat module element."""
    out = {}
    for pos, poly in col.items():
        for mono, c in poly.terms.items():
            out[(pos, mono)] = c
    return out


@dataclass
class ModuleGB:
    """A reduced Groebner basis of a submodule.

    A basis built with ``buchberger(..., basis_only=True)`` holds
    ``input_syzygies = None`` and ``cofactors = None``.
    """

    ambient_rank: int
    ring: RingDescriptor
    generators: list
    input_syzygies: list | None = dc_field(default_factory=list)
    cofactors: list | None = dc_field(default_factory=list)

    @cached_property
    def lts(self) -> list:
        """elem_lt of each generator, computed once per basis."""
        return [elem_lt(g) for g in self.generators]

    @cached_property
    def by_position(self) -> dict:
        """The leading terms bucketed by position (see _by_position)."""
        field = self.ring.field
        return _by_position(self.lts, [field.inv(c) for _, c in self.lts])


def _by_position(lts, invs) -> dict:
    """position -> [(index, monomial, 1/coeff)] of the leading terms there,
    in basis order, so a scan of one bucket finds the same first divisor
    as a scan of the whole basis.  invs[i] is 1/(leading coeff of i)."""
    out: dict = {}
    for idx, (((pos, mono), _), inv) in enumerate(zip(lts, invs)):
        out.setdefault(pos, []).append((idx, mono, inv))
    return out


def _heap_key(pos, m):
    """A key on (position, monomial) whose minimum is the leading term
    (position over term: lowest position, then largest monomial)."""
    return (pos, -sum(m), *m[::-1])


def _reduce_full(ring, v, basis, by_pos, shadows=None, vshadow=None):
    """Full normal form of v against basis, whose leading terms are
    bucketed by position in ``by_pos``; optionally drags a shadow.

    Heap division (Monagan–Pearce, CASC 2007): the working element is a
    dict with a min-heap of ``_heap_key`` keys, each computed when its
    term enters the dict.  A reduction subtracts q * x^u * basis[idx] in
    place and pushes only the terms it adds.  Every term it touches is
    below the one popped, so popped keys strictly decrease; an entry
    whose term has cancelled, or was pushed twice, is skipped.  The
    steps, the remainder and the shadow are those of repeatedly reducing
    the largest remaining term.  Neither v nor vshadow is changed.
    """
    field = ring.field
    zero, fsub, fmul = field.zero, field.sub, field.mul
    heappop, heappush, hkey = heapq.heappop, heapq.heappush, _heap_key
    work = dict(v)
    sh = dict(vshadow) if shadows is not None else None
    heap = [(hkey(*pm), pm) for pm in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        pm = heappop(heap)[1]
        c = work.get(pm)
        if c is None:
            continue
        pos, mono = pm
        for idx, bmono, binv in by_pos.get(pos, ()):
            if all(map(le, bmono, mono)):
                break
        else:
            rem[pm] = c
            del work[pm]
            continue
        u = tuple(map(sub, mono, bmono))
        q = fmul(c, binv)
        for (bpos, bm), bc in basis[idx].items():
            m = tuple(map(add, bm, u))
            k = (bpos, m)
            old = work.get(k)
            if old is None:
                work[k] = fsub(zero, fmul(bc, q))
                heappush(heap, (hkey(bpos, m), k))
            else:
                s = fsub(old, fmul(bc, q))
                if s == zero:
                    del work[k]
                else:
                    work[k] = s
        if sh is not None:
            _sub_multiple(field, sh, shadows[idx], u, q)
    if shadows is not None:
        return rem, sh
    return rem


def _sub_multiple(field, acc: dict, w: dict, u, q) -> dict:
    """acc -= q * x^u * w, in place; returns acc."""
    zero, fsub, fmul = field.zero, field.sub, field.mul
    for (pos, m), c in w.items():
        k = (pos, tuple(map(add, m, u)))
        s = fsub(acc.get(k, zero), fmul(c, q))
        if s == zero:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def _s_vector(field, a: dict, b: dict, ua, ub, qa, qb) -> dict:
    """qa * x^ua * a - qb * x^ub * b, built in one dict."""
    out = {(pos, tuple(map(add, m, ua))): field.mul(c, qa) for (pos, m), c in a.items()}
    return _sub_multiple(field, out, b, ub, qb)


def buchberger(gens, ambient_rank: int, ring: RingDescriptor, *, basis_only=False) -> ModuleGB:
    """Reduced GB of the submodule generated by gens, with input syzygies.

    gens: list of flat elements (dicts); zero entries allowed.  Pairs
    wait in a heap keyed by (degree of the lcm, monomial key of the lcm,
    creation index): the lowest lcm first, ties in creation order.
    With ``basis_only=True`` no shadow is carried, the chain criterion
    skips pairs, and the result has no syzygies and no cofactors.
    """
    field = ring.field
    basis = []
    lts = []  # elem_lt of each basis element; elements never change
    invs = []  # 1/(leading coefficient) of each basis element
    shadows = None if basis_only else []
    syzygies = None if basis_only else []
    for i, g in enumerate(gens):
        if elem_is_zero(g):
            if not basis_only:
                syzygies.append({(i, (0,) * ring.nvars): field.one})
        else:
            basis.append(dict(g))
            lts.append(elem_lt(g))
            invs.append(field.inv(lts[-1][1]))
            if not basis_only:
                shadows.append({(i, (0,) * ring.nvars): field.one})
    by_pos = _by_position(lts, invs)  # kept up to date as the basis grows

    pairs = []
    pending = set()  # (i, j), i < j, of the pairs still in the heap
    created = count()

    def add_pair(i, j):  # i < j, in the same position
        lcm = monomial_lcm(lts[i][0][1], lts[j][0][1])
        cost = (monomial_degree(lcm), monomial_key(lcm))
        heapq.heappush(pairs, (cost, next(created), i, j, lcm))
        pending.add((i, j))

    def chain_skips(i, j, pos, lcm):
        for k, kmono, _ in by_pos[pos]:
            if (
                k != i
                and k != j
                and all(map(le, kmono, lcm))
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                return True
        return False

    # only same-position pairs exist; each bucket is in basis order, so
    # pairs are created in (i, j) order
    placed = dict.fromkeys(by_pos, 0)  # position -> elements of it seen so far
    for i, ((pos, _), _) in enumerate(lts):
        placed[pos] += 1
        for j, _, _ in by_pos[pos][placed[pos]:]:
            add_pair(i, j)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        pending.discard((i, j))
        (pos, imono), _ = lts[i]
        (_, jmono), _ = lts[j]
        if basis_only and chain_skips(i, j, pos, lcm):
            continue
        ui, uj = monomial_div(lcm, imono), monomial_div(lcm, jmono)
        s = _s_vector(field, basis[i], basis[j], ui, uj, invs[i], invs[j])
        if basis_only:
            rem = _reduce_full(ring, s, basis, by_pos)
        else:
            sh = _s_vector(field, shadows[i], shadows[j], ui, uj, invs[i], invs[j])
            rem, sh = _reduce_full(ring, s, basis, by_pos, shadows, sh)
        if elem_is_zero(rem):
            if not basis_only and not elem_is_zero(sh):
                syzygies.append(sh)
        else:
            basis.append(rem)
            lts.append(elem_lt(rem))
            invs.append(field.inv(lts[-1][1]))
            if not basis_only:
                shadows.append(sh)
            k = len(basis) - 1
            kpos, kmono = lts[k][0]
            bucket = by_pos.setdefault(kpos, [])
            for t, _, _ in bucket:
                add_pair(t, k)
            bucket.append((k, kmono, invs[k]))

    reduced, cofactors = _interreduce(ring, basis, lts, invs, shadows)
    return ModuleGB(
        ambient_rank=ambient_rank,
        ring=ring,
        generators=reduced,
        input_syzygies=syzygies,
        cofactors=cofactors,
    )


def _interreduce(ring, basis, lts, invs, shadows):
    """Minimal reduced GB (monic, tails reduced), with tracked cofactors
    unless shadows is None (then the cofactors are None).

    Each minimal element's leading term is divisible by no other's, so
    reducing its tail against the others keeps that term and coefficient:
    the results stay in the sorted order and are scaled by invs.
    """
    field = ring.field
    tracked = shadows is not None
    if not tracked:
        shadows = [None] * len(basis)
    items = sorted(zip(basis, lts, invs, shadows), key=lambda item: pot_key(item[1][0]))
    min_basis, min_lts, min_invs, min_shadows = [], [], [], []
    for g, lt, inv, sh in items:
        (pos, mono), _ = lt
        if any(bpos == pos and monomial_divides(bmono, mono) for (bpos, bmono), _ in min_lts):
            continue
        min_basis.append(g)
        min_lts.append(lt)
        min_invs.append(inv)
        min_shadows.append(sh)
    by_pos = _by_position(min_lts, min_invs)

    out, cofactors = [], []
    for idx, (g, lt, inv, sh) in enumerate(zip(min_basis, min_lts, min_invs, min_shadows)):
        (pos, _), _ = lt
        others = dict(by_pos)
        others[pos] = [d for d in by_pos[pos] if d[0] != idx]
        if tracked:
            rem, rsh = _reduce_full(ring, g, min_basis, others, min_shadows, sh)
            cofactors.append(elem_scale(field, rsh, inv))
        else:
            rem = _reduce_full(ring, g, min_basis, others)
        out.append(elem_scale(field, rem, inv))
    return out, cofactors if tracked else None


def normal_form(v: dict, gb: ModuleGB) -> dict:
    return _reduce_full(gb.ring, v, gb.generators, gb.by_position)


def normal_form_with_cofactors(v: dict, gb: ModuleGB):
    """(remainder, expression of the reduced part in terms of gb's inputs)."""
    if gb.cofactors is None:
        raise ValueError("a basis-only ModuleGB has no cofactors")
    field = gb.ring.field
    zero_sh: dict = {}
    rem, sh = _reduce_full(gb.ring, v, gb.generators, gb.by_position, gb.cofactors, zero_sh)
    return rem, elem_scale(field, sh, field.neg(field.one))


def kernel_of_columns(cols, ambient_rank: int, ring: RingDescriptor):
    """Generators of the kernel of the map given by columns, plus their GB."""
    gb = buchberger(cols, ambient_rank, ring)
    return gb.input_syzygies, gb


# --- quotient dimensions ---------------------------------------------------


@dataclass
class Presentation:
    """coker of relations -> R^generator_count, plus certified invariants."""

    generator_count: int
    relations: ModuleGB
    gen_degrees: tuple = ()
    finite: bool = False
    dim: int | None = None

    def leading_exponents_by_position(self):
        by_pos: dict[int, list] = {i: [] for i in range(self.generator_count)}
        for (pos, mono), _ in self.relations.lts:
            by_pos[pos].append(mono)
        return by_pos


def _staircase_count(monos, nvars):
    """Number of standard monomials below a monomial ideal; None = infinite.

    The count is finite exactly when every variable has a pure power
    x_i^(a_i) among the generators; every standard monomial then has
    degree at most sum(a_i - 1).
    """
    powers = [min((m[i] for m in monos if sum(m) == m[i]), default=None) for i in range(nvars)]
    if None in powers:
        return None
    return sum(_staircase_dims(monos, nvars, sum(a - 1 for a in powers)))


def _staircase_dims(monos, nvars, t_max):
    """Per-degree counts of standard monomials, degrees 0..t_max.

    Recursion on the first exponent: x_1^a * m is standard exactly when m
    is standard below the generators with first exponent at most a, that
    exponent removed.  That set only grows at a generator's first
    exponent, so the tail counts are recomputed only there.
    """
    if nvars == 0:
        return [0 if monos else 1] + [0] * t_max
    if nvars == 1:
        bound = min((m[0] for m in monos), default=t_max + 1)
        return [1 if t < bound else 0 for t in range(t_max + 1)]
    dims = [0] * (t_max + 1)
    steps = {m[0] for m in monos}
    tail = None
    for a in range(t_max + 1):
        if tail is None or a in steps:
            tail = _staircase_dims([m[1:] for m in monos if m[0] <= a], nvars - 1, t_max - a)
            if not any(tail):
                break
        for b in range(t_max + 1 - a):
            dims[a + b] += tail[b]
    return dims


def quotient_dim(pres: Presentation):
    """(finite, dim) by counting standard monomials of the relations' LTs."""
    nvars = pres.relations.ring.nvars
    by_pos = pres.leading_exponents_by_position()
    counts = [_staircase_count(monos, nvars) for monos in by_pos.values()]
    pres.finite = None not in counts
    pres.dim = sum(counts) if pres.finite else None
    return pres.finite, pres.dim


def hilbert_dims(pres: Presentation, t_max: int):
    """Graded dimension of the quotient per internal degree 0..t_max.

    Uses gen_degrees to shift each position's staircase; requires the
    presentation to come from homogeneous data.
    """
    nvars = pres.relations.ring.nvars
    dims = [0] * (t_max + 1)
    by_pos = pres.leading_exponents_by_position()
    for pos in range(pres.generator_count):
        offset = pres.gen_degrees[pos] if pres.gen_degrees else 0
        local = _staircase_dims(by_pos.get(pos, []), nvars, t_max)
        for t in range(t_max + 1):
            if 0 <= t - offset <= t_max:
                dims[t] += local[t - offset] if t - offset >= 0 else 0
    return dims


def minimal_generators(pres: Presentation) -> int:
    """dim_k of quotient/(vars)*quotient: graded minimal generator count."""
    ring = pres.relations.ring
    field = ring.field
    gens = [dict(g) for g in pres.relations.generators]
    for pos in range(pres.generator_count):
        for v in range(ring.nvars):
            mono = tuple(1 if k == v else 0 for k in range(ring.nvars))
            gens.append({(pos, mono): field.one})
    gb = buchberger(gens, pres.generator_count, ring, basis_only=True)
    return quotient_dim(Presentation(pres.generator_count, gb))[1]  # finite: each x_i is in


def annihilates(pres: Presentation, poly) -> bool:
    """True if poly * (every generator) lies in the relation submodule."""
    ring = pres.relations.ring
    for pos in range(pres.generator_count):
        v = {(pos, mono): c for mono, c in poly.terms.items()}
        if not elem_is_zero(normal_form(v, pres.relations)):
            return False
    return True
