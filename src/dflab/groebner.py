"""Groebner bases for submodules of free modules over k[x,...].

Elements of a free module R^r are flat sparse dicts
``{(position, monomial): coeff}``.  The module order is
position-over-term: lower position dominates, ties broken by the
ring's monomial order.  Buchberger runs with cofactor shadows in terms
of the *input* generators, so zero reductions of S-vectors hand back
kernel elements (Schreyer) with no extra machinery.

Scale note: these routines certify the homology engines at desk scale
(module ranks in the tens).  Buchberger keeps its pairs in a heap keyed
by the lcm's degree and monomial key, ties in creation order
(Gebauer–Möller, J. Symb. Comp. 6 (1988)), and computes each pair's
cost once, when the pair is made.  Basis elements never change once
added, so each leading term is computed once: ``buchberger`` keeps a
list parallel to the basis and ``ModuleGB.lts`` caches a finished
basis's.  There are still no pair criteria: every pair that a criterion
would skip is one whose S-vector reduces to zero, and that zero
reduction's shadow is an input syzygy.  ``homology_groebner`` presents
H_k by those syzygies, so skipping pairs would change the presentation
(and the product criterion is unsound for module elements anyway).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import count

from .ring import (
    RingDescriptor,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
)


def pot_key(ring: RingDescriptor):
    """Sort key on (position, monomial); max = leading term."""

    def key(pm):
        pos, mono = pm
        return (-pos, monomial_key(mono, ring.order))

    return key


def elem_is_zero(v: dict) -> bool:
    return not v


def elem_scale(field, v: dict, c) -> dict:
    if c == field.zero:
        return {}
    return {k: field.mul(cv, c) for k, cv in v.items()}


def elem_sub(field, v: dict, w: dict) -> dict:
    out = dict(v)
    for k, c in w.items():
        s = field.sub(out.get(k, field.zero), c)
        if s == field.zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def elem_mul_term(field, v: dict, mono, c) -> dict:
    return {(pos, monomial_mul(m, mono)): field.mul(cv, c) for (pos, m), cv in v.items()}


def elem_lt(ring, v: dict):
    """((position, monomial), coeff) of the leading term."""
    key = pot_key(ring)
    pm = max(v, key=key)
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
    """A (reduced, unless flagged otherwise) Groebner basis of a submodule."""

    ambient_rank: int
    ring: RingDescriptor
    generators: list
    reduced: bool = True
    input_syzygies: list = dc_field(default_factory=list)
    input_count: int = 0
    cofactors: list = dc_field(default_factory=list)

    @cached_property
    def lts(self) -> list:
        """elem_lt of each generator, computed once per basis."""
        return [elem_lt(self.ring, g) for g in self.generators]

    def leading_terms(self):
        return [pm for pm, _ in self.lts]


def _reduce_full(ring, v, basis, lts, shadows=None, vshadow=None):
    """Full normal form of v against basis, whose leading terms are lts;
    optionally drags a shadow."""
    field = ring.field
    key = pot_key(ring)
    rem: dict = {}
    work = dict(v)
    while work:
        pm = max(work, key=key)
        pos, mono = pm
        c = work[pm]
        hit = None
        for idx, ((bpos, bmono), bc) in enumerate(lts):
            if bpos == pos and monomial_divides(bmono, mono):
                hit = (idx, monomial_div(mono, bmono), field.mul(c, field.inv(bc)))
                break
        if hit is None:
            rem[pm] = c
            del work[pm]
            continue
        idx, qmono, qc = hit
        work = elem_sub(field, work, elem_mul_term(field, basis[idx], qmono, qc))
        if shadows is not None:
            vshadow = elem_sub(field, vshadow, elem_mul_term(field, shadows[idx], qmono, qc))
    if shadows is not None:
        return rem, vshadow
    return rem


def buchberger(gens, ambient_rank: int, ring: RingDescriptor) -> ModuleGB:
    """Reduced GB of the submodule generated by gens, with input syzygies.

    gens: list of flat elements (dicts); zero entries allowed.  Pairs
    wait in a heap keyed by (degree of the lcm, monomial key of the lcm,
    creation index): the lowest lcm first, ties in creation order.
    """
    field = ring.field
    m = len(gens)
    basis = []
    lts = []  # elem_lt of each basis element; elements never change
    shadows = []
    syzygies = []
    for i, g in enumerate(gens):
        if elem_is_zero(g):
            syzygies.append({(i, (0,) * ring.nvars): field.one})
        else:
            basis.append(dict(g))
            lts.append(elem_lt(ring, g))
            shadows.append({(i, (0,) * ring.nvars): field.one})

    pairs = []
    created = count()

    def add_pair(i, j):
        (ipos, imono), _ = lts[i]
        (jpos, jmono), _ = lts[j]
        if ipos == jpos:
            lcm = monomial_lcm(imono, jmono)
            cost = (monomial_degree(lcm), monomial_key(lcm, ring.order))
            heapq.heappush(pairs, (cost, next(created), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            add_pair(i, j)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        (_, imono), ic = lts[i]
        (_, jmono), jc = lts[j]
        lcm = monomial_lcm(imono, jmono)
        ui, uj = monomial_div(lcm, imono), monomial_div(lcm, jmono)
        s = elem_sub(
            field,
            elem_mul_term(field, basis[i], ui, field.inv(ic)),
            elem_mul_term(field, basis[j], uj, field.inv(jc)),
        )
        sh = elem_sub(
            field,
            elem_mul_term(field, shadows[i], ui, field.inv(ic)),
            elem_mul_term(field, shadows[j], uj, field.inv(jc)),
        )
        rem, sh = _reduce_full(ring, s, basis, lts, shadows, sh)
        if elem_is_zero(rem):
            if not elem_is_zero(sh):
                syzygies.append(sh)
        else:
            basis.append(rem)
            lts.append(elem_lt(ring, rem))
            shadows.append(sh)
            k = len(basis) - 1
            for t in range(k):
                add_pair(t, k)

    reduced, cofactors = _interreduce(ring, basis, lts, shadows)
    return ModuleGB(
        ambient_rank=ambient_rank,
        ring=ring,
        generators=reduced,
        reduced=True,
        input_syzygies=syzygies,
        input_count=m,
        cofactors=cofactors,
    )


def _interreduce(ring, basis, lts, shadows):
    """Minimal reduced GB (monic, tails reduced) with tracked cofactors."""
    field = ring.field
    key = pot_key(ring)
    items = sorted(zip(basis, lts, shadows), key=lambda item: key(item[1][0]))
    min_basis, min_lts, min_shadows = [], [], []
    for g, lt, sh in items:
        (pos, mono), _ = lt
        if any(bpos == pos and monomial_divides(bmono, mono) for (bpos, bmono), _ in min_lts):
            continue
        min_basis.append(g)
        min_lts.append(lt)
        min_shadows.append(sh)

    def others(xs, idx):
        return xs[:idx] + xs[idx + 1 :]

    out = []
    for idx, (g, sh) in enumerate(zip(min_basis, min_shadows)):
        rem, rsh = _reduce_full(
            ring, g, others(min_basis, idx), others(min_lts, idx), others(min_shadows, idx), sh
        )
        if elem_is_zero(rem):
            continue
        lt, lc = elem_lt(ring, rem)
        inv = field.inv(lc)
        out.append((key(lt), elem_scale(field, rem, inv), elem_scale(field, rsh, inv)))
    out.sort(key=lambda item: item[0])
    return [g for _, g, _ in out], [sh for _, _, sh in out]


def normal_form(v: dict, gb: ModuleGB) -> dict:
    return _reduce_full(gb.ring, v, gb.generators, gb.lts)


def normal_form_with_cofactors(v: dict, gb: ModuleGB):
    """(remainder, expression of the reduced part in terms of gb's inputs)."""
    field = gb.ring.field
    zero_sh: dict = {}
    rem, sh = _reduce_full(gb.ring, v, gb.generators, gb.lts, gb.cofactors, zero_sh)
    return rem, elem_scale(field, sh, field.neg(field.one))


def syzygies(gb: ModuleGB) -> ModuleGB:
    """Kernel of (free module on gb.generators) -> ambient, as a ModuleGB."""
    inner = buchberger([dict(g) for g in gb.generators], gb.ambient_rank, gb.ring)
    return buchberger(inner.input_syzygies, len(gb.generators), gb.ring)


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
    """Number of standard monomials below a monomial ideal; None = infinite."""
    if any(sum(m) == 0 for m in monos):
        return 0
    if nvars == 0:
        return 1
    if nvars == 1:
        if not monos:
            return None
        return min(m[0] for m in monos)
    if nvars == 2:
        xs = [m for m in monos if m[1] == 0]
        ys = [m for m in monos if m[0] == 0]
        if not xs or not ys:
            return None
        ax = min(m[0] for m in xs)
        count = 0
        for a in range(ax):
            bs = [m[1] for m in monos if m[0] <= a]
            count += min(bs)
        return count
    raise NotImplementedError("staircase counting supports at most 2 variables")


def _staircase_dims(monos, nvars, t_max):
    """Per-degree counts of standard monomials, degrees 0..t_max."""
    if nvars == 0:
        base = [0] * (t_max + 1)
        if not any(sum(m) == 0 for m in monos):
            base[0] = 1
        return base
    dims = [0] * (t_max + 1)
    if nvars == 1:
        bound = min((m[0] for m in monos), default=None)
        for t in range(t_max + 1):
            dims[t] = 1 if (bound is None or t < bound) else 0
        return dims
    if nvars == 2:
        for a in range(t_max + 1):
            bs = [m[1] for m in monos if m[0] <= a]
            bound = min(bs, default=None)
            for b in range(t_max + 1 - a):
                if bound is None or b < bound:
                    dims[a + b] += 1
        return dims
    raise NotImplementedError("staircase counting supports at most 2 variables")


def quotient_dim(pres: Presentation):
    """(finite, dim) by counting standard monomials of the relations' LTs."""
    nvars = pres.relations.ring.nvars
    total = 0
    for pos, monos in pres.leading_exponents_by_position().items():
        c = _staircase_count(monos, nvars)
        if c is None:
            pres.finite = False
            pres.dim = None
            return False, None
        total += c
    pres.finite = True
    pres.dim = total
    return True, total


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
    gb = buchberger(gens, pres.generator_count, ring)
    total = 0
    for pos, monos in Presentation(pres.generator_count, gb).leading_exponents_by_position().items():
        c = _staircase_count(monos, ring.nvars)
        total += 0 if c is None else c
    return total


def annihilates(pres: Presentation, poly) -> bool:
    """True if poly * (every generator) lies in the relation submodule."""
    ring = pres.relations.ring
    for pos in range(pres.generator_count):
        v = {(pos, mono): c for mono, c in poly.terms.items()}
        if not elem_is_zero(normal_form(v, pres.relations)):
            return False
    return True
