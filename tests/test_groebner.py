"""Module Groebner bases, normal forms, syzygies, staircase counts."""

import copy
import hashlib
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import engines_complex
from dflab import complexes
from dflab import functors as fu
from dflab import groebner as gb
from dflab.koszul import regular_sequence_resolution
from dflab.ring import (
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
    ring_descriptor,
)
from dflab.simplicial import apply_pointwise_functor, gamma, normalize

R = ring_descriptor()
F = R.field
X = {(0, (1, 0)): 1}
Y = {(0, (0, 1)): 1}


def apply_columns(cols, v, ring=R):
    out = {}
    fld = ring.field
    for (i, mono), c in v.items():
        for (pos, m2), c2 in cols[i].items():
            k = (pos, tuple(a + b for a, b in zip(mono, m2)))
            s = fld.add(out.get(k, fld.zero), fld.mul(c, c2))
            if s == fld.zero:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def test_maximal_ideal_gb():
    g = gb.buchberger([dict(X), dict(Y)], 1, R)
    assert sorted(pm for pm, _ in g.lts) == [(0, (0, 1)), (0, (1, 0))]
    assert gb.elem_is_zero(gb.normal_form({(0, (2, 0)): 1}, g))
    assert gb.normal_form({(0, (0, 0)): 1}, g) == {(0, (0, 0)): 1}


def test_elimination_example():
    # x^2 + y and y^2: the quotient is spanned by 1, x, x^2, x^3
    f1 = {(0, (2, 0)): 1, (0, (0, 1)): 1}
    f2 = {(0, (0, 2)): 1}
    g = gb.buchberger([f1, f2], 1, R)
    pres = gb.Presentation(1, g)
    assert gb.quotient_dim(pres) == (True, 4)
    assert gb.elem_is_zero(gb.normal_form({(0, (0, 1)): 1, (0, (2, 0)): 1}, g))


def test_submodule_gb_is_generators():
    e1x = {(0, (1, 0)): 1}
    e2x = {(1, (1, 0)): 1}
    g = gb.buchberger([e1x, e2x], 2, R)
    assert len(g.generators) == 2
    assert sorted(pm for pm, _ in g.lts) == [(0, (1, 0)), (1, (1, 0))]


def test_koszul_syzygy():
    g = gb.buchberger([dict(X), dict(Y)], 1, R)
    assert len(g.input_syzygies) == 1
    s = g.input_syzygies[0]
    assert set(s) == {(0, (0, 1)), (1, (1, 0))}
    assert gb.elem_is_zero(apply_columns([X, Y], s))


def test_regular_element_no_syzygy():
    f = {(0, (1, 0)): 1, (0, (0, 2)): 3}
    assert gb.buchberger([f], 1, R).input_syzygies == []


def test_three_generator_syzygies():
    xy = {(0, (1, 0)): 1, (0, (0, 1)): 1}
    g = gb.buchberger([dict(X), dict(Y), xy], 1, R)
    for s in g.input_syzygies:
        assert gb.elem_is_zero(apply_columns([X, Y, xy], s))
    sgb = gb.buchberger(g.input_syzygies, 3, R)
    cand = {(0, (0, 0)): 1, (1, (0, 0)): 1, (2, (0, 0)): F.neg(1)}
    assert gb.elem_is_zero(gb.normal_form(cand, sgb))


def test_syzygies_of_reduced_gb():
    g = gb.buchberger([dict(X), dict(Y)], 1, R)
    inner = gb.buchberger([dict(v) for v in g.generators], g.ambient_rank, R)
    s = gb.buchberger(inner.input_syzygies, len(g.generators), R)
    assert s.ambient_rank == len(g.generators)
    for v in s.generators:
        assert gb.elem_is_zero(apply_columns(g.generators, v))


def test_quotient_dims():
    assert gb.quotient_dim(gb.Presentation(1, gb.buchberger([dict(X), dict(Y)], 1, R))) == (True, 1)
    assert gb.quotient_dim(gb.Presentation(1, gb.buchberger([dict(X)], 1, R))) == (False, None)
    sq = gb.buchberger([{(0, (2, 0)): 1}, {(0, (1, 1)): 1}, {(0, (0, 2)): 1}], 1, R)
    assert gb.quotient_dim(gb.Presentation(1, sq)) == (True, 3)


def test_hilbert_and_invariants():
    gx = gb.buchberger([dict(X)], 1, R)
    pres = gb.Presentation(1, gx, gen_degrees=(0,))
    assert gb.hilbert_dims(pres, 6) == [1] * 7
    assert gb.minimal_generators(pres) == 1
    assert gb.annihilates(pres, R.var("x"))
    assert not gb.annihilates(pres, R.var("y"))


def _standard_dims(monos, nvars, t_max):
    """Brute force: monomials of each degree that no generator divides."""
    return [
        sum(not any(monomial_divides(g, m) for g in monos) for m in monomials_of_degree(nvars, t))
        for t in range(t_max + 1)
    ]


def _check_staircase(monos, nvars):
    t_max = 9
    assert gb._staircase_dims(monos, nvars, t_max) == _standard_dims(monos, nvars, t_max)
    count = gb._staircase_count(monos, nvars)
    if count is None:
        # a variable with no pure power among the generators has every power standard
        assert all(_standard_dims(monos, nvars, t_max))
    else:
        # every standard monomial has each exponent below that variable's pure power
        assert count == sum(_standard_dims(monos, nvars, 4 * nvars))


@pytest.mark.parametrize(
    "monos,nvars,count",
    [
        ([], 0, 1),
        ([()], 0, 0),
        ([], 1, None),
        ([(3,)], 1, 3),
        ([(1, 0), (0, 1)], 2, 1),
        ([(2, 0), (1, 1), (0, 2)], 2, 3),
        ([(1, 1)], 2, None),  # no pure power at all
        ([(2, 0), (1, 1)], 2, None),  # y has none
        ([(0, 0, 0)], 3, 0),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 1),
        # 12 monomials in the 2 x 3 x 2 box, less x*y*z and x*y^2*z
        ([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)], 3, 10),
        ([(1, 0, 0), (0, 1, 0)], 3, None),  # z has none: k[z]
        ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3, None),
    ],
)
def test_staircase_examples(monos, nvars, count):
    assert gb._staircase_count(monos, nvars) == count
    _check_staircase(monos, nvars)


@settings(max_examples=150)
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6), st.just(n))
))
def test_staircase_matches_brute_force(case):
    _check_staircase(*case)


def test_buchberger_zero_generators_make_unit_syzygies():
    g = gb.buchberger([{}, dict(X)], 1, R)
    assert any(set(s) == {(0, (0, 0))} for s in g.input_syzygies)


# --- the max-scan reference normal form -------------------------------------
#
# The reference for groebner._reduce_full: find the largest remaining term
# by a scan, take the first basis element (in basis order) whose leading
# term divides it, and rebuild the working element and the shadow as new
# dicts.  Of the module under test it uses only pot_key and elem_lt.


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


def reference_normal_form(ring, v, basis, shadows=None, vshadow=None):
    field = ring.field
    lts = [gb.elem_lt(g) for g in basis]
    rem: dict = {}
    work = dict(v)
    while work:
        pm = max(work, key=gb.pot_key)
        pos, mono = pm
        c = work[pm]
        divides = [bpos == pos and monomial_divides(bmono, mono) for (bpos, bmono), _ in lts]
        hit = divides.index(True) if True in divides else None
        if hit is None:
            rem[pm] = c
            del work[pm]
            continue
        (_, bmono), bc = lts[hit]
        u, q = monomial_div(mono, bmono), field.mul(c, field.inv(bc))
        work = elem_sub(field, work, elem_mul_term(field, basis[hit], u, q))
        if shadows is not None:
            vshadow = elem_sub(field, vshadow, elem_mul_term(field, shadows[hit], u, q))
    if shadows is not None:
        return rem, vshadow
    return rem


_FIELDS = {"F_2": {"prime": 2}, "F_97": {"prime": 97}, "Q": {"rationals": True}}


@st.composite
def _rings(draw):
    nvars = draw(st.integers(1, 3))
    return ring_descriptor(
        variables=("x", "y", "z")[:nvars],
        sequence=(),
        **_FIELDS[draw(st.sampled_from(sorted(_FIELDS)))],
    )


def _elements(draw, ring, rank, max_terms=4, nonzero=False):
    v = {}
    for _ in range(draw(st.integers(1 if nonzero else 0, max_terms))):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(ring.nvars))
        # odd denominators: each is a unit in F_2 and F_97 too
        num, den = draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 3, 5]))
        c = ring.field.coerce(Fraction(num, den))
        if c != ring.field.zero:
            v[(draw(st.integers(0, rank - 1)), mono)] = c
    if nonzero and not v:
        v[(0, (0,) * ring.nvars)] = ring.field.one
    return v


@st.composite
def division_cases(draw):
    """(ring, v, basis, shadows, vshadow): any nonzero basis, shadows of rank m."""
    ring = draw(_rings())
    rank, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    basis = [_elements(draw, ring, rank, nonzero=True) for _ in range(draw(st.integers(1, 4)))]
    shadows = [_elements(draw, ring, m) for _ in basis]
    return ring, _elements(draw, ring, rank, 6), basis, shadows, _elements(draw, ring, m)


@settings(max_examples=300)
@given(division_cases())
def test_heap_normal_form_matches_the_max_scan(case):
    ring, v, basis, shadows, vshadow = case
    lts = [gb.elem_lt(g) for g in basis]
    by_pos = gb._by_position(lts, [ring.field.inv(c) for _, c in lts])
    inputs = copy.deepcopy((v, basis, shadows, vshadow, by_pos))
    rem, sh = gb._reduce_full(ring, v, basis, by_pos, shadows, vshadow)
    ref_rem, ref_sh = reference_normal_form(ring, v, basis, shadows, vshadow)
    # the same terms in the same dict order: the remainder largest term
    # first, the shadow as the rebuilt dicts would have it
    assert list(rem.items()) == list(ref_rem.items())
    assert list(sh.items()) == list(ref_sh.items())
    assert list(gb._reduce_full(ring, v, basis, by_pos).items()) == list(ref_rem.items())
    assert (v, basis, shadows, vshadow, by_pos) == inputs


@settings(max_examples=60)
@given(st.data())
def test_normal_form_with_cofactors_matches_the_max_scan(data):
    ring = data.draw(_rings())
    rank = data.draw(st.integers(1, 2))
    gens = [_elements(data.draw, ring, rank, 3) for _ in range(data.draw(st.integers(1, 3)))]
    inputs = copy.deepcopy(gens)
    g = gb.buchberger(gens, rank, ring)
    assert gens == inputs
    v = _elements(data.draw, ring, rank, 6)
    kept = copy.deepcopy((v, g.generators, g.cofactors, g.by_position))
    rem, expr = gb.normal_form_with_cofactors(v, g)
    ref_rem, ref_sh = reference_normal_form(ring, v, g.generators, g.cofactors, {})
    assert rem == ref_rem
    assert expr == {k: ring.field.neg(c) for k, c in ref_sh.items()}
    # v - rem is the combination expr of the inputs
    assert elem_sub(ring.field, v, rem) == apply_columns(gens, expr, ring)
    assert (v, g.generators, g.cofactors, g.by_position) == kept


# --- randomized properties ------------------------------------------------

_expo = st.integers(min_value=0, max_value=3)
_coeff = st.integers(min_value=1, max_value=96)


@st.composite
def elements(draw, rank=2):
    n = draw(st.integers(min_value=0, max_value=3))
    v = {}
    for _ in range(n):
        key = (draw(st.integers(0, rank - 1)), (draw(_expo), draw(_expo)))
        v[key] = draw(_coeff)
    return v


@settings(max_examples=40)
@given(elements(), elements(), elements())
def test_normal_form_idempotent_and_membership(a, b, v):
    gens = [g for g in (a, b) if g]
    if not gens:
        return
    g = gb.buchberger([dict(e) for e in gens], 2, R)
    nf = gb.normal_form(v, g)
    assert gb.normal_form(nf, g) == nf
    # every S-vector of the reduced basis reduces to zero
    inner = gb.buchberger([dict(e) for e in g.generators], 2, R)
    assert len(inner.generators) == len(g.generators)


@settings(max_examples=25)
@given(elements(rank=1), elements(rank=1), st.integers(0, 3), st.integers(0, 3))
def test_syzygies_annihilate_columns(a, b, e1, e2):
    gens = [g for g in (a, b) if g]
    if len(gens) < 2:
        return
    g = gb.buchberger([dict(x) for x in gens], 1, R)
    for s in g.input_syzygies:
        assert gb.elem_is_zero(apply_columns(gens, s))
    # random kernel element built as a GB combination reduces to zero
    syz_gb = gb.buchberger(g.input_syzygies, len(gens), R)
    if g.input_syzygies:
        s0 = g.input_syzygies[0]
        mult = elem_mul_term(R.field, s0, (e1, e2), 5)
        assert gb.elem_is_zero(gb.normal_form(mult, syz_gb))


def _all_s_vectors_reduce_to_zero(g):
    ring = g.ring
    fld = ring.field
    basis = g.generators
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            (pi, mi), ci = gb.elem_lt(basis[i])
            (pj, mj), cj = gb.elem_lt(basis[j])
            if pi != pj:
                continue
            lcm = monomial_lcm(mi, mj)
            s = elem_sub(
                fld,
                elem_mul_term(fld, basis[i], monomial_div(lcm, mi), fld.inv(ci)),
                elem_mul_term(fld, basis[j], monomial_div(lcm, mj), fld.inv(cj)),
            )
            if not gb.elem_is_zero(gb.normal_form(s, g)):
                return False
    return True


def _same_generators(a, b):
    """Equal generators in the same order, each with its terms in the same order."""
    return [list(v.items()) for v in a.generators] == [list(v.items()) for v in b.generators]


def test_buchberger_criterion_on_reduced_bases():
    cases = [
        [dict(X), dict(Y)],
        [{(0, (2, 0)): 1, (0, (0, 1)): 1}, {(0, (0, 2)): 1}],
        [{(0, (1, 1)): 1, (1, (0, 0)): 3}, {(1, (2, 0)): 1}, {(0, (0, 2)): 5}],
    ]
    for gens in cases:
        g = gb.buchberger([dict(v) for v in gens], 2, R)
        assert _all_s_vectors_reduce_to_zero(g)


# --- basis-only Buchberger: no shadows, chain criterion ---------------------


@st.composite
def generator_cases(draw):
    """(ring, rank, gens): 1-3 variables, ranks 1-3, F_2, F_97 or Q.

    Two to four generators of at most two terms: with three terms, lex
    in three variables can run for minutes, mostly in the tracked run
    (a 3-term F_97 case: 5.8 s tracked, 0.1 s basis-only).
    """
    ring = draw(_rings())
    rank = draw(st.integers(1, 3))
    gens = [_elements(draw, ring, rank, 2) for _ in range(draw(st.integers(2, 4)))]
    return ring, rank, gens


@settings(max_examples=200)
@given(generator_cases())
def test_basis_only_matches_the_tracked_basis(case):
    ring, rank, gens = case
    inputs = copy.deepcopy(gens)
    tracked = gb.buchberger(gens, rank, ring)
    alone = gb.buchberger(gens, rank, ring, basis_only=True)
    assert gens == inputs
    assert _same_generators(alone, tracked)
    assert alone.input_syzygies is None and alone.cofactors is None
    assert _all_s_vectors_reduce_to_zero(alone)


def _reduce_full_calls(monkeypatch, gens, rank, ring, **kw):
    calls = []
    inner = gb._reduce_full

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(gb, "_reduce_full", counted)
    g = gb.buchberger([dict(v) for v in gens], rank, ring, **kw)
    monkeypatch.undo()
    return g, len(calls)


def test_chain_criterion_skips_a_pair(monkeypatch):
    # (x^2, y^2) has lcm x^2 y^2, which xy divides, and both of its pairs
    # with xy (lcms x^2 y and x y^2) are reduced first
    gens = [{(0, (2, 0)): 1}, {(0, (1, 1)): 1}, {(0, (0, 2)): 1}]
    tracked, tracked_calls = _reduce_full_calls(monkeypatch, gens, 1, R)
    alone, alone_calls = _reduce_full_calls(monkeypatch, gens, 1, R, basis_only=True)
    assert _same_generators(alone, tracked)
    # three S-vectors and three tail reductions against two S-vectors and three
    assert (tracked_calls, alone_calls) == (6, 5)


def test_chain_criterion_waits_for_pending_pairs():
    # every pair of xy, xz, yz + 1 has lcm xyz, which the third divides: the
    # guard lets only the last pair be skipped, and S(xy, yz + 1) = -x is new
    R3 = ring_descriptor(variables=("x", "y", "z"), sequence=())
    gens = [{(0, (1, 1, 0)): 1}, {(0, (1, 0, 1)): 1}, {(0, (0, 1, 1)): 1, (0, (0, 0, 0)): 1}]
    alone = gb.buchberger([dict(v) for v in gens], 1, R3, basis_only=True)
    assert _same_generators(alone, gb.buchberger([dict(v) for v in gens], 1, R3))
    assert {(0, (1, 0, 0)): 1} in alone.generators


def test_chain_criterion_stays_in_one_position():
    # y e1 divides lcm(x e0, y e0 + x e1) = xy in monomial only: the pair
    # gives -x^2 e1, which no element of the input reduces
    gens = [{(0, (1, 0)): 1}, {(0, (0, 1)): 1, (1, (1, 0)): 1}, {(1, (0, 1)): 1}]
    alone = gb.buchberger([dict(v) for v in gens], 2, R, basis_only=True)
    assert _same_generators(alone, gb.buchberger([dict(v) for v in gens], 2, R))
    assert {(1, (2, 0)): 1} in alone.generators


def test_basis_only_has_no_cofactors():
    alone = gb.buchberger([dict(X), dict(Y)], 1, R, basis_only=True)
    with pytest.raises(ValueError):
        gb.normal_form_with_cofactors({(0, (1, 1)): 1}, alone)


# --- oracle on the perfbench `engines` complex and a reduced Sym^3 -----------
#
# tests/data/groebner-presentations.json holds, for each k, the sha256 of
# every Groebner basis ``homology_groebner(C, k)`` builds (generators, input
# syzygies, cofactors, in call order) together with the presentation's
# ``gen_degrees``.  The two F_p `engines` entries were written with
# ``_digest`` before the pair heap and the leading-term caches went in, the
# Q `engines` entry and the reduced Sym^3 over F_97[x, y, z] before the
# normal form moved onto a heap, so a change to the Buchberger pair order or
# to any reduction shows up here.

ORACLE = pathlib.Path(__file__).parent / "data" / "groebner-presentations.json"


def _engines_case(prime, seq, rationals=False):
    def build():
        C = engines_complex(ring_descriptor(prime=prime, rationals=rationals, sequence=seq))
        return C, C.support()

    return build


def _sym3_conormal_three():
    # Sym^3 of the residue field of F_97[x, y, z], cut at 4, then reduced:
    # degree 4 keeps 2082 generators, so H_3's relations are a large input
    R3 = ring_descriptor(variables=("x", "y", "z"), sequence=("x", "y", "z"))
    N = normalize(apply_pointwise_functor(fu.Sym(3), gamma(regular_sequence_resolution(R3), 5)))
    return complexes.reduce_complex(complexes.truncate(N, 4)), range(4)


ORACLE_CASES = {
    "F_97 (x, y)": _engines_case(97, ("x", "y")),
    "F_32749 (3x, 5y)": _engines_case(32749, ("3*x", "5*y")),
    "Q (x, y)": _engines_case(97, ("x", "y"), rationals=True),
    "F_97 (x, y, z) reduced Sym^3": _sym3_conormal_three,
}


def _canon(v):
    # F_p coefficients are ints; a Fraction over Q is written as "p/q"
    return sorted(
        [pos, list(mono), c if isinstance(c, int) else str(c)] for (pos, mono), c in v.items()
    )


def _presentations(C, ks, record):
    """k -> (presentation, [(inputs, ModuleGB) of every buchberger call])."""
    out = {}
    for k in ks:
        record.clear()
        pres = complexes.homology_groebner(C, k)
        out[k] = (pres, list(record))
    return out


def _digest(pres, calls):
    doc = {
        "gen_degrees": list(pres.gen_degrees),
        "bases": [
            {name: [_canon(v) for v in getattr(g, name)]
             for name in ("generators", "input_syzygies", "cofactors")}
            for _, g in calls
        ],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _recording(monkeypatch):
    """Record (inputs, tracked ModuleGB) of every buchberger call.

    A basis-only call is rerun fully tracked on the same inputs; its
    generators must be the tracked ones, and the tracked basis is what
    is recorded, so the digests cover every call's syzygies and cofactors.
    """
    calls = []
    inner = gb.buchberger

    def buchberger(gens, ambient_rank, ring, *, basis_only=False):
        inputs = [dict(v) for v in gens]
        g = inner(gens, ambient_rank, ring, basis_only=basis_only)
        tracked = inner(inputs, ambient_rank, ring) if basis_only else g
        assert _same_generators(g, tracked)
        calls.append((inputs, tracked))
        return g

    monkeypatch.setattr(gb, "buchberger", buchberger)
    return calls


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_engines_presentations_match_the_oracle(name, monkeypatch):
    C, ks = ORACLE_CASES[name]()
    ring = C.ring
    calls = _recording(monkeypatch)
    presentations = _presentations(C, ks, calls)
    expected = json.loads(ORACLE.read_text())[name]
    assert {str(k): _digest(p, c) for k, (p, c) in presentations.items()} == expected
    for _, bases in presentations.values():
        for inputs, g in bases:
            assert _all_s_vectors_reduce_to_zero(g)
            for s in g.input_syzygies:
                assert gb.elem_is_zero(apply_columns(inputs, s, ring))
            assert len(g.cofactors) == len(g.generators)
            for gen, cof in zip(g.generators, g.cofactors):
                assert apply_columns(inputs, cof, ring) == gen
