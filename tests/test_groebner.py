"""Module Groebner bases, normal forms, syzygies, staircase counts."""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import engines_complex
from dflab import complexes
from dflab import groebner as gb
from dflab.ring import monomial_divides, monomials_of_degree, ring_descriptor

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
    assert sorted(g.leading_terms()) == [(0, (0, 1)), (0, (1, 0))]
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
    assert sorted(g.leading_terms()) == [(0, (1, 0)), (1, (1, 0))]


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
    s = gb.syzygies(g)
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
        mult = gb.elem_mul_term(R.field, s0, (e1, e2), 5)
        assert gb.elem_is_zero(gb.normal_form(mult, syz_gb))


def _all_s_vectors_reduce_to_zero(g):
    ring = g.ring
    fld = ring.field
    basis = g.generators
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            (pi, mi), ci = gb.elem_lt(ring, basis[i])
            (pj, mj), cj = gb.elem_lt(ring, basis[j])
            if pi != pj:
                continue
            from dflab.ring import monomial_div, monomial_lcm

            lcm = monomial_lcm(mi, mj)
            s = gb.elem_sub(
                fld,
                gb.elem_mul_term(fld, basis[i], monomial_div(lcm, mi), fld.inv(ci)),
                gb.elem_mul_term(fld, basis[j], monomial_div(lcm, mj), fld.inv(cj)),
            )
            if not gb.elem_is_zero(gb.normal_form(s, g)):
                return False
    return True


def test_buchberger_criterion_on_reduced_bases():
    cases = [
        [dict(X), dict(Y)],
        [{(0, (2, 0)): 1, (0, (0, 1)): 1}, {(0, (0, 2)): 1}],
        [{(0, (1, 1)): 1, (1, (0, 0)): 3}, {(1, (2, 0)): 1}, {(0, (0, 2)): 5}],
    ]
    for gens in cases:
        g = gb.buchberger([dict(v) for v in gens], 2, R)
        assert _all_s_vectors_reduce_to_zero(g)


# --- oracle on the perfbench `engines` complex ------------------------------
#
# tests/data/groebner-presentations.json holds, for each k, the sha256 of
# every Groebner basis ``homology_groebner(C, k)`` builds (generators, input
# syzygies, cofactors, in call order) together with the presentation's
# ``gen_degrees``.  It was written with ``_digest`` before the pair heap and
# the leading-term caches went in, so a change to the Buchberger pair order
# or to any reduction shows up here.

ORACLE = pathlib.Path(__file__).parent / "data" / "groebner-presentations.json"
ENGINES_RINGS = {"F_97 (x, y)": (97, ("x", "y")), "F_32749 (3x, 5y)": (32749, ("3*x", "5*y"))}


def _canon(v):
    return sorted([pos, list(mono), c] for (pos, mono), c in v.items())


def _presentations(ring, record):
    """k -> (presentation, [(inputs, ModuleGB) of every buchberger call])."""
    C = engines_complex(ring)
    out = {}
    for k in C.support():
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
    calls = []
    inner = gb.buchberger

    def buchberger(gens, ambient_rank, ring):
        inputs = [dict(v) for v in gens]
        g = inner(gens, ambient_rank, ring)
        calls.append((inputs, g))
        return g

    monkeypatch.setattr(gb, "buchberger", buchberger)
    return calls


@pytest.mark.parametrize("name", sorted(ENGINES_RINGS))
def test_engines_presentations_match_the_oracle(name, monkeypatch):
    prime, seq = ENGINES_RINGS[name]
    ring = ring_descriptor(prime=prime, sequence=seq)
    calls = _recording(monkeypatch)
    presentations = _presentations(ring, calls)
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
