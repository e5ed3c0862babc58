"""Acceptance suite: every headline table and property, exact matches.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion.  Default configuration throughout: F_97[x, y],
sequence (x, y), truncation 7, internal degrees up to 12.
"""

import pytest

from conftest import kmodule, two_term
from dflab import functors as fu
from dflab import linear as ln
from dflab.complexes import engines_agree, homology_graded, total_complex
from dflab.ring import ring_descriptor
from dflab.scenarios import SCENARIOS, ScenarioConfig
from dflab.simplicial import apply_pointwise_functor, gamma, normalize


@pytest.fixture(scope="module")
def cfg():
    return ScenarioConfig()


@pytest.fixture(scope="module")
def gk_result(cfg):
    return SCENARIOS["gk"](cfg)


@pytest.fixture(scope="module")
def cross2_result(cfg):
    return SCENARIOS["cross2"](cfg)


@pytest.fixture(scope="module")
def cross3_result(cfg):
    return SCENARIOS["cross3"](cfg)


def _verdict(num, label, ok):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_main_table(gk_result):
    r = gk_result
    ok = (
        r.passed
        and r.computed["ranks"] == [1, 0, 1, 0, 1, 0, 0]
        and r.computed["certified"]
    )
    anns = [
        v
        for deg in r.per_degree["graded"].values()
        for v in deg["annihilators_zero"].values()
    ]
    ok = ok and anns and all(anns)
    _verdict(1, "derived-functor table (1,0,1,0,1,0,0) with annihilator certificates", ok)


def test_criterion_2_third_cross_effect(cross3_result):
    r = cross3_result
    ok = r.passed and r.computed["ranks"] == [1, 4, 6, 4, 1, 0]
    _verdict(2, "third cross-effect table (1,4,6,4,1,0)", ok)


def test_criterion_3_second_cross_effect(cross2_result):
    r = cross2_result
    ok = (
        r.passed
        and r.computed["per_side"]["left"] == [1, 2, 2, 2, 1, 0]
        and r.computed["per_side"]["right"] == [1, 2, 2, 2, 1, 0]
        and r.computed["totals"] == [2, 4, 4, 4, 2, 0]
    )
    _verdict(3, "second cross-effect per-side (1,2,2,2,1,0), totals (2,4,4,4,2,0)", ok)


def test_criterion_4_square_power_subtable(cross2_result):
    ok = cross2_result.computed["sym2"] == [1, 0, 1, 0]
    _verdict(4, "square-power sub-table (1,0,1,0)", ok)


def test_criterion_5_tor_powers(cfg):
    r = SCENARIOS["tor-powers"](cfg)
    ok = r.passed and r.computed["square"] == [1, 2, 1] and r.computed["cube"] == [1, 4, 6, 4, 1]
    _verdict(5, "tensor-power homology (1,2,1) and (1,4,6,4,1)", ok)


def test_criterion_6_koszul_quasi_isomorphisms(cfg):
    r = SCENARIOS["check-koszul"](cfg)
    ok = r.passed and r.computed["all_tables_match"]
    _verdict(6, "Koszul vs derived tables agree for n <= 3, three maps", ok)


def test_criterion_7_schur_comparison(cfg):
    r = SCENARIOS["check-schur"](cfg)
    ok = (
        r.passed
        and r.computed["cross_ranks"]["schur"] == [0, 2, 2, 0]
        and r.computed["cross_ranks"]["coschur"] == [0, 2, 2, 0]
        and r.computed["squares_commute"]
    )
    _verdict(7, "Schur/co-Schur cross-effects (0,2,2,0) with commuting squares", ok)


def test_criterion_8_proof_intermediates(cfg):
    r = SCENARIOS["check-l31"](cfg)
    ok = (
        r.passed
        and r.computed["l31"] == ["0", "R/(x)", "0", "0"]
        and r.computed["m21_ranks"] == [0, 0, 1, 0, 1, 0, 0]
    )
    _verdict(8, "shape-(2,1) piece is R/(x) at k=1; middle stage is R/I at k=2,4", ok)


def test_criterion_9_predictions_consistency(cfg, gk_result, cross2_result, cross3_result):
    g_tables = {
        "gk": gk_result.computed["ranks"],
        "cross2_totals": cross2_result.computed["totals"],
        "cross3": cross3_result.computed["ranks"],
    }
    r = SCENARIOS["predict"](cfg, d=2, g_tables=g_tables)
    flagged = any("printed" in n for n in r.notes)
    ok = r.passed and flagged and r.computed["cr3"][2] == 6 and r.computed["cr3_printed_list"][2] == 9
    _verdict(9, "prediction tables match computed tables; printed-list discrepancy flagged", ok)


def test_criterion_10_property_suites(cfg, ring97, resolution, kl_pair):
    gam_ok = SCENARIOS["check-gamma"](cfg).passed

    ez = SCENARIOS["check-ez"](cfg)
    ez_ok = ez.passed and ez.computed["pair"]["section_identity"] and ez.computed["triple"]["section_identity"]

    # cross-effect decomposition dimension identity across all functor kinds
    plain = ring_descriptor(variables=(), sequence=())
    dec_ok = True
    for tag in (fu.Sym(3), fu.Ext(2), fu.Div(3), fu.TensorPow(2), fu.SchurL31, fu.CoSchurL31):
        V, W = kmodule(plain, "v", 2), kmodule(plain, "w", 1)
        whole = fu.functor_module(tag, ln.direct_sum_modules([V, W])).rank
        split = (
            fu.functor_module(tag, V).rank
            + fu.functor_module(tag, W).rank
            + fu.cross_effect(tag, [V, W]).module.rank
        )
        dec_ok = dec_ok and whole == split

    cauchy_ok = SCENARIOS["check-cauchy"](cfg).passed

    # engine agreement wherever both engines run
    K, _ = kl_pair
    agree_ok = True
    for C in (
        resolution,
        total_complex(resolution, resolution),
        normalize(apply_pointwise_functor(fu.SchurL31, gamma(K, 4))),
        normalize(apply_pointwise_functor(fu.Sym(3), gamma(K, 4))),
        two_term(ring97, "m", ring97.var("x"), 1),
    ):
        agree_ok = agree_ok and engines_agree(C, 6)

    ok = gam_ok and ez_ok and dec_ok and cauchy_ok and agree_ok
    _verdict(
        10,
        "property suites: simplicial identities, unit iso, EZ section, "
        "cross-effect decomposition, Cauchy splits, engine agreement",
        ok,
    )


def test_route_independence(cfg):
    """Scenario invariant: both pipeline routes give identical tables."""
    r = SCENARIOS["gk"](ScenarioConfig(route="both"))
    ok = r.passed and r.computed["route_independent"]
    print(f"invariant    [{'PASS' if ok else 'FAIL'}] route independence of the main table")
    assert ok
