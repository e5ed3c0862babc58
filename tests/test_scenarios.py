"""Scenario smoke tests (full tables are exercised by the acceptance suite)."""

import numpy as np
import pytest

from dflab import fieldla, scenarios
from dflab.linear import MapMatrix, constant_columns
from dflab.ring import PrimeField
from dflab.scenarios import (
    SCENARIOS,
    BudgetExceeded,
    ConfigError,
    ScenarioConfig,
    m21_complex,
)


def test_cauchy_scenario():
    r = SCENARIOS["check-cauchy"](ScenarioConfig())
    assert r.passed and not r.partial
    assert r.computed["22"] == [0, 4, 16]
    assert r.computed["33"] == [1, 64, 100]


def test_cauchy_stage_check_fails_when_det_leaves_the_m21_image(monkeypatch):
    """m21 replaced by the columns of its own that complete im(det) to
    im(m21): every split_ok rank count still holds, but im(det) no longer
    lies in the second stage, so the stage check fails."""
    cauchy_m21_map = scenarios.cauchy_m21_map

    def complement(P, Q):
        field = P.ring.field
        det, m21 = scenarios.cauchy_det_map(P, Q), cauchy_m21_map(P, Q)
        space = fieldla.ColumnSpace(field, det.target.rank)
        space.add_columns(constant_columns(det))
        keep = [j for j, col in enumerate(constant_columns(m21)) if space.add(col)]
        return MapMatrix(m21.source, m21.target, {j: m21.col(j) for j in keep})

    want = SCENARIOS["check-cauchy"](ScenarioConfig()).per_degree
    monkeypatch.setattr(scenarios, "cauchy_m21_map", complement)
    r = SCENARIOS["check-cauchy"](ScenarioConfig())
    assert r.per_degree == want  # the det and union ranks of the real m21
    assert r.computed["22"] == [0, 4, 16] and r.computed["33"] == [1, 64, 100]
    assert not r.passed


def test_schur_scenario():
    r = SCENARIOS["check-schur"](ScenarioConfig())
    assert r.passed
    assert r.computed["cross_ranks"]["schur"] == [0, 2, 2, 0]
    assert r.computed["cross_ranks"]["coschur"] == [0, 2, 2, 0]
    assert r.computed["squares_commute"]


@pytest.mark.parametrize(
    "cfg, commute",
    [
        (ScenarioConfig(), True),
        (ScenarioConfig(rationals=True), True),
        (ScenarioConfig(prime=3), False),
    ],
    ids=["F_97", "QQ", "F_3"],
)
def test_schur_squares_are_decided_without_random_draws(cfg, commute, monkeypatch):
    """The commuting pairs form a line, so one vector decides; at p = 3 it
    is not invertible, and the Schur and co-Schur squares do not match."""

    def no_draws(*args, **kwargs):
        raise AssertionError("check-schur drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    r = SCENARIOS["check-schur"](cfg)
    assert r.computed["squares_commute"] is commute
    assert r.passed is commute and not r.notes


def test_schur_squares_undecided_in_a_larger_space(monkeypatch):
    """Zero maps commute with everything: the pairs fill all 8 dimensions,
    and the scenario reports no answer instead of a guessed one."""
    eps_list = [(1, 2), (2, 1)]
    zero = [{}, {}]  # 2 x 2, as sparse columns
    mats = {(s, kind, eps): zero for s in "FG" for kind in ("delta", "plus") for eps in eps_list}
    assert scenarios._commuting_isos(PrimeField(97), mats, eps_list, 2, 2) == (None, 8)
    monkeypatch.setattr(scenarios, "_commuting_isos", lambda *args: (None, 8))
    r = SCENARIOS["check-schur"](ScenarioConfig())
    assert r.computed["squares_commute"] is None and not r.passed
    assert r.notes == ["squares_commute not decided: the commuting maps form a space of dimension 8"]


def test_gamma_scenario():
    r = SCENARIOS["check-gamma"](ScenarioConfig())
    assert r.passed
    assert r.computed["unit_iso_identity_matrices"]


def test_tor_powers_scenario():
    r = SCENARIOS["tor-powers"](ScenarioConfig())
    assert r.passed
    assert r.computed["square"] == [1, 2, 1]
    assert r.computed["cube"] == [1, 4, 6, 4, 1]


def test_koszul_scenario():
    r = SCENARIOS["check-koszul"](ScenarioConfig())
    assert r.passed and r.computed["all_tables_match"]


def test_koszul_scenario_compares_the_whole_sequence():
    # (x, y, z) as one map R^3 -> R: Kos^n of it against the derived Sym^n and Lambda^n
    xyz = ("x", "y", "z")
    r = SCENARIOS["check-koszul"](ScenarioConfig(variables=xyz, sequence=xyz))
    assert r.passed and r.computed["all_tables_match"]
    keys = {k for k in r.per_degree if k.startswith("length-3/")}
    assert keys == {f"length-3/n={n}/{side}" for n in (1, 2, 3) for side in ("sym", "ext")}
    for key in keys:
        assert r.per_degree[key]["koszul"] == r.per_degree[key]["derived"], key
    # the map's rank-3 source shows in the tables: H_1 of the n = 2 co-Koszul complex
    assert r.per_degree["length-3/n=2/ext"]["koszul"]["1"] == {"1": 3, "2": 3}
    assert not any(k.startswith("pair/") for k in r.per_degree)


@pytest.mark.parametrize(
    "variables,seq",
    [
        (("x", "y"), ("x^2", "y")),
        (("x", "y"), ("y^2", "x")),
        (("x", "y"), ("x^3",)),
        (("x", "y", "z"), ("x",)),
    ],
)
def test_l31_certifies_the_quotient_by_the_first_entry(variables, seq):
    r = SCENARIOS["check-l31"](ScenarioConfig(variables=variables, sequence=seq))
    assert r.passed
    quotient = f"R/({seq[0]})"
    # the report's expected tables are the ones compared, named by the first entry
    assert r.expected["l31"] == r.computed["l31"] == ["0", quotient, "0", "0"]
    assert r.expected["cube"] == r.computed["cube"] == [quotient, "0", "0", "0"]


def test_predictions_symbolic_only():
    r = SCENARIOS["predict"](ScenarioConfig(), d=3)
    assert r.passed
    assert r.computed["F"] == [1, 0, 3, 0, 9]
    assert r.computed["cr2"] == [2, 6, 12, 18, 18]
    assert r.computed["cr3"] == [1, 6, 15, 18, 9]
    assert r.computed["cr3_printed_list"][2] != r.computed["cr3"][2]
    assert r.notes  # the discrepancy is flagged


def test_predictions_rank_one_conormal():
    r = SCENARIOS["predict"](ScenarioConfig(), d=1)
    assert r.passed
    assert r.computed["F"] == [1, 0, 0, 0, 0]
    assert r.computed["cr3"][2] == r.computed["cr3_printed_list"][2] - 1  # d=1: 1 vs 2


def test_config_errors():
    with pytest.raises(ConfigError):
        SCENARIOS["gk"](ScenarioConfig(sequence=("x",)))
    with pytest.raises(ConfigError):
        SCENARIOS["gk"](ScenarioConfig(sequence=("x", "0")))
    with pytest.raises(ConfigError):
        SCENARIOS["predict"](ScenarioConfig(), d=0)
    for seq in (("x", "x"), ("x", "x^2"), ("x*y", "x"), ("x^2-y^2", "x+y")):
        with pytest.raises(ConfigError, match="zero divisor"):
            SCENARIOS["tor-powers"](ScenarioConfig(sequence=seq))
    # each entry is checked against all the entries before it
    xyz = ("x", "y", "z")
    for seq, message in (
        (("x", "y", "x"), "x is a zero divisor mod x, y"),
        (("x*y", "z", "y"), r"y is a zero divisor mod x\*y, z"),
    ):
        with pytest.raises(ConfigError, match=message):
            SCENARIOS["check-koszul"](ScenarioConfig(variables=xyz, sequence=seq))
    for seq in (("x", "y"), ("3*x", "5*y"), ("x^2", "y^3")):
        # regular: accepted, and the zero budget then stops the run at once
        assert SCENARIOS["tor-powers"](ScenarioConfig(sequence=seq, budget_s=0.0)).partial


def test_budget_flag():
    r = SCENARIOS["gk"](ScenarioConfig(budget_s=0.0))
    assert r.partial and not r.passed
    assert any("budget" in n for n in r.notes)


def test_gk_route_independence_small():
    cfg = ScenarioConfig(route="both", t_max=6)
    r = SCENARIOS["gk"](cfg)
    assert r.passed
    assert r.computed["route_independent"]
    assert r.computed["route_b_ranks"] == r.computed["ranks"]


def test_m21_rank_split(ring97):
    C, split, sub_N, quot_N = m21_complex(ring97, 5)
    for total, a, b in split:
        assert total == a + b
    # levels below the covering bound: 0, 4, 57, 233, ...
    assert [C.module(n).rank for n in range(4)] == [0, 4, 57, 233]


def test_m21_checks_the_budget_at_every_level(ring97):
    calls = []
    m21_complex(ring97, 3, check=lambda: calls.append(1))
    assert len(calls) == 4  # levels 0..3

    def stop_at_level_2():
        calls.append(1)
        if len(calls) == 3:
            raise BudgetExceeded()

    calls.clear()
    with pytest.raises(BudgetExceeded):
        m21_complex(ring97, 5, check=stop_at_level_2)
    assert len(calls) == 3


def test_quadratic_sequence_gk_smoke():
    # non-linear homogeneous sequence: same table, graded engine still valid
    cfg = ScenarioConfig(sequence=("x^2", "y"), n_max=5, t_max=10)
    r = SCENARIOS["gk"](cfg)
    # ranks are reported per residue field dimension 2 at k=0 is dim 2 over k
    assert not r.partial
    assert r.computed["ranks"][1] == 0 and r.computed["ranks"][3] == 0
