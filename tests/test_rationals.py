"""Cross-validation of the F_97 pipelines against rational arithmetic.

The functor matrices carry binomial coefficients, so agreement between
characteristic 0 and characteristic 97 is a real check, not a formality.
"""

from fractions import Fraction

from conftest import kmodule
from dflab import functors as fu
from dflab import linear as ln
from dflab.complexes import homology_graded, truncate
from dflab.koszul import cokoszul_complex, koszul_complex, two_term_complex
from dflab.ring import ring_descriptor
from dflab.scenarios import SCENARIOS, ScenarioConfig
from dflab.simplicial import apply_pointwise_functor, gamma, normalize

RQ_PLAIN = ring_descriptor(rationals=True, variables=(), sequence=())
RP_PLAIN = ring_descriptor(variables=(), sequence=())


def test_sym_matrix_binomials_match_mod_p():
    VQ, VP = kmodule(RQ_PLAIN, "v", 2), kmodule(RP_PLAIN, "v", 2)
    fq = ln.MapMatrix(VQ, VQ, {0: {0: RQ_PLAIN.const(1), 1: RQ_PLAIN.const(1)}, 1: {1: RQ_PLAIN.const(1)}})
    fp = ln.MapMatrix(VP, VP, {0: {0: RP_PLAIN.const(1), 1: RP_PLAIN.const(1)}, 1: {1: RP_PLAIN.const(1)}})
    SQ = ln.constant_columns(fu.functor_on_map(fu.Sym(3), fq))
    SP = ln.constant_columns(fu.functor_on_map(fu.Sym(3), fp))
    assert len(SQ) == len(SP)
    for colq, colp in zip(SQ, SP):
        assert all(q.denominator == 1 for q in colq.values())
        assert {i: int(q) % 97 for i, q in colq.items() if int(q) % 97} == colp
    # the multinomial 3 = C(3,1) actually appears
    assert any(q == Fraction(3) for col in SQ for q in col.values())


def test_cross_effect_ranks_agree_over_both_fields():
    for tag in (fu.Sym(3), fu.Div(3), fu.SchurL31):
        for k in (2, 3):
            rq = fu.cross_effect(tag, [kmodule(RQ_PLAIN, f"v{i}", 1) for i in range(k)]).module.rank
            rp = fu.cross_effect(tag, [kmodule(RP_PLAIN, f"v{i}", 1) for i in range(k)]).module.rank
            assert rq == rp


def test_schur_comparison_over_rationals():
    r = SCENARIOS["check-schur"](ScenarioConfig(rationals=True))
    assert r.passed
    assert r.computed["cross_ranks"]["schur"] == [0, 2, 2, 0]


def test_koszul_tables_over_rationals():
    RQ = ring_descriptor(rationals=True)
    x = RQ.var("x")
    P = ln.LabeledFreeModule(RQ, [ln.atom("p", 1)])
    Q = ln.LabeledFreeModule(RQ, [ln.atom("q", 0)])
    f = ln.MapMatrix(P, Q, {0: {0: x}})
    T = two_term_complex(f)
    for n in (1, 2):
        G = gamma(T, n + 2)
        sym_side = truncate(normalize(apply_pointwise_functor(fu.Sym(n), G)), n + 1)
        ext_side = truncate(normalize(apply_pointwise_functor(fu.Ext(n), G)), n + 1)

        def dims(C):
            rep = homology_graded(C, 4, annihilators=[])
            return {k: d.dims for k, d in rep.degrees.items() if d.dims}

        assert dims(koszul_complex(f, n)) == dims(sym_side)
        assert dims(cokoszul_complex(f, n)) == dims(ext_side)
