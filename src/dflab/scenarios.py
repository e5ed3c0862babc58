"""End-to-end pipelines producing machine-checked rank tables.

Each scenario is a ``Spec``: its ring requirement, the expected tables it
reports and a body that builds its complexes from scratch, runs a homology
engine and returns its verdict.  One runner, ``run``, does the frame every
scenario shares (clock, ring, requirement checks, budget, certificates)
and returns a ScenarioResult with per-degree detail.  Results serialize
into the report document emitted by the command line tool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import product
from math import comb
from typing import Callable

from . import fieldla
from . import groebner as gb_mod
from .complexes import (
    ChainComplex,
    homology_graded,
    homology_groebner,
    homology_groebner_report,
    is_quasi_iso,
    total_complex,
    total_complex_many,
    truncate,
)
from .expected import EXPECTED, prediction_tables
from .functors import (
    CoSchurL31,
    Div,
    Ext,
    ProductFunctor,
    SchurL31,
    Sym,
    TensorPow,
    cauchy_det_column,
    cauchy_m21_column,
    cauchy_det_map,
    cauchy_m21_map,
    cross_effect,
    delta_map,
    plus_map,
)
from .koszul import (
    cokoszul_complex,
    cyclic_two_term,
    koszul_complex,
    regular_sequence_resolution,
    two_term_complex,
)
from .linear import LabeledFreeModule, MapMatrix, atom, constant_columns, identity_map
from .ring import ring_descriptor
from .simplicial import (
    apply_pointwise_functor,
    diagonal_tensor,
    eilenberg_zilber,
    gamma,
    normalize,
)


class ConfigError(ValueError):
    """Invalid scenario configuration."""


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class ScenarioConfig:
    prime: int = 97
    rationals: bool = False
    variables: tuple = ("x", "y")
    sequence: tuple | None = None  # default: the first two variables
    n_max: int = 7
    t_max: int = 12
    engine: str = "graded"  # gk only: graded | groebner | both
    route: str = "a"  # gk only: a | b | both
    budget_s: float | None = None

    def ring(self, plain: bool = False):
        """The configured ring, or with ``plain`` its coefficient field alone."""
        if not self.rationals and self.prime > fieldla.MAX_PRIME:
            raise ConfigError(f"--prime must be at most {fieldla.MAX_PRIME}")
        try:
            return ring_descriptor(
                prime=self.prime,
                rationals=self.rationals,
                variables=() if plain else self.variables,
                sequence=() if plain else self.sequence,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e


@dataclass
class ScenarioResult:
    name: str
    expected: dict = dc_field(default_factory=dict)
    computed: dict = dc_field(default_factory=dict)
    per_degree: dict = dc_field(default_factory=dict)
    passed: bool = False
    millis: int = 0
    partial: bool = False
    notes: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "per_degree": self.per_degree,
            "pass": self.passed,
            "partial": self.partial,
            "notes": sorted(self.notes),
            "millis": self.millis,
        }


class _Budget:
    """The scenario clock; ``check`` raises once ``seconds`` have passed."""

    def __init__(self, seconds):
        self.t0 = time.monotonic()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def check(self):
        if self.seconds is not None and self.elapsed() > self.seconds:
            raise BudgetExceeded()


# --- the runner -----------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One scenario.

    ``needs`` is the ring requirement: "field" (the coefficient field
    alone), "sequence" (a regular sequence) or "pair" (a regular sequence
    of length 2); a sequence must be homogeneous.
    ``expected`` maps report keys to EXPECTED entries.  ``body(ctx, **kw)``
    fills ``ctx.res`` and returns its verdict.  Bodies reach dflab through
    module globals, so a tracer that rebinds module attributes sees them.
    """

    name: str
    needs: str
    expected: dict
    body: Callable


class Context:
    """What a scenario body works with: config, ring, budget and the result."""

    def __init__(self, cfg: ScenarioConfig, ring, res: ScenarioResult, budget: _Budget):
        self.cfg, self.ring, self.res, self.budget = cfg, ring, res, budget
        self.certified = True

    def graded(self, C, ks, section=None, certify=False) -> list:
        """Ranks of H_k(C) over R/I for k in ks from the graded engine.

        The per-degree detail goes to ``per_degree[section]``; with
        ``certify`` the table must carry its certificates for a pass.
        """
        rep = homology_graded(C, self.cfg.t_max)
        if section is not None:
            self.res.per_degree[section] = rep.to_dict()["per_degree"]
        if certify:
            certified = all(rep.degrees[k].ri_rank is not None for k in ks if k in rep.degrees)
            self.certified = self.certified and certified and rep.euler_ok
        return rep.rank_vector(ks)


def run(spec: Spec, cfg: ScenarioConfig, **kw) -> ScenarioResult:
    """Run one scenario; keywords go to its body (predict takes d, g_tables).

    A body that reaches a computation the configured ring is outside of
    (NotImplementedError) raises ConfigError with that reason.
    """
    budget = _Budget(cfg.budget_s)
    if cfg.n_max < 0 or cfg.t_max < 0:
        raise ConfigError("--nmax and --tmax must be >= 0")
    if spec.needs == "field":
        ring = cfg.ring(plain=True)
    else:
        ring = cfg.ring()
        seq = ring.regular_sequence or ()
        if not seq or (spec.needs == "pair" and len(seq) != 2):
            length = " of length 2" if spec.needs == "pair" else ""
            raise ConfigError(f"{spec.name} needs a regular sequence{length}")
        if not all(f.is_homogeneous() for f in seq):
            raise ConfigError(f"{spec.name} needs a homogeneous regular sequence")
        for i in range(1, len(seq)):
            if not _is_regular_after(ring, seq[:i], seq[i]):
                mod = ", ".join(map(str, seq[:i]))
                raise ConfigError(
                    f"{spec.name} needs a regular sequence: {seq[i]} is a zero divisor mod {mod}"
                )
    expected = {key: EXPECTED[entry]["value"] for key, entry in spec.expected.items()}
    res = ScenarioResult(spec.name, expected=expected)
    ctx = Context(cfg, ring, res, budget)
    try:
        budget.check()
        res.passed = bool(spec.body(ctx, **kw) and ctx.certified)
    except BudgetExceeded:
        res.partial = True
        res.notes.append("budget exceeded; partial report")
    except NotImplementedError as e:  # e.g. ranks over an infinite-dimensional R/I
        raise ConfigError(f"{spec.name}: {e}") from e
    res.millis = int(budget.elapsed() * 1000)
    return res


def _is_regular_after(ring, fs, g) -> bool:
    """g is a nonzerodivisor mod (fs): a*g + sum b_i*f_i = 0 forces a into (fs)."""
    cols = [gb_mod.from_map_column({0: q}) for q in (g, *fs)]
    syz, _ = gb_mod.kernel_of_columns(cols, 1, ring)
    ideal = gb_mod.buchberger(cols[1:], 1, ring, basis_only=True)
    return all(
        gb_mod.elem_is_zero(gb_mod.normal_form({k: c for k, c in s.items() if k[0] == 0}, ideal))
        for s in syz
    )


def _one_variable_builds(ring, n_max: int):
    """Level-builds of the two one-variable pieces K = (f) and L = (g)."""
    f, g = ring.regular_sequence
    K, L = cyclic_two_term(ring, "k", f), cyclic_two_term(ring, "l", g)
    return gamma(K, n_max), gamma(L, n_max)


# --- main scenario: the cube pipeline ---------------------------------------


def _gk(ctx: Context) -> bool:
    cfg, res = ctx.cfg, ctx.res
    ks = range(0, 7)
    GP = gamma(regular_sequence_resolution(ctx.ring), cfg.n_max)
    N = normalize(apply_pointwise_functor(Sym(3), GP))
    ctx.budget.check()
    if cfg.engine in ("graded", "both"):
        res.computed["ranks"] = ctx.graded(N, ks, "graded", certify=True)
        res.computed["certified"] = ctx.certified
    ctx.budget.check()
    if cfg.engine in ("groebner", "both"):
        rep_g = homology_groebner_report(truncate(N, 7), cfg.t_max)
        ranks_g = rep_g.rank_vector(ks)
        res.per_degree["groebner"] = rep_g.to_dict()["per_degree"]
        res.computed.setdefault("ranks", ranks_g)
        res.computed["groebner_ranks"] = ranks_g
    ctx.budget.check()
    if cfg.route in ("b", "both"):
        # route b: the normalized cube of the levelwise product of the two
        # one-variable level-builds (the route through the diagonal)
        D = diagonal_tensor(list(_one_variable_builds(ctx.ring, cfg.n_max)))
        NB = normalize(apply_pointwise_functor(Sym(3), D))
        ctx.budget.check()
        res.computed["route_b_ranks"] = ctx.graded(NB, ks, "route_b")
        if cfg.route == "b":
            res.computed["ranks"] = res.computed["route_b_ranks"]
    want = res.expected["ranks"]
    ok = res.computed.get("ranks") == want
    if cfg.engine == "both":
        ok = ok and res.computed["groebner_ranks"] == want
    if cfg.route == "both":
        same = _same_dim_tables(res.per_degree["graded"], res.per_degree["route_b"])
        res.computed["route_independent"] = same
        ok = ok and res.computed["route_b_ranks"] == want and same
    return ok


def _same_dim_tables(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    for k in keys:
        da = a.get(k, {}).get("dims", {})
        db = b.get(k, {}).get("dims", {})
        if {t: v for t, v in da.items() if v} != {t: v for t, v in db.items() if v}:
            return False
    return True


# --- cross-effect scenarios ---------------------------------------------------


def _cross2(ctx: Context) -> bool:
    res = ctx.res
    GP = gamma(regular_sequence_resolution(ctx.ring), ctx.cfg.n_max)
    S2GP = apply_pointwise_functor(Sym(2), GP)
    sides = {}
    for label, mods in (("left", [S2GP, GP]), ("right", [GP, S2GP])):
        N = normalize(diagonal_tensor(mods))
        ctx.budget.check()
        sides[label] = ctx.graded(N, range(0, 6), label, certify=True)
        res.computed["certified"] = ctx.certified
    res.computed["per_side"] = sides
    res.computed["totals"] = [
        None if None in (a, b) else a + b for a, b in zip(sides["left"], sides["right"])
    ]
    ctx.budget.check()
    # square-power sub-table on the same resolution
    res.computed["sym2"] = ctx.graded(normalize(S2GP), range(0, 4), "sym2")
    return (
        sides["left"] == sides["right"] == res.expected["per_side"]
        and res.computed["totals"] == res.expected["totals"]
        and res.computed["sym2"] == res.expected["sym2"]
    )


def _cross3(ctx: Context) -> bool:
    res = ctx.res
    ks = range(0, 6)
    P = regular_sequence_resolution(ctx.ring)
    GP = gamma(P, ctx.cfg.n_max)
    N = normalize(diagonal_tensor([GP, GP, GP]))
    ctx.budget.check()
    ranks = res.computed["ranks"] = ctx.graded(N, ks, "diagonal", certify=True)
    ctx.budget.check()
    # cross-check through the total complex of the triple power
    T = total_complex_many([P, P, P])
    res.computed["total_complex_ranks"] = ctx.graded(T, ks, "total_complex")
    want = res.expected["ranks"]
    return ranks == want == [comb(4, k) for k in ks] and res.computed["total_complex_ranks"] == want


def _tor_powers(ctx: Context) -> bool:
    res = ctx.res
    P = regular_sequence_resolution(ctx.ring)
    T2 = total_complex(P, P)
    for label, T, top in (("square", T2, 3), ("cube", total_complex(T2, P), 5)):
        ctx.budget.check()
        res.computed[label] = ctx.graded(T, range(0, top), label, certify=True)
    return all(res.computed[label] == res.expected[label] for label in ("square", "cube"))


# --- predictions ---------------------------------------------------------------

# what predict checks at d = 2: g_tables key -> (scenario, computed key)
G_TABLES = {
    "gk": ("gk", "ranks"),
    "cross2_totals": ("cross2", "totals"),
    "cross3": ("cross3", "ranks"),
}


def g_tables_from(computed: dict) -> dict:
    """predict's ``g_tables`` from the computed dicts of gk, cross2, cross3 by name."""
    return {key: computed[name].get(field) for key, (name, field) in G_TABLES.items()}


def _predict(ctx: Context, d: int = 2, g_tables: dict | None = None) -> bool:
    """Predicted tables at conormal rank d; at d = 2 they must equal the
    computed gk, cross2 and cross3 tables, recomputed unless ``g_tables``
    passes them in."""
    if d < 1:
        raise ConfigError("conormal rank d must be >= 1")
    res = ctx.res
    tables = prediction_tables(d)
    for key in ("F", "cr2", "cr3", "cr3_printed_list"):
        res.computed[key] = tables[key]
    res.computed["d"] = d
    if tables["printed_list_discrepancy"]:
        res.notes.append(
            "printed summand list for the k=2 entry of the three-argument table "
            f"gives {tables['cr3_printed_list'][2]}, composition-factor evaluation gives "
            f"{tables['cr3'][2]}; the latter matches the three-argument theorem"
        )
    # confirm the composition-factor evaluation by brute-force cross-effects
    k1 = [LabeledFreeModule(ctx.ring, [atom(f"a{i}", 0)]) for i in range(3)]
    d2v = ProductFunctor([Div(2), TensorPow(1)])
    lam2 = d * (d - 1) // 2
    sym2 = d * (d + 1) // 2
    brute = (
        cross_effect(d2v, k1).module.rank * lam2
        + cross_effect(Ext(3), k1).module.rank * sym2
    )
    res.computed["cr3_k2_brute_force"] = brute
    ok = brute == tables["cr3"][2]
    if d != 2:
        return ok
    if g_tables is None:
        ctx.budget.check()
        subs = {name: SCENARIOS[name](ctx.cfg) for name, _ in G_TABLES.values()}
        if any(r.partial for r in subs.values()):
            raise BudgetExceeded()
        g_tables = g_tables_from({name: r.computed for name, r in subs.items()})
    res.computed["g_tables"] = g_tables
    res.expected = {
        "gk": tables["F"] + [0, 0],
        "cross2_totals": tables["cr2"] + [0],
        "cross3": tables["cr3"] + [0],
    }
    return ok and all(g_tables[key] == want for key, want in res.expected.items())


# --- Schur comparison ------------------------------------------------------------


def _schur(ctx: Context) -> bool:
    res, plain = ctx.res, ctx.ring

    def kmods(count):
        return [LabeledFreeModule(plain, [atom(f"s{i}", 0)]) for i in range(count)]

    ranks = {}
    for tag, label in ((SchurL31, "schur"), (CoSchurL31, "coschur")):
        ranks[label] = [cross_effect(tag, kmods(k)).module.rank for k in (1, 2, 3, 4)]
    res.computed["cross_ranks"] = ranks
    ok = all(ranks[lbl] == res.expected["cross_ranks"] for lbl in ranks)
    ctx.budget.check()

    # mixed-rank sanity: cr2 at (k^2, k^3) has the same dimension on both sides
    m2 = [
        LabeledFreeModule(plain, [atom("u0", 0), atom("u1", 0)]),
        LabeledFreeModule(plain, [atom("w0", 0), atom("w1", 0), atom("w2", 0)]),
    ]
    dims23 = [cross_effect(t, m2).module.rank for t in (SchurL31, CoSchurL31)]
    res.computed["cr2_rank_2_3"] = dims23
    ok = ok and dims23 == [30, 30]
    ctx.budget.check()

    # structural squares: find isomorphisms alpha2, alpha3 commuting with all
    # diagonal/plus maps for epsilon in {1,2}^2 with |epsilon| = 3
    args2 = kmods(2)
    eps_list = [(1, 2), (2, 1)]
    mats = {}
    for tag, label in ((SchurL31, "F"), (CoSchurL31, "G")):
        for eps in eps_list:
            dm, _, _ = delta_map(tag, eps, args2)
            pm, _, _ = plus_map(tag, eps, args2)
            mats[(label, "delta", eps)] = constant_columns(dm)
            mats[(label, "plus", eps)] = constant_columns(pm)
    found, dim = _commuting_isos(plain.field, mats, eps_list, 2, 2)
    res.computed["squares_commute"] = found
    if found is None:
        res.notes.append(
            f"squares_commute not decided: the commuting maps form a space of dimension {dim}"
        )
    # the one-variable squares involve the zero module on both sides
    zero_rank = cross_effect(SchurL31, kmods(1)).module.rank
    res.computed["cr1_zero"] = zero_rank == 0
    return ok and found is True and zero_rank == 0


def _commuting_isos(field, mats, eps_list, n2, n3):
    """Whether invertible alpha2 (n2 x n2), alpha3 (n3 x n3) exist with
    alpha3 @ deltaF = deltaG @ alpha2 and alpha2 @ plusF = plusG @ alpha3.

    ``mats`` holds the maps as lists of sparse columns.  Returns (answer,
    dimension of the space of commuting pairs).  In a space of dimension
    at most 1 every pair is c * v for one v, so v decides; in a larger
    one the answer is None (not decided).
    """

    def left(a, b, M):  # E_ab @ M: row a is M's row b
        return {(a, j): col[b] for j, col in enumerate(M) if b in col}

    def right(a, b, M):  # -M @ E_ab: column b is minus M's column a
        return {(i, b): field.neg(c) for i, c in M[a].items()}

    # unknowns: the entries alpha2[a, b], then alpha3[a, b], row-major; the
    # column of one is what the unit matrix E_ab in its place makes of the
    # residuals alpha3 deltaF - deltaG alpha2 and alpha2 plusF - plusG alpha3
    n = max(n2, n3)
    system = []
    for size, block in ((n2, 2), (n3, 3)):
        for a, b in product(range(size), repeat=2):
            col = {}
            for e, eps in enumerate(eps_list):
                dF, dG, pF, pG = (mats[(s, kind, eps)] for kind in ("delta", "plus") for s in "FG")
                if block == 2:
                    residuals = right(a, b, dG), left(a, b, pF)
                else:
                    residuals = left(a, b, dF), right(a, b, pG)
                for r, residual in enumerate(residuals):
                    col.update({((2 * e + r) * n + i) * n + j: c for (i, j), c in residual.items()})
            system.append(col)
    null = fieldla.nullspace(field, system)
    dim = len(null)
    if dim != 1:
        return (False if dim == 0 else None), dim
    v = null[0]

    def invertible(start, size):  # alpha = v[start:start + size**2], row-major
        cols = [{a: v.get(start + a * size + b, 0) for a in range(size)} for b in range(size)]
        return fieldla.sparse_rank(field, cols) == size

    return invertible(0, n2) and invertible(n2 * n2, n3), dim


# --- proof intermediates -----------------------------------------------------------


def _certify_cyclic_mod(pres, f, others, t_max) -> str:
    """Classify a presentation as '0', 'R/(f)' (cyclic, killed by f and by
    no other entry, with the dimension and the Hilbert function of R/(f)
    shifted to its generator degree), or 'other'."""
    if pres.generator_count == 0 or (pres.finite and pres.dim == 0):
        return "0"
    ideal = gb_mod.buchberger(
        [gb_mod.from_map_column({0: f})], 1, pres.relations.ring, basis_only=True
    )
    quotient = gb_mod.Presentation(1, ideal, gen_degrees=(min(pres.gen_degrees, default=0),))
    if gb_mod.quotient_dim(quotient) != (pres.finite, pres.dim):
        return "other"
    if gb_mod.hilbert_dims(quotient, t_max) != gb_mod.hilbert_dims(pres, t_max):
        return "other"
    if gb_mod.minimal_generators(pres) != 1 or not gb_mod.annihilates(pres, f):
        return "other"
    if any(gb_mod.annihilates(pres, g) for g in others):
        return "other"
    return f"R/({f})"


def _l31(ctx: Context) -> bool:
    cfg, res, ring = ctx.cfg, ctx.res, ctx.ring
    f = ring.regular_sequence[0]
    others = list(ring.regular_sequence[1:])
    for label in ("l31", "mixed", "cube"):  # the tables name R/(x); compare with R/(f)
        res.expected[label] = [s.replace("x", str(f)) for s in res.expected[label]]
    n_small = min(cfg.n_max, 5)
    GK = gamma(cyclic_two_term(ring, "k", f), n_small)
    pieces = {
        "l31": normalize(apply_pointwise_functor(SchurL31, GK)),
        "mixed": normalize(diagonal_tensor([GK, apply_pointwise_functor(Sym(2), GK)])),
        "cube": normalize(apply_pointwise_functor(Sym(3), GK)),
    }
    for label, N in pieces.items():
        ctx.budget.check()
        table = []
        for k in range(0, 4):
            pres = homology_groebner(truncate(N, n_small - 1), k)
            table.append(_certify_cyclic_mod(pres, f, others, cfg.t_max))
        res.computed[label] = table
        res.per_degree[label] = {str(k): v for k, v in enumerate(table)}
    ok = all(res.computed[label] == res.expected[label] for label in pieces)
    if len(ring.regular_sequence) == 2:
        ctx.budget.check()
        m21, dims_check, sub_N, quot_N = m21_complex(ring, cfg.n_max, ctx.budget.check)
        ks = range(0, 7)
        res.computed["m21_ranks"] = ctx.graded(m21, ks, "m21", certify=True)
        res.computed["m21_rank_split"] = dims_check
        ok = ok and res.computed["m21_ranks"] == res.expected["m21_ranks"]
        ok = ok and all(a == b + c for a, b, c in dims_check)
        ctx.budget.check()
        sub_ranks = ctx.graded(sub_N, ks)
        quot_ranks = ctx.graded(quot_N, ks)
        res.computed["wedge_cube_pair_ranks"] = sub_ranks
        res.computed["schur_pair_ranks"] = quot_ranks
        ok = ok and sub_ranks == [0, 0, 0, 0, 1, 0, 0]
        ok = ok and quot_ranks == [0, 0, 1, 0, 0, 0, 0]
    return ok


def _cauchy_sources(GK, GL):
    """Sources of the Cauchy maps, levelwise: Lambda^3 GK (x) Lambda^3 GL
    for the determinant and Lambda^2 GK (x) GK (x) Lambda^2 GL (x) GL for
    m21.  Both maps are natural, so the columns of degenerate source
    elements land in the degenerate part and project to zero in NS3."""
    on = apply_pointwise_functor
    det = diagonal_tensor([on(Ext(3), GK), on(Ext(3), GL)])
    m21 = diagonal_tensor([on(Ext(2), GK), GK, on(Ext(2), GL), GL])
    return det, m21


def m21_complex(ring, n_max: int, check: Callable[[], None] = lambda: None):
    """Normalized complex of the middle Cauchy filtration stage inside the
    normalized cube of the two-variable diagonal, plus a rank cross-check
    against the two filtration quotients.

    The Cauchy maps are evaluated on the nondegenerate source elements
    only, straight into sparse columns over the coordinates of NS3; the
    reduced echelon rows of their span (``fieldla.ColumnSpace``) are the
    basis of the stage.  ``check`` runs once per level, so a budget check
    there binds.
    Returns (ChainComplex, [(dim M_n, dim sub_n, dim quotient_n)], sub, quot)
    where sub and quot are the normalized complexes of the two filtration
    quotients.
    """
    GK, GL = _one_variable_builds(ring, n_max)
    S3 = apply_pointwise_functor(Sym(3), diagonal_tensor([GK, GL]))
    NS3 = normalize(S3)
    det_src, m21_src = _cauchy_sources(GK, GL)
    # quotient ranks for the cross-check
    sub_N = normalize(det_src)
    quot_N = normalize(diagonal_tensor([
        apply_pointwise_functor(SchurL31, GK), apply_pointwise_functor(SchurL31, GL)
    ]))

    modules, incl, pivots = {}, {}, {}
    for n in range(n_max + 1):
        check()
        Nmod = NS3.module(n)
        row_of = {e: p for p, e in enumerate(S3.nondegenerate(n))}
        cs = fieldla.ColumnSpace(ring.field, Nmod.rank)
        for column, src in ((cauchy_det_column, det_src), (cauchy_m21_column, m21_src)):
            cs.add_columns(
                {row_of[key]: sign for key, sign in column(e).items() if key in row_of}
                for e in src.nondegenerate(n)
            )
        labs = []
        for i, row in enumerate(cs.rows):
            degs = {Nmod.degrees[r] for r in row}
            if len(degs) != 1:
                raise RuntimeError("filtration basis vector is not homogeneous")
            labs.append(atom(f"m21_{n}_{i}", degs.pop()))
        modules[n] = LabeledFreeModule(ring, labs)
        cols = {i: {r: ring.const(row[r]) for r in sorted(row)} for i, row in enumerate(cs.rows)}
        incl[n] = MapMatrix(modules[n], Nmod, cols)
        pivots[n] = cs.pivots
    dims_check = [
        (modules[n].rank, sub_N.module(n).rank, quot_N.module(n).rank) for n in range(n_max + 1)
    ]

    # the differential in the basis: W = d(basis), read off at the pivots of
    # the basis one level down, must be that basis applied to what was read
    diffs = {}
    for n in range(1, n_max + 1):
        if modules[n].rank == 0 or modules[n - 1].rank == 0:
            continue
        W = NS3.diff(n).compose(incl[n])
        cols = {}
        for c in range(modules[n].rank):
            w = W.col(c)
            col = {idx: w[piv] for idx, piv in enumerate(pivots[n - 1]) if piv in w}
            if col:
                cols[c] = col
        diffs[n] = MapMatrix(modules[n], modules[n - 1], cols)
        if not incl[n - 1].compose(diffs[n]).equals(W):
            raise RuntimeError("filtration stage is not a subcomplex")
    return ChainComplex(ring, modules, diffs), dims_check, sub_N, quot_N


# --- Koszul quasi-isomorphisms -------------------------------------------------


def _koszul(ctx: Context) -> bool:
    cfg, res, ring = ctx.cfg, ctx.res, ctx.ring
    cases = {}
    f = ring.regular_sequence[0]
    P1 = LabeledFreeModule(ring, [atom("p", max(f.degree(), 0))])
    Q1 = LabeledFreeModule(ring, [atom("q", 0)])
    cases["single"] = MapMatrix(P1, Q1, {0: {0: f}})
    seq = ring.regular_sequence
    if len(seq) >= 2:
        # the whole sequence as one map R^d -> R; "pair" names it at d = 2
        Pd = LabeledFreeModule(
            ring, [atom(f"p{i + 1}", max(g.degree(), 0)) for i, g in enumerate(seq)]
        )
        label = "pair" if len(seq) == 2 else f"length-{len(seq)}"
        cases[label] = MapMatrix(Pd, Q1, {i: {0: g} for i, g in enumerate(seq)})
    I2s = LabeledFreeModule(ring, [atom("i1", 0), atom("i2", 0)])
    I2t = LabeledFreeModule(ring, [atom("j1", 0), atom("j2", 0)])
    cases["invertible"] = MapMatrix(
        I2s, I2t, {0: {0: ring.one()}, 1: {1: ring.one()}}
    )
    all_ok = True
    for label, fmap in cases.items():
        T = two_term_complex(fmap)
        for n in (1, 2, 3):
            ctx.budget.check()
            G = gamma(T, n + 2)
            sym_n = truncate(normalize(apply_pointwise_functor(Sym(n), G)), n + 1)
            ext_n = truncate(normalize(apply_pointwise_functor(Ext(n), G)), n + 1)
            pairs = {
                "sym": (koszul_complex(fmap, n), sym_n),
                "ext": (cokoszul_complex(fmap, n), ext_n),
            }
            for side, (A, B) in pairs.items():
                da = _dims_table(A, min(cfg.t_max, 8))
                db = _dims_table(B, min(cfg.t_max, 8))
                key = f"{label}/n={n}/{side}"
                res.per_degree[key] = {"koszul": _str_dims(da), "derived": _str_dims(db)}
                if da != db:
                    all_ok = False
            if label == "invertible":
                exact = all(
                    not v
                    for v in _dims_table(koszul_complex(fmap, n), 0).values()
                )
                all_ok = all_ok and exact
    res.computed["all_tables_match"] = all_ok
    return all_ok


def _dims_table(C: ChainComplex, t_max: int) -> dict:
    rep = homology_graded(C, t_max, annihilators=[])
    return {k: d.dims for k, d in rep.degrees.items() if d.dims}


def _str_dims(d: dict) -> dict:
    return {str(k): {str(t): v for t, v in sorted(ts.items())} for k, ts in sorted(d.items())}


# --- Eilenberg-Zilber checks ------------------------------------------------------


def _ez(ctx: Context) -> bool:
    cfg, res = ctx.cfg, ctx.res
    n_max = min(cfg.n_max, 5)
    t_max = min(cfg.t_max, 8)

    def comparison_maps_ok(sh, aw):
        """(shuffle and front-face maps are chain maps, aw after sh is the identity)"""
        comp = aw.compose(sh)
        section = all(
            comp.map_at(n).equals(identity_map(sh.source.module(n))) for n in range(n_max + 1)
        )
        return sh.is_chain_map() and aw.is_chain_map(), section

    sh, aw = eilenberg_zilber(_one_variable_builds(ctx.ring, n_max))
    chain, section = comparison_maps_ok(sh, aw)
    pair_ok = chain and section and is_quasi_iso(sh, t_max, k_max=n_max - 1)
    res.computed["pair"] = {"chain_maps": chain, "section_identity": section, "quasi_iso": pair_ok}
    ctx.budget.check()
    GP = gamma(regular_sequence_resolution(ctx.ring), n_max)
    sh3, aw3 = eilenberg_zilber([GP, GP, GP])
    chain3, section3 = comparison_maps_ok(sh3, aw3)
    reports = homology_graded(sh3.source, t_max), homology_graded(sh3.target, t_max)
    tot_ranks, nd_ranks = (rep.rank_vector(range(0, n_max)) for rep in reports)
    res.computed["triple"] = {
        "chain_maps": chain3,
        "section_identity": section3,
        "ranks": tot_ranks,
    }
    return (
        pair_ok
        and chain3
        and section3
        and tot_ranks == nd_ranks == [comb(4, k) for k in range(n_max)]
        and is_quasi_iso(sh3, t_max, k_max=n_max - 1, reports=reports)
    )


# --- Cauchy filtration checks ------------------------------------------------------


def _cauchy(ctx: Context) -> bool:
    res, plain = ctx.res, ctx.ring
    field = plain.field

    def kmod(name, n):
        return LabeledFreeModule(plain, [atom(f"{name}{i}", 0) for i in range(n)])

    all_ok = True
    for np_, nq in ((2, 2), (3, 3), (2, 3), (4, 3)):
        ctx.budget.check()
        P, Q = kmod("p", np_), kmod("q", nq)
        det = cauchy_det_map(P, Q)
        Md, Mm = constant_columns(det), constant_columns(cauchy_m21_map(P, Q))
        r_det, r_union = fieldla.rank_two(field, Md, Mm)
        lam3 = comb(np_, 3) * comb(nq, 3)
        l31 = (np_**3 - np_) // 3 * ((nq**3 - nq) // 3)
        sym3 = comb(np_ + 2, 3) * comb(nq + 2, 3)
        total = det.target.rank
        split_ok = (
            r_det == lam3
            and r_union - r_det == l31
            and total - r_union == sym3
            and total == lam3 + l31 + sym3
        )
        # membership: the first stage sits inside the second, im(det) in im(m21)
        stage_ok = r_union == fieldla.sparse_rank(field, Mm)
        res.per_degree[f"{np_}{nq}"] = {
            "stage_dims": [lam3, l31, sym3],
            "total": total,
            "det_rank": r_det,
            "union_rank": r_union,
        }
        if np_ >= 3:
            split_ok = split_ok and r_det == det.source.rank  # injectivity
        all_ok = all_ok and split_ok and stage_ok
    res.computed["22"] = res.per_degree["22"]["stage_dims"]
    res.computed["33"] = res.per_degree["33"]["stage_dims"]
    ctx.budget.check()

    # the defining four-term sequences are the n=3 contractions of the
    # identity map, exact for free modules
    seq_exact = True
    for n in (2, 3, 4):
        idm = identity_map(kmod("v", n))
        for C in (koszul_complex(idm, 3), cokoszul_complex(idm, 3)):
            rep = homology_graded(C, 0, annihilators=[])
            if any(d.total for d in rep.degrees.values()):
                seq_exact = False
    res.computed["schur_sequences_exact"] = seq_exact
    return (
        all_ok
        and seq_exact
        and res.computed["22"] == res.expected["22"]
        and res.computed["33"] == res.expected["33"]
    )


# --- property suite (construction identities) ----------------------------------------


def _gamma_check(ctx: Context) -> bool:
    """Simplicial identities, degenerate shapes, and the unit isomorphism."""
    res = ctx.res
    n_small = min(ctx.cfg.n_max, 4)
    P = regular_sequence_resolution(ctx.ring)
    GP = gamma(P, n_small)
    ok = GP.validate()
    NP = normalize(GP)
    unit_ok = NP.ranks() == P.ranks() and all(
        NP.diff(n).col(j) == P.diff(n).col(j)
        for n in P.diffs
        for j in range(P.module(n).rank)
    )
    ctx.budget.check()
    D = diagonal_tensor(list(_one_variable_builds(ctx.ring, n_small)))
    ok = ok and D.validate()
    S3 = apply_pointwise_functor(Sym(3), D)
    ok = ok and S3.validate(up_to=3)
    res.computed["simplicial_identities"] = ok
    res.computed["unit_iso_identity_matrices"] = unit_ok
    return ok and unit_ok


SPECS = [
    Spec("gk", "pair", {"ranks": "gk_ranks"}, _gk),
    Spec(
        "cross2",
        "pair",
        {"per_side": "cross2_per_side", "totals": "cross2_totals", "sym2": "sym2_ranks"},
        _cross2,
    ),
    Spec("cross3", "pair", {"ranks": "cross3_ranks"}, _cross3),
    Spec("tor-powers", "pair", {"square": "tor_square", "cube": "tor_cube"}, _tor_powers),
    Spec("predict", "field", {}, _predict),
    Spec("check-schur", "field", {"cross_ranks": "schur_cross_ranks"}, _schur),
    Spec(
        "check-l31",
        "sequence",
        {
            "l31": "l31_gamma_k",
            "mixed": "mixed_gamma_k",
            "cube": "cube_gamma_k",
            "m21_ranks": "m21_ranks",
        },
        _l31,
    ),
    Spec("check-koszul", "sequence", {}, _koszul),
    Spec("check-ez", "pair", {}, _ez),
    Spec("check-cauchy", "field", {"22": "cauchy_22", "33": "cauchy_33"}, _cauchy),
    Spec("check-gamma", "pair", {}, _gamma_check),
]

# the one registry, in report order: name -> callable(cfg, **kw) -> ScenarioResult
SCENARIOS = {spec.name: partial(run, spec) for spec in SPECS}
