"""Shared fixtures for the test suite."""

import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from dflab.ring import Rationals, ring_descriptor
from dflab import linear as ln
from dflab.complexes import total_complex, truncate
from dflab.koszul import cyclic_two_term, regular_sequence_resolution
from dflab.linear import LabeledFreeModule
from dflab.simplicial import diagonal_tensor, gamma, normalize

# ring_descriptor keyword arguments of the fields the tests cover
FIELDS = [{"prime": 2}, {"prime": 97}, {"rationals": True}]

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def ring97():
    return ring_descriptor()


@pytest.fixture(scope="session")
def ring_q():
    return ring_descriptor(rationals=True)


@pytest.fixture(scope="session")
def field_ring():
    return ring_descriptor(variables=(), sequence=())


def two_term(ring, name, poly, deg):
    return cyclic_two_term(ring, name, poly, deg)


@pytest.fixture(scope="session")
def resolution(ring97):
    """Tot(K (x) L): the length-2 Koszul resolution of the residue field."""
    x, y = ring97.var("x"), ring97.var("y")
    K = two_term(ring97, "k", x, 1)
    L = two_term(ring97, "l", y, 1)
    return total_complex(K, L)


@pytest.fixture(scope="session")
def kl_pair(ring97):
    x, y = ring97.var("x"), ring97.var("y")
    return two_term(ring97, "k", x, 1), two_term(ring97, "l", y, 1)


def kmodule(ring, name, n):
    return LabeledFreeModule(ring, [ln.atom(f"{name}{i}", 0) for i in range(n)])


def engines_complex(ring):
    """normalize(GP (x) GP) cut at 4, the complex of perfbench's `engines` workload."""
    GP = gamma(regular_sequence_resolution(ring), 5)
    return truncate(normalize(diagonal_tensor([GP, GP])), 4)


def entries(m):
    """(row, column, entry) for every nonzero entry of the MapMatrix m."""
    return [(i, j, q) for j in range(m.source.rank) for i, q in m.col(j).items()]


def map_sum(*terms):
    """The MapMatrix sum of c * f over the (scalar c, MapMatrix f) pairs,
    all maps between the same modules, in plain Poly arithmetic with zero
    entries dropped."""
    cols: dict = {}
    for c, f in terms:
        for j in range(f.source.rank):
            col = cols.setdefault(j, {})
            for i, q in f.col(j).items():
                q = q.scale(c)
                col[i] = q if i not in col else col[i] + q
    cols = {j: {i: q for i, q in col.items() if not q.is_zero()} for j, col in cols.items()}
    f = terms[0][1]
    return ln.MapMatrix(f.source, f.target, {j: col for j, col in cols.items() if col})


def sparse_columns(M):
    """The columns of a dense numpy matrix as sparse dicts {row: coeff} of
    Python ints (or the ``Fraction`` objects of an object array)."""
    return [{i: c for i, c in enumerate(M[:, j].tolist()) if c} for j in range(M.shape[1])]


# --- sympy's DomainMatrix over GF(p) and QQ: the oracle for fieldla ----------


def sympy_matrix(field, cols, m):
    """The m-row matrix with the given sparse columns, as a sympy
    ``DomainMatrix`` over GF(p) or QQ."""
    if isinstance(field, Rationals):
        K = QQ

        def elem(c):
            return QQ(c.numerator, c.denominator)

    else:
        K = GF(field.p)

        def elem(c):
            return K(int(c))

    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            c = field.coerce(c)
            if c:
                rows.setdefault(i, {})[j] = elem(c)
    return DomainMatrix(rows, (m, len(cols)), K)


def sympy_columns(field, M):
    """The columns of a sympy ``DomainMatrix`` as sparse dicts of field elements."""
    if isinstance(field, Rationals):

        def elem(v):
            return Fraction(int(v.numerator), int(v.denominator))

    else:

        def elem(v):
            return int(v) % field.p

    cols = [{} for _ in range(M.shape[1])]
    for i, row in M.to_dod().items():
        for j, v in row.items():
            if v:
                cols[j][i] = elem(v)
    return cols
