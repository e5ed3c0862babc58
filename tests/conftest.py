"""Shared fixtures for the test suite."""

import os

import pytest
from hypothesis import HealthCheck, settings

from dflab.ring import ring_descriptor
from dflab import linear as ln
from dflab.complexes import total_complex, truncate
from dflab.koszul import cyclic_two_term, regular_sequence_resolution
from dflab.linear import LabeledFreeModule
from dflab.simplicial import diagonal_tensor, gamma, normalize

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


def sparse_columns(M):
    """The columns of a dense field matrix as sparse dicts {row: coeff}."""
    return [{i: M[i, j] for i in range(M.shape[0]) if M[i, j]} for j in range(M.shape[1])]
