"""Scalar and polynomial arithmetic, the monomial order."""

import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dflab.ring import (
    MR_BOUND,
    DescriptorError,
    PrimeField,
    is_prime,
    monomial_key,
    parse_poly,
    ring_descriptor,
)


@pytest.fixture(scope="module")
def R():
    return ring_descriptor()


def test_prime_validation():
    PrimeField(2)
    PrimeField(97)
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to small bases are composite
    for n in (561, 1105, 1729, 41041, 2047, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert is_prime(n) is sympy.isprime(n) is False, n
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 3, MR_BOUND - 2):
        assert is_prime(n) is sympy.isprime(n), n


def test_large_prime_field_is_fast_and_bounded():
    start = time.perf_counter()
    ring = ring_descriptor(prime=10**18 + 3)
    assert time.perf_counter() - start < 1.0
    assert ring.field.p == 10**18 + 3
    with pytest.raises(ValueError):
        PrimeField(MR_BOUND)
    with pytest.raises(ValueError):
        PrimeField(10**30 + 57)


def test_product_difference_of_squares():
    R7 = ring_descriptor(prime=7)
    x, y = R7.var("x"), R7.var("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_inverse(R):
    x, y = R.var("x"), R.var("y")
    assert ((x + y) + (-(x + y))).is_zero()


def test_freshman_dream_cube():
    # (x+1)^3 over F_3[x] collapses to x^3 + 1
    R3 = ring_descriptor(prime=3, variables=("x",), sequence=("x",))
    x = R3.var("x")
    assert (x + R3.one()) ** 3 == x**3 + R3.one()


def test_arithmetic_checks_the_ring_unless_it_is_the_same_object(R):
    x = R.var("x")
    other = ring_descriptor(prime=5)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: b * a, lambda a, b: b + a):
        with pytest.raises(DescriptorError):
            op(x, other.var("x"))
    assert x != other.var("x")
    same = ring_descriptor()  # equal to R, a distinct object
    assert same is not R
    sx, sy = same.var("x"), same.var("y")
    assert x * sy == sx * sy and x + sy == sx + sy and x == sx
    assert (x * sy).ring is R and (sy * x).ring is same


def test_monomial_orders():
    # degrevlex: x^2 > xy; y^3 > x^2; x*z^2 < x*y*z < y^3
    assert monomial_key((2, 0)) > monomial_key((1, 1))
    assert monomial_key((0, 3)) > monomial_key((2, 0))
    assert monomial_key((1, 0, 2)) < monomial_key((1, 1, 1)) < monomial_key((0, 3, 0))


def test_parse_poly_roundtrip(R):
    x, y = R.var("x"), R.var("y")
    assert parse_poly(R, "x^2 + 3*x*y - 2") == x * x + x * y.scale(3) - R.const(2)
    assert parse_poly(R, "(x+y)^2") == x * x + x * y.scale(2) + y * y
    with pytest.raises(ValueError):
        parse_poly(R, "x +")


def test_parse_poly_unary_minus_binds_below_power(R):
    x, y = R.var("x"), R.var("y")
    assert parse_poly(R, "-x^2") == -(x * x)
    assert parse_poly(R, "-x^2+y^2") == y * y - x * x
    assert parse_poly(R, "x+-y^2") == x - y * y
    assert parse_poly(R, "x*-y") == -(x * y)
    assert parse_poly(R, "(-x)^2") == parse_poly(R, "--x^2") == x * x
    # juxtaposition and repeated powers are unchanged
    assert parse_poly(R, "2x") == x.scale(2) and parse_poly(R, "x y") == x * y
    assert parse_poly(R, "2(x+y)") == (x + y).scale(2)
    assert parse_poly(R, "x^2^2") == x * x * x * x
    for bad in ("-", "x^-2", "x-", "x^y", "-^2"):
        with pytest.raises(ValueError):
            parse_poly(R, bad)


def test_regular_sequence_validation():
    with pytest.raises(ValueError):
        ring_descriptor(sequence=("x", "y", "x"))  # longer than the variable count
    xyz = ("x", "y", "z")
    assert len(ring_descriptor(variables=xyz, sequence=xyz).regular_sequence) == 3
    with pytest.raises(ValueError):
        ring_descriptor(variables=xyz, sequence=xyz + ("x",))
    with pytest.raises(ValueError):
        ring_descriptor(sequence=("1",))
    with pytest.raises(ValueError):
        ring_descriptor(sequence=("0",))


# --- randomized algebra laws -------------------------------------------------

_R = ring_descriptor()
_coeff = st.integers(min_value=-10, max_value=10)
_expo = st.integers(min_value=0, max_value=3)


@st.composite
def polys(draw, ring=_R):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        mono = (draw(_expo), draw(_expo))
        c = ring.field.coerce(draw(_coeff))
        if c != ring.field.zero:
            terms[mono] = c
    return type(ring.one())(ring, terms)


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30)
@given(polys(ring=ring_descriptor(prime=5)), polys(ring=ring_descriptor(prime=5)))
def test_frobenius(a, b):
    p = 5
    assert (a + b) ** p == a**p + b**p


@given(st.tuples(_expo, _expo), st.tuples(_expo, _expo), st.tuples(_expo, _expo))
def test_order_compatible_with_multiplication(m, m1, m2):
    k1, k2 = monomial_key(m1), monomial_key(m2)
    s1 = monomial_key(tuple(a + b for a, b in zip(m, m1)))
    s2 = monomial_key(tuple(a + b for a, b in zip(m, m2)))
    assert (k1 < k2, k1 == k2) == (s1 < s2, s1 == s2)


@given(st.tuples(_expo, _expo), st.tuples(_expo, _expo))
def test_order_total_and_antisymmetric(m1, m2):
    k1, k2 = monomial_key(m1), monomial_key(m2)
    assert (k1 < k2) + (k1 == k2) + (k1 > k2) == 1
    assert (k1 == k2) == (m1 == m2)
