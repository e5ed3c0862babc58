"""Scalar and polynomial arithmetic, the monomial order."""

import gc
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dflab.ring import (
    MR_BOUND,
    DescriptorError,
    EntryPool,
    Poly,
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


# --- entry pools -------------------------------------------------------------

POOL_RINGS = {
    "F_2": ring_descriptor(prime=2),
    "F_97": ring_descriptor(),
    "QQ": ring_descriptor(rationals=True),
}


def _sparse_poly(ring, rng):
    """Up to three terms with small exponents; coefficients often cancel mod p."""
    terms = {}
    for _ in range(rng.randrange(4)):
        c = ring.field.coerce(Fraction(rng.randint(-3, 3), rng.choice([1, 3])))
        if c != ring.field.zero:
            terms[(rng.randrange(3), rng.randrange(3))] = c
    return Poly(ring, terms)


@pytest.mark.parametrize("name", sorted(POOL_RINGS))
def test_entry_pool_arithmetic_is_plain_arithmetic_pooled(name):
    """mul, add, neg and scale give what Poly arithmetic gives, as the
    pooled object: asked again, or on copies of the operands, the pool
    returns the same object, and sharing that object returns it."""
    ring = POOL_RINGS[name]
    rng = random.Random(11)
    pool = EntryPool()
    polys = [_sparse_poly(ring, rng) for _ in range(12)]
    scalars = [0, 1, -1, 2, Fraction(1, 3), 96]
    for a in polys:
        for b in polys:
            for got, want in ((pool.mul(a, b), a * b), (pool.add(a, b), a + b)):
                assert got == want and got.terms == want.terms
                assert pool(got) is got
            assert pool.mul(a, b) is pool.mul(a, b) and pool.add(a, b) is pool.add(a, b)
            a2, b2 = Poly(ring, dict(a.terms)), Poly(ring, dict(b.terms))
            assert pool.mul(a2, b2) is pool.mul(a, b) and pool.add(a2, b2) is pool.add(a, b)
        neg = pool.neg(a)
        assert neg == -a and pool(neg) is neg and pool.neg(a) is neg
        assert (a + neg).is_zero()
        for c in scalars:
            scaled = pool.scale(a, c)
            assert scaled == a.scale(c) and pool(scaled) is scaled and pool.scale(a, c) is scaled


def test_entry_pool_checks_rings_on_every_distinct_pair():
    pool = EntryPool()
    x97, x5 = ring_descriptor().var("x"), ring_descriptor(prime=5).var("x")
    for _ in range(2):  # a failed pair is not remembered as computed
        with pytest.raises(DescriptorError):
            pool.mul(x97, x5)
        with pytest.raises(DescriptorError):
            pool.add(x5, x97)
    same = ring_descriptor()  # equal to the F_97 ring, a distinct object
    assert pool.mul(x97, same.var("y")) == x97 * same.var("y")


def test_entry_pool_memo_outlives_the_callers_operands():
    """The memo is keyed on operand ids; it holds its operands, so ids of
    operands the caller dropped are not reused for new Polys while the
    pool lives, and a later lookup never returns a stale result."""
    ring = POOL_RINGS["F_97"]
    rng = random.Random(5)
    pool = EntryPool()
    for _ in range(300):
        a, b = _sparse_poly(ring, rng), _sparse_poly(ring, rng)
        want_mul, want_add = a * b, a + b
        assert pool.mul(a, b) == want_mul and pool.add(a, b) == want_add
        assert pool.neg(a) == -a and pool.scale(b, 3) == b.scale(3)
        del a, b
        gc.collect()
