"""Exact scalars and sparse multivariate polynomials with graded bookkeeping.

Coefficients live in a prime field F_p (stored as least non-negative
residues) or in the rationals (stored as ``fractions.Fraction``).
Monomials are exponent tuples, one slot per ring variable, ordered by
degrevlex (``monomial_key``); polynomials
are sparse ``{monomial: coefficient}`` maps with no zero entries.

Polys are never changed in place.  A builder of matrices makes its
entries through one ``EntryPool``, which lives as long as the build:
equal entries are one object, and each distinct product, sum, negation
or scalar multiple of pooled entries is computed once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, le, sub


class DescriptorError(ValueError):
    """Operands built over incompatible ring descriptors."""


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ``ValueError`` at or above ``MR_BOUND``."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is above the deterministic primality bound {MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic of F_p for a prime p; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class Rationals:
    """Arithmetic of Q; elements are ``Fraction`` values."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def monomial_degree(m) -> int:
    return sum(m)


def monomial_key(m):
    """Sort key: bigger key = bigger monomial in degrevlex."""
    return (sum(m),) + tuple(-e for e in reversed(m))


def monomial_mul(m1, m2):
    return tuple(map(add, m1, m2))


def monomial_divides(m1, m2) -> bool:
    return all(map(le, m1, m2))


def monomial_div(m1, m2):
    return tuple(map(sub, m1, m2))


def monomial_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, in no particular order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


class RingDescriptor:
    """A prime field or Q, optionally extended to a polynomial ring.

    ``variables`` may be empty, in which case the ring is the field
    itself.  A regular sequence of length 1 up to the number of
    variables can be attached; its entries must be nonzero non-units.
    """

    __slots__ = ("field", "variables", "regular_sequence", "_cache")

    def __init__(self, field, variables=()):
        self.field = field
        self.variables = tuple(variables)
        self.regular_sequence = None
        self._cache = {}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def compatible(self, other: "RingDescriptor") -> bool:
        return self.field == other.field and self.variables == other.variables

    def check_compatible(self, other: "RingDescriptor"):
        if not self.compatible(other):
            raise DescriptorError(f"mismatched ring descriptors {self} vs {other}")

    # polynomial constructors -------------------------------------------

    def zero(self) -> "Poly":
        return self._cached("zero", lambda: Poly(self, {}))

    def one(self) -> "Poly":
        return self._cached("one", lambda: Poly(self, {(0,) * self.nvars: self.field.one}))

    def const(self, c) -> "Poly":
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Poly":
        i = self.variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mono: self.field.one})

    def _cached(self, key, make):
        v = self._cache.get(key)
        if v is None:
            v = self._cache[key] = make()
        return v

    def set_regular_sequence(self, polys):
        """Attach the generators of the configured ideal (once)."""
        polys = tuple(polys)
        if not 1 <= len(polys) <= self.nvars:
            raise ValueError(f"regular sequence must have length 1 to {self.nvars}")
        for f in polys:
            if f.is_zero():
                raise ValueError("regular sequence entry is zero")
            if f.is_unit():
                raise ValueError("regular sequence entry is a unit")
        self.regular_sequence = polys

    def describe(self) -> dict:
        field = f"F_{self.field.p}" if isinstance(self.field, PrimeField) else "QQ"
        seq = [str(f) for f in self.regular_sequence] if self.regular_sequence else []
        return {"field": field, "vars": list(self.variables), "seq": seq}

    def __repr__(self):
        base = repr(self.field)
        if self.variables:
            base += "[" + ",".join(self.variables) + "]"
        return base


def addto(acc: dict, a: dict, field) -> dict:
    """acc += a on term dicts, in place; returns acc.

    The one add kernel of the ring layer: ``Poly.__add__`` and
    ``MapMatrix.compose`` run on it.  A coefficient that sums to zero is
    removed, so acc never holds a zero term.
    """
    zero, fadd = field.zero, field.add
    for m, c in a.items():
        s = fadd(acc.get(m, zero), c)
        if s == zero:
            acc.pop(m, None)
        else:
            acc[m] = s
    return acc


def addmul(acc: dict, a: dict, b: dict, field) -> dict:
    """acc += a * b on term dicts, in place; returns acc.

    The one multiply kernel of the ring layer: ``Poly.__mul__`` and
    ``MapMatrix.compose`` run on it.  A coefficient that sums to
    zero (a cancellation, or a multiple of p) is removed, so acc never
    holds a zero term.
    """
    zero, fadd, fmul = field.zero, field.add, field.mul
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            s = fadd(acc.get(m, zero), fmul(c1, c2))
            if s == zero:
                acc.pop(m, None)
            else:
                acc[m] = s
    return acc


class EntryPool:
    """The shared entries of one build and the arithmetic on them.

    ``pool(q)`` shares an entry: it returns the first Poly the pool was
    given with the same terms, in the same order, and q when there is
    none.  ``mul``, ``add``, ``neg`` and ``scale`` return the pooled
    result of the operation and compute it once per distinct operands:
    the memo is keyed on the operands' identities (and the scalar), and
    each memo value holds its operands, so no id is reused while the pool
    lives.  A builder passes every entry it makes through one pool that
    lives only as long as the build, so equal entries are one object and
    a repeated product or sum is a lookup.  Equal terms in another
    insertion order are not shared, which costs memory but never changes
    a value.  Sharing relies on Polys never being mutated in place.
    """

    __slots__ = ("_shared", "_mul", "_add", "_neg", "_scale")

    def __init__(self):
        self._shared: dict = {}
        self._mul: dict = {}
        self._add: dict = {}
        self._neg: dict = {}
        self._scale: dict = {}

    def __call__(self, q: "Poly") -> "Poly":
        return self._shared.setdefault(tuple(q.terms.items()), q)

    def mul(self, a: "Poly", b: "Poly") -> "Poly":
        """a * b, pooled."""
        key = (id(a), id(b))
        hit = self._mul.get(key)
        if hit is None:
            hit = self._mul[key] = (self(a * b), a, b)
        return hit[0]

    def add(self, a: "Poly", b: "Poly") -> "Poly":
        """a + b, pooled."""
        key = (id(a), id(b))
        hit = self._add.get(key)
        if hit is None:
            hit = self._add[key] = (self(a + b), a, b)
        return hit[0]

    def neg(self, a: "Poly") -> "Poly":
        """-a, pooled."""
        hit = self._neg.get(id(a))
        if hit is None:
            hit = self._neg[id(a)] = (self(-a), a)
        return hit[0]

    def scale(self, a: "Poly", c) -> "Poly":
        """c * a for a scalar c, pooled."""
        key = (id(a), c)
        hit = self._scale.get(key)
        if hit is None:
            hit = self._scale[key] = (self(a.scale(c)), a)
        return hit[0]


class Poly:
    """Sparse polynomial: dict of exponent tuple -> nonzero coefficient.

    A Poly is immutable: no operation changes its terms once it is made,
    so one Poly can stand for many equal matrix entries, and the builders
    of matrices share equal entries, and the arithmetic on them, through
    an ``EntryPool``.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: dict):
        self.ring = ring
        self.terms = terms

    # predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        zero_mono = (0,) * self.ring.nvars
        return len(self.terms) == 1 and zero_mono in self.terms

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if other.ring is not self.ring:
            self.ring.check_compatible(other.ring)
        return Poly(self.ring, addto(dict(self.terms), other.terms, self.ring.field))

    def __neg__(self) -> "Poly":
        F = self.ring.field
        return Poly(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if other.ring is not self.ring:
            self.ring.check_compatible(other.ring)
        return Poly(self.ring, addmul({}, self.terms, other.terms, self.ring.field))

    def scale(self, c) -> "Poly":
        F = self.ring.field
        c = F.coerce(c)
        if c == F.zero:
            return self.ring.zero()
        return Poly(self.ring, {m: F.mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        return reduce(lambda a, b: a * b, [self] * n, self.ring.one())

    # normal forms -------------------------------------------------------

    def sorted_terms(self):
        """Terms in decreasing monomial order."""
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=True)

    def leading(self):
        """(monomial, coeff) of the leading term; None for zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=monomial_key)
        return m, self.terms[m]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and (other.ring is self.ring or self.ring.compatible(other.ring))
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == self.ring.field.one:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


# --- tiny expression parser for CLI / config polynomials ----------------


def parse_poly(ring: RingDescriptor, text: str) -> Poly:
    """Parse '+', '-', '*', '^', integers, parentheses and variable names."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat(tok=None):
        t = peek()
        if t is None or (tok is not None and t != tok):
            raise ValueError(f"bad polynomial {text!r} (at token {t!r})")
        pos[0] += 1
        return t

    def atom():
        t = peek()
        if t == "(":
            eat("(")
            e = expr()
            eat(")")
            return e
        if isinstance(t, int):
            eat()
            return ring.const(t)
        if isinstance(t, str) and t in ring.variables:
            eat()
            return ring.var(t)
        raise ValueError(f"bad polynomial {text!r} (at token {t!r})")

    def factor():  # factor := '-' factor | atom ('^' int)*
        if peek() == "-":
            eat("-")
            return -factor()
        base = atom()
        while peek() == "^":
            eat("^")
            e = peek()
            if not isinstance(e, int):
                raise ValueError(f"bad exponent in {text!r}")
            eat()
            base = base**e
        return base

    def term():
        p = factor()
        while peek() == "*" or isinstance(peek(), (int,)) or (
            isinstance(peek(), str) and peek() in ring.variables
        ) or peek() == "(":
            if peek() == "*":
                eat("*")
            p = p * factor()
        return p

    def expr():
        p = term()
        while peek() in ("+", "-"):
            if eat() == "+":
                p = p + term()
            else:
                p = p - term()
        return p

    result = expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in polynomial {text!r}")
    return result


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in polynomial")
    return out


def ring_descriptor(prime=97, rationals=False, variables=("x", "y"), sequence=None):
    """Build a descriptor and attach a regular sequence given as strings.

    ``sequence=None`` defaults to the first two variables (so (x, y) over
    the default two-variable ring and over k[x, y, z]); pass
    ``sequence=()`` for a bare ring with no configured ideal.
    """
    field = Rationals() if rationals else PrimeField(prime)
    ring = RingDescriptor(field, tuple(variables))
    if sequence is None:
        sequence = ring.variables[:2]
    seq_polys = [parse_poly(ring, s) if isinstance(s, str) else s for s in sequence]
    if seq_polys:
        ring.set_regular_sequence(seq_polys)
    return ring
