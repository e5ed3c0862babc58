"""Seeded inputs: the prime p and the units a, b of the sequence (a*x, b*y).

Seed 0 is the paper's configuration, F_97 with (x, y).  Any other seed
draws p uniformly among the primes 11 <= p <= 32749 and a, b uniformly
from F_p^x.  The seed space has two measured limits:

- Only unit scalings are drawn.  Any other coordinate change alters the
  cost: swapping x and y halved the Groebner time (13.8 s -> 5.8 s), and
  (x+2y, 3x+y) ran for over 120 s.
- Primes stay far below the exactness bound of `fieldla`'s int64/float64
  elimination.  Above that bound the program is silently wrong today, so
  the benchmark does not cover large primes and implies nothing about them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

P_MIN, P_MAX = 11, 32749


def primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return [q for q in range(lo, hi + 1) if sieve[q]]


@dataclass(frozen=True)
class Inputs:
    """What the program receives: a prime and the units a, b."""

    prime: int
    a: int
    b: int

    @property
    def sequence(self) -> tuple[str, str]:
        return tuple(v if c == 1 else f"{c}*{v}" for c, v in ((self.a, "x"), (self.b, "y")))


def inputs_for_seed(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(97, 1, 1)
    rng = random.Random(seed)
    p = rng.choice(primes_between(P_MIN, P_MAX))
    return Inputs(p, rng.randrange(1, p), rng.randrange(1, p))
