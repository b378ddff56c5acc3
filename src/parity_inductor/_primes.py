"""Trial-division prime helpers, shared by the modules that need primes."""

from __future__ import annotations


def prime_factors(n: int) -> set:
    """The distinct prime divisors of n (empty for n <= 1)."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == {n}


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod the prime p."""
    factors = prime_factors(p - 1)
    for g in range(1, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root mod %d" % p)
