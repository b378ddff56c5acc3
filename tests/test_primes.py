"""Tests for the shared prime helpers, against brute force below 2000."""

from parity_inductor._primes import is_prime, prime_factors, primitive_root

LIMIT = 2000


def _brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


PRIMES = [n for n in range(LIMIT) if _brute_is_prime(n)]


def _multiplicative_order(g, p):
    k, x = 1, g % p
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_is_prime_matches_brute_force():
    assert [n for n in range(LIMIT) if is_prime(n)] == PRIMES


def test_prime_factors_match_brute_force():
    for n in range(LIMIT):
        expected = {p for p in PRIMES if p <= n and n % p == 0}
        assert prime_factors(n) == expected, n


def test_primitive_root_is_smallest_generator():
    for p in PRIMES:
        g = primitive_root(p)
        assert _multiplicative_order(g, p) == p - 1, p
        assert all(_multiplicative_order(h, p) < p - 1 for h in range(1, g)), p
