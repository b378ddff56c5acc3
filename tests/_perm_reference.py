"""Permutation arithmetic for the tests' own references.

The package keeps no arithmetic on `Perm`: it multiplies positions through a
group's Cayley table.  The oracles here compose image tuples directly, so a
reference never shares its arithmetic with the code it checks.  Products are
left to right, (p * q)(x) = q(p(x)), as the Cayley table's rows are.
"""

from math import lcm

from parity_inductor.perm import Perm


def identity(degree: int) -> Perm:
    return Perm(range(degree))


def mul(*perms: Perm) -> Perm:
    """The left-to-right product of one or more permutations of one degree."""
    images = perms[0].images
    for q in perms[1:]:
        if q.degree != len(images):
            raise ValueError("degree mismatch")
        images = tuple(q.images[i] for i in images)
    return Perm(images)


def inverse(p: Perm) -> Perm:
    inv = [0] * p.degree
    for i, j in enumerate(p.images):
        inv[j] = i
    return Perm(inv)


def power(p: Perm, k: int) -> Perm:
    """p ** k, for any integer k."""
    if k < 0:
        return power(inverse(p), -k)
    result, base = identity(p.degree), p
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def conjugate(x: Perm, g: Perm) -> Perm:
    """g^-1 * x * g."""
    return mul(inverse(g), x, g)


def order(p: Perm) -> int:
    """The lcm of p's cycle lengths."""
    return lcm(*map(len, p.cycles()))
