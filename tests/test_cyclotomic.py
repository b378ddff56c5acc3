"""The reference `Cyclo` arithmetic, and Phi_n in the package and the reference."""

import math
from fractions import Fraction

import pytest

from parity_inductor import chartab

from _cyclo_reference import Cyclo, cyclotomic_polynomial, format_cyclo


def test_cyclotomic_polynomials():
    for n in range(1, 61):
        assert chartab.cyclotomic_polynomial(n) == cyclotomic_polynomial(n), n
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_powers():
    i = Cyclo.zeta(4)
    assert i * i == -1
    assert i * i * i * i == 1
    z = Cyclo.zeta(3)
    assert z + z * z == -1
    w, power = Cyclo.zeta(7), Cyclo.rational(1)
    for _ in range(7):
        power = power * w
    assert power == 1


def test_rational_collapse():
    s = sum((Cyclo.zeta(5, k) for k in range(1, 5)), Cyclo.rational(0))
    assert s == -1
    assert s.n == 1


def test_cross_conductor_equality():
    assert Cyclo.zeta(8, 2) == Cyclo.zeta(4)
    assert Cyclo.zeta(6, 3) == -1
    assert Cyclo.zeta(2) == -1


def test_conj():
    z = Cyclo.zeta(5)
    assert z.conj() == Cyclo.zeta(5, 4)
    assert (z + z.conj()).conj() == z + z.conj()
    assert z.conj() != z
    assert Cyclo.rational(7).conj() == 7


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        Cyclo.zeta(6).galois(2)


def test_lift_requires_multiple():
    with pytest.raises(ValueError):
        Cyclo.zeta(4).lift(6)


def test_fraction_arithmetic():
    half = Cyclo.rational(Fraction(1, 2))
    assert half * 2 == 1
    assert half + half == 1
    assert (half * Fraction(2, 3)).to_fraction() == Fraction(1, 3)


def test_moebius_sums():
    # sum of primitive n-th roots equals the Moebius function at n
    prim12 = sum(
        (Cyclo.zeta(12, k) for k in range(1, 12) if math.gcd(k, 12) == 1),
        Cyclo.rational(0),
    )
    assert prim12 == 0
    prim6 = Cyclo.zeta(6) + Cyclo.zeta(6, 5)
    assert prim6 == 1


def test_sort_key_orders_by_conductor_then_coeffs():
    vals = [Cyclo.zeta(3), Cyclo.rational(2), Cyclo.rational(1)]
    vals.sort(key=lambda v: v.sort_key())
    assert vals[0] == 1 and vals[1] == 2
    assert vals[2].n == 3


def test_format():
    assert format_cyclo(Cyclo.rational(0)) == "0"
    assert format_cyclo(Cyclo.rational(-3)) == "- 3"
    assert format_cyclo(Cyclo.zeta(5) + 1) == "1 + z"
    assert format_cyclo(Cyclo.zeta(5) * 2 - 1) == "- 1 + 2*z"
    assert format_cyclo(Cyclo.rational(Fraction(1, 2))) == "(1)/2"
