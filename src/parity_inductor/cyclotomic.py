"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored as integer coefficient vectors over the power basis
1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th cyclotomic polynomial,
together with one shared positive denominator.  Values that happen to be
rational are collapsed to conductor 1, so cross-conductor equality of
rationals is structural.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


@cache
def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n, low degree first, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_exact_div(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@cache
def _phi_terms(n: int):
    """deg Phi_n and the nonzero (j, coefficient) of Phi_n below the leading term."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(coeffs, n):
    """Reduce an integer polynomial in zeta_n modulo Phi_n; returns len-phi(n) list."""
    deg, terms = _phi_terms(n)
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            work[k] = 0
            base = k - deg
            for j, p in terms:
                work[base + j] -= c * p
    work = work[:deg]
    work += [0] * (deg - len(work))
    return work


class Cyclo:
    """Element of Q(zeta_n)."""

    __slots__ = ("n", "coeffs", "den")

    def __init__(self, n, coeffs, den=1, _reduced=False):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            coeffs = _reduce_mod_phi(coeffs, n)
        if den < 0:
            den = -den
            coeffs = [-c for c in coeffs]
        # rational values collapse to conductor 1
        if n > 1 and not any(coeffs[1:]):
            n = 1
            coeffs = coeffs[:1]
        g = den
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            coeffs = [c // g for c in coeffs]
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo is immutable")

    @staticmethod
    def rational(value, den=1) -> "Cyclo":
        if isinstance(value, Fraction):
            return Cyclo(1, [value.numerator], value.denominator * den)
        return Cyclo(1, [value], den)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclo":
        k %= n
        poly = [0] * (k + 1)
        poly[k] = 1
        return Cyclo(n, poly)

    def lift(self, m: int) -> "Cyclo":
        """Rewrite in Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("cannot lift conductor %d into %d" % (self.n, m))
        step = m // self.n
        poly = [0] * (step * (len(self.coeffs) - 1) + 1 if self.coeffs else 1)
        for i, c in enumerate(self.coeffs):
            if c:
                poly[i * step] += c
        return Cyclo(m, poly, self.den)

    def _paired(self, other):
        """Coerce to a common conductor.

        Rationals are handled by the callers' fast paths; lifting a
        non-rational value never collapses its conductor, so the lifted pair
        is guaranteed to share one basis.
        """
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        if other.n == 1:
            num = other.coeffs[0]
            coeffs = [c * other.den for c in self.coeffs]
            coeffs[0] += num * self.den
            return Cyclo(self.n, coeffs, self.den * other.den, _reduced=True)
        if self.n == 1:
            return other + self
        a, b = self._paired(other)
        ca, cb = a.coeffs, b.coeffs
        return Cyclo(
            a.n,
            [x * b.den + y * a.den for x, y in zip(ca, cb)],
            a.den * b.den,
            _reduced=True,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, [-c for c in self.coeffs], self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclo) else Cyclo.rational(-other))

    def __rsub__(self, other):
        return Cyclo.rational(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclo(self.n, [c * other for c in self.coeffs], self.den)
        if isinstance(other, Fraction):
            return Cyclo(
                self.n,
                [c * other.numerator for c in self.coeffs],
                self.den * other.denominator,
            )
        if other.n == 1:
            return Cyclo(
                self.n,
                [c * other.coeffs[0] for c in self.coeffs],
                self.den * other.den,
            )
        if self.n == 1:
            return other * self
        a, b = self._paired(other)
        ca, cb = a.coeffs, b.coeffs
        out = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        out[i + j] += x * y
        return Cyclo(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        result = Cyclo.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k: int) -> "Cyclo":
        """Apply zeta -> zeta^k; k must be coprime to the conductor."""
        if self.n == 1:
            return self
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent not coprime to conductor")
        k %= self.n
        poly = [0] * self.n
        for i, c in enumerate(self.coeffs):
            if c:
                poly[(i * k) % self.n] += c
        return Cyclo(self.n, poly, self.den)

    def conj(self) -> "Cyclo":
        if self.n <= 2:
            return self
        return self.galois(self.n - 1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return self.n == 1

    def to_fraction(self):
        if self.n != 1:
            return None
        return Fraction(self.coeffs[0], self.den)

    def to_int(self):
        f = self.to_fraction()
        if f is None or f.denominator != 1:
            raise ValueError("value is not a rational integer: %r" % self)
        return f.numerator

    def is_real(self) -> bool:
        return self == self.conj()

    def sort_key(self):
        return (self.n,) + tuple(Fraction(c, self.den) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        if self.n != other.n:
            if self.n == 1 or other.n == 1:
                return False  # conductor 1 is canonical for rationals
            a, b = self._paired(other)
            return a.coeffs == b.coeffs and a.den == b.den
        return self.coeffs == other.coeffs and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return "Cyclo(%d, %s)" % (self.n, format_cyclo(self))

    def to_complex(self) -> complex:
        from cmath import exp, pi

        z = exp(2j * pi / self.n)
        total = 0j
        for i, c in enumerate(self.coeffs):
            total += c * z**i
        return total / self.den


def format_cyclo(v: Cyclo, sym: str = "z") -> str:
    """Render as an integer (or rational) polynomial in sym."""
    if v.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(v.coeffs):
        if not c:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else "%d*" % abs(c)
            term = "%s%s" % (mag, sym if i == 1 else "%s^%d" % (sym, i))
        parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    if v.den != 1:
        text = "(%s)/%d" % (text, v.den)
    return text
