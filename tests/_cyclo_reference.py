"""Reference character values: `Cyclo`, exact elements of Q(zeta_n).

The package keeps every character value as an integer eigenvalue multiplicity
vector and never forms a field element.  This module is the independent side
of the differential tests: its own arithmetic in Q(zeta_n), reference rows,
values and decompositions built from ``table.vectors``, and the renderer the
table's strings are compared with.  It imports no value arithmetic from the
package, so a defect there cannot show on both sides of an oracle match.

Values are integer coefficient vectors over the power basis 1, zeta, ...,
zeta^(phi(n)-1), reduced modulo the n-th cyclotomic polynomial, with one
shared positive denominator.  Rational values collapse to conductor 1, so
cross-conductor equality of rationals is structural.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from weakref import WeakKeyDictionary

from parity_inductor.genchar import GenChar


@cache
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first: x^n - 1 over Phi_d, d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            q = [0] * (len(poly) - len(den) + 1)
            for k in range(len(q) - 1, -1, -1):
                q[k] = c = poly[k + len(den) - 1]
                for j, dj in enumerate(den):
                    poly[k + j] -= c * dj
            assert not any(poly), "non-exact polynomial division"
            poly = q
    return tuple(poly)


@cache
def _phi_terms(n):
    """deg Phi_n and its nonzero (j, coefficient) below the leading term."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(coeffs, n):
    deg, terms = _phi_terms(n)
    work = list(coeffs) + [0] * (deg - len(coeffs))
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for j, p in terms:
                work[k - deg + j] -= c * p
    return work[:deg]


def _cyclo(value):
    return value if isinstance(value, Cyclo) else Cyclo.rational(value)


class Cyclo:
    """Element of Q(zeta_n)."""

    __slots__ = ("n", "coeffs", "den")

    def __init__(self, n, coeffs, den=1):
        assert den > 0
        coeffs = _reduce(coeffs, n)
        if n > 1 and not any(coeffs[1:]):
            n, coeffs = 1, coeffs[:1]
        g = gcd(den, *coeffs) if den > 1 else 1
        self.n = n
        self.coeffs = tuple(c // g for c in coeffs) if g > 1 else tuple(coeffs)
        self.den = den // g

    @staticmethod
    def rational(value):
        if isinstance(value, int):
            return Cyclo(1, [value])
        value = Fraction(value)
        return Cyclo(1, [value.numerator], value.denominator)

    @staticmethod
    def zeta(n, k=1):
        poly = [0] * n
        poly[k % n] = 1
        return Cyclo(n, poly)

    def lift(self, m):
        """The coefficients in the basis of Q(zeta_m), unreduced; the conductor divides m."""
        if m % self.n:
            raise ValueError("cannot lift conductor %d into %d" % (self.n, m))
        poly = [0] * m
        poly[:: m // self.n] = self.coeffs + (0,) * (self.n - len(self.coeffs))
        return poly

    def _paired(self, other):
        """A common conductor and both values' coefficients there."""
        if self.n == other.n:
            return self.n, self.coeffs, other.coeffs
        n = lcm(self.n, other.n)
        return n, _reduce(self.lift(n), n), _reduce(other.lift(n), n)

    def __add__(self, other):
        other = _cyclo(other)
        if 1 in (self.n, other.n):
            v, r = (self, other) if other.n == 1 else (other, self)
            coeffs = [c * r.den for c in v.coeffs]
            coeffs[0] += r.coeffs[0] * v.den
            return Cyclo(v.n, coeffs, v.den * r.den)
        n, a, b = self._paired(other)
        return Cyclo(n, [x * other.den + y * self.den for x, y in zip(a, b)], self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        return self + -_cyclo(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclo(self.n, [c * other for c in self.coeffs], self.den)
        other = _cyclo(other)
        if 1 in (self.n, other.n):
            (r,), v = (other.coeffs, self) if other.n == 1 else (self.coeffs, other)
            return Cyclo(v.n, [c * r for c in v.coeffs], self.den * other.den)
        n, a, b = self._paired(other)
        out = [0] * (len(a) + len(b))
        b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b:
                    out[i + j] += x * y
        return Cyclo(n, out, self.den * other.den)

    __rmul__ = __mul__

    def galois(self, k):
        """Apply zeta -> zeta^k; k must be coprime to the conductor."""
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent not coprime to conductor")
        poly = [0] * self.n
        for i, c in enumerate(self.coeffs):
            poly[i * k % self.n] += c
        return Cyclo(self.n, poly, self.den)

    def conj(self):
        return self.galois(-1)

    def is_zero(self):
        return not any(self.coeffs)

    def to_fraction(self):
        return Fraction(self.coeffs[0], self.den) if self.n == 1 else None

    def sort_key(self):
        return (self.n,) + tuple(Fraction(c, self.den) for c in self.coeffs)

    def __eq__(self, other):
        other = _cyclo(other)
        # conductor 1 holds exactly the rationals, so it is canonical
        if self.n == other.n or 1 in (self.n, other.n):
            return (self.n, self.coeffs, self.den) == (other.n, other.coeffs, other.den)
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return "Cyclo(%d, %s)" % (self.n, format_cyclo(self))


def format_cyclo(v, sym="z"):
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
    if v.den != 1:
        text = "(%s)/%d" % (text, v.den)
    return text


# ------------------------------------------------ values from table.vectors

_ROWS = WeakKeyDictionary()


def value_of(m, n):
    """sum_s m_s * zeta_o ** s, o = len(m), written in Q(zeta_n); o divides n."""
    poly = [0] * n
    poly[:: n // len(m)] = m
    return Cyclo(n, poly)


def _rows(table):
    """Every row's class values in Q(zeta_exp), their conjugates, and the
    conjugates weighted by class size, once per table."""
    if table not in _ROWS:
        e = table.exponent
        rows = [[value_of(m, e) for m in row] for row in table.vectors]
        conj = [[v.conj() for v in row] for row in rows]
        sizes = [cls.size for cls in table.classes]
        _ROWS[table] = rows, conj, [[v * n for v, n in zip(row, sizes)] for row in conj]
    return _ROWS[table]


def reference_rows(table):
    return _rows(table)[0]


def conjugate_rows(table):
    return _rows(table)[1]


def reference_values(chi):
    """Class values of a GenChar (or of a LinearChar's row)."""
    chi = getattr(chi, "genchar", chi)
    rows = reference_rows(chi.table)
    total = [Cyclo.rational(0)] * len(rows)
    for a, row in zip(chi.coeffs, rows):
        if a:
            total = [t + v * a for t, v in zip(total, row)]
    return total


def inner_product_conj(table, avals, conj_bvals):
    """<a, b> from the values of a and of the complex conjugate of b."""
    total = Cyclo.rational(0)
    for cls, a, b in zip(table.classes, avals, conj_bvals):
        total = total + a * b * cls.size
    f = (total * Fraction(1, table.group.order())).to_fraction()
    assert f is not None, "inner product is not rational"
    return f


def inner_product_values(table, avals, bvals):
    return inner_product_conj(table, avals, [b.conj() for b in bvals])


def decompose_reference(table, vals):
    """Integer coordinates of class values over the irreducibles, or None
    unless every inner product with an irreducible is a rational integer."""
    coeffs = []
    for weighted in _rows(table)[2]:
        total = Cyclo.rational(0)
        for a, b in zip(vals, weighted):
            total = total + a * b
        f = total.to_fraction()
        if f is None or f.denominator != 1 or f.numerator % table.group.order():
            return None
        coeffs.append(f.numerator // table.group.order())
    return tuple(coeffs)


def from_values(table, vals):
    """The GenChar with these class values; the values must be one."""
    vals = list(vals)
    assert len(vals) == table.class_count(), "one value per class"
    coords = decompose_reference(table, vals)
    assert coords is not None, "values are not a generalized character"
    return GenChar(table, coords)
