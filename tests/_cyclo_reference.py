"""Reference character arithmetic through `Cyclo` values, one class at a time.

These are the inner products and decompositions the character table used
before it worked on integer multiplicity vectors.  They stay here as the
independent side of the differential tests.
"""

from fractions import Fraction
from weakref import WeakKeyDictionary

from parity_inductor.cyclotomic import Cyclo

_CONJUGATE_ROWS = WeakKeyDictionary()


def inner_product_conj(table, avals, conj_bvals) -> Fraction:
    """<a, b> from the values of a and of the complex conjugate of b."""
    total = Cyclo.rational(0)
    for cls, a, b in zip(table.classes, avals, conj_bvals):
        total = total + a * b * cls.size
    total = total * Fraction(1, table.group.order())
    f = total.to_fraction()
    assert f is not None, "inner product is not rational"
    return f


def inner_product_values(table, avals, bvals) -> Fraction:
    return inner_product_conj(table, avals, [b.conj() for b in bvals])


def conjugate_rows(table):
    """The complex conjugate of every row's values, computed once per table."""
    if table not in _CONJUGATE_ROWS:
        _CONJUGATE_ROWS[table] = [[v.conj() for v in row] for row in table.values]
    return _CONJUGATE_ROWS[table]


def decompose_reference(table, vals):
    """Integer coordinates of class values over the irreducibles, or None."""
    coeffs = []
    for conj_row in conjugate_rows(table):
        f = inner_product_conj(table, vals, conj_row)
        if f.denominator != 1:
            return None
        coeffs.append(f.numerator)
    return tuple(coeffs)
