"""Reference decomposition through dense trace-form dual vectors.

This is how `CharacterTable.decompose` worked before it summed over sparse
terms: each row's dual D_j[c][s] = |C_c| * (L / phi(N)) * sum_t m_t * c_N(s - t)
is laid out densely over every (class, slot) of the flattened input,
cached per table at the classes' own element orders, and dotted with the
lifted input.  The re-expansion that makes a return exact is the same.  It
stays here as the independent side of the differential tests.
"""

from math import lcm
from operator import mul, sub
from weakref import WeakKeyDictionary

from parity_inductor.chartab import (
    CharTableError,
    _lift,
    _ramanujan,
    _reduce_mod_phi,
    cyclotomic_polynomial,
)


def _dual_vectors(table, lengths):
    """Each row's trace-form dual over the flattened (class, slot) layout."""
    phis = [len(cyclotomic_polynomial(n)) - 1 for n in lengths]
    den = lcm(*phis)
    duals = [[] for _ in table.classes]
    for c, (cls, n, phi) in enumerate(zip(table.classes, lengths, phis)):
        weights = _ramanujan(n)
        scale = cls.size * (den // phi)
        for dual, row in zip(duals, table.vectors):
            shifted = [(t * n // cls.order, x * scale) for t, x in enumerate(row[c]) if x]
            dual.extend(
                sum(x * weights[(s - t) % n] for t, x in shifted) for s in range(n)
            )
    return duals, den


_DUALS = WeakKeyDictionary()


def decompose_dense(table, vectors):
    """Integer coordinates over the irreducibles, or CharTableError."""
    k = len(table.classes)
    if len(vectors) != k:
        raise ValueError("%d values for %d classes" % (len(vectors), k))
    orders = [cls.order for cls in table.classes]
    lengths = [lcm(len(v), o) for v, o in zip(vectors, orders)]
    if lengths != orders:
        duals, den = _dual_vectors(table, lengths)
    else:
        if table not in _DUALS:
            _DUALS[table] = _dual_vectors(table, orders)
        duals, den = _DUALS[table]
    given = [_lift(v, n) for v, n in zip(vectors, lengths)]
    flat = [a for vec in given for a in vec]
    quotient = table.group.order() * den
    coords = []
    for dual in duals:
        num = sum(map(mul, flat, dual))
        if num % quotient:
            raise CharTableError("values are not a generalized character")
        coords.append(num // quotient)
    for c, (vec, n, o) in enumerate(zip(given, lengths, orders)):
        acc = [0] * n
        for a, row in zip(coords, table.vectors):
            if a:
                for s, x in enumerate(row[c]):
                    if x:
                        acc[s * n // o] += a * x
        if acc != vec and any(_reduce_mod_phi(map(sub, acc, vec), n)):
            raise CharTableError("values are not a generalized character")
    return tuple(coords)
