"""Per-(row, class) and per-function references for what a `CharacterTable`
shares across its rows and inputs.

The table reduces, splits into terms and reads a determinant off each distinct
multiplicity vector once.  This module does the same work for every (row,
class) pair, the way the table did before its value index, so the two can be
compared value by value: the row order, the nonzero terms, the determinant
exponents, the conjugate rows and the rendering.

`CharacterTable.decompose` takes many class functions at once and weighs each
distinct vector at a class once.  `decompose_one` is the loop it replaced: one
class function per call, every class weighed afresh, its own denominator.
"""

from math import lcm
from operator import sub

from parity_inductor.chartab import (
    CharTableError,
    _lift,
    _ramanujan,
    _reduce_mod_phi,
    cyclotomic_polynomial,
)
from parity_inductor.perm import format_perm


def terms(row):
    """The nonzero (s, m_s) of a row at each class."""
    return tuple(tuple((s, x) for s, x in enumerate(m) if x) for m in row)


def row_key(row, e):
    """(degree, not trivial, per class the value's key), a value keyed by
    (1, its integer) when rational and by (e, its coordinates in the basis
    1, zeta_e, ..., zeta_e ** (phi(e) - 1)) otherwise.
    """
    keys = []
    for m in row:
        red = _reduce_mod_phi(_lift(m, e), e)
        keys.append((1, red[0]) if not any(red[1:]) else (e, *red))
    return (row[0][0], 0 if all(key == (1, 1) for key in keys) else 1, tuple(keys))


def det_exponents(rows, e):
    """det of row i at class c is zeta_e ** det_exponents[i][c]."""
    return tuple(
        tuple(e // len(m) * sum(s * x for s, x in enumerate(m)) % e for m in row)
        for row in rows
    )


def conj_rows(rows):
    """The position of each row's complex conjugate (s -> -s at every class)."""
    index = {row: i for i, row in enumerate(rows)}
    return tuple(index[tuple(m[:1] + m[:0:-1] for m in row)] for row in rows)


def format_value(m, e):
    """A value as an integer polynomial in z = zeta_e of degree below phi(e)."""
    parts = []
    for i, c in enumerate(_reduce_mod_phi(_lift(m, e), e)):
        if c:
            mag = str(abs(c)) if i == 0 else "" if abs(c) == 1 else "%d*" % abs(c)
            term = mag + ("" if i == 0 else "z" if i == 1 else "z^%d" % i)
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return " ".join(parts) or "0"


def check_table(t):
    """Assert that t agrees with the per-(row, class) reference."""
    e = t.exponent
    rows = t.vectors
    assert rows == tuple(sorted(rows, key=lambda row: row_key(row, e)))
    assert t._row_terms == [terms(row) for row in rows]
    assert t.det_exponents == det_exponents(rows, e)
    assert t.conj_rows == conj_rows(rows)
    assert t.formatted_rows() == [[format_value(m, e) for m in row] for row in rows]


def decompose_one(table, vectors):
    """Integer coordinates of one class function over table's irreducibles."""
    k = len(table.classes)
    if len(vectors) != k:
        raise ValueError("%d values for %d classes" % (len(vectors), k))
    for v, cls in zip(vectors, table.classes):
        if not v or any(type(a) is not int for a in v):
            raise ValueError("value at class %s: %r" % (format_perm(cls.rep), v))
    lengths = [lcm(len(v), cls.order) for v, cls in zip(vectors, table.classes)]
    phis = [len(cyclotomic_polynomial(n)) - 1 for n in lengths]
    den = lcm(*phis)
    nums = [0] * k
    for c, (v, n, phi, cls) in enumerate(zip(vectors, lengths, phis, table.classes)):
        scale, step, weights = cls.size * (den // phi), n // cls.order, _ramanujan(n)
        given = [(s * n // len(v), a * scale) for s, a in enumerate(v) if a]
        if given:
            # the input's weight against slot t of a row's vector at c
            at = [sum(a * weights[(s - t * step) % n] for s, a in given)
                  for t in range(cls.order)]
            for j, row in enumerate(table._row_terms):
                nums[j] += sum(x * at[t] for t, x in row[c])
    quotient = table.group.order() * den
    if any(num % quotient for num in nums):
        raise CharTableError("values are not a generalized character")
    coords = [num // quotient for num in nums]
    # re-expand sum_j a_j chi_j and compare with the input modulo Phi_N
    for c, (v, n, cls) in enumerate(zip(vectors, lengths, table.classes)):
        vec, acc = _lift(v, n), [0] * n
        for a, row in zip(coords, table._row_terms):
            if a:
                for s, x in row[c]:
                    acc[s * n // cls.order] += a * x
        if acc != vec and any(_reduce_mod_phi(map(sub, acc, vec), n)):
            raise CharTableError("values are not a generalized character")
    return tuple(coords)
