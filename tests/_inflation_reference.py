"""Reference inflation through a decomposed pull-back matrix.

This is how `genchar.inflate` worked before it read G/N's characters off G's
table: read each row of the image's table at the image classes under G's
classes, decompose it over G's table, and apply the resulting integer
matrix.  It stays here as the independent side of the differential tests,
so it never calls `chartab.quotient_rows`.  The matrices are cached per
quotient map outside the groups' own caches.
"""

from operator import mul
from weakref import WeakKeyDictionary

from parity_inductor.chartab import character_table
from parity_inductor.genchar import GenChar

from _chartab_reference import decompose_one


def _apply(rows, coeffs):
    return [sum(map(mul, row, coeffs)) for row in rows]


def _pullback(src, dst, class_map):
    """Row i: src's irreducible i read at classes class_map, in dst coordinates."""
    return tuple(decompose_one(dst, [row[c] for c in class_map]) for row in src.vectors)


_INFLATIONS = WeakKeyDictionary()


def _inflation(G, qmap):
    """The inflation matrix from the table of G/N to G's table, one row per row of G's."""
    if qmap not in _INFLATIONS:
        Q = qmap.image
        gt = character_table(G)
        fusion = [Q.class_of()[qmap.image_of[cls.members[0]]] for cls in gt.classes]
        _INFLATIONS[qmap] = tuple(zip(*_pullback(character_table(Q), gt, fusion)))
    return _INFLATIONS[qmap]


def inflate_reference(qmap, rho):
    """Pull a character of the quotient image back to the source group."""
    if rho.table is not character_table(qmap.image):
        raise ValueError("character does not live on the quotient's table")
    G = qmap.source
    return GenChar(character_table(G), _apply(_inflation(G, qmap), rho.coeffs))
