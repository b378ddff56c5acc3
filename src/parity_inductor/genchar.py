"""Virtual characters with integer coordinates, and the standard operations.

A GenChar is a vector of integer coefficients over the irreducible rows of a
CharacterTable, and the operations work on those coordinates.  Restriction,
inflation and induction apply an integer pull-back matrix, decomposed exactly
once per pair of tables and cached; determinants are integer exponent
vectors mod exp(G), read off the table.  Class values are cyclotomic and are
only computed on request.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .chartab import CharacterTable, CharTableError, character_table
from .cyclotomic import Cyclo
from .group import PermGroup
from .lattice import SubgroupRecord, subgroup_lattice
from .structure import QuotientMap


class GenChar:
    """An integer combination of the irreducible characters of one group."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: CharacterTable, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != table.class_count():
            raise ValueError("coefficient count does not match the table")
        self.table = table
        self.coeffs = coeffs

    # ------------------------------------------------------------- algebra

    def _same_table(self, other: "GenChar"):
        if self.table is not other.table:
            raise ValueError("characters live on different tables")

    def __add__(self, other: "GenChar") -> "GenChar":
        self._same_table(other)
        return GenChar(self.table, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GenChar") -> "GenChar":
        self._same_table(other)
        return GenChar(self.table, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "GenChar":
        return GenChar(self.table, [-a for a in self.coeffs])

    def __mul__(self, n: int) -> "GenChar":
        if not isinstance(n, int):
            return NotImplemented
        return GenChar(self.table, [a * n for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenChar)
            and self.table is other.table
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.table), self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "GenChar(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else "%d*" % abs(c)
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + mag + "X%d" % i)
        return "GenChar(%s)" % " ".join(parts)

    # -------------------------------------------------------------- values

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def degree(self) -> int:
        return sum(c * d for c, d in zip(self.coeffs, self.table.degrees))

    def value(self, class_index: int) -> Cyclo:
        total = Cyclo.rational(0)
        for c, row in zip(self.coeffs, self.table.values):
            if c:
                total = total + row[class_index] * c
        return total

    def values(self):
        return tuple(self.value(c) for c in range(self.table.class_count()))

    def value_at(self, g) -> Cyclo:
        G = self.table.group
        return self.value(G.class_of_index(G.element_index(g)))

    def conj(self) -> "GenChar":
        perm = self.table.conj_rows
        return GenChar(self.table, [self.coeffs[perm[j]] for j in range(len(perm))])

    def is_real(self) -> bool:
        return self.conj().coeffs == self.coeffs


class LinearChar:
    """A degree-1 irreducible character, indexed by its table row."""

    __slots__ = ("table", "row")

    def __init__(self, table: CharacterTable, row: int):
        if table.degrees[row] != 1:
            raise ValueError("row %d is not a degree-1 character" % row)
        self.table = table
        self.row = row

    @property
    def genchar(self) -> GenChar:
        return irreducible_char(self.table, self.row)

    def value(self, class_index: int) -> Cyclo:
        return self.table.values[self.row][class_index]

    def values(self):
        return self.table.values[self.row]

    @property
    def exponents(self):
        """Value at class c is zeta_exp ** exponents[c], exp = exp(G)."""
        return self.table.det_exponents[self.row]

    def is_trivial(self) -> bool:
        return self.row == 0

    def order(self) -> int:
        e = self.table.exponent
        return e // gcd(e, *self.exponents)

    def conj(self) -> "LinearChar":
        return LinearChar(self.table, self.table.conj_rows[self.row])

    def __mul__(self, other: "LinearChar") -> "LinearChar":
        if not isinstance(other, LinearChar) or self.table is not other.table:
            return NotImplemented
        e = self.table.exponent
        exps = tuple((a + b) % e for a, b in zip(self.exponents, other.exponents))
        row = self.table.linear_row_of.get(exps)
        if row is None:
            raise CharTableError("product of linear characters missing from table")
        return LinearChar(self.table, row)

    def kernel_elements(self) -> frozenset:
        G = self.table.group
        elts = G.elements()
        kern = []
        for a, cls in zip(self.exponents, self.table.classes):
            if a == 0:
                kern.extend(elts[m] for m in cls.members)
        return frozenset(kern)

    def kernel_record(self) -> SubgroupRecord:
        lat = subgroup_lattice(self.table.group)
        return lat.record_for_set(self.kernel_elements())

    def __eq__(self, other):
        return (
            isinstance(other, LinearChar)
            and self.table is other.table
            and self.row == other.row
        )

    def __hash__(self):
        return hash((id(self.table), self.row))

    def __repr__(self):
        return "LinearChar(X%d)" % self.row


# ------------------------------------------------------------ constructors


def trivial_char(table: CharacterTable) -> GenChar:
    return irreducible_char(table, 0)


def irreducible_char(table: CharacterTable, i: int) -> GenChar:
    coeffs = [0] * table.class_count()
    coeffs[i] = 1
    return GenChar(table, coeffs)


def from_values(table: CharacterTable, values) -> GenChar:
    return GenChar(table, table.decompose_values(list(values)))


# ------------------------------------------------------- subgroup plumbing


def _subgroup_of(G: PermGroup, H) -> PermGroup:
    """H (record or group) as a group; ValueError unless it lies inside G."""
    if isinstance(H, SubgroupRecord):
        sub = H.as_group()
    elif isinstance(H, PermGroup):
        sub = H
    else:
        raise TypeError("subgroup must be a SubgroupRecord or PermGroup")
    if not all(g in G for g in sub.generators):
        raise ValueError("H is not a subgroup of G")
    return sub


def _pullback(src: CharacterTable, dst: CharacterTable, class_map):
    """Row i: src's irreducible i read at classes class_map, in dst coordinates."""
    return tuple(dst.decompose([row[c] for c in class_map]) for row in src.vectors)


def _restriction(G: PermGroup, H):
    """H's table and the restriction matrix from G's table, cached in G."""
    cache = G._cache.setdefault("restriction", {})
    if H not in cache:
        ht = character_table(_subgroup_of(G, H))
        fusion = [G.class_of(cls.rep) for cls in ht.classes]
        cache[H] = (ht, _pullback(character_table(G), ht, fusion))
    return cache[H]


def _apply(rows, coeffs):
    return [sum(map(mul, row, coeffs)) for row in rows]


# ---------------------------------------------------------------- the ops


def inner_product(alpha: GenChar, beta: GenChar):
    if alpha.table is not beta.table:
        raise ValueError("characters live on different tables")
    return sum(a * b for a, b in zip(alpha.coeffs, beta.coeffs))


def induce(H: SubgroupRecord, tau: GenChar) -> GenChar:
    """Induction of a virtual character of H up to its parent group.

    Frobenius reciprocity: <Ind tau, X_i> = <tau, Res X_i>, the dot product of
    tau with row i of the restriction matrix.
    """
    if not isinstance(H, SubgroupRecord):
        raise TypeError("induction needs a SubgroupRecord (the parent fixes G)")
    G = H.parent
    ht, rows = _restriction(G, H)
    if tau.table is not ht:
        raise ValueError("character does not live on the subgroup's table")
    return GenChar(character_table(G), _apply(rows, tau.coeffs))


def restrict(tau: GenChar, H) -> GenChar:
    """Restriction of a virtual character of G to a subgroup H."""
    ht, rows = _restriction(tau.table.group, H)
    return GenChar(ht, _apply(zip(*rows), tau.coeffs))


def inflate(qmap: QuotientMap, rho: GenChar) -> GenChar:
    """Pull a character of the quotient image back to the source group."""
    Q = qmap.image
    qt = character_table(Q)
    if rho.table is not qt:
        raise ValueError("character does not live on the quotient's table")
    gt = character_table(qmap.source)
    if "inflation" not in Q._cache:
        fusion = [Q.class_of(qmap.map_element(cls.rep)) for cls in gt.classes]
        Q._cache["inflation"] = _pullback(qt, gt, fusion)
    return GenChar(gt, _apply(zip(*Q._cache["inflation"]), rho.coeffs))


def determinant(tau: GenChar) -> LinearChar:
    """Determinant character, extended to virtual characters multiplicatively."""
    table = tau.table
    e = table.exponent
    exps = [0] * table.class_count()
    for ci, dets in zip(tau.coeffs, table.det_exponents):
        if ci:
            exps = [(a + ci * d) % e for a, d in zip(exps, dets)]
    row = table.linear_row_of.get(tuple(exps))
    if row is None:
        raise CharTableError("determinant values do not match a linear character")
    return LinearChar(table, row)


def has_trivial_determinant(tau: GenChar) -> bool:
    return determinant(tau).is_trivial()


def perm_char(G: PermGroup, H) -> GenChar:
    """Character of the action on right cosets of H, from class-fusion counts.

    The value at a class C is its fixed-point count |G| * |H & C| / (|H| * |C|).
    """
    cache_key = None
    if isinstance(H, SubgroupRecord) and H.parent is G:
        cache_key = ("perm_char", H.class_id)
        if cache_key in G._cache:
            return G._cache[cache_key]
    sub = _subgroup_of(G, H)
    elements = H.element_set() if isinstance(H, SubgroupRecord) else sub.elements()
    gt = character_table(G)
    counts = [0] * gt.class_count()
    for h in elements:
        counts[G.class_of(h)] += 1
    scale = G.order() // len(elements)
    vals = [(scale * n // c.size,) for n, c in zip(counts, gt.classes)]
    out = GenChar(gt, gt.decompose(vals))
    if cache_key is not None:
        G._cache[cache_key] = out
    return out


def rho_H(G: PermGroup, H) -> GenChar:
    """Coset character minus its determinant, recentred to degree zero."""
    perm = perm_char(G, H)
    det = determinant(perm)
    gt = perm.table
    index = perm.degree
    return perm - det.genchar - (index - 1) * trivial_char(gt)


def order2_linear_chars(G: PermGroup):
    """All real nontrivial degree-1 irreducibles, in table order."""
    table = character_table(G)
    out = []
    for i in table.linear_row_indices():
        if i != 0 and table.conj_rows[i] == i:
            out.append(LinearChar(table, i))
    return tuple(out)
