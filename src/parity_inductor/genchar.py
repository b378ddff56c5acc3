"""Virtual characters with integer coordinates, and the standard operations.

A GenChar is a vector of integer coefficients over the irreducible rows of a
CharacterTable.  All value arithmetic is exact cyclotomic; every operation
that produces class values re-derives coordinates and fails loudly if they
are not integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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

    def is_trivial(self) -> bool:
        return self.row == 0

    def order(self) -> int:
        o = 1
        for v in self.values():
            m = 1
            w = v
            while w != 1:
                w = w * v
                m += 1
            o = lcm(o, m)
        return o

    def conj(self) -> "LinearChar":
        return LinearChar(self.table, self.table.conj_rows[self.row])

    def __mul__(self, other: "LinearChar") -> "LinearChar":
        if not isinstance(other, LinearChar) or self.table is not other.table:
            return NotImplemented
        vals = [a * b for a, b in zip(self.values(), other.values())]
        row = self.table.row_index_of_values(vals)
        if row is None:
            raise CharTableError("product of linear characters missing from table")
        return LinearChar(self.table, row)

    def kernel_elements(self) -> frozenset:
        G = self.table.group
        elts = G.elements()
        kern = []
        for ci, cls in enumerate(self.table.classes):
            if self.value(ci) == 1:
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


def _subgroup_view(G: PermGroup, H):
    """Resolve H (record or group) against G; returns (subgroup, element set)."""
    if isinstance(H, SubgroupRecord):
        sub = H.as_group()
        h_set = H.element_set()
    elif isinstance(H, PermGroup):
        sub = H
        h_set = frozenset(H.elements())
    else:
        raise TypeError("subgroup must be a SubgroupRecord or PermGroup")
    if not h_set <= frozenset(G.elements()):
        raise ValueError("H is not a subgroup of G")
    return sub, h_set


# ---------------------------------------------------------------- the ops


def inner_product(alpha: GenChar, beta: GenChar):
    if alpha.table is not beta.table:
        raise ValueError("characters live on different tables")
    return sum(a * b for a, b in zip(alpha.coeffs, beta.coeffs))


def induce(H: SubgroupRecord, tau: GenChar) -> GenChar:
    """Induction of a virtual character of H up to its parent group."""
    if not isinstance(H, SubgroupRecord):
        raise TypeError("induction needs a SubgroupRecord (the parent fixes G)")
    G = H.parent
    sub, h_set = _subgroup_view(G, H)
    gt = character_table(G)
    ht = character_table(sub)
    if tau.table is not ht:
        raise ValueError("character does not live on the subgroup's table")
    k = gt.class_count()
    tau_vals = tau.values()
    buckets = [Cyclo.rational(0)] * k
    for x in sub.elements():
        gc = G.class_of_index(G.element_index(x))
        hc = sub.class_of_index(sub.element_index(x))
        buckets[gc] = buckets[gc] + tau_vals[hc]
    h_order = sub.order()
    g_order = G.order()
    vals = []
    for c in range(k):
        scale = Fraction(g_order, gt.classes[c].size * h_order)
        vals.append(buckets[c] * scale)
    return from_values(gt, vals)


def restrict(tau: GenChar, H) -> GenChar:
    """Restriction of a virtual character of G to a subgroup H."""
    G = tau.table.group
    sub, _ = _subgroup_view(G, H)
    ht = character_table(sub)
    vals = []
    for cls in ht.classes:
        gi = G.element_index(cls.rep)
        vals.append(tau.value(G.class_of_index(gi)))
    return from_values(ht, vals)


def inflate(qmap: QuotientMap, rho: GenChar) -> GenChar:
    """Pull a character of the quotient image back to the source group."""
    Q = qmap.image
    qt = character_table(Q)
    if rho.table is not qt:
        raise ValueError("character does not live on the quotient's table")
    G = qmap.source
    gt = character_table(G)
    vals = []
    for cls in gt.classes:
        q = qmap.map_element(cls.rep)
        vals.append(rho.value(Q.class_of_index(Q.element_index(q))))
    return from_values(gt, vals)


def _newton_determinant_row(table: CharacterTable, i: int) -> int:
    d = table.degrees[i]
    if d == 1:
        return i
    k = table.class_count()
    vals = []
    for c in range(k):
        powers = [None] + [
            table.values[i][table.power_maps[j][c]] for j in range(1, d + 1)
        ]
        es = [Cyclo.rational(1)]
        for m in range(1, d + 1):
            acc = Cyclo.rational(0)
            sign = 1
            for j in range(1, m + 1):
                acc = acc + es[m - j] * powers[j] * sign
                sign = -sign
            es.append(acc * Fraction(1, m))
        vals.append(es[d])
    row = table.row_index_of_values(vals)
    if row is None or table.degrees[row] != 1:
        raise CharTableError("determinant of irreducible %d is not a linear row" % i)
    return row


def determinant(tau: GenChar) -> LinearChar:
    """Determinant character, extended to virtual characters multiplicatively."""
    table = tau.table
    cache = table.det_rows
    k = table.class_count()
    vals = [Cyclo.rational(1)] * k
    for i, ci in enumerate(tau.coeffs):
        if ci == 0:
            continue
        if i not in cache:
            cache[i] = _newton_determinant_row(table, i)
        drow = table.values[cache[i]]
        e = abs(ci)
        for c in range(k):
            p = drow[c] ** e
            if ci < 0:
                p = p.conj()
            vals[c] = vals[c] * p
    row = table.row_index_of_values(vals)
    if row is None or table.degrees[row] != 1:
        raise CharTableError("determinant values do not match a linear character")
    return LinearChar(table, row)


def has_trivial_determinant(tau: GenChar) -> bool:
    return determinant(tau).is_trivial()


def perm_char(G: PermGroup, H) -> GenChar:
    """Character of the action on right cosets of H, by direct fixed-point count."""
    cache_key = None
    if isinstance(H, SubgroupRecord) and H.parent is G:
        cache_key = ("perm_char", H.class_id)
        if cache_key in G._cache:
            return G._cache[cache_key]
    sub, h_set = _subgroup_view(G, H)
    gt = character_table(G)
    seen = set()
    reps = []
    for x in G.elements():
        if x in seen:
            continue
        reps.append(x)
        for h in h_set:
            seen.add(h * x)
    vals = []
    for cls in gt.classes:
        g = cls.rep
        fixed = 0
        for x in reps:
            if x * g * x.inverse() in h_set:
                fixed += 1
        vals.append(Cyclo.rational(fixed))
    out = from_values(gt, vals)
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
