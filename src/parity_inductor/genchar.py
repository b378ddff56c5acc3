"""Virtual characters with integer coordinates, and the standard operations.

A GenChar is a vector of integer coefficients over the irreducible rows of a
CharacterTable, and the operations work on those coordinates.  Restriction and
induction share one integer matrix per subgroup H, cached in the larger group
as its columns: column h is Ind of H's irreducible h, read off G's rows at H's
classes, where a row that restricts to one of H's rows, as each linear row
does, gives a unit vector and the other distinct restrictions are decomposed
over H's table in one call.  Induction sums columns (`induced_coeffs`, from
(row, coefficient) pairs) and restriction takes one dot product per column.
Coset characters are decomposed in one call for every lattice class.  Inflation
puts each coordinate of G/N on the row of G's table it names
(`chartab.quotient_rows`); determinants are integer exponent vectors mod
exp(G).  No class value is ever formed: the table keeps its rows as
eigenvalue multiplicity vectors.
"""

from __future__ import annotations

from operator import mul

from .chartab import CharacterTable, CharTableError, character_table, quotient_rows
from .group import PermGroup, per_group
from .intlinalg import linear_combination
from .lattice import SubgroupRecord, subgroup_lattice
from .structure import QuotientMap


class GenChar:
    """An integer combination of the irreducible characters of one group."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: CharacterTable, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != table.class_count() or {*map(type, coeffs)} - {int}:
            raise ValueError("coefficients must be %d integers, got %r" % (table.class_count(), coeffs))
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

    def conj(self) -> "GenChar":
        perm = self.table.conj_rows
        return GenChar(self.table, [self.coeffs[perm[j]] for j in range(len(perm))])


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

    @property
    def exponents(self):
        """Value at class c is zeta_exp ** exponents[c], exp = exp(G)."""
        return self.table.det_exponents[self.row]

    def is_trivial(self) -> bool:
        return self.row == 0

    def kernel_positions(self) -> frozenset:
        """Positions in the group's ``elements()`` where the value is 1."""
        return frozenset(
            m
            for a, cls in zip(self.exponents, self.table.classes)
            if a == 0
            for m in cls.members
        )

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
    return sum_of_rows(table, [(i, 1)])


def sum_of_rows(table: CharacterTable, pairs) -> GenChar:
    """The sum of c * chi_i over the (row i, coefficient c) pairs."""
    coeffs = [0] * table.class_count()
    for i, c in pairs:
        coeffs[i] += c
    return GenChar(table, coeffs)


# ------------------------------------------------------- subgroup plumbing


def _check_record(G: PermGroup, H) -> None:
    if not isinstance(H, SubgroupRecord) or H.parent is not G:
        raise ValueError("H must be a SubgroupRecord of G")


@per_group
def _induction(G: PermGroup, H: SubgroupRecord):
    """H's table and the induction matrix's columns: column h is Ind of H's
    irreducible h in G's coordinates, by Frobenius reciprocity."""
    ht = character_table(H.as_group())
    fusion = [G.class_of(cls.rep) for cls in ht.classes]
    restricted = [tuple([row[c] for c in fusion]) for row in character_table(G).vectors]
    rows = {row: tuple([int(i == j) for j in range(len(fusion))]) for i, row in enumerate(ht.vectors)}
    rest = [row for row in dict.fromkeys(restricted) if row not in rows]
    rows.update(zip(rest, ht.decompose(rest)))
    return ht, tuple(zip(*map(rows.__getitem__, restricted)))


@per_group
def _inflation_rows(G: PermGroup, qmap: QuotientMap):
    """The row of G's table that each row of the image's table inflates to."""
    return quotient_rows(character_table(G), qmap.kernel)[0]


# ---------------------------------------------------------------- the ops


def induce(H: SubgroupRecord, tau: GenChar) -> GenChar:
    """Induction of a virtual character of H up to its parent group."""
    if not isinstance(H, SubgroupRecord):
        raise ValueError("induction needs a SubgroupRecord (the parent fixes G)")
    if tau.table is not _induction(H.parent, H)[0]:
        raise ValueError("character does not live on the subgroup's table")
    return GenChar(character_table(H.parent), induced_coeffs(H, enumerate(tau.coeffs)))


def induced_coeffs(H: SubgroupRecord, pairs) -> tuple:
    """G-coordinates of Ind_H^G of the sum of c * Y_h over the (row h of H's
    table, coefficient c) pairs: the induction matrix's columns summed."""
    columns = _induction(H.parent, H)[1]
    return tuple(linear_combination(((c, columns[h]) for h, c in pairs), len(columns[0])))


def restrict(tau: GenChar, H: SubgroupRecord) -> GenChar:
    """Restriction of a virtual character of G to a subgroup record H of G.

    Frobenius reciprocity: <Res tau, Y_h> = <tau, Ind Y_h>, the dot product of
    tau with column h of the induction matrix.
    """
    _check_record(tau.table.group, H)
    ht, columns = _induction(tau.table.group, H)
    return GenChar(ht, [sum(map(mul, column, tau.coeffs)) for column in columns])


def inflate(qmap: QuotientMap, rho: GenChar) -> GenChar:
    """Pull a character of the quotient image back to the source group."""
    if rho.table is not character_table(qmap.image):
        raise ValueError("character does not live on the quotient's table")
    G = qmap.source
    return sum_of_rows(character_table(G), zip(_inflation_rows(G, qmap), rho.coeffs))


def _det_exponents(table: CharacterTable, pairs):
    """det of the sum of c * chi_i over the (row i, coefficient c) pairs: its
    value at class c is zeta_exp ** exps[c]."""
    exps = linear_combination(((c, table.det_exponents[i]) for i, c in pairs), table.class_count())
    return [a % table.exponent for a in exps]


def determinant(tau: GenChar) -> LinearChar:
    """Determinant character, extended to virtual characters multiplicatively."""
    table = tau.table
    row = table.linear_row_of.get(tuple(_det_exponents(table, enumerate(tau.coeffs))))
    if row is None:
        raise CharTableError("determinant values do not match a linear character")
    return LinearChar(table, row)


def has_trivial_determinant(tau: GenChar) -> bool:
    return determinant(tau).is_trivial()


def perm_char(G: PermGroup, H: SubgroupRecord) -> GenChar:
    """Character of the action on right cosets of H, from class-fusion counts.

    Conjugate subgroups give the same character, so a record of G is counted
    on its class representative: once per lattice class.
    """
    _check_record(G, H)
    return _lattice_coset_chars(G)[H.class_id]


@per_group
def _lattice_coset_chars(G: PermGroup):
    """The coset character of every lattice class of G, decomposed in one call."""
    return _coset_chars(G, [rec.positions for rec in subgroup_lattice(G).records])


def _coset_chars(G: PermGroup, subgroups):
    """The coset characters of subgroups of G, each given by its positions in
    G's ``elements()``.  The value at a class C is its fixed-point count
    |G| * |H & C| / (|H| * |C|)."""
    gt = character_table(G)
    functions = []
    for positions in subgroups:
        counts = [0] * gt.class_count()
        for a in positions:
            counts[G.class_of_index(a)] += 1
        scale = G.order() // len(positions)
        functions.append([(scale * n // c.size,) for n, c in zip(counts, gt.classes)])
    return [GenChar(gt, coeffs) for coeffs in gt.decompose(functions)]


def rho_H(G: PermGroup, H: SubgroupRecord) -> GenChar:
    """Coset character minus its determinant, recentred to degree zero."""
    _check_record(G, H)
    return _rho_H(G, H)


@per_group
def _rho_H(G: PermGroup, H: SubgroupRecord) -> GenChar:
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
