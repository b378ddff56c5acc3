"""Generator families for the degree-zero, trivial-determinant lattice.

An induced generator (type2, tagged, cyclic) is Ind_H^G of a core formed on
H's table as (row, coefficient) pairs: tau - 1 - det tau, or the tagged or
cyclic tau itself.  Each H's cores are taken in one pass: a core's degree and
determinant are checked on H, which the transfer formula carries to G, and
`genchar.induced_coeffs` sums its expansion's G-coordinates.  Those key it
against one seen-set per family, so a descriptor is built only for a nonzero
expansion not met before.

Each family is built in its final order, and that order is an output
contract: it fixes every generator id and the term order of every
certificate.  thm12 lists its conjugate-pair twists by row, then its
dihedral twists; cor29 lists its cyclic twists, then its tagged ones.  The
twists through subquotients H/N come larger H first, then in the order of
`dihedral_subquotients` (H's class, N's class, N's positions), then by tau;
the cyclic twists come larger H first, then by H's class and by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .chartab import CharacterTable, character_table, quotient_rows
from .genchar import GenChar, determinant_exponents, induced_coeffs, sum_of_rows
from .group import PermGroup, per_group
from .intlinalg import hnf, kernel_mod2
from .lattice import SubgroupRecord, subgroup_lattice
from .structure import dihedral_subquotients

THEOREM_FLAVOR = "thm12"
COROLLARY_FLAVOR = "cor29"
FLAVORS = (THEOREM_FLAVOR, COROLLARY_FLAVOR)

class GeneratorError(RuntimeError):
    """A generator violates its construction contract."""


@dataclass(slots=True, eq=False)
class GeneratorDesc:
    """One family generator with its cached expansion in the ambient group.

    The builders below check each generator's contract (degree 0, trivial
    determinant) on the group its core lives on, before this is made."""

    kind: str
    gen_id: str
    expansion: GenChar
    h_record: SubgroupRecord | None = None
    n_positions: frozenset | None = None
    tag: str | None = None
    tau: GenChar | None = None

    def __repr__(self):
        return "GeneratorDesc(%s)" % self.gen_id


def _check_core(table: CharacterTable, core, gen_id):
    """Degree 0 and trivial determinant on the core's group, for a core given
    as (row, coefficient) pairs of its table.

    For a core psi on H this holds for Ind_H^G(psi) too: its degree is
    |G : H| * psi(1), and by the transfer formula (Gallagher) det Ind psi is
    the sign of G on the cosets of H to the psi(1), times det psi composed
    with the transfer G -> H/H'.
    """
    if sum(c * table.degrees[i] for i, c in core):
        raise GeneratorError("generator %s has nonzero degree" % gen_id)
    if any(determinant_exponents(table, core)):
        raise GeneratorError("generator %s has nontrivial determinant" % gen_id)


def _induced(kind, record, candidates, seen, core_of=None):
    """The new generators Ind_H^G(core) of H = record, in one pass over its
    candidates (id, tau, extra): tau as (row, coefficient) pairs of H's table,
    core = ``core_of(table, tau)`` or tau, extra the descriptor's other fields.
    Only a nonzero key not in ``seen`` is kept, and joins it; a tau met again
    on H had its core checked and its key seen the first time."""
    table = character_table(record.as_group())
    taus = set()
    out = []
    for gen_id, tau, extra in candidates:
        if tau in taus:
            continue
        taus.add(tau)
        core = core_of(table, tau) if core_of else tau
        _check_core(table, core, gen_id)
        key = induced_coeffs(record, core)
        if key in seen or not any(key):
            continue
        seen.add(key)
        expansion = GenChar(character_table(record.parent), key)
        out.append(GeneratorDesc(kind, gen_id, expansion, record, tau=sum_of_rows(table, tau), **extra))
    return out


def _conjugate_pair_twist(table: CharacterTable, i: int):
    """chi_i + conj(chi_i) - 2*deg(chi_i)*1, as (row, coefficient) pairs."""
    return ((i, 1), (table.conj_rows[i], 1), (0, -2 * table.degrees[i]))


def enumerate_type1(G: PermGroup):
    """One conjugate-pair twist per pair of rows, by its lesser row, zero expansions dropped."""
    table = character_table(G)
    out = []
    for i in range(table.class_count()):
        core = _conjugate_pair_twist(table, i)
        expansion = sum_of_rows(table, core)
        if table.conj_rows[i] < i or expansion.is_zero():
            continue
        gen_id = "t1:%d" % i
        _check_core(table, core, gen_id)
        out.append(GeneratorDesc("type1", gen_id, expansion))
    return out


def _subquotient_twists(G: PermGroup, kind, id_format, seen, taus_of, core_of=None):
    """The new generators through G's tagged subquotients H/N, larger H first
    (a stable sort), one pass per H over each ``taus_of(H's table, N in H)``."""
    out = []
    subquotients = sorted(dihedral_subquotients(G), key=lambda dq: -dq.h_record.order)
    for record, dqs in groupby(subquotients, lambda dq: dq.h_record):
        table = character_table(record.as_group())
        candidates = []
        for dq in dqs:
            extra = {"n_positions": dq.n_positions, "tag": str(dq.tag)}
            taus = taus_of(table, record.local(dq.n_positions))
            candidates += [(id_format % (record.class_id, dq.n_class_id, dq.tag, i), tau, extra)
                           for i, tau in enumerate(taus)]
        out += _induced(kind, record, candidates, seen, core_of)
    return out


def _degree2_characters(table: CharacterTable, kernel):
    """All degree-2 characters of H/N on H's table as (row, coefficient)
    pairs, canonically ordered, for N given by its positions in H."""
    rows, _ = quotient_rows(table, kernel)
    linear = [i for i in rows if table.degrees[i] == 1]
    out = [((a, 1), (b, 1)) for pos, a in enumerate(linear) for b in linear[pos:]]
    return out + [((i, 1),) for i in rows if table.degrees[i] == 2]


def _dihedral_core(table: CharacterTable, tau):
    """tau - 1 - det tau, for a degree-2 character tau."""
    return tau + ((0, -1), (table.linear_row_of[tuple(determinant_exponents(table, tau))], -1))


def enumerate_type2(G: PermGroup, seen=None):
    """Dihedral induction twists Ind(tau - 1 - det tau) over all tagged
    subquotients, each kept only if its expansion is nonzero and not in
    ``seen`` (empty by default)."""
    seen = set() if seen is None else seen
    return _subquotient_twists(G, "type2", "t2:h%d:n%d:%s:tau%d", seen, _degree2_characters, _dihedral_core)


class GeneratorFamily:
    """An ordered, deduplicated generator list with a cached solver basis."""

    def __init__(self, group: PermGroup, flavor: str, generators):
        if flavor not in FLAVORS:
            raise ValueError("unknown flavor %r" % flavor)
        self.group = group
        self.flavor = flavor
        self.table = character_table(group)
        self.generators = tuple(generators)
        self._hnf = None
        self.position = {}  # gen_id -> its index in generators
        for i, g in enumerate(self.generators):
            if self.position.setdefault(g.gen_id, i) != i:
                raise GeneratorError("generator id %s repeats" % g.gen_id)

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, i):
        return self.generators[i]

    def hnf(self):
        if self._hnf is None and self.generators:
            self._hnf = hnf([g.expansion.coeffs for g in self.generators])
        return self._hnf

    def by_id(self, gen_id: str) -> GeneratorDesc:
        return self.generators[self.position[gen_id]]


@per_group
def theorem_family(G: PermGroup) -> GeneratorFamily:
    """The conjugate-pair plus dihedral-twist family."""
    type1 = enumerate_type1(G)
    type2 = enumerate_type2(G, {g.expansion.coeffs for g in type1})
    return GeneratorFamily(G, THEOREM_FLAVOR, type1 + type2)


def _real_zero_lattice_basis(table: CharacterTable, kernel):
    """Basis of {real generalized characters of H/N of degree 0 with trivial
    det}, as (row, coefficient) pairs of H's table, for N given by its
    positions in H."""
    rows, over = quotient_rows(table, kernel)
    dets = [table.det_exponents[i] for i in rows]
    if any(2 * x % table.exponent for det in dets for x in det):
        raise GeneratorError("tagged quotient with determinant of order > 2")
    position = {row: i for i, row in enumerate(rows)}
    pairs = [(i, j) for i, row in enumerate(rows) if (j := position[table.conj_rows[row]]) > i]
    matrix = [
        [table.degrees[row]]
        + [1 if i == a else -1 if i == b else 0 for a, b in pairs]
        + [1 if det[c] else 0 for c in over]
        for i, (row, det) in enumerate(zip(rows, dets))
    ]
    return [tuple(zip(rows, x)) for x in kernel_mod2(matrix, 1 + len(pairs))]


def _cyclic_quotient_twists(record, seen):
    """The new induced twists psi + conj(psi) - 2*1 over linear characters of H."""
    subtab = character_table(record.as_group())
    rows = [i for i in subtab.linear_row_indices() if i and subtab.conj_rows[i] >= i]
    candidates = [("cyc:h%d:chi%d" % (record.class_id, i), _conjugate_pair_twist(subtab, i), {})
                  for i in rows]
    return _induced("cyclic", record, candidates, seen)


@per_group
def cor29_family(G: PermGroup) -> GeneratorFamily:
    """Induced real twists through cyclic or tagged quotients."""
    records = sorted(subgroup_lattice(G).records, key=lambda record: -record.order)
    seen = set()
    cyclic = [g for record in records for g in _cyclic_quotient_twists(record, seen)]
    tagged = _subquotient_twists(G, "tagged", "tag:h%d:n%d:%s:b%d", seen, _real_zero_lattice_basis)
    return GeneratorFamily(G, COROLLARY_FLAVOR, cyclic + tagged)


def family_for(G: PermGroup, flavor: str) -> GeneratorFamily:
    if flavor == THEOREM_FLAVOR:
        return theorem_family(G)
    if flavor == COROLLARY_FLAVOR:
        return cor29_family(G)
    raise ValueError("unknown flavor %r" % flavor)
