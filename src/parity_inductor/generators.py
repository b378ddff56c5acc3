"""Generator families for the degree-zero, trivial-determinant lattice.

An induced generator (type2, tagged, cyclic) is Ind_H^G of a core formed on
H's table: tau - 1 - det tau, or the tagged or cyclic tau itself.  The core's
degree and determinant are checked on H, which the transfer formula carries
to G, and its expansion is `genchar.induce` of the core.

Each family is built in its final order, and that order is an output
contract: it fixes every generator id and the term order of every
certificate.  thm12 lists its conjugate-pair twists by row, then its
dihedral twists; cor29 lists its cyclic twists, then its tagged ones.  The
twists through subquotients H/N come larger H first, then in the order of
`dihedral_subquotients` (H's class, N's class, N's positions), then by tau;
the cyclic twists come larger H first, then by H's class and by row.
"""

from __future__ import annotations

from .chartab import CharacterTable, character_table, quotient_rows
from .genchar import GenChar, _det_exponents, induce, irreducible_char, sum_of_rows, trivial_char
from .group import PermGroup, per_group
from .intlinalg import hnf, kernel_mod2
from .lattice import subgroup_lattice
from .structure import dihedral_subquotients

THEOREM_FLAVOR = "thm12"
COROLLARY_FLAVOR = "cor29"
FLAVORS = (THEOREM_FLAVOR, COROLLARY_FLAVOR)

class GeneratorError(RuntimeError):
    """A generator violates its construction contract."""


class GeneratorDesc:
    """One family generator with its cached expansion in the ambient group.

    The builders below check each generator's contract (degree 0, trivial
    determinant) on the group its core lives on, before this is made."""

    __slots__ = (
        "kind",
        "gen_id",
        "expansion",
        "h_record",
        "n_positions",
        "tag",
        "tau",
    )

    def __init__(self, kind, gen_id, expansion, **extra):
        self.kind = kind
        self.gen_id = gen_id
        self.expansion = expansion
        self.h_record = extra.get("h_record")
        self.n_positions = extra.get("n_positions")
        self.tag = extra.get("tag")
        self.tau = extra.get("tau")

    def __repr__(self):
        return "GeneratorDesc(%s)" % self.gen_id


def _check_core(core: GenChar, gen_id):
    """Degree 0 and trivial determinant on the core's group.

    For a core psi on H this holds for Ind_H^G(psi) too: its degree is
    |G : H| * psi(1), and by the transfer formula (Gallagher) det Ind psi is
    the sign of G on the cosets of H to the psi(1), times det psi composed
    with the transfer G -> H/H'.
    """
    if core.degree:
        raise GeneratorError("generator %s has nonzero degree" % gen_id)
    if any(_det_exponents(core.table, core.coeffs)):
        raise GeneratorError("generator %s has nontrivial determinant" % gen_id)


def _induced(kind, record, ids, taus, cores, **extra):
    """The generators Ind_H^G(core) of H = record, one per id, tau and core
    (a virtual character of H), once every core's contract is checked on H."""
    for core, gen_id in zip(cores, ids):
        _check_core(core, gen_id)
    return [
        GeneratorDesc(kind, gen_id, induce(record, core), h_record=record, tau=tau, **extra)
        for gen_id, tau, core in zip(ids, taus, cores)
    ]


def _conjugate_pair_twist(table: CharacterTable, i: int) -> GenChar:
    """chi_i + conj(chi_i) - 2*deg(chi_i)*1."""
    return sum_of_rows(table, [(i, 1), (table.conj_rows[i], 1), (0, -2 * table.degrees[i])])


def enumerate_type1(G: PermGroup):
    """One conjugate-pair twist per pair of rows, by its lesser row, zero expansions dropped."""
    table = character_table(G)
    out = []
    for i in range(table.class_count()):
        expansion = _conjugate_pair_twist(table, i)
        if table.conj_rows[i] < i or expansion.is_zero():
            continue
        gen_id = "t1:%d" % i
        _check_core(expansion, gen_id)
        out.append(GeneratorDesc("type1", gen_id, expansion))
    return out


def _subquotient_rows(dq):
    """H's table and `chartab.quotient_rows` of H/N on it."""
    table = character_table(dq.h_record.as_group())
    return (table, *quotient_rows(table, dq.h_record.local(dq.n_positions)))


def _subquotient_generators(kind, id_format, dq, taus, cores):
    """The generators Ind_H^G(core), one per tau of H/N and its core."""
    ids = [id_format % (dq.h_record.class_id, dq.n_class_id, dq.tag, i) for i in range(len(taus))]
    return _induced(kind, dq.h_record, ids, taus, cores, n_positions=dq.n_positions, tag=str(dq.tag))


def _degree2_characters(table: CharacterTable, rows):
    """All degree-2 characters of H/N on H's table, canonically ordered, and their det exponents."""
    linear = [i for i in rows if table.degrees[i] == 1]
    d, e = table.det_exponents, table.exponent
    out = []
    for pos, a in enumerate(linear):
        for b in linear[pos:]:
            out.append((sum_of_rows(table, [(a, 1), (b, 1)]), tuple([(x + y) % e for x, y in zip(d[a], d[b])])))
    out.extend((irreducible_char(table, i), d[i]) for i in rows if table.degrees[i] == 2)
    return out


def _dihedral_twists(dq):
    """All induced twists Ind(tau - 1 - det tau) for one tagged subquotient."""
    table, rows, _ = _subquotient_rows(dq)
    pairs = _degree2_characters(table, rows)
    one = trivial_char(table)
    cores = [tau - one - irreducible_char(table, table.linear_row_of[det]) for tau, det in pairs]
    return _subquotient_generators("type2", "t2:h%d:n%d:%s:tau%d", dq, [tau for tau, _ in pairs], cores)


def _drop_zero_and_duplicate(descs):
    out = []
    seen = set()
    for desc in descs:
        if desc.expansion.is_zero():
            continue
        key = desc.expansion.coeffs
        if key in seen:
            continue
        seen.add(key)
        out.append(desc)
    return out


def _larger_h_first(G: PermGroup):
    """G's tagged subquotients in family order: a stable sort by descending |H|."""
    return sorted(dihedral_subquotients(G), key=lambda dq: -dq.h_record.order)


def enumerate_type2(G: PermGroup):
    """Dihedral induction twists over all tagged subquotients, deduplicated."""
    return _drop_zero_and_duplicate([g for dq in _larger_h_first(G) for g in _dihedral_twists(dq)])


class GeneratorFamily:
    """An ordered, deduplicated generator list with a cached solver basis."""

    def __init__(self, group: PermGroup, flavor: str, generators):
        if flavor not in FLAVORS:
            raise ValueError("unknown flavor %r" % flavor)
        self.group = group
        self.flavor = flavor
        self.table = character_table(group)
        self.generators = tuple(generators)
        self.matrix = [list(g.expansion.coeffs) for g in self.generators]
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
        if self._hnf is None and self.matrix:
            self._hnf = hnf(self.matrix)
        return self._hnf

    def by_id(self, gen_id: str) -> GeneratorDesc:
        return self.generators[self.position[gen_id]]


@per_group
def theorem_family(G: PermGroup) -> GeneratorFamily:
    """The conjugate-pair plus dihedral-twist family."""
    descs = _drop_zero_and_duplicate(enumerate_type1(G) + enumerate_type2(G))
    return GeneratorFamily(G, THEOREM_FLAVOR, descs)


def _real_zero_lattice_basis(table: CharacterTable, rows, over):
    """Basis of {real generalized characters of H/N of degree 0 with trivial
    det}, on H's table: H/N's irreducibles are ``rows``, and ``over`` holds
    one class of H over each class of H/N."""
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
    return [sum_of_rows(table, zip(rows, x)) for x in kernel_mod2(matrix, 1 + len(pairs))]


def _cyclic_quotient_twists(record):
    """Induced twists psi + conj(psi) - 2*1 over linear characters of H."""
    subtab = character_table(record.as_group())
    rows = [i for i in subtab.linear_row_indices() if i and subtab.conj_rows[i] >= i]
    cores = [_conjugate_pair_twist(subtab, i) for i in rows]
    ids = ["cyc:h%d:chi%d" % (record.class_id, i) for i in rows]
    return _induced("cyclic", record, ids, cores, cores)


def _tagged_quotient_twists(dq):
    """Induced lattice basis of real degree-0 trivial-det characters of H/N."""
    table, rows, over = _subquotient_rows(dq)
    taus = _real_zero_lattice_basis(table, rows, over)
    return _subquotient_generators("tagged", "tag:h%d:n%d:%s:b%d", dq, taus, taus)


@per_group
def cor29_family(G: PermGroup) -> GeneratorFamily:
    """Induced real twists through cyclic or tagged quotients."""
    records = sorted(subgroup_lattice(G).records, key=lambda record: -record.order)
    cyclic = [g for record in records for g in _cyclic_quotient_twists(record)]
    tagged = [g for dq in _larger_h_first(G) for g in _tagged_quotient_twists(dq)]
    descs = _drop_zero_and_duplicate(cyclic + tagged)
    return GeneratorFamily(G, COROLLARY_FLAVOR, descs)


def family_for(G: PermGroup, flavor: str) -> GeneratorFamily:
    if flavor == THEOREM_FLAVOR:
        return theorem_family(G)
    if flavor == COROLLARY_FLAVOR:
        return cor29_family(G)
    raise ValueError("unknown flavor %r" % flavor)
