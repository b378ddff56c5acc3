"""Generator families for the degree-zero, trivial-determinant lattice."""

from __future__ import annotations

from .chartab import CharacterTable, character_table
from .genchar import (
    GenChar,
    determinant,
    has_trivial_determinant,
    induce,
    inflate,
    irreducible_char,
    trivial_char,
)
from .group import PermGroup
from .intlinalg import hnf, kernel_basis
from .lattice import subgroup_lattice
from .structure import QuotientMap, dihedral_subquotients

THEOREM_FLAVOR = "thm12"
COROLLARY_FLAVOR = "cor29"
FLAVORS = (THEOREM_FLAVOR, COROLLARY_FLAVOR)


class GeneratorError(RuntimeError):
    """A generator violates its construction contract."""


class GeneratorDesc:
    """One family generator with its cached expansion in the ambient group."""

    __slots__ = (
        "kind",
        "gen_id",
        "expansion",
        "index",
        "h_record",
        "n_elements",
        "n_class_id",
        "tag",
        "tau_index",
        "tau",
    )

    def __init__(self, kind, gen_id, expansion, **extra):
        self.kind = kind
        self.gen_id = gen_id
        self.expansion = expansion
        self.index = extra.get("index")
        self.h_record = extra.get("h_record")
        self.n_elements = extra.get("n_elements")
        self.n_class_id = extra.get("n_class_id")
        self.tag = extra.get("tag")
        self.tau_index = extra.get("tau_index")
        self.tau = extra.get("tau")
        if expansion.degree != 0:
            raise GeneratorError("generator %s has nonzero degree" % gen_id)
        if not has_trivial_determinant(expansion):
            raise GeneratorError("generator %s has nontrivial determinant" % gen_id)

    def __repr__(self):
        return "GeneratorDesc(%s)" % self.gen_id


def _conjugate_pair_twist(table: CharacterTable, i: int) -> GenChar:
    """The combination chi_i + conj(chi_i) - 2*deg(chi_i)*1."""
    coeffs = [0] * table.class_count()
    coeffs[i] += 1
    coeffs[table.conj_rows[i]] += 1
    coeffs[0] -= 2 * table.degrees[i]
    return GenChar(table, coeffs)


def enumerate_type1(G: PermGroup):
    """One conjugate-pair twist per irreducible, zero expansions dropped."""
    table = character_table(G)
    out = []
    seen = set()
    for i in range(table.class_count()):
        canonical = min(i, table.conj_rows[i])
        if canonical in seen:
            continue
        seen.add(canonical)
        expansion = _conjugate_pair_twist(table, canonical)
        if expansion.is_zero():
            continue
        out.append(
            GeneratorDesc(
                "type1", "t1:%d" % canonical, expansion, index=canonical
            )
        )
    return out


def _degree2_characters(qtab: CharacterTable):
    """All degree-2 characters of a small quotient, in canonical order."""
    linear = qtab.linear_row_indices()
    out = []
    for pos, a in enumerate(linear):
        for b in linear[pos:]:
            coeffs = [0] * qtab.class_count()
            coeffs[a] += 1
            coeffs[b] += 1
            out.append(GenChar(qtab, coeffs))
    for row, degree in enumerate(qtab.degrees):
        if degree == 2:
            coeffs = [0] * qtab.class_count()
            coeffs[row] = 1
            out.append(GenChar(qtab, coeffs))
    return out


def _dihedral_twists(dq):
    """All induced twists Ind(tau - 1 - det tau) for one tagged subquotient."""
    sub = dq.h_record.as_group()
    subtab = character_table(sub)
    qmap = QuotientMap(sub, dq.n_elements)
    qtab = character_table(qmap.image)
    one = trivial_char(subtab)
    out = []
    for tau_index, tau in enumerate(_degree2_characters(qtab)):
        lifted = inflate(qmap, tau)
        core = lifted - one - determinant(lifted).genchar
        expansion = induce(dq.h_record, core)
        gen_id = "t2:h%d:n%d:%s:tau%d" % (
            dq.h_record.class_id,
            dq.n_class_id,
            dq.tag,
            tau_index,
        )
        out.append(
            GeneratorDesc(
                "type2",
                gen_id,
                expansion,
                h_record=dq.h_record,
                n_elements=dq.n_elements,
                n_class_id=dq.n_class_id,
                tag=str(dq.tag),
                tau_index=tau_index,
                tau=tau,
            )
        )
    return out


def _type2_sort_key(desc: GeneratorDesc):
    return (
        -desc.h_record.order,
        desc.h_record.class_id,
        len(desc.n_elements),
        desc.n_class_id,
        desc.tag,
        desc.tau_index,
    )


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


def enumerate_type2(G: PermGroup):
    """Dihedral induction twists over all tagged subquotients, deduplicated."""
    descs = []
    for dq in dihedral_subquotients(G):
        descs.extend(_dihedral_twists(dq))
    descs.sort(key=_type2_sort_key)
    return _drop_zero_and_duplicate(descs)


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
        self._by_id = {g.gen_id: g for g in self.generators}

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
        return self._by_id[gen_id]

    def ids(self):
        return [g.gen_id for g in self.generators]


def theorem_family(G: PermGroup) -> GeneratorFamily:
    """The conjugate-pair plus dihedral-twist family, cached per group."""
    key = "family:" + THEOREM_FLAVOR
    if key not in G._cache:
        descs = _drop_zero_and_duplicate(enumerate_type1(G) + enumerate_type2(G))
        G._cache[key] = GeneratorFamily(G, THEOREM_FLAVOR, descs)
    return G._cache[key]


def _real_zero_lattice_basis(qtab: CharacterTable):
    """Basis of {real generalized characters of degree 0 with trivial det}."""
    k = qtab.class_count()
    det_bits = []
    for i in range(k):
        delta = determinant(irreducible_char(qtab, i))
        if not (delta * delta).is_trivial():
            raise GeneratorError("tagged quotient with determinant of order > 2")
        det_bits.append([1 if a else 0 for a in delta.exponents])
    nvars = 2 * k
    columns = [[qtab.degrees[i] for i in range(k)] + [0] * k]
    for i in range(k):
        j = qtab.conj_rows[i]
        if j > i:
            col = [0] * nvars
            col[i] = 1
            col[j] = -1
            columns.append(col)
    for c in range(k):
        col = [det_bits[i][c] for i in range(k)] + [0] * k
        col[k + c] = 2
        columns.append(col)
    rows = [[col[i] for col in columns] for i in range(nvars)]
    return [row[:k] for row in kernel_basis(rows) if any(row[:k])]


def _cyclic_quotient_twists(record):
    """Induced twists psi + conj(psi) - 2*1 over linear characters of H."""
    sub = record.as_group()
    subtab = character_table(sub)
    out = []
    for i in subtab.linear_row_indices():
        if i == 0 or subtab.conj_rows[i] < i:
            continue
        tau = _conjugate_pair_twist(subtab, i)
        expansion = induce(record, tau)
        gen_id = "cyc:h%d:chi%d" % (record.class_id, i)
        out.append(
            GeneratorDesc(
                "cyclic", gen_id, expansion, h_record=record, index=i, tau=tau
            )
        )
    return out


def _tagged_quotient_twists(dq):
    """Induced lattice basis of real degree-0 trivial-det characters of H/N."""
    sub = dq.h_record.as_group()
    qmap = QuotientMap(sub, dq.n_elements)
    qtab = character_table(qmap.image)
    out = []
    for b_index, coeffs in enumerate(_real_zero_lattice_basis(qtab)):
        tau = GenChar(qtab, coeffs)
        expansion = induce(dq.h_record, inflate(qmap, tau))
        gen_id = "tag:h%d:n%d:%s:b%d" % (
            dq.h_record.class_id,
            dq.n_class_id,
            dq.tag,
            b_index,
        )
        out.append(
            GeneratorDesc(
                "tagged",
                gen_id,
                expansion,
                h_record=dq.h_record,
                n_elements=dq.n_elements,
                n_class_id=dq.n_class_id,
                tag=str(dq.tag),
                tau_index=b_index,
                tau=tau,
            )
        )
    return out


def cor29_family(G: PermGroup) -> GeneratorFamily:
    """Induced real twists through cyclic or tagged quotients, cached."""
    key = "family:" + COROLLARY_FLAVOR
    if key not in G._cache:
        cyclic = []
        for record in subgroup_lattice(G).records:
            cyclic.extend(_cyclic_quotient_twists(record))
        cyclic.sort(key=lambda d: (-d.h_record.order, d.h_record.class_id, d.index))
        tagged = []
        for dq in dihedral_subquotients(G):
            tagged.extend(_tagged_quotient_twists(dq))
        tagged.sort(key=_type2_sort_key)
        descs = _drop_zero_and_duplicate(cyclic + tagged)
        G._cache[key] = GeneratorFamily(G, COROLLARY_FLAVOR, descs)
    return G._cache[key]


def family_for(G: PermGroup, flavor: str) -> GeneratorFamily:
    if flavor == THEOREM_FLAVOR:
        return theorem_family(G)
    if flavor == COROLLARY_FLAVOR:
        return cor29_family(G)
    raise ValueError("unknown flavor %r" % flavor)
