"""Reference generator families through the quotient image's own table.

This is how both flavors built their subquotient twists before they read
H/N's characters off H's table: build the table of the image of H -> H/N,
take its degree-2 characters (thm12) or a lattice basis of its real
degree-0 trivial-determinant characters (cor29), and inflate each through
the decomposed pull-back matrix of the quotient map (`_inflation_reference`,
not the package's `inflate`, which reads H/N's rows off H's table too)
before inducing to G.  Every twist here, the cyclic ones included, is
induced through `induce` as a `GenChar` of H, where the package applies the
restriction matrix to each core's coefficients.  It stays here as the
independent side of the differential tests.

The package builds each family in its final order; this reference still
builds its twists in walk order and sorts them with the keys the package
once sorted by, so the differential tests also show that the two orders
agree.
"""

from parity_inductor.chartab import character_table
from parity_inductor.genchar import (
    GenChar,
    determinant,
    induce,
    irreducible_char,
    trivial_char,
)
from parity_inductor.generators import GeneratorDesc, GeneratorError, enumerate_type1
from parity_inductor.intlinalg import hnf
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.structure import dihedral_subquotients, quotient

from _inflation_reference import inflate_reference


def _degree2_characters(qtab):
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
            out.append(irreducible_char(qtab, row))
    return out


def _subquotient(dq):
    qmap = quotient(dq.h_record.as_group(), dq.h_record.local(dq.n_positions))
    return qmap, character_table(qmap.image)


def _type2_sort_key(dq, tau_index):
    """Larger H first, then H's class, |N|, N's class, the tag and tau's index."""
    return (
        -dq.h_record.order,
        dq.h_record.class_id,
        len(dq.n_positions),
        dq.n_class_id,
        str(dq.tag),
        tau_index,
    )


def _cyclic_sort_key(record, row):
    """Larger H first, then H's class and the row of the linear character."""
    return (-record.order, record.class_id, row)


def _sorted_descs(keyed):
    """The descriptors of (key, descriptor) pairs, stably sorted by key."""
    return [desc for _, desc in sorted(keyed, key=lambda pair: pair[0])]


def _first_of_each_expansion(descs):
    """The descriptors whose expansion is nonzero and differs from every
    earlier one's, in their order: the family's deduplication, done here
    after every twist is built."""
    first = {}
    for desc in descs:
        if not desc.expansion.is_zero():
            first.setdefault(desc.expansion.coeffs, desc)
    return list(first.values())


def _describe(kind, gen_id, expansion, dq, index, tau):
    """A twist through dq with its sort key."""
    desc = GeneratorDesc(
        kind,
        gen_id,
        expansion,
        h_record=dq.h_record,
        n_positions=dq.n_positions,
        tag=str(dq.tag),
        tau=tau,
    )
    return _type2_sort_key(dq, index), desc


def _dihedral_twists(dq):
    qmap, qtab = _subquotient(dq)
    one = trivial_char(character_table(qmap.source))
    out = []
    for tau_index, tau in enumerate(_degree2_characters(qtab)):
        lifted = inflate_reference(qmap, tau)
        core = lifted - one - determinant(lifted).genchar
        gen_id = "t2:h%d:n%d:%s:tau%d" % (
            dq.h_record.class_id, dq.n_class_id, dq.tag, tau_index
        )
        out.append(_describe("type2", gen_id, induce(dq.h_record, core), dq, tau_index, tau))
    return out


def _real_zero_lattice_basis(qtab):
    k = qtab.class_count()
    det_bits = []
    for i in range(k):
        delta = determinant(irreducible_char(qtab, i))
        if any(2 * a % qtab.exponent for a in delta.exponents):
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
    return [row[:k] for row in hnf(rows).kernel if any(row[:k])]


def _tagged_quotient_twists(dq):
    qmap, qtab = _subquotient(dq)
    out = []
    for b_index, coeffs in enumerate(_real_zero_lattice_basis(qtab)):
        tau = GenChar(qtab, coeffs)
        expansion = induce(dq.h_record, inflate_reference(qmap, tau))
        gen_id = "tag:h%d:n%d:%s:b%d" % (
            dq.h_record.class_id, dq.n_class_id, dq.tag, b_index
        )
        out.append(_describe("tagged", gen_id, expansion, dq, b_index, tau))
    return out


def _cyclic_quotient_twists(record):
    table = character_table(record.as_group())
    out = []
    for i in table.linear_row_indices():
        if i == 0 or table.conj_rows[i] < i:
            continue
        tau = irreducible_char(table, i) + irreducible_char(table, table.conj_rows[i])
        tau = tau - 2 * trivial_char(table)
        gen_id = "cyc:h%d:chi%d" % (record.class_id, i)
        desc = GeneratorDesc("cyclic", gen_id, induce(record, tau), h_record=record, tau=tau)
        out.append((_cyclic_sort_key(record, i), desc))
    return out


def theorem_generators(G):
    """The thm12 family's generators, in family order."""
    type2 = _sorted_descs(d for dq in dihedral_subquotients(G) for d in _dihedral_twists(dq))
    return _first_of_each_expansion(enumerate_type1(G) + type2)


def cor29_generators(G):
    """The cor29 family's generators, in family order."""
    records = subgroup_lattice(G).records
    cyclic = _sorted_descs(d for record in records for d in _cyclic_quotient_twists(record))
    tagged = _sorted_descs(d for dq in dihedral_subquotients(G) for d in _tagged_quotient_twists(dq))
    return _first_of_each_expansion(cyclic + tagged)
