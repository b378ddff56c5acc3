"""Character table construction: frozen small tables, invariants, oracle match."""

from fractions import Fraction

import pytest

from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import CharTableError, _terms, character_table
from parity_inductor.cyclotomic import Cyclo
from parity_inductor.genchar import _pullback, _restriction, from_values, perm_char
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.structure import quotient

from _burnside import burnside_character_rows
from _cyclo_reference import (
    conjugate_rows,
    decompose_reference,
    inner_product_conj,
    inner_product_values,
)


def table(spec):
    return character_table(parse_group_spec(spec))


def test_trivial_group():
    t = table("C1")
    assert t.degrees == (1,)
    assert t.values == ((Cyclo.rational(1),),)


def test_c2_rows():
    t = table("C2")
    assert t.degrees == (1, 1)
    assert [[v for v in row] for row in t.values] == [[1, 1], [1, -1]]


def test_s3_table():
    t = table("S3")
    assert t.degrees == (1, 1, 2)
    # classes ordered: identity, transpositions, 3-cycles
    assert [c.size for c in t.classes] == [1, 3, 2]
    assert list(t.values[0]) == [1, 1, 1]
    assert list(t.values[1]) == [1, -1, 1]
    assert list(t.values[2]) == [2, 0, -1]


def test_c4_rows():
    t = table("C4")
    assert t.degrees == (1, 1, 1, 1)
    i = Cyclo.zeta(4, 1)
    # classes ordered e, g^2, g, g^3; rows trivial first then (degree, values)
    expect = [
        [1, 1, 1, 1],
        [1, -1, -i, i],
        [1, -1, i, -i],
        [1, 1, -1, -1],
    ]
    got = [list(row) for row in t.values]
    assert all(a == b for row_g, row_e in zip(got, expect) for a, b in zip(row_g, row_e))


def test_d8_degrees():
    t = table("D8")
    assert t.degrees == (1, 1, 1, 1, 2)
    assert [c.size for c in t.classes] == [1, 1, 2, 2, 2]


def test_q8_degrees():
    assert table("Q8").degrees == (1, 1, 1, 1, 2)


def test_bigger_degree_vectors():
    assert table("A4").degrees == (1, 1, 1, 3)
    assert table("S4").degrees == (1, 1, 2, 3, 3)
    assert table("A5").degrees == (1, 3, 3, 4, 5)
    assert table("S5").degrees == (1, 1, 4, 4, 5, 5, 6)
    assert table("D42").degrees == (1, 1) + (2,) * 10


def test_first_row_trivial_and_degree_sum():
    for spec in ["C6", "C12", "D10", "D12", "Q8", "A4", "S4", "F7:3", "F5:4"]:
        t = table(spec)
        assert all(v == 1 for v in t.values[0])
        assert sum(d * d for d in t.degrees) == t.group.order()
        assert t.degrees == tuple(sorted(t.degrees))


def test_row_orthogonality_exact():
    for spec in ["S3", "D8", "Q8", "A4", "D14", "C9"]:
        t = table(spec)
        k = t.class_count()
        for i in range(k):
            for j in range(k):
                want = Fraction(1 if i == j else 0)
                assert inner_product_values(t, t.values[i], t.values[j]) == want


def test_column_orthogonality_exact():
    for spec in ["S3", "D8", "A4", "C8"]:
        t = table(spec)
        k = t.class_count()
        for c1 in range(k):
            for c2 in range(k):
                acc = Cyclo.rational(0)
                for row in t.values:
                    acc = acc + row[c1] * row[c2].conj()
                want = t.group.order() // t.classes[c1].size if c1 == c2 else 0
                assert acc == want


def test_power_maps():
    t = table("D12")
    k = t.class_count()
    assert t.power_maps[1] == tuple(range(k))
    for c in range(k):
        o = t.classes[c].order
        assert t.power_maps[o][c] == 0
        assert t.power_maps[0][c] == 0


def test_conjugate_rows_form_involution():
    for spec in ["C4", "C7", "S3", "Q8", "F7:3"]:
        t = table(spec)
        perm = t.conj_rows
        assert sorted(perm) == list(range(len(perm)))
        assert all(perm[perm[i]] == i for i in range(len(perm)))


def test_matches_burnside_oracle_up_to_24():
    specs = [
        "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
        "C12", "C14", "C15", "C16", "C18", "C20", "C21", "C22", "C24",
        "S3", "D8", "Q8", "D10", "D12", "D14", "D16", "D18", "D20",
        "D22", "D24", "A4", "S4", "F7:3", "F5:4",
    ]
    extra = [
        ["(1 2)", "(3 4)"],
        ["(1 2)", "(3 4)", "(5 6)"],
        ["(1 2 3)", "(4 5 6)"],
        ["(1 2 3 4)", "(5 6)"],
    ]
    groups = [parse_group_spec(s) for s in specs]
    groups += [group_from_cycles(c) for c in extra]
    for G in groups:
        assert G.order() <= 24
        t = character_table(G)
        oracle = burnside_character_rows(G, seed=7)
        unmatched = list(oracle)
        for row in t.values:
            hits = [o for o in unmatched if all(a == b for a, b in zip(row, o))]
            assert len(hits) == 1, "table row missing from oracle"
            unmatched.remove(hits[0])
        assert not unmatched


def test_values_are_algebraic_integers_at_identity():
    t = table("S4")
    for row, d in zip(t.values, t.degrees):
        assert row[0] == d


def test_format_text_s3():
    text = table("S3").format_text()
    lines = text.splitlines()
    assert lines[0].startswith("chi")
    assert "(1 2 3)(2)" in lines[0]
    assert len(lines) == 2 + 3
    assert "- 1" in text


def test_format_text_uses_exponent_root():
    text = table("C4").format_text()
    assert "z" in text


def test_defect_on_bad_values():
    t = table("S3")
    with pytest.raises(CharTableError):
        t.decompose_values([Cyclo.rational(1), Cyclo.rational(0), Cyclo.rational(0)])


def test_value_count_must_match_class_count():
    t = table("C4")
    regular = [Cyclo.rational(4), Cyclo.rational(0), Cyclo.rational(0), Cyclo.rational(0)]
    assert from_values(t, regular).coeffs == (1, 1, 1, 1)
    for vals in ([Cyclo.rational(4)], regular + [Cyclo.rational(99)]):
        with pytest.raises(ValueError):
            from_values(t, vals)
        with pytest.raises(ValueError):
            t.decompose_values(vals)
        with pytest.raises(ValueError):
            t.decompose([(v.to_int(),) for v in vals])


def test_decompose_is_exact_on_non_characters():
    # zeta_3 - zeta_3^2 has rational part 0, so the trace form alone would
    # return the zero character; the re-expansion must refuse it
    t = table("C1")
    assert t.decompose([(2,)]) == (2,)
    with pytest.raises(CharTableError):
        t.decompose_values([Cyclo.zeta(3) - Cyclo.zeta(3, 2)])
    with pytest.raises(CharTableError):
        t.decompose([(0, 1, -1)])


# Differential check of the integer paths against the Cyclo reference: the
# Gram matrix, every pull-back matrix, every coset character, and the power
# and inverse maps against Perm powers.


def _check_against_reference(G):
    t = character_table(G)
    k = t.class_count()
    conj = conjugate_rows(t)
    terms = [_terms(row) for row in t.vectors]
    for i in range(k):
        assert list(t.values[t.conj_rows[i]]) == conj[i], i
        for j in range(i, k):
            got = Fraction(t._gram(terms[i], terms[j]), G.order())
            assert got == inner_product_conj(t, t.values[i], conj[j]), (i, j)
    for c, cls in enumerate(t.classes):
        assert t.inverse_map[c] == G.class_of(cls.rep.inverse())
        for j in range(t.exponent + 1):
            assert t.power_maps[j][c] == G.class_of(cls.rep**j)
    for rec in subgroup_lattice(G).records:
        counts = [0] * k
        for h in rec.element_set():
            counts[G.class_of(h)] += 1
        fixed = [
            Cyclo.rational(G.order() * n // (rec.order * cls.size))
            for n, cls in zip(counts, t.classes)
        ]
        assert perm_char(G, rec).coeffs == decompose_reference(t, fixed), rec.label
        ht, rows = _restriction(G, rec)
        fusion = [G.class_of(cls.rep) for cls in ht.classes]
        want = tuple(decompose_reference(ht, [row[c] for c in fusion]) for row in t.values)
        assert rows == want, rec.label
        if rec.normal:
            q = quotient(G, rec)
            qt = character_table(q.image)
            fusion = [q.image.class_of(q.map_element(cls.rep)) for cls in t.classes]
            want = tuple(decompose_reference(t, [row[c] for c in fusion]) for row in qt.values)
            assert _pullback(qt, t, fusion) == want, rec.label


def test_integer_paths_match_cyclo_reference_on_catalog():
    for entry in load_bundled_catalog():
        _check_against_reference(entry.group)


@pytest.mark.large
@pytest.mark.parametrize(
    "spec",
    ["D64", "D128", "(1 2), (3 4), (5 6), (7 8), (9 10)"],
    ids=["D64", "D128", "C2^5"],
)
def test_integer_paths_match_cyclo_reference_large(spec):
    _check_against_reference(parse_group_spec(spec))


@pytest.mark.large
def test_d256_table_exact_gram():
    t = table("D256")
    k = t.class_count()
    assert k == 67 and sum(d * d for d in t.degrees) == 256
    terms = [_terms(row) for row in t.vectors]
    for i in range(k):
        for j in range(k):
            want = 256 if i == j else 0
            assert t._gram(terms[i], terms[j]) == want, (i, j)
