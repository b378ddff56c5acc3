"""Character table construction: frozen small tables, invariants, oracle match."""

import random
import re
from fractions import Fraction

import pytest

from parity_inductor import chartab
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import (
    CharacterTable,
    CharTableError,
    _abelian_by_cyclic_rows,
    _dixon_schneider,
    character_table,
    quotient_rows,
)
from parity_inductor.genchar import (
    _coset_chars,
    _induction,
    inflate,
    irreducible_char,
    perm_char,
)
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.perm import format_perm
from parity_inductor.spanreport import span_report
from parity_inductor.structure import quotient

from _burnside import burnside_character_rows
from _chartab_reference import (
    check_table,
    decompose_one,
    linear_gram_block,
    linear_rows,
    row_key,
    terms,
)
from _cyclo_reference import (
    Cyclo,
    conjugate_rows,
    decompose_reference,
    format_cyclo,
    inner_product_conj,
    inner_product_values,
    reference_rows,
    value_of,
)
from _decompose_reference import decompose_dense


def table(spec):
    return character_table(parse_group_spec(spec))


def decompose(t, vectors):
    """One class function through the table's batched decomposition."""
    (coords,) = t.decompose([vectors])
    return coords


def test_trivial_group():
    t = table("C1")
    assert t.degrees == (1,)
    assert t.vectors == (((1,),),)
    assert reference_rows(t) == [[Cyclo.rational(1)]]


def test_c2_rows():
    t = table("C2")
    assert t.degrees == (1, 1)
    assert reference_rows(t) == [[1, 1], [1, -1]]


def test_s3_table():
    t = table("S3")
    assert t.degrees == (1, 1, 2)
    # classes ordered: identity, transpositions, 3-cycles
    assert [c.size for c in t.classes] == [1, 3, 2]
    assert reference_rows(t) == [[1, 1, 1], [1, -1, 1], [2, 0, -1]]


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
    assert reference_rows(t) == expect


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
        assert all(v == 1 for v in reference_rows(t)[0])
        assert sum(d * d for d in t.degrees) == t.group.order()
        assert t.degrees == tuple(sorted(t.degrees))


def test_row_orthogonality_exact():
    for spec in ["S3", "D8", "Q8", "A4", "D14", "C9"]:
        t = table(spec)
        rows = reference_rows(t)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                assert inner_product_values(t, a, b) == Fraction(1 if i == j else 0)


def test_column_orthogonality_exact():
    for spec in ["S3", "D8", "A4", "C8"]:
        t = table(spec)
        k = t.class_count()
        for c1 in range(k):
            for c2 in range(k):
                acc = Cyclo.rational(0)
                for row in reference_rows(t):
                    acc = acc + row[c1] * row[c2].conj()
                want = t.group.order() // t.classes[c1].size if c1 == c2 else 0
                assert acc == want


def test_power_maps():
    t = table("D12")
    k = t.class_count()
    assert tuple(cycle[1 % len(cycle)] for cycle in t.power_cycles) == tuple(range(k))
    for c in range(k):
        o = t.classes[c].order
        # a cycle of length o: rep_c ** o is rep_c ** 0, the identity
        assert len(t.power_cycles[c]) == o
        assert t.power_cycles[c][0] == 0


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
        _assert_matches_burnside_oracle(G)


def test_dixon_schneider_catalog_tables_match_burnside_oracle():
    # only Dixon-Schneider builds these three catalog tables
    groups = {e.name: e.group for e in load_bundled_catalog()}
    for name in ("A5", "S5", "SL(2,3)"):
        _assert_matches_burnside_oracle(groups[name])


@pytest.mark.large
@pytest.mark.parametrize("spec", ["A6", "S6"])
def test_dixon_schneider_tables_match_burnside_oracle_large(spec):
    # l = 61 with 7 and 11 classes: each split scans the most eigenvalues
    _assert_matches_burnside_oracle(parse_group_spec(spec))


def test_split_refuses_eigenspaces_that_miss_part_of_the_space(monkeypatch):
    real = chartab._kernel_mod
    monkeypatch.setattr(chartab, "_kernel_mod", lambda m, p: real(m, p)[1:])
    with pytest.raises(CharTableError, match="^eigenspace splitting does not cover the space$"):
        CharacterTable(parse_group_spec("S4"))


def _assert_matches_burnside_oracle(G):
    unmatched = list(burnside_character_rows(G, seed=7))
    for row in reference_rows(character_table(G)):
        hits = [o for o in unmatched if all(a == b for a, b in zip(row, o))]
        assert len(hits) == 1, "table row missing from oracle"
        unmatched.remove(hits[0])
    assert not unmatched


def test_values_are_algebraic_integers_at_identity():
    t = table("S4")
    for row, d in zip(reference_rows(t), t.degrees):
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
        decompose(t, [(1,), (0,), (0,)])


def test_value_count_must_match_class_count():
    t = table("C4")
    regular = [(4,), (0,), (0,), (0,)]
    assert decompose(t, regular) == (1, 1, 1, 1)
    for vals in ([(4,)], regular + [(99,)]):
        with pytest.raises(ValueError):
            decompose(t, vals)


def test_decompose_is_exact_on_non_characters():
    # zeta_3 - zeta_3^2 has rational part 0, so the trace form alone would
    # return the zero character; the re-expansion must refuse it
    t = table("C1")
    assert decompose(t, [(2,)]) == (2,)
    with pytest.raises(CharTableError):
        decompose(t, [(0, 1, -1)])


def test_decompose_rejects_malformed_values_naming_the_class():
    t = table("C3")
    names = [format_perm(cls.rep) for cls in t.classes]
    cases = [
        ([(), (1,), (1,)], names[0]),
        ([(1,), (1.0,), (1,)], names[1]),
        ([(1,), (1,), (0, "1", 0)], names[2]),
    ]
    for vals, name in cases:
        with pytest.raises(ValueError, match="class %s:" % re.escape(name)):
            decompose(t, vals)


def test_quotient_rows_fold_to_the_image_table_on_catalog():
    # Lemma 2.22 read off H's table: the rows with N in their kernel, folded
    # to the image's element orders, are the image's own table, in its order;
    # H runs over every lattice class of every catalog group, as the
    # generator families use it
    for entry in load_bundled_catalog():
        for h_rec in subgroup_lattice(entry.group).records:
            H = h_rec.as_group()
            t = character_table(H)
            for rec in subgroup_lattice(H).records:
                if not rec.normal:
                    continue
                q = quotient(H, rec)
                qt = character_table(q.image)
                rows, over = quotient_rows(t, q.kernel)
                for s, c in enumerate(over):
                    assert q.image.class_of_index(q.image_of[t.classes[c].members[0]]) == s
                folded = [
                    tuple(t.vectors[i][c][:: t.classes[c].order // cls.order]
                          for c, cls in zip(over, qt.classes))
                    for i in rows
                ]
                assert folded == list(qt.vectors), (entry.name, h_rec.label, rec.label)


# Differential check of the sparse decomposition against the dense-dual
# reference: every coset character, every restriction and inflation
# pull-back row, and seeded random integer class functions, whose outcome
# the Cyclo inner products decide independently.


def _outcome(decompose, t, vectors):
    try:
        return decompose(t, vectors)
    except CharTableError:
        return None


def _random_class_functions(t, rng, count):
    """Integer combinations of the rows written at random multiples of each
    class's order, then about half of them disturbed at a few classes."""
    out = []
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in t.degrees]
        vectors = []
        for c, cls in enumerate(t.classes):
            n = cls.order * rng.choice((1, 1, 2))
            v = [0] * n
            for a, row in zip(coeffs, t.vectors):
                for s, x in enumerate(row[c]):
                    v[s * n // cls.order] += a * x
            vectors.append(tuple(v))
        if rng.random() < 0.5:
            for c in rng.sample(range(len(vectors)), min(2, rng.randint(1, len(vectors)))):
                noise = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
                n = len(vectors[c]) * len(noise)
                v = [0] * n
                for part in (vectors[c], noise):
                    for s, a in enumerate(part):
                        v[s * n // len(part)] += a
                vectors[c] = tuple(v)
        out.append(vectors)
    return out


def _check_decompose_against_dense(G, rng):
    t = character_table(G)
    cases = []
    for rec in subgroup_lattice(G).records:
        counts = [0] * t.class_count()
        for a in rec.positions:
            counts[G.class_of_index(a)] += 1
        scale = G.order() // rec.order
        cases.append((t, [(scale * n // cls.size,) for n, cls in zip(counts, t.classes)]))
        ht = character_table(rec.as_group())
        fusion = [G.class_of(cls.rep) for cls in ht.classes]
        cases.extend((ht, [row[c] for c in fusion]) for row in t.vectors)
        if rec.normal:
            q = quotient(G, rec)
            fusion = [q.image.class_of_index(q.image_of[cls.members[0]]) for cls in t.classes]
            qt = character_table(q.image)
            cases.extend((t, [row[c] for c in fusion]) for row in qt.vectors)
    for ct, vectors in cases:
        got = decompose(ct, vectors)
        assert got == decompose_dense(ct, vectors), (ct.group, vectors)
    outcomes = []
    for vectors in _random_class_functions(t, rng, 6):
        want = decompose_reference(t, [value_of(v, len(v)) for v in vectors])
        got = _outcome(decompose, t, vectors)
        assert got == _outcome(decompose_dense, t, vectors) == want, vectors
        outcomes.append(got is None)
    return outcomes


def test_decompose_matches_dense_reference_on_catalog():
    rng = random.Random(20261019)
    outcomes = []
    for entry in load_bundled_catalog():
        outcomes += _check_decompose_against_dense(entry.group, rng)
    # both branches ran: characters decomposed, non-characters refused
    assert 100 < outcomes.count(True) and 100 < outcomes.count(False), outcomes.count(True)


# Differential check of the batched decomposition against the per-function
# loop it replaced (`_chartab_reference.decompose_one`): every restriction
# matrix and coset character of every catalog group, and on every catalog
# and subgroup table a batch of seeded functions at mixed lengths, as tuples
# and as lists, plus malformed input.


def _malformed(t):
    """Class functions the per-function loop refuses with ValueError."""
    k = t.class_count()
    good = [(1,)] * k
    return [
        good[:-1],
        good + [(1,)],
        [()] + good[1:],
        good[:-1] + [(1.0,)],
        good[:-1] + [(True,)],
        good[:-1] + [(0, "1")],
        good[:-1] + [(0, [1])],
    ]


def _check_batched_decompose(G, rng):
    gt = character_table(G)
    tables = [gt]
    for rec in subgroup_lattice(G).records:
        ht, columns = _induction(G, rec)
        fusion = [G.class_of(cls.rep) for cls in ht.classes]
        rows = tuple(decompose_one(ht, [row[c] for c in fusion]) for row in gt.vectors)
        assert columns == tuple(zip(*rows))
        counts = [0] * gt.class_count()
        for a in rec.positions:
            counts[G.class_of_index(a)] += 1
        values = [(G.order() // rec.order * n // cls.size,) for n, cls in zip(counts, gt.classes)]
        assert perm_char(G, rec).coeffs == decompose_one(gt, values), rec.label
        assert _coset_chars(G, [rec.positions]) == [perm_char(G, rec)], rec.label
        tables.append(ht)
    refused = 0
    for t in tables:
        batch = _random_class_functions(t, rng, 4)
        want = [_outcome(decompose_one, t, f) for f in batch]
        assert [_outcome(decompose, t, f) for f in batch] == want
        good = [f for f, w in zip(batch, want) if w is not None]
        expected = tuple(w for w in want if w is not None)
        assert t.decompose(good) == expected
        assert t.decompose([[list(v) for v in f] for f in good]) == expected
        if len(good) < len(batch):
            refused += 1
            with pytest.raises(CharTableError):
                t.decompose(batch)
        for f in _malformed(t):
            with pytest.raises(ValueError):
                decompose_one(t, f)
            with pytest.raises(ValueError):
                t.decompose([f])
            with pytest.raises(ValueError):
                t.decompose(good + [f])
            # after an equal well-formed vector: (1.0,) == (1,)
            with pytest.raises(ValueError):
                t.decompose([[(1,)] * t.class_count(), f])
    return len(tables), refused


def test_batched_decompose_matches_per_function_reference_on_catalog():
    rng = random.Random(20261020)
    tables = refused = 0
    for entry in load_bundled_catalog():
        counts = _check_batched_decompose(entry.group, rng)
        tables += counts[0]
        refused += counts[1]
    assert tables == 61 + 372, tables
    # batches with a non-character in them were refused as a whole
    assert 100 < refused < tables, refused


# Differential check of the integer paths against the Cyclo reference: the
# Gram matrix, every restriction matrix, the inflation of every irreducible
# of every quotient, every coset character, and the power and inverse maps
# against Perm powers.


def _check_against_reference(G):
    t = character_table(G)
    k = t.class_count()
    vals, conj = reference_rows(t), conjugate_rows(t)
    row_terms = [terms(row) for row in t.vectors]
    for i in range(k):
        assert vals[t.conj_rows[i]] == conj[i], i
        for j in range(i, k):
            got = Fraction(t._gram(row_terms[i], row_terms[j]), G.order())
            assert got == inner_product_conj(t, vals[i], conj[j]), (i, j)
    for c, cls in enumerate(t.classes):
        assert t.power_cycles[c][-1] == G.class_of(cls.rep.inverse())
        for j in range(t.exponent + 1):
            assert t.power_cycles[c][j % cls.order] == G.class_of(cls.rep**j)
    for rec in subgroup_lattice(G).records:
        counts = [0] * k
        for h in rec.element_set():
            counts[G.class_of(h)] += 1
        fixed = [
            Cyclo.rational(G.order() * n // (rec.order * cls.size))
            for n, cls in zip(counts, t.classes)
        ]
        assert perm_char(G, rec).coeffs == decompose_reference(t, fixed), rec.label
        ht, columns = _induction(G, rec)
        fusion = [G.class_of(cls.rep) for cls in ht.classes]
        want = tuple(decompose_reference(ht, [row[c] for c in fusion]) for row in vals)
        assert columns == tuple(zip(*want)), rec.label
        if rec.normal:
            q = quotient(G, rec)
            qt = character_table(q.image)
            fusion = [q.image.class_of_index(q.image_of[cls.members[0]]) for cls in t.classes]
            want = tuple(
                decompose_reference(t, [row[c] for c in fusion]) for row in reference_rows(qt)
            )
            got = tuple(inflate(q, irreducible_char(qt, i)).coeffs for i in range(len(want)))
            assert got == want, rec.label


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


# The table renders straight from its vectors; the reference renders each
# value as an element of Q(zeta_exp).  Row order is the reference order too:
# it fixes every generator id and every pinned digest.


def _check_rendering(t):
    e = t.exponent
    want = [[format_cyclo(value_of(m, e)) for m in row] for row in t.vectors]
    assert t.formatted_rows() == want


def test_rendering_matches_reference_on_catalog():
    for entry in load_bundled_catalog():
        _check_rendering(character_table(entry.group))


# Abelian groups beyond the catalog, whose tables take the closed form.
ABELIAN_LARGE = {
    "C2^5": "(1 2), (3 4), (5 6), (7 8), (9 10)",
    "C2^6": "(1 2), (3 4), (5 6), (7 8), (9 10), (11 12)",
    "C2^7": "(1 2), (3 4), (5 6), (7 8), (9 10), (11 12), (13 14)",
    "C4xC4xC2": "(1 2 3 4), (5 6 7 8), (9 10)",
    "C3^3": "(1 2 3), (4 5 6), (7 8 9)",
    "C6xC6": "(1 2 3 4 5 6), (7 8 9 10 11 12)",
}


@pytest.mark.large
@pytest.mark.parametrize(
    "spec",
    ["D64", "D128", *ABELIAN_LARGE.values()],
    ids=["D64", "D128", *ABELIAN_LARGE],
)
def test_rendering_matches_reference_large(spec):
    _check_rendering(table(spec))


def test_row_order_matches_reference_sort_key_on_catalog():
    for entry in load_bundled_catalog():
        t = character_table(entry.group)
        keys = [
            (d, 0 if all(v == 1 for v in row) else 1, tuple(v.sort_key() for v in row))
            for d, row in zip(t.degrees, reference_rows(t))
        ]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), entry.name


@pytest.mark.large
def test_d256_table_exact_gram():
    t = table("D256")
    k = t.class_count()
    assert k == 67 and sum(d * d for d in t.degrees) == 256
    row_terms = [terms(row) for row in t.vectors]
    for i in range(k):
        for j in range(k):
            want = 256 if i == j else 0
            assert t._gram(row_terms[i], row_terms[j]) == want, (i, j)


# The closed form for abelian-by-cyclic groups, abelian ones included,
# against Dixon-Schneider, which builds every other table and is the
# reference here: the same rows in the same order, and the same rendering,
# determinants and conjugation.


def _dixon_schneider_table(G):
    """G's table assembled from Dixon-Schneider's rows instead of the closed form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chartab, "_abelian_by_cyclic_rows", lambda group, classes, e: None)
        return CharacterTable(G)


def _check_abelian_against_dixon_schneider(G):
    t = CharacterTable(G)
    assert t.class_count() == G.order()
    if G.order() == 1:
        # Dixon-Schneider needs exp(G) > 1 to choose its prime
        assert t.vectors == (((1,),),)
        return
    rows = _dixon_schneider(G, t.classes, t.power_cycles)
    rows.sort(key=lambda row: row_key(row, t.exponent))
    assert t.vectors == tuple(rows)
    ref = _dixon_schneider_table(G)
    assert t.vectors == ref.vectors
    assert t.formatted_rows() == ref.formatted_rows()
    assert t.det_exponents == ref.det_exponents
    assert t.conj_rows == ref.conj_rows


def test_abelian_closed_form_matches_dixon_schneider_on_catalog():
    checked = 0
    for entry in load_bundled_catalog():
        for rec in subgroup_lattice(entry.group).records:
            H = rec.as_group()
            if len(H.conjugacy_classes()) == H.order():
                _check_abelian_against_dixon_schneider(H)
                checked += 1
    assert checked == 293, checked  # of the catalog's 372 subgroup classes
    # generators that are no basis: a power of the second lands in the first's
    # cyclic group away from the identity, so extensions start at t != 0
    for spec in ["(1 2 3 4), (1 2 3 4)(5 6)", "(1 2 3 4 5 6), (1 2 3 4 5 6)(7 8 9)"]:
        _check_abelian_against_dixon_schneider(parse_group_spec(spec))


@pytest.mark.large
@pytest.mark.parametrize("spec", list(ABELIAN_LARGE.values()), ids=list(ABELIAN_LARGE))
def test_abelian_closed_form_matches_dixon_schneider_large(spec):
    _check_abelian_against_dixon_schneider(parse_group_spec(spec))


def _check_closed_form_against_dixon_schneider(G):
    """Whether G's table takes the closed form; if so, its rows sorted are
    Dixon-Schneider's rows sorted, and the table is Dixon-Schneider's."""
    t = CharacterTable(G)
    rows = _abelian_by_cyclic_rows(G, t.classes, t.exponent)
    if rows is None:
        return False
    reference = _dixon_schneider(G, t.classes, t.power_cycles)
    rows.sort(key=lambda row: row_key(row, t.exponent))
    reference.sort(key=lambda row: row_key(row, t.exponent))
    assert rows == reference
    ref = _dixon_schneider_table(G)
    assert t.vectors == ref.vectors == tuple(reference)
    assert t.formatted_rows() == ref.formatted_rows()
    assert t.det_exponents == ref.det_exponents
    assert t.conj_rows == ref.conj_rows
    return True


def test_abelian_by_cyclic_closed_form_matches_dixon_schneider_on_catalog():
    closed, fallback = 0, []
    for entry in load_bundled_catalog():
        for rec in subgroup_lattice(entry.group).records:
            H = rec.as_group()
            if len(H.conjugacy_classes()) < H.order():
                if _check_closed_form_against_dixon_schneider(H):
                    closed += 1
                else:
                    fallback.append((entry.name, H.order()))
    # 79 of the 372 subgroup classes are non-abelian; only those with a
    # non-abelian G' or no cyclic G/A over a maximal abelian A >= G' fall back
    assert closed == 73, closed
    assert sorted(fallback) == [
        ("A5", 60), ("S4", 24), ("S5", 24), ("S5", 60), ("S5", 120), ("SL(2,3)", 24)
    ]
    # in every catalog group the <g>-orbits on Irr(A) have size 1 or |G : A|;
    # these have a lambda whose stabilizer T lies strictly between A and G,
    # and C15:C8 has g ** |G : A| != 1
    for spec in [
        "(1 2 3), (4 5 6 7 8), (2 3)(5 6 8 7)",  # C15:C4, |G : A| = 4
        "(1 2 3), (4 5 6 7 8 9 10), (2 3)(5 7 6 10 8 9)",  # C21:C6, |G : A| = 6
        "(1 2 3), (4 5 6 7 8), (2 3)(5 6 8 7)(9 10 11 12 13 14 15 16)",  # C15:C8
    ]:
        assert _check_closed_form_against_dixon_schneider(parse_group_spec(spec))


@pytest.mark.large
@pytest.mark.parametrize("spec", ["D128", "D256"])
def test_abelian_by_cyclic_closed_form_matches_dixon_schneider_large(spec):
    assert _check_closed_form_against_dixon_schneider(parse_group_spec(spec))


def test_only_non_abelian_tables_take_dixon_schneider(monkeypatch):
    calls = []
    real = chartab._dixon_schneider

    def counted(group, *args):
        calls.append(group)
        return real(group, *args)

    monkeypatch.setattr(chartab, "_dixon_schneider", counted)
    catalog = load_bundled_catalog()
    abelian = 0
    for entry in catalog:
        G = entry.group
        calls.clear()
        character_table(G)
        # the closed form covers every abelian-by-cyclic group: only groups
        # with no abelian normal A and cyclic G/A take Dixon-Schneider
        fallback = entry.name in ("S4", "A5", "S5", "SL(2,3)")
        assert calls == ([G] if fallback else []), entry.name
        assert not (fallback and G.is_abelian()), entry.name
        abelian += G.is_abelian()
    assert 30 < abelian < len(catalog)


def test_a_cold_catalog_verify_makes_five_dixon_schneider_calls(monkeypatch):
    # fresh catalog groups, so nothing is cached: the `verify` defaults
    orders = []
    real = chartab._dixon_schneider

    def counted(group, *args):
        orders.append(group.order())
        return real(group, *args)

    monkeypatch.setattr(chartab, "_dixon_schneider", counted)
    for entry in load_bundled_catalog():
        assert span_report(entry.group, "thm12", name=entry.name, samples=20, seed=0).all_certified
    # A5, S5, SL(2,3), S4 and the S4 inside S5: 94 calls before the closed
    # form, and S4's record as its own subgroup is S4 itself
    assert sorted(orders) == [24, 24, 24, 60, 120]


def _duplicate_row(rows):
    rows[-1] = rows[-2]


def _wrong_value(rows):
    # move one root of unity one slot round its circle
    row = list(rows[1])
    row[-1] = row[-1][-1:] + row[-1][:-1]
    rows[1] = tuple(row)


@pytest.mark.parametrize("spec", ["C6", "(1 2), (3 4)"], ids=["C6", "C2xC2"])
@pytest.mark.parametrize("fault", [_duplicate_row, _wrong_value], ids=["duplicate", "value"])
def test_table_checks_refuse_a_faulty_closed_form(spec, fault, monkeypatch):
    real = chartab._abelian_by_cyclic_rows

    def faulty(group, classes, e):
        rows = real(group, classes, e)
        fault(rows)
        return rows

    monkeypatch.setattr(chartab, "_abelian_by_cyclic_rows", faulty)
    with pytest.raises(CharTableError):
        CharacterTable(parse_group_spec(spec))


# A linear row, one eigenvalue per class, is checked as a homomorphism on
# the generators, and no two linear rows may be equal: distinct linear
# characters are orthonormal, so `_verify` makes no Gram sum between two
# linear rows and still checks every other entry of the Gram matrix.


def _gram_sums(G, monkeypatch):
    """The Gram sums a fresh table of G makes, each as whether both of its
    rows are linear, and the table."""
    sums = []
    real = CharacterTable._gram

    def counted(self, aterms, bterms):
        sums.append(all(len(t) == 1 and t[0][1] == 1 for t in aterms + bterms))
        return real(self, aterms, bterms)

    monkeypatch.setattr(CharacterTable, "_gram", counted)
    t = CharacterTable(G)
    monkeypatch.undo()
    return sums, t


def test_gram_sums_are_shared_across_linear_rows_on_catalog(monkeypatch):
    abelian = 0
    for entry in load_bundled_catalog():
        G = entry.group
        sums, t = _gram_sums(G, monkeypatch)
        k, a = t.class_count(), len(t.linear_row_indices())
        # no sum between two linear rows; every pair with a row of higher
        # degree is summed on its own
        assert not any(sums), entry.name
        assert len(sums) == k * (k + 1) // 2 - a * (a + 1) // 2, entry.name
        if k == G.order():
            assert not sums, entry.name
            abelian += 1
    assert abelian > 30


def _linear_outcomes(t):
    """The linear-row check and the reference pairwise Gram block on t's rows:
    each None when it accepts, else its refusal."""
    outcomes = []
    for check in (lambda: t._check_linear_rows(linear_rows(t)), lambda: linear_gram_block(t)):
        try:
            check()
            outcomes.append(None)
        except CharTableError as exc:
            outcomes.append(str(exc))
    return outcomes


def test_linear_row_check_matches_pairwise_gram_block_on_catalog():
    checked = 0
    for entry in load_bundled_catalog():
        for rec in subgroup_lattice(entry.group).records:
            t = character_table(rec.as_group())
            assert _linear_outcomes(t) == [None, None], (entry.name, rec.label)
            checked += len(linear_rows(t))
    assert checked > 1000, checked


@pytest.mark.large
@pytest.mark.parametrize(
    "spec", [*ABELIAN_LARGE.values(), "D128", "D256"], ids=[*ABELIAN_LARGE, "D128", "D256"]
)
def test_linear_row_check_matches_pairwise_gram_block_large(spec):
    t = table(spec)
    assert linear_rows(t) == list(t.linear_row_indices())
    assert _linear_outcomes(t) == [None, None]


def _sign_of_a_real_row(rows):
    """A real nontrivial row of the closed form and a class where its value is -1."""
    for i, row in enumerate(rows):
        if all(m == m[:1] + m[:0:-1] for m in row) and (0, 1) in row:
            return i, row.index((0, 1))


def _flip(rows):
    """That value becomes 1: one eigenvalue, in the wrong slot."""
    i, c = _sign_of_a_real_row(rows)
    rows[i] = rows[i][:c] + ((1, 0),) + rows[i][c + 1:]


def _two_terms(rows):
    """That value becomes 2 - 2 = 0: the row is no longer one eigenvalue per
    class, so only the per-pair Gram sums see it."""
    i, c = _sign_of_a_real_row(rows)
    rows[i] = rows[i][:c] + ((2, 2),) + rows[i][c + 1:]


@pytest.mark.parametrize(
    "spec", ["C6", "(1 2), (3 4), (5 6)", "(1 2 3 4), (5 6)"], ids=["C6", "C2^3", "C4xC2"]
)
@pytest.mark.parametrize("fault", [_flip, _two_terms], ids=["flip", "two-terms"])
def test_gram_check_refuses_a_corrupted_linear_row(spec, fault, monkeypatch):
    real = chartab._abelian_by_cyclic_rows

    def faulty(group, classes, e):
        rows = real(group, classes, e)
        fault(rows)
        return rows

    monkeypatch.setattr(chartab, "_abelian_by_cyclic_rows", faulty)
    with pytest.raises(CharTableError, match="orthogonality|not rational|not a homomorphism"):
        CharacterTable(parse_group_spec(spec))


def _one_two(rows):
    """That value's (0, 1) becomes (1, 2): still -1, so every Gram sum holds,
    but three eigenvalues for a row of degree 1, and det reads 0 instead of 1."""
    i, c = _sign_of_a_real_row(rows)
    rows[i] = rows[i][:c] + ((1, 2),) + rows[i][c + 1:]


def _negative(rows):
    """At a class of order 6, every nontrivial row gains 1 - z + z^2 - z^3 +
    z^4 - z^5 = 0: values, degrees and conjugate rows stay, but an entry of
    each of those vectors falls below 0."""
    c = next(c for c, m in enumerate(rows[0]) if len(m) == 6)
    for i, row in enumerate(rows):
        if any(m[0] != 1 for m in row):
            m = tuple(x + (-1) ** s for s, x in enumerate(row[c]))
            rows[i] = row[:c] + (m,) + row[c + 1:]


@pytest.mark.parametrize(
    "spec,fault", [("(1 2), (3 4)", _one_two), ("C6", _negative)], ids=["one-two", "negative"]
)
def test_multiplicity_check_refuses_a_corrupted_linear_row(spec, fault, monkeypatch):
    real = chartab._abelian_by_cyclic_rows

    def faulty(group, classes, e):
        rows = real(group, classes, e)
        fault(rows)
        return rows

    monkeypatch.setattr(chartab, "_abelian_by_cyclic_rows", faulty)
    with pytest.raises(CharTableError, match="multiplicity vector"):
        CharacterTable(parse_group_spec(spec))


def _swap_eigenvalues(rows):
    """A degree-2 row's (0, 1, 0, 1) at the 4-cycle's class, eigenvalues i and
    -i, becomes (1, 0, 1, 0), eigenvalues 1 and -1: the value stays 0, so the
    Gram sums, the degree and the conjugate rows hold, but its square is no
    longer the row's (0, 2) at the central involution's class."""
    i = next(i for i, row in enumerate(rows) if row[0] == (2,))
    c = rows[i].index((0, 1, 0, 1))
    rows[i] = rows[i][:c] + ((1, 0, 1, 0),) + rows[i][c + 1:]


def test_power_map_check_refuses_moved_eigenvalues(monkeypatch):
    real = chartab._abelian_by_cyclic_rows

    def faulty(group, classes, e):
        rows = real(group, classes, e)
        _swap_eigenvalues(rows)
        return rows

    monkeypatch.setattr(chartab, "_abelian_by_cyclic_rows", faulty)
    with pytest.raises(CharTableError, match="2-power map"):
        CharacterTable(parse_group_spec("D8"))


def _minus_one_at_identity(rows):
    """That row's value at the identity becomes -1, one eigenvalue in a slot
    the identity has not got: its det at the identity is no longer 0."""
    i, _ = _sign_of_a_real_row(rows)
    rows[i] = ((0, 1),) + rows[i][1:]


def _negated(rows):
    """That row of an elementary abelian 2-group becomes its negative: one
    eigenvalue everywhere, and det(x * s) - det(x) is the same at every x,
    but not det(s)."""
    i, _ = _sign_of_a_real_row(rows)
    rows[i] = ((0, 1),) + tuple(m[::-1] for m in rows[i][1:])


# Both linear-row checks on every corruption above, with the table's own
# checks off: the same accept or refuse each time.  Only a corrupted value
# that stays one eigenvalue leaves a row linear, and then both refuse.  On
# C6 a duplicate or moved value already fails the conjugate rows, so those
# two run on C2xC2, whose rows are real.


@pytest.mark.parametrize(
    "spec,fault,refused",
    [
        ("C6", _flip, True), ("(1 2), (3 4), (5 6)", _flip, True),
        ("(1 2 3 4), (5 6)", _flip, True),
        ("C6", _two_terms, False), ("(1 2), (3 4), (5 6)", _two_terms, False),
        ("(1 2 3 4), (5 6)", _two_terms, False),
        ("(1 2), (3 4)", _one_two, False), ("C6", _negative, False),
        ("D8", _swap_eigenvalues, False),
        ("(1 2), (3 4)", _duplicate_row, True), ("(1 2), (3 4)", _wrong_value, True),
        ("(1 2), (3 4)", _negated, True),
    ],
    ids=["flip-C6", "flip-C2^3", "flip-C4xC2", "two-terms-C6", "two-terms-C2^3",
         "two-terms-C4xC2", "one-two", "negative", "power-map", "duplicate", "value",
         "negated"],
)
def test_linear_row_check_matches_pairwise_gram_block_on_corruptions(
    spec, fault, refused, monkeypatch
):
    real = chartab._abelian_by_cyclic_rows

    def faulty(group, classes, e):
        rows = real(group, classes, e)
        fault(rows)
        return rows

    monkeypatch.setattr(chartab, "_abelian_by_cyclic_rows", faulty)
    monkeypatch.setattr(CharacterTable, "_verify", lambda self, terms: None)
    got, want = _linear_outcomes(CharacterTable(parse_group_spec(spec)))
    assert (got is not None, want is not None) == (refused, refused), (got, want)
    if fault in (_flip, _wrong_value, _negated):
        # the refusal names the row and the generator
        assert re.fullmatch(r"linear row \d+ is not a homomorphism at generator \(.*\)", got)
    elif fault is _duplicate_row:
        assert re.fullmatch(r"linear rows \d+ and \d+ are equal", got)


def test_linear_row_check_sees_a_det_the_pairwise_block_does_not(monkeypatch):
    # the pairwise block reads det d at a class of order o only through the
    # slot d * o / e, so a det off those slots escapes it; the table still
    # refuses the row (its degree reads 0), and the homomorphism check names it
    real = chartab._abelian_by_cyclic_rows

    def faulty(group, classes, e):
        rows = real(group, classes, e)
        _minus_one_at_identity(rows)
        return rows

    monkeypatch.setattr(chartab, "_abelian_by_cyclic_rows", faulty)
    with pytest.raises(CharTableError):
        CharacterTable(parse_group_spec("(1 2), (3 4)"))
    monkeypatch.setattr(CharacterTable, "_verify", lambda self, terms: None)
    got, want = _linear_outcomes(CharacterTable(parse_group_spec("(1 2), (3 4)")))
    assert want is None and re.fullmatch(r"linear row 0 is not a homomorphism at generator \(.*\)", got)


# The value index against the per-(row, class) reference it replaced: the
# same row order, terms, determinants, conjugates and rendering.


def test_value_index_matches_per_value_reference_on_catalog():
    checked = 0
    for entry in load_bundled_catalog():
        check_table(character_table(entry.group))
        for rec in subgroup_lattice(entry.group).records:
            check_table(character_table(rec.as_group()))
            checked += 1
    assert checked == 372, checked


@pytest.mark.large
@pytest.mark.parametrize(
    "spec", [*ABELIAN_LARGE.values(), "D64", "D128"], ids=[*ABELIAN_LARGE, "D64", "D128"]
)
def test_value_index_matches_per_value_reference_large(spec):
    check_table(table(spec))


SL23 = "(1 4 7)(2 8 5), (1 6 2 3)(4 7 8 5)"


@pytest.mark.parametrize(
    "spec", ["D64", SL23, "C30", "(1 2), (3 4), (5 6), (7 8)"],
    ids=["D64", "SL(2,3)", "C30", "C2^4"],
)
def test_values_are_reduced_once_per_distinct_vector(spec, monkeypatch):
    # _verify's Gram matrix reduces once per Gram sum, by design: not counted
    reductions, in_gram = [], []
    real_reduce, real_gram = chartab._reduce_mod_phi, CharacterTable._gram

    def counted(coeffs, n):
        if not in_gram:
            reductions.append(n)
        return real_reduce(coeffs, n)

    def gram(self, aterms, bterms):
        in_gram.append(True)
        try:
            return real_gram(self, aterms, bterms)
        finally:
            in_gram.pop()

    monkeypatch.setattr(chartab, "_reduce_mod_phi", counted)
    monkeypatch.setattr(CharacterTable, "_gram", gram)
    t = CharacterTable(parse_group_spec(spec))
    distinct = {m for row in t.vectors for m in row}
    assert 0 < len(reductions) <= len(distinct), (len(reductions), len(distinct))
