import pytest
from _quotient_reference import (
    QuotientMapReference,
    conjugacy_classes_reference,
    dihedral_subquotients_reference,
    dihedral_tag_reference,
    square_count_tag,
)

from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import character_table
from parity_inductor.group import PermGroup
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.perm import Perm, parse_perm
from parity_inductor.structure import (
    QuotientMap,
    _dihedral_tag,
    dihedral_subquotients,
    is_hyperelementary,
    quotient,
)


def _set_key(elements):
    return tuple(sorted(p.images for p in elements))


def record_of_order(G, n, normal=None):
    for r in subgroup_lattice(G).records:
        if r.order == n and (normal is None or r.normal == normal):
            return r
    raise AssertionError("no subgroup of order %d" % n)


def _tag(G):
    """`_dihedral_tag` of G, from its order and its count of x with x*x = 1."""
    return _dihedral_tag(G.order(), sum(c.size for c in G.conjugacy_classes() if c.order <= 2))


def test_dihedral_tag_of_small_groups():
    for spec in ("C4", "C6", "Q8", "D12", "S4"):
        assert _tag(parse_group_spec(spec)) is None, spec
    assert str(_tag(parse_group_spec("D4"))) == "KleinFour"
    assert str(_tag(parse_group_spec("D8"))) == "Dihedral8"
    assert str(_tag(parse_group_spec("S3"))) == "Dihedral2p(3)"
    assert str(_tag(parse_group_spec("D14"))) == "Dihedral2p(7)"
    # abelian, not cyclic: 4 and 8 square roots of 1
    assert _tag(group_from_cycles(["(1 2 3 4)", "(5 6)"])) is None
    assert _tag(group_from_cycles(["(1 2)", "(3 4)", "(5 6)"])) is None


def test_quotient_c4_by_c2():
    G = parse_group_spec("C4")
    q = quotient(G, record_of_order(G, 2))
    assert q.image.order() == 2


def test_quotient_d42_by_c7():
    G = parse_group_spec("D42")
    n = record_of_order(G, 7)
    q = quotient(G, n)
    assert q.image.order() == 6
    assert str(_tag(q.image)) == "Dihedral2p(3)"


def test_quotient_by_whole_group():
    G = parse_group_spec("S3")
    q = quotient(G, record_of_order(G, 6))
    assert q.image.order() == 1


def test_quotient_is_homomorphism():
    G = parse_group_spec("D12")
    n = record_of_order(G, 3)
    q = quotient(G, n)
    table = G.cayley().table
    image_table = q.image.cayley().table
    for a in range(G.order()):
        for b in range(G.order()):
            assert q.image_of[table[a][b]] == image_table[q.image_of[a]][q.image_of[b]]
    assert q.kernel == n.positions
    assert {a for a in range(G.order()) if q.image_of[a] == 0} == n.positions


def test_quotient_rejects_non_normal():
    G = parse_group_spec("S3")
    with pytest.raises(ValueError):
        quotient(G, record_of_order(G, 2, normal=False))


def test_quotient_is_built_once_per_kernel():
    G = parse_group_spec("D12")
    n = record_of_order(G, 3)
    q = quotient(G, n.positions)
    assert quotient(G, set(n.positions)) is q
    assert quotient(G, n) is quotient(G, n)
    S3 = parse_group_spec("S3")
    flip = record_of_order(S3, 2, normal=False).positions
    for _ in range(2):
        with pytest.raises(ValueError):
            quotient(S3, flip)


def test_quotient_map_accepts_raw_set():
    G = parse_group_spec("C6")
    n = record_of_order(G, 3)
    q = QuotientMap(G, n.positions)
    assert q.image.order() == 2
    with pytest.raises(ValueError):
        QuotientMap(parse_group_spec("S3"), record_of_order(parse_group_spec("S3"), 2).positions)


def test_quotient_preimage_set():
    G = parse_group_spec("D42")
    n = record_of_order(G, 7)
    q = quotient(G, n)
    assert sorted(q.image_of) == sorted(list(range(q.image.order())) * n.order)
    assert q.image.elements()[0].is_identity()
    assert frozenset(a for a, c in enumerate(q.image_of) if c == 0) == n.positions


def test_quotient_image_lists_the_coset_actions_in_coset_order():
    """Image element c is the action of coset c, the cosets numbered by their
    least position: the image's sorted order is the cosets' order."""
    for entry in load_bundled_catalog():
        G = entry.group
        table = G.cayley().table
        for rec in subgroup_lattice(G).records:
            if not rec.normal:
                continue
            least = [min(table[x][a] for x in rec.positions) for a in range(G.order())]
            reps = sorted(set(least))
            number = [reps.index(m) for m in least]
            actions = [Perm([number[table[r][g]] for r in reps]) for g in reps]
            q = quotient(G, rec)
            assert q.image.elements() == tuple(actions), (entry.name, rec.label)
            assert q.image_of == number, (entry.name, rec.label)


@pytest.mark.parametrize(
    "spec, kernel",
    [
        ("S3", ["(1 2 3)", "(1 3 2)"]),
        ("S3", ["()", "(1 2)", "(1 3)", "(2 3)"]),
        ("C4", ["()", "(1 3)"]),
    ],
    ids=["no-identity", "not-closed", "outside-source"],
)
def test_quotient_rejects_kernel_that_is_not_a_subgroup(spec, kernel):
    G = parse_group_spec(spec)
    # positions in G; an element outside G gets the position past the end
    perms = [parse_perm(c, G.degree) for c in kernel]
    index = {g: a for a, g in enumerate(G.elements())}
    n_set = [index.get(p, G.order()) for p in perms]
    with pytest.raises(ValueError, match="kernel is not a subgroup"):
        quotient(G, n_set)
    with pytest.raises(ValueError, match="kernel is not a subgroup"):
        QuotientMap(G, n_set)


def test_is_hyperelementary():
    p, n = is_hyperelementary(parse_group_spec("S3"))
    assert p == 2 and n.order == 3
    p, n = is_hyperelementary(parse_group_spec("C12"))
    assert p == 2 and n.order == 3
    p, n = is_hyperelementary(parse_group_spec("Q8"))
    assert p == 2 and n.order == 1
    p, n = is_hyperelementary(parse_group_spec("D42"))
    assert p == 2 and n.order == 21
    p, n = is_hyperelementary(parse_group_spec("C15"))
    assert p == 2 and n.order == 15
    assert is_hyperelementary(parse_group_spec("A4")) is None
    assert is_hyperelementary(parse_group_spec("S4")) is None
    assert is_hyperelementary(parse_group_spec("A5")) is None


def test_dihedral_subquotients_d42():
    pairs = dihedral_subquotients(parse_group_spec("D42"))
    tags = sorted(str(p.tag) for p in pairs)
    assert tags == ["Dihedral2p(3)", "Dihedral2p(3)", "Dihedral2p(7)", "Dihedral2p(7)"]
    assert {(p.h_record.order, len(p.n_positions)) for p in pairs} == {
        (6, 1),
        (14, 1),
        (42, 7),
        (42, 3),
    }


def test_dihedral_subquotients_klein():
    pairs = dihedral_subquotients(parse_group_spec("D4"))
    assert len(pairs) == 1
    assert str(pairs[0].tag) == "KleinFour"
    assert pairs[0].h_record.order == 4 and len(pairs[0].n_positions) == 1


def test_dihedral_subquotients_c15_empty():
    assert dihedral_subquotients(parse_group_spec("C15")) == []


def test_dihedral_subquotients_s4():
    pairs = dihedral_subquotients(parse_group_spec("S4"))
    tags = sorted(str(p.tag) for p in pairs)
    assert tags == [
        "Dihedral2p(3)",
        "Dihedral2p(3)",
        "Dihedral8",
        "KleinFour",
        "KleinFour",
        "KleinFour",
    ]
    for p in pairs:
        assert p.n_positions <= p.h_record.positions


def test_dihedral_subquotients_a4():
    pairs = dihedral_subquotients(parse_group_spec("A4"))
    assert len(pairs) == 1 and str(pairs[0].tag) == "KleinFour"


def _differential_groups():
    groups = [(e.name, e.group) for e in load_bundled_catalog()]
    groups.append(("C2^5", group_from_cycles(["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"])))
    return groups


def _assert_same_group(got, ref, where):
    """A group read off a parent's table equals one built from its generators."""
    assert got.generators == ref.generators, where
    assert got.elements() == ref.elements(), where
    assert got.cayley() == ref.cayley(), where
    assert got.conjugacy_classes() == ref.conjugacy_classes(), where
    assert character_table(got).vectors == character_table(ref).vectors, where


def test_positions_match_perm_reference_on_catalog():
    """Subgroups, classes, tags and quotients on positions equal the `Perm`-product reference."""
    for name, G in _differential_groups():
        lattice = subgroup_lattice(G)
        for rec in lattice.records:
            H = rec.as_group()
            # the record of G itself is G, with G's generators
            gens = [G.elements()[a] for a in rec.generator_positions]
            gens = G.generators if rec.order == G.order() else gens
            _assert_same_group(H, PermGroup(gens, degree=G.degree), (name, rec))
            assert _tag(H) == dihedral_tag_reference(H), (name, rec)
            classes = [(c.rep, c.size, c.order, c.members) for c in H.conjugacy_classes()]
            assert classes == conjugacy_classes_reference(H), (name, rec)
        assert _subquotient_keys(G) == dihedral_subquotients_reference(G), name
        for rec in lattice.records:
            if not rec.normal:
                continue
            q = quotient(G, rec)
            ref = QuotientMapReference(G, rec)
            built = PermGroup(ref.generators, degree=q.image.degree)
            _assert_same_group(q.image, built, (name, rec))
            image = q.image.elements()
            elts = G.elements()
            for a, g in enumerate(elts):
                assert image[q.image_of[a]] == ref.map_element(g), (name, rec, g)
            for c, p in enumerate(image):
                preimage = {elts[a] for a, d in enumerate(q.image_of) if d == c}
                assert preimage == ref.preimage_set([p]), (name, rec, p)


def _subquotient_keys(G):
    elts = G.elements()
    return [
        (
            d.h_record.class_id,
            d.n_class_id,
            str(d.tag),
            _set_key(elts[a] for a in d.n_positions),
        )
        for d in dihedral_subquotients(G)
    ]


@pytest.mark.large
def test_orbit_closure_matches_per_element_dedup_on_c2_6():
    """Closing N's orbit under the normalizer's generators loses and adds nothing."""
    G = group_from_cycles(["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)", "(11 12)"])
    got = _subquotient_keys(G)
    assert len(got) == 43617
    assert got == dihedral_subquotients_reference(G, tag_of=square_count_tag)
