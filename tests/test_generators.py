"""Tests for the generator families."""

import random

import pytest

from parity_inductor import genchar
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import CharacterTable, character_table
from parity_inductor.genchar import (
    GenChar,
    determinant,
    has_trivial_determinant,
    induce,
    irreducible_char,
    rho_H,
    trivial_char,
)
from parity_inductor.generators import (
    GeneratorDesc,
    GeneratorError,
    GeneratorFamily,
    _induced,
    cor29_family,
    enumerate_type1,
    enumerate_type2,
    theorem_family,
)
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.membership import (
    membership_solve,
    random_S_element,
    verify_certificate,
)
from parity_inductor.structure import dihedral_subquotients

import _family_reference
from _cyclo_reference import from_values, reference_values

ZOO = ["C1", "C2", "C4", "C6", "S3", "D8", "Q8", "A4", "D10", "S4", "D42"]


def klein_four():
    return group_from_cycles(["(1 2)", "(3 4)"])


def test_type1_s3_frozen():
    gens = enumerate_type1(parse_group_spec("S3"))
    assert [(g.gen_id, g.expansion.coeffs) for g in gens] == [
        ("t1:1", (-2, 2, 0)),
        ("t1:2", (-4, 0, 2)),
    ]


def test_type1_c4_includes_faithful_pair():
    gens = enumerate_type1(parse_group_spec("C4"))
    assert [(g.gen_id, g.expansion.coeffs) for g in gens] == [
        ("t1:1", (-2, 1, 1, 0)),
        ("t1:3", (-2, 0, 0, 2)),
    ]


def test_type1_trivial_group_empty():
    G = parse_group_spec("C1")
    assert enumerate_type1(G) == []
    assert enumerate_type2(G) == []
    assert len(theorem_family(G)) == 0


def test_type2_s3_frozen():
    gens = enumerate_type2(parse_group_spec("S3"))
    ids = [(g.gen_id, g.expansion.coeffs) for g in gens]
    assert ("t2:h3:n0:Dihedral2p(3):tau3", (-1, -1, 1)) in ids
    sigma_gen = [g for g in gens if g.expansion.coeffs == (-1, -1, 1)][0]
    assert sigma_gen.tag == "Dihedral2p(3)"
    assert sigma_gen.h_record.order == 6


def test_type2_klein_four_brick():
    G = klein_four()
    tab = character_table(G)
    gens = enumerate_type2(G)
    bricks = [g for g in gens if sorted(g.expansion.coeffs) == [-1, -1, 1, 1]]
    assert len(bricks) == 3
    for g in bricks:
        eps_rows = [i for i, c in enumerate(g.expansion.coeffs) if c == 1]
        prod_row = [
            i for i, c in enumerate(g.expansion.coeffs) if c == -1 and i != 0
        ][0]
        a, b = (irreducible_char(tab, i) for i in eps_rows)
        values = zip(reference_values(a), reference_values(b))
        prod = from_values(tab, [x * y for x, y in values])
        assert prod.coeffs[prod_row] == 1


def test_type2_tau_covers_reducible_pairs():
    gens = enumerate_type2(klein_four())
    assert len(gens) == 6
    doubled = [g for g in gens if sorted(g.expansion.coeffs) == [-2, 0, 0, 2]]
    assert len(doubled) == 3


def test_theorem_family_s3_frozen():
    fam = theorem_family(parse_group_spec("S3"))
    assert [d.gen_id for d in fam] == ["t1:1", "t1:2", "t2:h3:n0:Dihedral2p(3):tau3"]
    assert fam.flavor == "thm12"


def test_family_deduplicates_across_kinds():
    fam = theorem_family(klein_four())
    coeffs = [g.expansion.coeffs for g in fam]
    assert len(coeffs) == len(set(coeffs))
    assert [d.gen_id for d in fam][:3] == ["t1:1", "t1:2", "t1:3"]
    assert len(fam) == 6


def test_d42_tags_are_dihedral_only():
    fam = theorem_family(parse_group_spec("D42"))
    tags = {g.tag for g in fam if g.kind == "type2"}
    assert tags == {"Dihedral2p(3)", "Dihedral2p(7)"}


def test_generator_soundness_zoo():
    for name in ZOO:
        G = parse_group_spec(name)
        for fam in (theorem_family(G), cor29_family(G)):
            for g in fam:
                assert g.expansion.degree == 0, (name, g.gen_id)
                assert has_trivial_determinant(g.expansion), (name, g.gen_id)


def test_a_family_refuses_a_repeated_generator_id():
    G = parse_group_spec("S3")
    first, second = enumerate_type1(G)
    with pytest.raises(GeneratorError, match="t1:1 repeats"):
        GeneratorFamily(G, "thm12", [first, second, first])
    family = GeneratorFamily(G, "thm12", [first, second])
    assert family.position == {"t1:1": 0, "t1:2": 1}
    assert family.by_id("t1:2") is second


@pytest.mark.large
def test_families_on_d8xd8_have_unique_ids():
    # four (H class, N class) pairs of D8 x D8 carry two subquotients each,
    # whose N share a G-class without being N_G(H)-conjugate
    G = parse_group_spec("(1 2 3 4),(1 3),(5 6 7 8),(5 7)")
    for family, size in ((theorem_family(G), 1423), (cor29_family(G), 1935)):
        assert len(family) == len(family.position) == size


def test_family_order_deterministic_across_instances():
    a = theorem_family(parse_group_spec("D8"))
    b = theorem_family(parse_group_spec("D8"))
    assert [d.gen_id for d in a] == [d.gen_id for d in b]
    assert [g.expansion.coeffs for g in a] == [g.expansion.coeffs for g in b]


def test_type1_spans_all_conjugate_pairs():
    rng = random.Random(7)
    for name in ["S3", "C4", "C7", "D8", "Q8", "A4"]:
        G = parse_group_spec(name)
        tab = character_table(G)
        k = tab.class_count()
        fam = GeneratorFamily(G, "thm12", enumerate_type1(G))
        for _ in range(10):
            coeffs = [0] * k
            for i in range(1, k):
                coeffs[i] = rng.randint(-3, 3)
            coeffs[0] = -sum(
                c * tab.degrees[i] for i, c in enumerate(coeffs) if i
            )
            tau = GenChar(tab, coeffs)
            assert tau.degree == 0
            target = tau + tau.conj()
            cert = membership_solve(target, fam)
            assert cert is not None and verify_certificate(cert), name


def test_cor29_c4_contains_conjugate_pair():
    fam = cor29_family(parse_group_spec("C4"))
    assert (-2, 1, 1, 0) in [g.expansion.coeffs for g in fam]


def test_cor29_trivial_group_empty():
    assert len(cor29_family(parse_group_spec("C1"))) == 0


def test_cor29_same_targets_as_theorem_family():
    for name in ["S3", "D8", "A4", "D10"]:
        G = parse_group_spec(name)
        thm = theorem_family(G)
        cor = cor29_family(G)
        for rec in subgroup_lattice(G).records:
            rho = rho_H(G, rec)
            a = membership_solve(rho, thm)
            b = membership_solve(rho, cor)
            assert a is not None and verify_certificate(a), (name, rec.label)
            assert b is not None and verify_certificate(b), (name, rec.label)
        for seed in range(5):
            rho = random_S_element(G, seed, 3)
            a = membership_solve(rho, thm)
            b = membership_solve(rho, cor)
            assert a is not None and b is not None


def test_cor29_generators_factor_through_quotients():
    G = parse_group_spec("S3")
    fam = cor29_family(G)
    cyc = [g for g in fam if g.kind == "cyclic"]
    tagged = [g for g in fam if g.kind == "tagged"]
    assert cyc and tagged
    for g in cyc:
        assert g.tau.degree == 0


def test_type2_expansion_matches_definition():
    G = parse_group_spec("S3")
    fam = theorem_family(G)
    g = fam.by_id("t2:h3:n0:Dihedral2p(3):tau3")
    tab = character_table(G)
    sigma = irreducible_char(tab, 2)
    eps = irreducible_char(tab, 1)
    assert g.expansion == sigma - trivial_char(tab) - eps
    assert determinant(sigma).row == 1


# The family contract on G, and a differential check of the subquotient twists
# read off H's table against the reference that builds each quotient image's
# own table, inflates, and induces each twist as a character of H.  The
# families check each core's degree and determinant on H only; the transfer
# formula carries both to G, and this is where G itself is asked.


def _listing(generators):
    return [(g.gen_id, g.kind, g.expansion.coeffs, g.n_positions) for g in generators]


def _check_against_quotient_tables(G):
    for family in (theorem_family(G), cor29_family(G)):
        for g in family:
            assert g.expansion.degree == 0, g.gen_id
            assert has_trivial_determinant(g.expansion), g.gen_id
    assert _listing(theorem_family(G)) == _listing(_family_reference.theorem_generators(G))
    assert _listing(cor29_family(G)) == _listing(_family_reference.cor29_generators(G))


def test_cores_are_checked_on_the_subgroup():
    G = parse_group_spec("S3")
    record = next(r for r in subgroup_lattice(G).records if r.order == 2)
    for core, what in ((((0, 1),), "nonzero degree"), (((1, 1), (0, -1)), "nontrivial determinant")):
        with pytest.raises(GeneratorError, match=what):
            _induced("probe", record, [("probe", core, {})], set())
    # the zero core is checked, and its zero expansion is dropped
    assert _induced("probe", record, [("probe", ((0, 0), (1, 0)), {})], set()) == []
    seen = set()
    kept = ((1, 2), (0, -2))
    [desc] = _induced("probe", record, [("probe", kept, {})], seen)
    assert seen == {desc.expansion.coeffs} and desc.expansion == induce(record, desc.tau)
    assert _induced("probe", record, [("again", kept, {})], seen) == []
    # a core whose expansion is already kept is checked all the same
    seen.add(genchar.induced_coeffs(record, [(0, 1)]))
    with pytest.raises(GeneratorError, match="nonzero degree"):
        _induced("probe", record, [("probe", ((0, 1),), {})], seen)


def test_families_match_quotient_table_reference_on_catalog():
    for entry in load_bundled_catalog():
        _check_against_quotient_tables(entry.group)


@pytest.mark.large
@pytest.mark.parametrize(
    "spec",
    [
        "(1 2),(3 4),(5 6)",
        "(1 2 3 4),(1 3),(5 6)",
        "(1 2 3 4),(1 2),(5 6)",
        "D64",
        "(1 2), (3 4), (5 6), (7 8), (9 10)",
    ],
    ids=["C2^3", "D8xC2", "S4xC2", "D64", "C2^5"],
)
def test_families_match_quotient_table_reference_large(spec):
    _check_against_quotient_tables(parse_group_spec(spec))


def test_subquotient_taus_live_on_h_with_n_in_their_kernel():
    for entry in load_bundled_catalog():
        G = entry.group
        for g in list(theorem_family(G)) + list(cor29_family(G)):
            if g.kind not in ("type2", "tagged"):
                continue
            where = (entry.name, g.gen_id)
            H = g.h_record.as_group()
            assert g.tau.table is character_table(H), where
            n_local = g.h_record.local(g.n_positions)
            values = reference_values(g.tau)
            for c, cls in enumerate(g.tau.table.classes):
                if cls.members[0] in n_local:
                    assert values[c] == values[0], where
            core = g.tau
            if g.kind == "type2":
                core = g.tau - trivial_char(g.tau.table) - determinant(g.tau).genchar
            assert induce(g.h_record, core) == g.expansion, where


def test_families_read_determinants_off_the_table(monkeypatch):
    # det tau is the linear row at the sum of chi_a's and chi_b's determinant
    # exponents, or at a degree-2 row's own; a tagged quotient's rows have
    # theirs in det_exponents: neither family calls determinant
    def refused(tau):
        raise AssertionError("determinant called while building a family")

    monkeypatch.setattr(genchar, "determinant", refused)
    kinds = {}
    for entry in load_bundled_catalog():
        for g in list(theorem_family(entry.group)) + list(cor29_family(entry.group)):
            kinds[g.kind] = kinds.get(g.kind, 0) + 1
    assert kinds["type2"] > 100 and kinds["tagged"] > 10, kinds


def test_families_build_tables_of_g_and_its_subgroups_only(monkeypatch):
    built = []
    init = CharacterTable.__init__

    def counting_init(table, group):
        built.append(group)
        init(table, group)

    monkeypatch.setattr(CharacterTable, "__init__", counting_init)
    for spec in ("S4", "(1 2),(3 4),(5 6)"):
        for family in (theorem_family, cor29_family):
            G = parse_group_spec(spec)
            records = subgroup_lattice(G).records
            if family is theorem_family:
                records = {id(dq.h_record): dq.h_record for dq in dihedral_subquotients(G)}
                records = list(records.values())
            built.clear()
            family(G)
            # the record of G itself is G, whose table is built once
            expected = {id(G)} | {id(rec.as_group()) for rec in records}
            assert sorted(map(id, built)) == sorted(expected), (spec, family)


@pytest.mark.parametrize(
    "spec, sizes",
    [("(1 2),(3 4),(5 6)", (56, 63)), ("(1 2 3 4),(1 3),(5 6)", (102, 125))],
    ids=["C2^3", "D8xC2"],
)
def test_families_build_a_descriptor_for_each_kept_generator_only(monkeypatch, spec, sizes):
    # a twist whose expansion is zero or already in the family is dropped
    # before its descriptor is made
    built = []
    init = GeneratorDesc.__init__

    def counting_init(desc, *args, **extra):
        built.append(args[1])
        init(desc, *args, **extra)

    monkeypatch.setattr(GeneratorDesc, "__init__", counting_init)
    for family, size in zip((theorem_family, cor29_family), sizes):
        built.clear()
        generators = family(parse_group_spec(spec))
        assert built == [g.gen_id for g in generators] and len(built) == size, family
