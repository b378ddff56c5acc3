"""Tests for structural decomposition trees and their flattening."""

import hashlib
import json

import pytest

from parity_inductor import decompose, intlinalg
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import CharacterTable, character_table
from parity_inductor.decompose import (
    DecomposeError,
    decompose_structural,
    flatten_to_certificate,
    tree_to_json,
)
from parity_inductor.genchar import GenChar, rho_H, trivial_char
from parity_inductor.generators import theorem_family
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import SubgroupLattice, subgroup_lattice
from parity_inductor.membership import random_S_element, verify_certificate
from parity_inductor.perm import Perm
from parity_inductor.structure import QuotientMap, is_hyperelementary

WIRE_KINDS = {
    "Lemma2.3",
    "Lemma2.4",
    "Lemma2.5",
    "Lemma2.7",
    "Prop2.6.case1",
    "Prop2.6.case2",
    "Prop2.6.case3",
    "Prop2.6.case4",
    "Thm2.8.case1",
    "Thm2.8.case2",
    "Thm2.8.case3",
    "Thm2.8.case4",
    "Leaf",
    "Induced",
    "Inflated",
}

ZOO = [
    "C1",
    "C2",
    "C4",
    "C6",
    "C8",
    "C12",
    "C15",
    "S3",
    "D8",
    "Q8",
    "D10",
    "D12",
    "D16",
    "A4",
    "S4",
    "F5:4",
    "F7:3",
]


def _kinds(tree):
    return {node.kind for node in tree.walk()}


def all_leaves(tree):
    return [node for node in tree.walk() if node.kind == "Leaf"]


def test_s3_order_two_subgroup_is_a_single_twist_leaf():
    G = parse_group_spec("S3")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    tree = decompose_structural(G, rho_H(G, rec))
    leaves = all_leaves(tree)
    assert len(leaves) == 1
    assert leaves[0].generator.gen_id == "t2:h3:n0:Dihedral2p(3):tau3"
    assert leaves[0].multiplicity == 1
    cert = flatten_to_certificate(tree)
    assert [g for g, _ in cert.named_terms()] == ["t2:h3:n0:Dihedral2p(3):tau3"]
    assert verify_certificate(cert)


def test_odd_group_root_is_conjugate_pair_solve():
    G = parse_group_spec("C15")
    rho = random_S_element(G, seed=2, bound=4)
    assert not rho.is_zero()
    tree = decompose_structural(G, rho)
    assert tree.kind == "Lemma2.4"
    assert all(leaf.generator.kind == "type1" for leaf in all_leaves(tree))
    assert verify_certificate(flatten_to_certificate(tree))


def test_d8_non_normal_subgroup_uses_degree_two_twist():
    G = parse_group_spec("D8")
    recs = [r for r in subgroup_lattice(G).records if r.order == 2 and not r.normal]
    assert len(recs) == 2
    for rec in recs:
        tree = decompose_structural(G, rho_H(G, rec))
        assert "Thm2.8.case4" in _kinds(tree)
        tags = {leaf.generator.tag for leaf in all_leaves(tree)}
        assert "Dihedral8" in tags
        assert verify_certificate(flatten_to_certificate(tree))


def test_every_subgroup_tree_flattens_to_verified_certificate():
    for spec in ZOO:
        G = parse_group_spec(spec)
        for rec in subgroup_lattice(G).records:
            tree = decompose_structural(G, rho_H(G, rec))
            assert tree.genchar == rho_H(G, rec)
            cert = flatten_to_certificate(tree)
            assert verify_certificate(cert), (spec, rec.class_id)


def test_a_flatten_makes_at_most_one_kernel_echelon(monkeypatch):
    # the lifted leaves are solved in one batch over the root family
    calls, lifted = [], 0
    real = intlinalg._echelon

    def counted(rows, width):
        calls.append(len(rows))
        return real(rows, width)

    monkeypatch.setattr(intlinalg, "_echelon", counted)
    for spec in ZOO:
        G = parse_group_spec(spec)
        theorem_family(G).hnf()
        for rec in subgroup_lattice(G).records:
            tree = decompose_structural(G, rho_H(G, rec))
            calls.clear()
            assert verify_certificate(flatten_to_certificate(tree))
            assert len(calls) <= 1, (spec, rec.class_id)
            lifted += len(calls)
    assert lifted > 20, lifted


def test_random_targets_decompose():
    for spec in ["S3", "D8", "C12", "A4", "S4"]:
        G = parse_group_spec(spec)
        for seed in range(4):
            rho = random_S_element(G, seed=seed, bound=4)
            tree = decompose_structural(G, rho)
            assert tree.genchar == rho
            assert verify_certificate(flatten_to_certificate(tree))


def test_two_group_trees_use_index_recursion():
    for spec in ["D8", "Q8", "C16", "D16"]:
        G = parse_group_spec(spec)
        kinds = set()
        for rec in subgroup_lattice(G).records:
            kinds |= _kinds(decompose_structural(G, rho_H(G, rec)))
        assert any(k.startswith("Thm2.8") for k in kinds), spec
        assert not any(k.startswith("Prop2.6") for k in kinds), spec


@pytest.mark.parametrize(
    "spec",
    ["C16", "Q8", "D16", "D32", "(1 2 3 4),(1 3),(5 6)"],
    ids=["C16", "Q8", "D16", "D32", "D8xC2"],
)
def test_two_group_trees_build_nothing_outside_the_group(monkeypatch, spec):
    # Thm 2.8's quotient steps read V/H's characters off V's own table, so
    # no table, lattice or quotient map of a group outside G is ever built
    G = parse_group_spec(spec)
    theorem_family(G).hnf()
    outside = []
    for cls in (CharacterTable, SubgroupLattice, QuotientMap):

        def counted(self, group, *args, _init=cls.__init__, _name=cls.__name__):
            if group.degree != G.degree or not set(group.generators) <= set(G.elements()):
                outside.append((_name, group.order()))
            _init(self, group, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for rec in subgroup_lattice(G).records:
        decompose_structural(G, rho_H(G, rec))
    assert outside == []


def test_two_group_case_coverage():
    kinds = set()
    groups = [
        parse_group_spec("D8"),
        parse_group_spec("Q8"),
        parse_group_spec("C16"),
        parse_group_spec("D16"),
        group_from_cycles(["(1 2)", "(3 4)", "(5 6)"]),
        group_from_cycles(["(1 2 3 4)", "(5 6)"]),
    ]
    for G in groups:
        for rec in subgroup_lattice(G).records:
            kinds |= _kinds(decompose_structural(G, rho_H(G, rec)))
    assert {
        "Thm2.8.case1",
        "Thm2.8.case2",
        "Thm2.8.case3",
        "Thm2.8.case4",
    } <= kinds


def test_hyperelementary_trees_use_normal_sylow_recursion():
    for spec in ["S3", "C6", "D10", "D12", "F5:4"]:
        G = parse_group_spec(spec)
        assert is_hyperelementary(G) is not None
        kinds = set()
        for rec in subgroup_lattice(G).records:
            kinds |= _kinds(decompose_structural(G, rho_H(G, rec)))
        assert any(k.startswith("Prop2.6") for k in kinds), spec


def test_hyperelementary_case_coverage():
    kinds = set()
    for spec in ["S3", "C6", "C12", "D12", "F5:4"]:
        G = parse_group_spec(spec)
        for rec in subgroup_lattice(G).records:
            kinds |= _kinds(decompose_structural(G, rho_H(G, rec)))
    assert {
        "Prop2.6.case1",
        "Prop2.6.case2",
        "Prop2.6.case3",
        "Prop2.6.case4",
    } <= kinds


def test_general_group_root_is_induction_over_hyperelementary():
    for spec in ["A4", "S4", "A5"]:
        G = parse_group_spec(spec)
        assert is_hyperelementary(G) is None
        rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
        tree = decompose_structural(G, rho_H(G, rec))
        assert tree.kind == "Lemma2.7"
        assert all(child.kind == "Induced" for child in tree.children)
        assert verify_certificate(flatten_to_certificate(tree))


def test_direct_product_with_two_part_terminates():
    G = group_from_cycles(["(1 2)", "(3 4 5)", "(6 7 8)"])
    assert G.order() == 18
    for rec in subgroup_lattice(G).records:
        tree = decompose_structural(G, rho_H(G, rec))
        assert verify_certificate(flatten_to_certificate(tree))
    rho = random_S_element(G, seed=1, bound=4)
    assert not rho.is_zero()
    tree = decompose_structural(G, rho)
    assert verify_certificate(flatten_to_certificate(tree))


def test_scaled_target_scales_leaf_multiplicities():
    G = parse_group_spec("S3")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    tree = decompose_structural(G, 3 * rho_H(G, rec))
    cert = flatten_to_certificate(tree)
    assert cert.terms == ((2, 3),)
    assert verify_certificate(cert)


def test_tree_kinds_match_wire_vocabulary():
    for spec in ["S3", "D8", "C12", "A4", "S4", "D16"]:
        G = parse_group_spec(spec)
        for rec in subgroup_lattice(G).records:
            tree = decompose_structural(G, rho_H(G, rec))
            assert _kinds(tree) <= WIRE_KINDS


def test_tree_json_round_trips():
    G = parse_group_spec("D8")
    rec = next(
        r for r in subgroup_lattice(G).records if r.order == 2 and not r.normal
    )
    tree = decompose_structural(G, rho_H(G, rec))
    doc = tree_to_json(tree)
    text = json.dumps(doc)
    again = json.loads(text)
    assert again["kind"] == tree.kind
    assert again["coefficients"] == list(tree.genchar.coeffs)

    def check(node_doc):
        assert node_doc["kind"] in WIRE_KINDS
        if node_doc["kind"] == "Leaf":
            assert isinstance(node_doc["generator"], str)
            assert isinstance(node_doc["multiplicity"], int)
        for child in node_doc["children"]:
            check(child)

    check(again)


def test_rejects_character_from_another_group():
    G = parse_group_spec("S3")
    H = parse_group_spec("C4")
    rho = trivial_char(character_table(H)) - trivial_char(character_table(H))
    with pytest.raises(ValueError):
        decompose_structural(G, rho)


def test_rejects_target_outside_admissible_set():
    G = parse_group_spec("S3")
    with pytest.raises(ValueError):
        decompose_structural(G, trivial_char(character_table(G)))


def test_zero_target_gives_empty_tree():
    G = parse_group_spec("D8")
    tab = character_table(G)
    tree = decompose_structural(G, GenChar(tab, [0] * tab.class_count()))
    assert all_leaves(tree) == []
    cert = flatten_to_certificate(tree)
    assert cert.terms == ()
    assert verify_certificate(cert)


# sha256 over the JSON trees of rho_H for every subgroup class H of every
# catalog group (372 trees); a change in any node, coefficient or generator
# id of any tree changes it.
CATALOG_TREES_SHA256 = "b825cd5f6c1865b9235d15365fb33513ddc7291123e0f9e9277480c269905add"


def test_catalog_trees_match_pin():
    digest = hashlib.sha256()
    count = 0
    for entry in load_bundled_catalog():
        G = entry.group
        for rec in subgroup_lattice(G).records:
            doc = tree_to_json(decompose_structural(G, rho_H(G, rec)))
            line = json.dumps([entry.name, rec.class_id, doc], sort_keys=True)
            digest.update(line.encode() + b"\n")
            count += 1
    assert count == 372
    assert digest.hexdigest() == CATALOG_TREES_SHA256


def test_warm_catalog_trees_make_no_perm_products(monkeypatch):
    """Once the caches are warm, the recursion runs on Cayley-table positions."""
    groups = [e.group for e in load_bundled_catalog() if e.group.order() <= 48]

    def trees():
        for G in groups:
            for rec in subgroup_lattice(G).records:
                decompose_structural(G, rho_H(G, rec))

    trees()
    calls = []
    product = Perm.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(Perm, "__mul__", counted)
    trees()
    assert len(calls) == 0


def test_induced_and_inflated_nodes_record_their_carriers():
    G = parse_group_spec("S4")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    tree = decompose_structural(G, rho_H(G, rec))
    induced = [n for n in tree.walk() if n.kind == "Induced"]
    assert induced
    for node in induced:
        assert node.carrier is not None
        assert node.carrier.order < G.order()
    G2 = parse_group_spec("C12")
    rec2 = next(r for r in subgroup_lattice(G2).records if r.order == 3)
    tree2 = decompose_structural(G2, rho_H(G2, rec2))
    inflated = [n for n in tree2.walk() if n.kind == "Inflated"]
    assert inflated
    for node in inflated:
        assert node.carrier is not None
        assert len(node.carrier.kernel) > 1


@pytest.mark.parametrize("spec", ["D16", "C12", "S4"], ids=["thm28", "prop26", "lemma27"])
def test_recursion_depth_guard(monkeypatch, spec):
    G = parse_group_spec(spec)
    rho = rho_H(G, subgroup_lattice(G).records[0])
    monkeypatch.setattr(decompose, "_MAX_DEPTH", 0)
    with pytest.raises(DecomposeError, match="recursion depth exceeded"):
        decompose_structural(G, rho)


def test_leaf_accounting_is_exact():
    G = parse_group_spec("D12")
    for rec in subgroup_lattice(G).records:
        tree = decompose_structural(G, rho_H(G, rec))
        for leaf in all_leaves(tree):
            assert leaf.genchar == leaf.multiplicity * leaf.generator.expansion

