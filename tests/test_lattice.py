import pytest

from parity_inductor.groupspec import parse_group_spec
from parity_inductor.lattice import (
    LatticeBoundError,
    SubgroupLattice,
    closure,
    normal_subgroups,
    subgroup_lattice,
    subgroups_up_to_conjugacy,
)
from parity_inductor.perm import parse_perm


def pair_closure_subgroup_sets(G):
    """Independent enumeration: close known subgroups against cyclic ones."""
    cyclics = {frozenset(closure([g], G.degree)) for g in G.elements()}
    known = set(cyclics)
    changed = True
    while changed:
        changed = False
        for H in list(known):
            for Z in cyclics:
                if Z <= H:
                    continue
                T = frozenset(closure(list(H | Z), G.degree))
                if T not in known:
                    known.add(T)
                    changed = True
    return known


def test_s3_lattice():
    G = parse_group_spec("S3")
    recs = subgroups_up_to_conjugacy(G)
    assert [r.order for r in recs] == [1, 2, 3, 6]
    assert [r.normal for r in recs] == [True, False, True, True]
    assert [r.order for r in normal_subgroups(G)] == [1, 3, 6]


def test_c4_lattice():
    recs = subgroups_up_to_conjugacy(parse_group_spec("C4"))
    assert [r.order for r in recs] == [1, 2, 4]
    assert all(r.normal for r in recs)


def test_klein_lattice():
    recs = subgroups_up_to_conjugacy(parse_group_spec("D4"))
    assert [r.order for r in recs] == [1, 2, 2, 2, 4]
    assert all(r.normal for r in recs)


def test_s4_has_11_classes():
    recs = subgroups_up_to_conjugacy(parse_group_spec("S4"))
    assert len(recs) == 11
    assert [r.order for r in normal_subgroups(parse_group_spec("S4"))] == [1, 4, 12, 24]


def test_a5_lattice():
    G = parse_group_spec("A5")
    recs = subgroups_up_to_conjugacy(G)
    assert len(recs) == 9
    assert [r.order for r in normal_subgroups(G)] == [1, 60]


def test_pair_closure_oracle_agrees():
    for spec in ["S3", "D8", "A4", "D12", "S4"]:
        G = parse_group_spec(spec)
        lattice = subgroup_lattice(G)
        mine = {fs for orbit in lattice.class_sets for fs in orbit}
        oracle = {
            frozenset(p.images for p in s) for s in pair_closure_subgroup_sets(G)
        }
        mine_images = {frozenset(p.images for p in s) for s in mine}
        assert mine_images == oracle, spec


def test_record_fields():
    G = parse_group_spec("S4")
    for r in subgroups_up_to_conjugacy(G):
        assert G.order() % r.order == 0
        assert all(g in G for g in r.generators)
        assert r.as_group().order() == r.order
        assert len(r.element_set()) == r.order
        assert r.index * r.order == G.order()
        assert r.label == "#%d" % r.class_id


def test_class_lookup_for_conjugates():
    G = parse_group_spec("S3")
    lattice = subgroup_lattice(G)
    a = frozenset(closure([parse_perm("(1 2)", 3)], 3))
    b = frozenset(closure([parse_perm("(2 3)", 3)], 3))
    assert lattice.class_of_set(a) == lattice.class_of_set(b)
    assert lattice.record_for_set(a).order == 2
    with pytest.raises(KeyError):
        lattice.class_of_set(frozenset({parse_perm("(1 2)", 3)}))


def test_bound_error():
    with pytest.raises(LatticeBoundError):
        SubgroupLattice(parse_group_spec("S4"), max_order=10)
