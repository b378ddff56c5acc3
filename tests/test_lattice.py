import pytest

from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.groupspec import parse_group_spec
from parity_inductor.lattice import (
    LatticeBoundError,
    SubgroupLattice,
    subgroup_lattice,
)
from parity_inductor.perm import identity, parse_perm


def _set_key(elements):
    return tuple(sorted(p.images for p in elements))


def _perm_sets(G, orbit):
    """The position sets of one lattice class as frozensets of `Perm`."""
    elts = G.elements()
    return [frozenset(elts[a] for a in s) for s in orbit]


def closure(generators, degree) -> set:
    """All products of the given permutations (breadth-first closure)."""
    gens = [g for g in generators if not g.is_identity()]
    start = identity(degree)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def reference_class_sets(G):
    """The Perm-closure lattice: every subgroup, grouped into sorted classes.

    Each known subgroup is extended by one representative of every right
    coset outside it, and every extension is closed from scratch; classes
    are orbits under conjugation by G's generators.
    """
    trivial = frozenset({identity(G.degree)})
    known = {trivial}
    work = [trivial]
    while work:
        S = work.pop()
        processed = set(S)
        gens = [p for p in S if not p.is_identity()]
        for g in G.elements():
            if g in processed:
                continue
            processed |= {s * g for s in S}
            T = frozenset(closure(gens + [g], G.degree))
            if T not in known:
                known.add(T)
                work.append(T)
    classes = []
    seen = set()
    for fs in sorted(known, key=_set_key):
        if fs in seen:
            continue
        orbit = {fs}
        frontier = [fs]
        while frontier:
            new = []
            for cur in frontier:
                for g in G.generators:
                    conj = frozenset(g.inverse() * x * g for x in cur)
                    if conj not in orbit:
                        orbit.add(conj)
                        new.append(conj)
            frontier = new
        seen |= orbit
        classes.append(sorted(orbit, key=_set_key))
    classes.sort(key=lambda orbit: (len(orbit[0]), _set_key(orbit[0])))
    return classes


def reference_generators(elements):
    """Greedy generators by (-element order, images), closed from scratch."""
    degree = next(iter(elements)).degree
    gens = []
    current = {identity(degree)}
    for c in sorted(elements, key=lambda p: (-p.order(), p.images)):
        if len(current) == len(elements):
            break
        if c in current:
            continue
        gens.append(c)
        current = closure(gens, degree)
    return tuple(gens)


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


def _normal_orders(G):
    return [r.order for r in subgroup_lattice(G).records if r.normal]


def test_s3_lattice():
    G = parse_group_spec("S3")
    recs = subgroup_lattice(G).records
    assert [r.order for r in recs] == [1, 2, 3, 6]
    assert [r.normal for r in recs] == [True, False, True, True]
    assert _normal_orders(G) == [1, 3, 6]


def test_c4_lattice():
    recs = subgroup_lattice(parse_group_spec("C4")).records
    assert [r.order for r in recs] == [1, 2, 4]
    assert all(r.normal for r in recs)


def test_klein_lattice():
    recs = subgroup_lattice(parse_group_spec("D4")).records
    assert [r.order for r in recs] == [1, 2, 2, 2, 4]
    assert all(r.normal for r in recs)


def test_s4_has_11_classes():
    recs = subgroup_lattice(parse_group_spec("S4")).records
    assert len(recs) == 11
    assert _normal_orders(parse_group_spec("S4")) == [1, 4, 12, 24]


def test_a5_lattice():
    G = parse_group_spec("A5")
    recs = subgroup_lattice(G).records
    assert len(recs) == 9
    assert _normal_orders(G) == [1, 60]


def test_pair_closure_oracle_agrees():
    for spec in ["S3", "D8", "A4", "D12", "S4"]:
        G = parse_group_spec(spec)
        lattice = subgroup_lattice(G)
        mine = {fs for orbit in lattice.class_sets for fs in _perm_sets(G, orbit)}
        oracle = {
            frozenset(p.images for p in s) for s in pair_closure_subgroup_sets(G)
        }
        mine_images = {frozenset(p.images for p in s) for s in mine}
        assert mine_images == oracle, spec


def test_record_fields():
    G = parse_group_spec("S4")
    for r in subgroup_lattice(G).records:
        assert G.order() % r.order == 0
        assert set(r.generators) <= set(G.elements())
        assert r.as_group().order() == r.order
        assert len(r.element_set()) == r.order
        assert r.element_set() == {G.elements()[a] for a in r.positions}
        assert r.index * r.order == G.order()
        assert r.label == "#%d" % r.class_id


def test_class_lookup_for_conjugates():
    G = parse_group_spec("S3")
    lattice = subgroup_lattice(G)
    a = {G.element_index(p) for p in closure([parse_perm("(1 2)", 3)], 3)}
    b = {G.element_index(p) for p in closure([parse_perm("(2 3)", 3)], 3)}
    assert lattice.class_of_set(a) == lattice.class_of_set(b)
    assert lattice.record_for_set(a).order == 2
    with pytest.raises(KeyError):
        lattice.class_of_set({G.element_index(parse_perm("(1 2)", 3))})


def test_record_for_set_returns_the_conjugate_itself():
    G = parse_group_spec("S4")
    lattice = subgroup_lattice(G)
    for class_id, orbit in enumerate(lattice.class_sets):
        for positions in orbit:
            rec = lattice.record_for_set(positions)
            assert rec.positions == positions
            assert rec.class_id == class_id and rec.order == len(positions)
            assert rec.normal == (len(orbit) == 1)
            assert lattice.record_for_set(set(positions)) is rec
            assert rec.element_set() == set(rec.as_group().elements())
    # a non-normal class: each conjugate has its own record
    rep = lattice.records[1]
    conjugate = lattice.class_sets[1][-1]
    assert not rep.normal and conjugate != rep.positions
    assert lattice.record_for_set(conjugate) is not rep
    assert lattice.record_for_set(conjugate).element_set() != rep.element_set()


def test_local_and_lift_follow_the_sorted_elements():
    G = parse_group_spec("S4")
    for rec in subgroup_lattice(G).records:
        H = rec.as_group()
        local = rec.local(rec.positions)
        assert local == frozenset(range(rec.order))
        assert rec.lift(local) == rec.positions
        for a in rec.positions:
            (i,) = rec.local([a])
            assert H.elements()[i] == G.elements()[a]


def test_the_record_of_the_whole_group_is_the_group():
    # its sorted positions are the identity map, so local and lift still hold
    for spec in ["C1", "S4", "D8"]:
        G = parse_group_spec(spec)
        whole = subgroup_lattice(G).records[-1]
        assert whole.order == G.order() and whole.as_group() is G
        assert whole.local(whole.positions) == whole.lift(whole.positions) == whole.positions


def test_bound_error():
    # S7 has order 5040: refused before any enumeration
    G = parse_group_spec("S7")
    with pytest.raises(LatticeBoundError):
        SubgroupLattice(G)
    assert "cayley" not in G._cache


def test_index_lattice_matches_closure_reference():
    for entry in load_bundled_catalog():
        G = entry.group
        lattice = SubgroupLattice(G)
        reference = reference_class_sets(G)
        assert [
            [_set_key(s) for s in _perm_sets(G, orbit)] for orbit in lattice.class_sets
        ] == [[_set_key(s) for s in orbit] for orbit in reference], entry.name
        for record, orbit in zip(lattice.records, reference):
            assert record.order == len(orbit[0]), entry.name
            assert record.normal == (len(orbit) == 1), entry.name
            assert record.generators == reference_generators(orbit[0]), entry.name


@pytest.mark.parametrize(
    "spec, subgroups, classes, normal",
    [
        # elementary abelian 2^6: the sum of the Gaussian binomials, all normal
        ("(1 2),(3 4),(5 6),(7 8),(9 10),(11 12)", 2825, 2825, 2825),
        # 2^7: the largest elementary abelian 2-group under the subgroup bound
        ("(1 2),(3 4),(5 6),(7 8),(9 10),(11 12),(13 14)", 29212, 29212, 29212),
        # dihedral of order 128: tau(64) + sigma(64) subgroups; the normal
        # ones are the 7 rotation subgroups, 2 dihedral ones of index 2 and G
        ("D128", 134, 20, 10),
        # simple: only 1 and A6 are normal
        ("A6", 501, 22, 2),
    ],
    ids=["C2^6", "C2^7", "D128", "A6"],
)
def test_known_lattice_counts(spec, subgroups, classes, normal):
    lattice = SubgroupLattice(parse_group_spec(spec))
    assert sum(len(orbit) for orbit in lattice.class_sets) == subgroups
    assert len(lattice.records) == classes
    assert sum(r.normal for r in lattice.records) == normal
