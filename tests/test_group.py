from parity_inductor.chartab import character_table
from parity_inductor.group import PermGroup, conjugacy_classes
from parity_inductor.groupspec import parse_group_spec
from parity_inductor.perm import identity, parse_perm


def bfs_closure(gens, degree):
    """Independent element enumeration by breadth-first closure."""
    if not gens:
        return {identity(degree)}
    seen = {identity(degree)}
    frontier = [identity(degree)]
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


def test_order_matches_bfs_closure():
    for spec in ["C1", "C6", "S3", "C4", "D8", "Q8", "A4", "S4", "D10", "D12", "F5:4"]:
        G = parse_group_spec(spec)
        assert G.order() == len(bfs_closure(G.generators, G.degree)), spec
        assert len(G.elements()) == G.order(), spec


def test_known_orders():
    assert parse_group_spec("S5").order() == 120
    assert parse_group_spec("A5").order() == 60
    assert parse_group_spec("D42").order() == 42
    assert parse_group_spec("F7:6").order() == 42
    assert parse_group_spec("F7:3").order() == 21


def test_identity_is_index_zero():
    G = parse_group_spec("S4")
    assert G.elements()[0].is_identity()
    assert G.element_index(identity(4)) == 0


def test_membership():
    S3 = parse_group_spec("S3")
    A3 = parse_group_spec("C3")
    t = parse_perm("(1 2)", 3)
    assert t in S3
    assert t not in A3
    assert parse_perm("(1 2 3)", 3) in A3


def test_s3_classes():
    G = parse_group_spec("S3")
    cls = G.conjugacy_classes()
    assert [c.size for c in cls] == [1, 3, 2]
    assert [c.order for c in cls] == [1, 2, 3]
    assert sum(c.size for c in cls) == 6


def test_c4_classes():
    G = parse_group_spec("C4")
    cls = G.conjugacy_classes()
    assert [c.size for c in cls] == [1, 1, 1, 1]
    assert [c.order for c in cls] == [1, 2, 4, 4]


def test_d8_classes():
    G = parse_group_spec("D8")
    cls = G.conjugacy_classes()
    assert [c.size for c in cls] == [1, 1, 2, 2, 2]
    assert [c.order for c in cls] == [1, 2, 2, 2, 4]


def test_s4_classes():
    G = parse_group_spec("S4")
    cls = G.conjugacy_classes()
    assert [c.size for c in cls] == [1, 3, 6, 8, 6]
    assert [c.order for c in cls] == [1, 2, 2, 3, 4]


def test_a4_classes():
    G = parse_group_spec("A4")
    cls = G.conjugacy_classes()
    assert [c.size for c in cls] == [1, 3, 4, 4]


def test_classes_partition_and_conjugation_stable():
    for spec in ["S3", "D8", "Q8", "A4"]:
        G = parse_group_spec(spec)
        cls = G.conjugacy_classes()
        covered = sorted(i for c in cls for i in c.members)
        assert covered == list(range(G.order()))
        elts = G.elements()
        for g in G.generators:
            for c in cls:
                x = c.rep
                assert G.class_of(g.inverse() * x * g) == G.class_of(x)


def test_class_brute_force_oracle():
    """Conjugation orbits recomputed over all pairs, independent of the code path."""
    G = parse_group_spec("D8")
    elts = G.elements()
    for c in G.conjugacy_classes():
        orbit = {h.inverse() * c.rep * h for h in elts}
        assert {G.element_index(x) for x in orbit} == set(c.members)


def test_power_class():
    G = parse_group_spec("S3")
    cls = G.conjugacy_classes()
    power_maps = character_table(G).power_maps
    transp = next(i for i, c in enumerate(cls) if c.order == 2)
    assert power_maps[2][transp] == 0
    three = next(i for i, c in enumerate(cls) if c.order == 3)
    assert power_maps[3][three] == 0
    assert power_maps[2][three] == three


def test_exponent_and_flags():
    assert parse_group_spec("S3").exponent() == 6
    assert parse_group_spec("Q8").exponent() == 4
    assert parse_group_spec("D42").exponent() == 42
    assert parse_group_spec("C6").is_abelian()
    assert parse_group_spec("C6").is_cyclic()
    assert not parse_group_spec("S3").is_abelian()
    assert not parse_group_spec("S3").is_cyclic()
    klein = parse_group_spec("D4")
    assert klein.is_abelian() and not klein.is_cyclic()


def test_q8_has_unique_involution():
    G = parse_group_spec("Q8")
    assert G.order() == 8 and not G.is_abelian()
    invs = [c for c in G.conjugacy_classes() if c.order == 2]
    assert len(invs) == 1 and invs[0].size == 1


def test_subgroup():
    G = parse_group_spec("S4")
    H = G.subgroup([parse_perm("(1 2 3)", 4)])
    assert H.order() == 3
    assert all(h in G for h in H.elements())


def test_conjugacy_classes_contract_view():
    rows = conjugacy_classes(parse_group_spec("S3"))
    assert rows[0][1] == 1 and rows[0][2] == 1
    assert [r[1] for r in rows] == [1, 3, 2]
