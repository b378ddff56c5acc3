import ast
import gc
import sys
from pathlib import Path

import pytest
from _group_reference import chain_elements, chain_order, family_tokens
from _perm_reference import conjugate, identity, mul, order

import parity_inductor
from parity_inductor import group
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import character_table
from parity_inductor.decompose import decompose_structural
from parity_inductor.genchar import perm_char, rho_H
from parity_inductor.generators import family_for
from parity_inductor.group import (
    MAX_CAYLEY_ORDER,
    CayleyBoundError,
    PermGroup,
    conjugacy_classes,
    per_group,
)
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import LatticeBoundError, subgroup_lattice
from parity_inductor.membership import solomon_coefficients
from parity_inductor.perm import Perm, parse_perm
from parity_inductor.spanreport import span_report
from parity_inductor.structure import dihedral_subquotients, quotient


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
                y = mul(x, g)
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


def _closure_matches_chain(G):
    """The closure of G's generators, with no order given, against the chain."""
    gens, degree = G.generators, G.degree
    order = chain_order(gens, degree)
    fresh = PermGroup(gens, degree=degree)
    if order > MAX_CAYLEY_ORDER:
        with pytest.raises(CayleyBoundError, match="^group order more than 8192 exceeds the Cayley-table bound 8192$"):
            fresh.elements()
        return
    assert fresh.elements() == chain_elements(gens, degree) == G.elements()
    assert fresh.order() == order == G.order()
    assert PermGroup(gens, degree=degree).order_above(order - 1)
    assert not PermGroup(gens, degree=degree).order_above(order)


def test_closure_matches_reference_chain():
    groups = [entry.group for entry in load_bundled_catalog()]
    groups += [parse_group_spec(token) for token in family_tokens(12)]
    assert len(groups) == 61 + 56
    for G in groups:
        _closure_matches_chain(G)


@pytest.mark.large
@pytest.mark.parametrize("spec", ["D128", "D256", "S7"])
def test_closure_matches_reference_chain_large(spec):
    _closure_matches_chain(parse_group_spec(spec))


def test_closure_stops_one_element_past_its_limit():
    for spec in ["C1", "C6", "S4", "(1 2 3 4 5 6 7 8 9 10)", "(1 2),(1 2 3 4 5 6 7 8 9)"]:
        G = parse_group_spec(spec)
        n = chain_order(G.generators, G.degree)
        for limit in {1, min(n // 2, 512), min(n - 1, MAX_CAYLEY_ORDER)} - {0, n}:
            assert group._closure(G, limit) is None, (spec, limit)
        if n <= MAX_CAYLEY_ORDER:
            assert group._closure(G, n) == G.elements()


def test_an_unlisted_order_is_refused_as_more_than_the_bound():
    G = parse_group_spec("(1 2),(1 2 3 4 5 6 7)")
    assert repr(G) == "PermGroup(degree=7, order=None)"
    assert G.order_above(512) and repr(G) == "PermGroup(degree=7, order=None)"
    with pytest.raises(LatticeBoundError, match="^group order more than 512 exceeds the subgroup-enumeration bound 512$"):
        subgroup_lattice(G)
    assert not G.order_above(5040) and repr(G) == "PermGroup(degree=7, order=5040)"
    H = parse_group_spec("(1 2),(1 2 3 4 5 6 7 8)")
    with pytest.raises(CayleyBoundError, match="more than 8192"):
        H.order_above(10**6)
    assert repr(H) == "PermGroup(degree=8, order=None)"


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
    assert S3.elements()[S3.element_index(t)] == t
    with pytest.raises(KeyError, match="element not in group"):
        A3.element_index(t)
    c = parse_perm("(1 2 3)", 3)
    assert A3.elements()[A3.element_index(c)] == c


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


def test_cayley_orders_match_the_reference_order():
    # the table's orders come from one walk per cyclic subgroup; the reference
    # takes the lcm of each element's cycle lengths.  Subgroups and quotient
    # images get their tables from their parent's, so they are checked too.
    groups = [entry.group for entry in load_bundled_catalog()]
    groups += [rec.as_group() for G in groups for rec in subgroup_lattice(G).records]
    D12 = parse_group_spec("D12")
    images = [
        node.carrier.image
        for rec in subgroup_lattice(D12).records
        for node in decompose_structural(D12, rho_H(D12, rec)).walk()
        if node.kind == "Inflated"
    ]
    assert images
    for G in groups + images:
        assert G.cayley().orders == tuple(map(order, G.elements())), G


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
        class_of = G.class_of()
        for g in G.generators:
            for c in cls:
                x = c.rep
                assert class_of[G.element_index(conjugate(x, g))] == class_of[G.element_index(x)]


def test_class_brute_force_oracle():
    """Conjugation orbits recomputed over all pairs, independent of the code path."""
    G = parse_group_spec("D8")
    elts = G.elements()
    for c in G.conjugacy_classes():
        orbit = {conjugate(c.rep, h) for h in elts}
        assert {G.element_index(x) for x in orbit} == set(c.members)


def test_power_class():
    G = parse_group_spec("S3")
    cls = G.conjugacy_classes()
    cycles = character_table(G).power_cycles

    def power(c, j):
        return cycles[c][j % len(cycles[c])]

    transp = next(i for i, c in enumerate(cls) if c.order == 2)
    assert power(transp, 2) == 0
    three = next(i for i, c in enumerate(cls) if c.order == 3)
    assert power(three, 3) == 0
    assert power(three, 2) == three


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
    H = PermGroup([parse_perm("(1 2 3)", 4)], degree=4)
    assert H.order() == 3
    rec = subgroup_lattice(G).record_for_set(G.element_index(h) for h in H.elements())
    assert rec.order == 3 and rec.as_group().elements() == H.elements()


def test_conjugacy_classes_contract_view():
    rows = conjugacy_classes(parse_group_spec("S3"))
    assert rows[0][1] == 1 and rows[0][2] == 1
    assert [r[1] for r in rows] == [1, 3, 2]


def _builder_names():
    """Names of every function the package wraps with ``per_group``."""
    code = per_group(lambda G: G).__code__
    names = set()
    for key, module in list(sys.modules.items()):
        if not key.startswith("parity_inductor."):
            continue
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                if getattr(obj, "__code__", None) is code:
                    names.add(obj.__name__)
    return names


def test_every_cache_key_names_a_per_group_builder():
    G = parse_group_spec("S4")
    for flavor in ("thm12", "cor29"):
        family_for(G, flavor).hnf()
    dihedral_subquotients(G)
    span_report(G, samples=3)
    solomon_coefficients(G)
    rec = subgroup_lattice(G).records[2]
    decompose_structural(G, rho_H(G, rec))
    names = _builder_names()
    assert {"cayley", "character_table", "subgroup_lattice", "QuotientMap", "_rho_H"} <= names
    groups = [obj for obj in gc.get_objects() if isinstance(obj, PermGroup)]
    assert G in groups and len(groups) > 1
    for group in groups:
        for key in group._cache:
            assert (key if isinstance(key, str) else key[0]) in names, key
    # the memo is the only code that touches a group's cache
    package = Path(parity_inductor.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "_cache" in p.read_text()] == [
        "group.py"
    ]


def _package_imports(path):
    """(module, name) of every import a file makes from the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("parity_inductor"):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update((a.name, None) for a in node.names if a.name.startswith("parity_inductor"))
    return found


def test_one_character_value_format():
    # the package keeps values only as multiplicity vectors; the field-element
    # reference lives in the tests, and the Burnside oracle takes its values
    # from there, so a package defect cannot show on both sides of a match
    package = Path(parity_inductor.__file__).parent
    assert [p.name for p in sorted(package.rglob("*.py")) if "Cyclo" in p.read_text()] == []
    tests = Path(__file__).parent
    assert _package_imports(tests / "_burnside.py") == set()
    assert _package_imports(tests / "_cyclo_reference.py") == {("parity_inductor.genchar", "GenChar")}


def test_cayley_table_is_refused_above_its_bound(monkeypatch):
    def unreachable(G):
        raise AssertionError("elements of a group of order %d were listed" % G.order())

    monkeypatch.setattr(PermGroup, "elements", unreachable)
    S8 = parse_group_spec("S8")
    assert S8.order() == 40320 > MAX_CAYLEY_ORDER
    for call in (PermGroup.cayley, PermGroup.conjugacy_classes, character_table):
        with pytest.raises(CayleyBoundError, match="exceeds the Cayley-table bound"):
            call(S8)
    assert issubclass(CayleyBoundError, ValueError)


@pytest.mark.large
def test_s7_is_below_the_cayley_bound():
    assert character_table(parse_group_spec("S7")).degrees[-1] == 35


@pytest.mark.parametrize(
    "call",
    [
        PermGroup.elements,
        PermGroup.cayley,
        PermGroup.conjugacy_classes,
        character_table,
        subgroup_lattice,
        dihedral_subquotients,
        solomon_coefficients,
        lambda G: family_for(G, "thm12"),
        lambda G: family_for(G, "cor29"),
        lambda G: quotient(G, subgroup_lattice(G).records[-2]),
        lambda G: perm_char(G, subgroup_lattice(G).records[1]),
        lambda G: rho_H(G, subgroup_lattice(G).records[1]),
    ],
    ids=[
        "elements", "cayley", "conjugacy_classes", "character_table", "subgroup_lattice",
        "dihedral_subquotients", "solomon_coefficients", "thm12", "cor29", "quotient",
        "perm_char", "rho_H",
    ],
)
def test_per_group_calls_return_the_same_object(call):
    G = parse_group_spec("D8")
    assert call(G) is call(G)


def _tree_kinds(G):
    kinds = set()
    for rec in subgroup_lattice(G).records:
        kinds |= {node.kind for node in decompose_structural(G, rho_H(G, rec)).walk()}
    return kinds


def _families(G):
    for flavor in ("thm12", "cor29"):
        family_for(G, flavor)


@pytest.mark.parametrize(
    "gens, build",
    [
        (["(1 2 3 4)", "(1 3)", "(5 6)"], _families),
        (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], _families),
        # D12: its trees inflate from quotients in Prop 2.6's cases 1 and 3
        (["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"], _tree_kinds),
        pytest.param(
            ["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"], _families, marks=pytest.mark.large
        ),
    ],
    ids=["D8xC2-families", "C2^4-families", "D12-trees", "C2^5-families"],
)
def test_no_perm_products_below_the_group(monkeypatch, gens, build):
    # subgroups and quotient images are read off G's Cayley table: a Perm has
    # no product, and once G's table and generator positions exist, building
    # families and trees looks no element up by its images
    assert {"__mul__", "__pow__", "inverse", "order", "__lt__"}.isdisjoint(vars(Perm))
    G = group_from_cycles(gens)
    G.cayley()
    G.generator_positions()
    calls = []
    element_index = PermGroup.element_index

    def counted(self, p):
        calls.append(1)
        return element_index(self, p)

    monkeypatch.setattr(PermGroup, "element_index", counted)
    kinds = build(G)
    if kinds is not None:
        assert {"Prop2.6.case1", "Prop2.6.case3", "Inflated"} <= kinds
    assert len(calls) == 0
