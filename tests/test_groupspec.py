import pytest
from _catalog_records import build_catalog_records
from _group_reference import chain_order, family_tokens

from parity_inductor import groupspec
from parity_inductor.group import MAX_CAYLEY_ORDER, PermGroup
from parity_inductor.groupspec import GroupSpecError, group_from_cycles, parse_group_spec


def test_single_cycle():
    assert parse_group_spec("(1 2 3)").order() == 3


def test_generator_list():
    G = parse_group_spec("(1 2 3)(4 5), (1 2)")
    assert G.degree == 5
    assert G.order() == 12


def test_family_orders():
    for spec, order in [
        ("C1", 1),
        ("C12", 12),
        ("D2", 2),
        ("D4", 4),
        ("D8", 8),
        ("D42", 42),
        ("S1", 1),
        ("S2", 2),
        ("S4", 24),
        ("A3", 3),
        ("A4", 12),
        ("A5", 60),
        ("Q8", 8),
        ("F5:4", 20),
        ("F7:3", 21),
        ("F7:6", 42),
        ("F5:1", 5),
    ]:
        assert parse_group_spec(spec).order() == order, spec


def test_d42_exponent():
    G = parse_group_spec("D42")
    assert G.order() == 42 and G.exponent() == 42


def test_d4_is_klein():
    G = parse_group_spec("D4")
    assert G.order() == 4 and G.exponent() == 2


def test_frobenius_is_nonabelian_when_k_gt_1():
    G = parse_group_spec("F5:4")
    assert not G.is_abelian()
    assert G.exponent() == 20


def test_errors():
    for bad in ["", "D7", "D0", "C0", "F5:3", "F4:2", "F5", "Q16", "xyz", "(1 2)(2 3)", "(0 1)", "(1 2", "S4:2"]:
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


def test_group_from_cycles_degree_override():
    G = group_from_cycles(["(1 2)"], degree=4)
    assert G.degree == 4
    assert G.order() == 2


def test_degree_bound_is_the_cayley_bound():
    assert group_from_cycles(["(1 8192)"]).degree == MAX_CAYLEY_ORDER == 8192
    for texts, degree in ((["(1 8193)"], None), ([], 8193), (["(1 2)"], 10**7)):
        with pytest.raises(GroupSpecError, match="exceeds the bound of 8192 points"):
            group_from_cycles(texts, degree=degree)


def test_family_tokens_seed_the_order_their_chain_computes():
    tokens = family_tokens(12)
    assert {"A1", "A2", "S1", "D2", "D4", "F11:10"} <= set(tokens) and len(tokens) == 56
    catalog = [r["spec"] for r in build_catalog_records() if "spec" in r]
    assert len(catalog) == 58
    for token in tokens + catalog:
        G = parse_group_spec(token)
        seeded = G._cache["order"]
        assert chain_order(G.generators, G.degree) == seeded, token


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_both_alternating_generator_sets_give_the_same_elements(n):
    # the two-generator set serves only A_n above the Cayley bound (n >= 8)
    many, two = (groupspec._alternating_generators(n, listable) for listable in (True, False))
    assert (len(many), len(two)) == (n - 2, 2)
    elements = [PermGroup(group_from_cycles(gens, degree=n).generators, degree=n).elements()
                for gens in (many, two)]
    assert elements[0] == elements[1] and len(elements[0]) == parse_group_spec("A%d" % n).order()
    assert parse_group_spec("A%d" % n).generators == group_from_cycles(many).generators


@pytest.mark.parametrize("n", [8, 9, 4000])
def test_alternating_tokens_above_the_cayley_bound_take_two_generators(n):
    G = parse_group_spec("A%d" % n)
    assert G.order() > MAX_CAYLEY_ORDER and len(G.generators) == 2 and G.degree == n
    # both even, so inside A_n
    assert all(sum(len(c) - 1 for c in g.cycles()) % 2 == 0 for g in G.generators)


@pytest.mark.parametrize("spec", ["(1 %s)", "C%s", "F7:%s", "(1 2), (3 %s)"])
def test_numbers_too_long_for_int_are_refused(spec):
    # int() refuses strings over 4,300 digits with a bare ValueError
    with pytest.raises(GroupSpecError, match=r"9999999999\.\.\. \(5000 digits\) exceeds the bound"):
        parse_group_spec(spec % ("9" * 5000))
