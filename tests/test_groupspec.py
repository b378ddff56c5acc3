import pytest

from parity_inductor.group import MAX_CAYLEY_ORDER
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
