import pytest

from _perm_reference import conjugate, identity, inverse, mul, order, power

from parity_inductor.group import PermGroup
from parity_inductor.perm import (
    Perm,
    PermError,
    format_perm,
    max_point,
    parse_perm,
)


def test_parse_basic():
    p = parse_perm("(1 2 3)(4 5)", 5)
    assert p.images == (1, 2, 0, 4, 3)


def test_parse_identity_forms():
    assert parse_perm("", 3) == Perm(range(3))
    assert parse_perm("()", 3) == Perm(range(3))


def test_parse_pads_to_degree():
    p = parse_perm("(1 2)", 4)
    assert p.images == (1, 0, 2, 3)


def test_parse_rejects_bad_input():
    with pytest.raises(PermError):
        parse_perm("(0 1)", 3)
    with pytest.raises(PermError):
        parse_perm("(1 2 1)", 3)
    with pytest.raises(PermError):
        parse_perm("(1 4)", 3)
    with pytest.raises(PermError):
        parse_perm("(1 2) junk", 3)
    with pytest.raises(PermError):
        parse_perm("(1 2", 3)


def _table_product(p, q):
    """p * q read off the Cayley table of the group p and q generate."""
    G = PermGroup([p, q])
    return G.elements()[G.cayley().table[G.element_index(p)][G.element_index(q)]]


def test_product_is_left_to_right():
    # the tests' reference product and the Cayley table agree on the convention
    p = parse_perm("(1 2)", 3)
    q = parse_perm("(2 3)", 3)
    assert mul(p, q) == parse_perm("(1 3 2)", 3) == _table_product(p, q)
    assert mul(q, p) == parse_perm("(1 2 3)", 3) == _table_product(q, p)


def test_inverse_and_pow():
    p = parse_perm("(1 2 3)(4 5)", 5)
    assert mul(p, inverse(p)) == identity(5)
    assert power(p, 6) == identity(5)
    assert power(p, -1) == inverse(p)
    assert power(p, 2) == mul(p, p)
    G = PermGroup([p])
    cayley, elts = G.cayley(), G.elements()
    assert [elts[a] for a in cayley.inverse] == [inverse(x) for x in elts]


def test_conjugate():
    s = parse_perm("(1 2)", 3)
    h = parse_perm("(1 3)", 3)
    assert conjugate(s, h) == mul(inverse(h), s, h) == parse_perm("(2 3)", 3)


def test_order():
    assert order(parse_perm("(1 2 3)", 3)) == 3
    assert order(parse_perm("(1 2 3)(4 5)", 5)) == 6
    assert order(identity(4)) == 1
    G = PermGroup([parse_perm("(1 2 3)(4 5)", 5)])
    assert G.cayley().orders == tuple(map(order, G.elements())) == (1, 2, 3, 6, 3, 6)


def test_perm_has_no_arithmetic():
    # products, powers, inverses and orders are read off a group's Cayley table
    assert {"__mul__", "__pow__", "inverse", "order", "__lt__"}.isdisjoint(vars(Perm))
    p = parse_perm("(1 2 3)", 3)
    for op in (lambda: p * p, lambda: p**2, lambda: p < p):
        with pytest.raises(TypeError):
            op()


def test_cycles_canonical():
    p = parse_perm("(4 5)(1 2 3)", 5)
    assert p.cycles() == ((1, 2, 3), (4, 5))


def test_format_round_trip():
    for text in ["(1 2 3)(4 5)", "(1 4)(2 3)", "()"]:
        p = parse_perm(text, 5)
        assert parse_perm(format_perm(p), 5) == p
    assert format_perm(Perm(range(3))) == "()"


def test_max_point():
    assert max_point("(1 2)(5 7)") == 7
    assert max_point("()") == 0


def test_ordering_is_by_images():
    # a Perm has no order of its own: a group lists its elements sorted by images
    G = PermGroup([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)])
    images = [p.images for p in G.elements()]
    assert images == sorted(images) and images[0] == (0, 1, 2)
