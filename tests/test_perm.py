import pytest

from parity_inductor.perm import (
    Perm,
    PermError,
    format_perm,
    identity,
    max_point,
    parse_perm,
)


def test_parse_basic():
    p = parse_perm("(1 2 3)(4 5)", 5)
    assert p.images == (1, 2, 0, 4, 3)


def test_parse_identity_forms():
    assert parse_perm("", 3) == identity(3)
    assert parse_perm("()", 3) == identity(3)


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


def test_product_is_left_to_right():
    p = parse_perm("(1 2)", 3)
    q = parse_perm("(2 3)", 3)
    assert p * q == parse_perm("(1 3 2)", 3)
    assert q * p == parse_perm("(1 2 3)", 3)


def test_inverse_and_pow():
    p = parse_perm("(1 2 3)(4 5)", 5)
    assert p * p.inverse() == identity(5)
    assert p**6 == identity(5)
    assert p**-1 == p.inverse()
    assert p**2 == p * p


def test_conjugate():
    s = parse_perm("(1 2)", 3)
    h = parse_perm("(1 3)", 3)
    assert h.inverse() * s * h == parse_perm("(2 3)", 3)


def test_order():
    assert parse_perm("(1 2 3)", 3).order() == 3
    assert parse_perm("(1 2 3)(4 5)", 5).order() == 6
    assert identity(4).order() == 1


def test_cycles_canonical():
    p = parse_perm("(4 5)(1 2 3)", 5)
    assert p.cycles() == ((1, 2, 3), (4, 5))


def test_format_round_trip():
    for text in ["(1 2 3)(4 5)", "(1 4)(2 3)", "()"]:
        p = parse_perm(text, 5)
        assert parse_perm(format_perm(p), 5) == p
    assert format_perm(identity(3)) == "()"


def test_max_point():
    assert max_point("(1 2)(5 7)") == 7
    assert max_point("()") == 0


def test_ordering_is_by_images():
    a = Perm((0, 1, 2))
    b = Perm((1, 0, 2))
    assert a < b
    assert sorted([b, a]) == [a, b]
