"""Tests for parity expressions, tables, and required-prime scans."""

import hashlib
import json

import pytest

from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.genchar import determinant, order2_linear_chars, perm_char
from parity_inductor.generators import theorem_family
from parity_inductor.groupspec import parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.membership import MembershipCertificate, verify_certificate
from parity_inductor.parity import (
    BASE,
    ParityError,
    ParityExpression,
    ParityInput,
    dihedral_symbol,
    full_assignment,
    parity_expression,
    parity_symbols,
    parity_table,
    quadratic_symbol,
    required_sha_primes,
    symbol_name,
)


def record_of_order(G, order):
    matches = [r for r in subgroup_lattice(G).records if r.order == order]
    assert len(matches) == 1
    return matches[0]


def test_expression_algebra():
    a = ParityExpression([BASE, quadratic_symbol(1)])
    b = ParityExpression([quadratic_symbol(1), dihedral_symbol("g")])
    assert (a * b).support() == (BASE, dihedral_symbol("g"))
    assert a * a == ParityExpression()
    assert ParityExpression([BASE, BASE]) == ParityExpression()
    assert ParityExpression().format_text() == "1"
    assert symbol_name(quadratic_symbol(3)) == "Quad(X3)"


def test_whole_group_row_is_base():
    for spec in ["C1", "C2", "S3", "D8", "A4", "S4", "C12"]:
        G = parse_group_spec(spec)
        top = record_of_order(G, G.order())
        expr = parity_expression(G, top)
        assert expr.support() == (BASE,)


def test_s3_rows_match_hand_expansion():
    G = parse_group_spec("S3")
    eps = order2_linear_chars(G)[0]
    quad = quadratic_symbol(eps.row)
    twists = [d for d in theorem_family(G) if d.kind == "type2"]
    assert len(twists) == 1

    assert parity_expression(G, record_of_order(G, 6)).support() == (BASE,)
    assert parity_expression(G, record_of_order(G, 3)).support() == (BASE, quad)
    cubic = parity_expression(G, record_of_order(G, 2))
    assert cubic.support() == (quad, dihedral_symbol(twists[0].gen_id))
    assert parity_expression(G, record_of_order(G, 1)).support() == (BASE, quad)


def test_s3_cubic_value_flips_with_twist():
    G = parse_group_spec("S3")
    cubic = parity_expression(G, record_of_order(G, 2))
    assert cubic.evaluate(full_assignment(G)) == 1
    twist_id = [d.gen_id for d in theorem_family(G) if d.kind == "type2"][0]
    flipped = full_assignment(G, dihedral={twist_id: -1})
    assert cubic.evaluate(flipped) == -1


def test_base_minus_one_flips_whole_group_row():
    G = parse_group_spec("D8")
    top = record_of_order(G, 8)
    expr = parity_expression(G, top)
    assert expr.evaluate(full_assignment(G, base=-1)) == -1


def test_evaluate_reports_missing_symbols():
    G = parse_group_spec("S3")
    expr = parity_expression(G, record_of_order(G, 1))
    with pytest.raises(ParityError) as err:
        expr.evaluate(ParityInput(base=1))
    assert "Quad(X" in str(err.value)


def test_all_plus_one_table_is_all_plus_one():
    for spec in ["S3", "D10", "D14", "(1 2),(3 4)", "S4"]:
        G = parse_group_spec(spec)
        table = parity_table(G, full_assignment(G))
        assert [row.value for row in table.rows] == [1] * len(table.rows)


def test_flipping_twist_flips_exactly_its_rows():
    for spec in ["S3", "D10", "D14", "(1 2),(3 4)", "S4"]:
        G = parse_group_spec(spec)
        plain = parity_table(G, full_assignment(G))
        for desc in theorem_family(G):
            if desc.kind != "type2":
                continue
            flipped = parity_table(
                G, full_assignment(G, dihedral={desc.gen_id: -1})
            )
            symbol = dihedral_symbol(desc.gen_id)
            for before, after in zip(plain.rows, flipped.rows):
                expected = -before.value if symbol in before.expression.symbols else before.value
                assert after.value == expected


def test_s3_twist_flip_hits_only_cubic_rows():
    G = parse_group_spec("S3")
    twist_id = [d.gen_id for d in theorem_family(G) if d.kind == "type2"][0]
    table = parity_table(G, full_assignment(G, dihedral={twist_id: -1}))
    for row in table.rows:
        assert row.value == (-1 if row.index == 3 else 1)


def test_index_two_rows_echo_quadratic_inputs():
    for spec in ["S3", "(1 2),(3 4)", "D12", "S4"]:
        G = parse_group_spec(spec)
        assignment = full_assignment(
            G, base=-1, quadratic={lc.row: -1 for lc in order2_linear_chars(G)}
        )
        table = parity_table(G, assignment)
        saw_index2 = False
        for row in table.rows:
            if row.index != 2:
                continue
            saw_index2 = True
            delta = determinant(perm_char(G, row.record))
            product = assignment.value(BASE) * assignment.value(quadratic_symbol(delta.row))
            assert row.value == product
            assert row.expression.support() == (BASE, quadratic_symbol(delta.row))
        assert saw_index2


def test_multiplicativity_single_symbol_flip():
    G = parse_group_spec("D12")
    plain = parity_table(G, full_assignment(G))
    for lc in order2_linear_chars(G):
        flipped = parity_table(G, full_assignment(G, quadratic={lc.row: -1}))
        symbol = quadratic_symbol(lc.row)
        for before, after in zip(plain.rows, flipped.rows):
            if symbol in before.expression.symbols:
                assert after.value == -before.value
            else:
                assert after.value == before.value


def test_partial_assignment_leaves_rows_symbolic():
    G = parse_group_spec("S3")
    table = parity_table(G, ParityInput(base=1))
    values = {row.index: row.value for row in table.rows}
    assert values[1] == 1
    assert values[2] is None and values[6] is None
    symbolic = parity_table(G)
    assert all(row.value is None for row in symbolic.rows)
    assert all(row.expression.support() for row in symbolic.rows[:1])


def test_quadratic_fields_counts_and_kernels():
    cases = {"S3": 1, "(1 2),(3 4)": 3, "D42": 1, "A4": 0, "Q8": 3, "C6": 1}
    for spec, count in cases.items():
        G = parse_group_spec(spec)
        chars = order2_linear_chars(G)
        assert len(chars) == count
        for lc in chars:
            kernel = subgroup_lattice(G).record_for_set(lc.kernel_positions())
            assert kernel.order * 2 == G.order()
            assert kernel.positions == lc.kernel_positions()
    D42 = parse_group_spec("D42")
    assert len(order2_linear_chars(D42)[0].kernel_positions()) == 21


def test_required_sha_primes_quadruple():
    assert required_sha_primes(parse_group_spec("S3")) == (frozenset({3}), False)
    assert required_sha_primes(parse_group_spec("(1 2),(3 4)")) == (frozenset(), True)
    assert required_sha_primes(parse_group_spec("D42")) == (frozenset({3, 7}), False)
    assert required_sha_primes(parse_group_spec("S4")) == (frozenset({3}), True)
    assert required_sha_primes(parse_group_spec("C15")) == (frozenset(), False)
    assert required_sha_primes(parse_group_spec("D10")) == (frozenset({5}), False)
    assert required_sha_primes(parse_group_spec("D8")) == (frozenset(), True)


def test_alternate_certificate_same_expression():
    G = parse_group_spec("S3")
    family = theorem_family(G)
    record = record_of_order(G, 2)
    canonical = parity_expression(G, record)
    from parity_inductor.genchar import rho_H

    rho = rho_H(G, record)
    by_id = {desc.gen_id: i for i, desc in enumerate(family.generators)}
    twist = [d.gen_id for d in family if d.kind == "type2"][0]
    t1s = sorted(d.gen_id for d in family if d.kind == "type1")
    assert len(t1s) == 2
    # kernel relation: t1(eps) - t1(sigma) + 2*twist = 0, so this stays valid
    terms = ((by_id[t1s[0]], 1), (by_id[t1s[1]], -1), (by_id[twist], 3))
    alternate = MembershipCertificate(family, rho, terms)
    assert verify_certificate(alternate)
    assert parity_expression(G, record, certificate=alternate) == canonical


def test_table_records_certificates_and_json_shape():
    G = parse_group_spec("S3")
    table = parity_table(G, full_assignment(G))
    doc = table.to_json()
    assert doc["flavor"] == "thm12"
    assert len(doc["rows"]) == 4
    cubic = [r for r in table.rows if r.index == 3][0]
    assert cubic.certificate and all(isinstance(g, str) for g, _ in cubic.certificate)
    for row_doc, row in zip(doc["rows"], table.rows):
        assert row_doc["field"] == "F(#%d)" % row.record.class_id
        assert row_doc["value"] == row.value
        assert row_doc["expression"] == row.expression.symbol_names()
    text = table.format_text()
    assert text.splitlines()[0].split() == ["field", "index", "expression", "value"]
    assert "+1" in text


def test_rows_sorted_from_base_field_down():
    G = parse_group_spec("S4")
    table = parity_table(G)
    indices = [row.index for row in table.rows]
    assert indices == sorted(indices)
    assert table.rows[0].index == 1


def test_input_validation():
    # only the integers 1 and -1: no booleans, no floats
    for value in (0, True, False, 1.0, -1.0):
        with pytest.raises(ValueError):
            ParityInput(base=value)
        with pytest.raises(ValueError):
            ParityInput(quadratic={"X1": value})
        with pytest.raises(ValueError):
            ParityInput(dihedral={"t2:h3:n0:Dihedral2p(3):tau3": value})
    with pytest.raises(ValueError):
        ParityInput(quadratic={"bogus": 1})
    with pytest.raises(ValueError):
        ParityInput.from_json({"base": 1, "extra": {}})
    ok = ParityInput.from_json({"base": -1, "quadratic": {"X1": 1}, "dihedral": {}})
    assert ok.values == {BASE: -1, quadratic_symbol(1): 1}


@pytest.mark.parametrize("dihedral", [{1: -1, "1": 1}, {"1": 1, 1: -1}])
def test_dihedral_ids_must_be_strings(dihedral):
    # 1 and "1" would both name the twist "1": neither key order may silently win
    with pytest.raises(ValueError, match="must be a string"):
        ParityInput(dihedral=dihedral)


@pytest.mark.parametrize("quadratic", [{"X1": 1, "1": -1}, {"1": -1, "X1": 1}])
def test_full_assignment_rejects_a_row_named_twice(quadratic):
    # "X1" and "1" both name row 1: neither key order may silently win
    with pytest.raises(ValueError, match="X1"):
        full_assignment(parse_group_spec("S3"), quadratic=quadratic)


@pytest.mark.parametrize("flavor", ["thm12", "cor29"])
def test_every_row_symbol_is_a_parity_symbol(flavor):
    # so the CLI's unknown-symbol check never refuses a symbol a row names
    for entry in load_bundled_catalog():
        symbols = set(parity_symbols(entry.group, flavor))
        for row in parity_table(entry.group, flavor=flavor).rows:
            assert row.expression.symbols <= symbols, (entry.name, row.label)


def test_type1_symbols_never_appear():
    for spec in ["S3", "D8", "C12", "S4"]:
        G = parse_group_spec(spec)
        for row in parity_table(G).rows:
            for symbol in row.expression.symbols:
                assert symbol[0] in ("base", "quadratic", "dihedral")
                if symbol[0] == "dihedral":
                    assert symbol[1].startswith("t2:")


# sha256 of the catalog's parity tables under the all-(+1) assignment, as a
# JSON object from group name to `ParityTable.to_json()` with sorted keys
CATALOG_PARITY_TABLES = "f1d7d1fa3eb428956af746e3eb1ef6b8647759cd3611a32396af74d582f52ad2"


def test_catalog_parity_tables_are_pinned():
    doc = {
        entry.name: parity_table(entry.group, full_assignment(entry.group)).to_json()
        for entry in load_bundled_catalog()
    }
    assert len(doc) == 61
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == CATALOG_PARITY_TABLES
