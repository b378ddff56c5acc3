"""Tests for catalog loading and the bundled fixture set."""

import json

import pytest
from _catalog_records import build_catalog_records, render_catalog

from parity_inductor.catalog import (
    CatalogError,
    bundled_catalog_path,
    load_bundled_catalog,
    load_catalog,
)


def test_bundled_catalog_matches_builder():
    with open(bundled_catalog_path(), "r", encoding="utf-8") as handle:
        assert handle.read() == render_catalog(build_catalog_records())


def test_bundled_catalog_contents():
    entries = load_bundled_catalog()
    assert len(entries) >= 40
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    by_name = {e.name: e.group for e in entries}
    for n in range(1, 31):
        assert by_name["C%d" % n].order() == n
    for order in range(4, 43, 2):
        assert by_name["D%d" % order].order() == order
    for name, order in [
        ("Q8", 8),
        ("S4", 24),
        ("S5", 120),
        ("A4", 12),
        ("A5", 60),
        ("C2xC2", 4),
        ("C2xC2xC2", 8),
        ("SL(2,3)", 24),
    ]:
        assert by_name[name].order() == order
    assert all(e.group.order() <= 128 for e in entries)
    sl = by_name["SL(2,3)"]
    assert not sl.is_abelian() and len(sl.conjugacy_classes()) == 7


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    assert load_catalog(str(path)) == []


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "C2", "spec": "C2"}\n{oops\n')
    with pytest.raises(CatalogError) as err:
        load_catalog(str(path))
    assert "line 2" in str(err.value)


def test_order_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    for record, text in [
        ({"name": "C6", "spec": "C6", "order": 7}, "declared order 7 but computed 6 for C6"),
        ({"name": "S3", "generators": ["(1 2)", "(1 2 3)"], "order": 5},
         "declared order 5 but computed 6 for S3"),
    ]:
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(str(path))
        assert str(err.value) == "line 1: " + text


@pytest.mark.parametrize(
    "spec, order", [("C1", True), ("C4", 4.0), ("C4", "4"), ("C4", None)],
    ids=["bool", "float", "str", "null"],
)
def test_declared_order_must_be_an_integer(tmp_path, spec, order):
    path = tmp_path / "bad.jsonl"
    lines = [{"name": "C2", "spec": "C2", "order": 2}, {"name": spec, "spec": spec, "order": order}]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    with pytest.raises(CatalogError, match="line 2: declared order .* is not an integer"):
        load_catalog(str(path))


def test_record_shape_validation(tmp_path):
    path = tmp_path / "bad.jsonl"
    cases = [
        {"spec": "C2"},
        {"name": "X"},
        {"name": "X", "spec": "C2", "generators": ["(1 2)"]},
        {"name": "X", "spec": "Nope9"},
        {"name": "X", "spec": "C2", "mystery": 1},
        {"name": "X", "generators": [17]},
    ]
    for record in cases:
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CatalogError):
            load_catalog(str(path))


def test_generators_above_the_degree_bound_rejected(tmp_path):
    path = tmp_path / "big.jsonl"
    records = [{"name": "C2", "spec": "C2"}, {"name": "big", "generators": ["(1 2)", "(3 10000000)"]}]
    path.write_text(render_catalog(records))
    with pytest.raises(CatalogError) as err:
        load_catalog(str(path))
    assert str(err.value) == "line 2: degree 10000000 exceeds the bound of 8192 points"


def test_generators_above_the_cayley_bound_rejected_naming_the_line(tmp_path):
    # no command can serve such a group, so the catalog refuses it on loading,
    # after listing one element past the bound
    path = tmp_path / "big.jsonl"
    records = [{"name": "C2", "spec": "C2"}, {"name": "S8", "generators": ["(1 2)", "(1 2 3 4 5 6 7 8)"]}]
    path.write_text(render_catalog(records))
    with pytest.raises(CatalogError) as err:
        load_catalog(str(path))
    assert str(err.value) == "line 2: group order more than 8192 exceeds the Cayley-table bound 8192"


def test_integers_too_long_for_int_rejected_naming_the_line(tmp_path):
    # json refuses integers over 4,300 digits with a plain ValueError
    path = tmp_path / "long.jsonl"
    for record in ('{"name": "C3", "spec": "C3", "order": %s}', '{"name": "C3", "spec": "C%s"}',
                   '{"name": "C3", "generators": ["(1 %s)"]}'):
        path.write_text('{"name": "C2", "spec": "C2"}\n' + record % ("9" * 5000) + "\n")
        with pytest.raises(CatalogError, match=r"^line 2: "):
            load_catalog(str(path))


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        json.dumps({"name": "C2", "spec": "C2"})
        + "\n"
        + json.dumps({"name": "C2", "spec": "C2"})
        + "\n"
    )
    with pytest.raises(CatalogError) as err:
        load_catalog(str(path))
    assert "duplicate" in str(err.value)
