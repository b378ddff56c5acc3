"""Tests for certification sweep reports."""

from parity_inductor.groupspec import parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.spanreport import span_report


def test_s3_all_subgroups_certified():
    G = parse_group_spec("S3")
    report = span_report(G, "thm12", name="S3")
    assert report.group_name == "S3"
    assert report.order == 6
    assert len(report.subgroup_results) == len(subgroup_lattice(G).records)
    assert report.all_certified
    assert report.failures() == []


def test_sample_targets_certified_and_seeded():
    G = parse_group_spec("S4")
    a = span_report(G, "thm12", name="S4", samples=6, seed=11)
    b = span_report(G, "thm12", name="S4", samples=6, seed=11)
    assert len(a.sample_results) == 6
    assert a.all_certified
    assert [r.terms for r in a.sample_results] == [r.terms for r in b.sample_results]
    assert a.format_text() == b.format_text()


def test_d42_uses_only_small_dihedral_twists():
    G = parse_group_spec("D42")
    report = span_report(G, "thm12", name="D42", samples=8, seed=3)
    assert report.all_certified
    assert set(report.usage) <= {"type1", "Dihedral2p(3)", "Dihedral2p(7)"}
    assert "Dihedral2p(3)" in set(report.usage)
    assert "Dihedral2p(7)" in set(report.usage)


def test_trivial_group_vacuous():
    G = parse_group_spec("C1")
    report = span_report(G, "thm12", name="C1", samples=3, seed=0)
    assert report.all_certified
    assert all(r.terms == () for r in report.subgroup_results + report.sample_results)
    assert set(report.usage) == frozenset()


def test_corollary_flavor_certifies_s3():
    G = parse_group_spec("S3")
    report = span_report(G, "cor29", name="S3", samples=4, seed=5)
    assert report.flavor == "cor29"
    assert report.all_certified


def test_text_rendering_mentions_every_target():
    G = parse_group_spec("D8")
    report = span_report(G, "thm12", name="D8", samples=2, seed=1)
    text = report.format_text()
    assert text.startswith("group D8 (order 8, flavor thm12)")
    for result in report.subgroup_results:
        assert result.label in text
    assert "sample seed 1" in text and "sample seed 2" in text
    assert "targets certified: %d/%d" % (
        len(report.subgroup_results) + 2,
        len(report.subgroup_results) + 2,
    ) in text


def test_json_shape_and_timing_flag():
    G = parse_group_spec("C6")
    report = span_report(G, "thm12", name="C6", samples=1, seed=0)
    doc = report.to_json()
    assert "elapsed_seconds" not in doc
    assert doc["group"] == "C6"
    assert doc["all_certified"] is True
    assert {entry["label"] for entry in doc["subgroups"]} == {
        r.label for r in report.subgroup_results
    }
