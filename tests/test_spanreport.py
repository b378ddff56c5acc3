"""Tests for certification sweep reports."""

import sys

from parity_inductor import intlinalg, spanreport
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import character_table
from parity_inductor.genchar import GenChar
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


def test_usage_keys_are_a_generators_tag_else_its_kind():
    # cor29 has no type-2 generators: C4's are all untagged cyclic twists
    C4 = parse_group_spec("C4")
    cor29 = span_report(C4, "cor29", name="C4")
    assert "cyclic" in cor29.usage and "type2" not in cor29.usage
    assert set(span_report(C4, "thm12", name="C4").usage) == {"type1"}
    d8 = span_report(parse_group_spec("D8"), "thm12", name="D8", samples=4, seed=0)
    assert set(d8.usage) == {"KleinFour", "Dihedral8"}


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


def test_a_cold_catalog_pass_makes_one_kernel_echelon_per_group(monkeypatch):
    # fresh catalog groups, so nothing is cached: the `verify` defaults
    calls = {}
    real = intlinalg._echelon

    def counted(rows, width):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return real(rows, width)

    monkeypatch.setattr(intlinalg, "_echelon", counted)
    for entry in load_bundled_catalog():
        before = calls.get("solve_all", 0)
        assert span_report(entry.group, "thm12", name=entry.name, samples=20, seed=0).all_certified
        assert calls.get("solve_all", 0) - before <= 1, entry.name
    # 242 HNFs while every group's permutation characters took one they never used
    assert calls == {"hnf": 181, "solve_all": 60}


def test_a_failed_draw_fails_only_its_own_sample(monkeypatch):
    real = spanreport.random_S_element

    def faulty(G, seed, bound):
        if seed == 13:
            raise RuntimeError("draw %d refused" % seed)
        return real(G, seed, bound)

    monkeypatch.setattr(spanreport, "random_S_element", faulty)
    report = span_report(parse_group_spec("S4"), "thm12", name="S4", samples=6, seed=10)
    [failed] = report.failures()
    assert failed is report.sample_results[3]
    assert (failed.label, failed.detail, failed.meta) == (
        "sample seed 13", "draw 13 refused", {"seed": 13, "bound": 4}
    )
    assert len(report.sample_results) == 6 and report.subgroup_results


def test_a_foreign_target_fails_only_itself(monkeypatch):
    real = spanreport.random_S_element
    other = character_table(parse_group_spec("C4"))

    def foreign(G, seed, bound):
        return GenChar(other, [0] * other.class_count()) if seed == 1 else real(G, seed, bound)

    monkeypatch.setattr(spanreport, "random_S_element", foreign)
    report = span_report(parse_group_spec("D8"), "thm12", name="D8", samples=3, seed=0)
    [failed] = report.failures()
    assert failed is report.sample_results[1]
    assert failed.detail == "character and family live on different groups"
