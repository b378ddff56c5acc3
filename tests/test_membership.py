"""Tests for membership certificates, random targets, and induction bases."""

import random
from operator import mul

import pytest

from parity_inductor import membership
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import character_table
from parity_inductor.genchar import (
    GenChar,
    determinant,
    has_trivial_determinant,
    induce,
    inflate,
    perm_char,
    restrict,
    rho_H,
    trivial_char,
)
from parity_inductor.generators import cor29_family, theorem_family
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.membership import (
    MembershipCertificate,
    MembershipError,
    certificate_from_json,
    certificate_to_json,
    hyperelementary_records,
    is_s_element,
    membership_solve,
    membership_solve_all,
    perm_lattice_solve,
    random_S_element,
    solomon_coefficients,
    verify_certificate,
)
from parity_inductor.structure import QuotientMap, is_hyperelementary


def zero_char(G):
    tab = character_table(G)
    return GenChar(tab, [0] * tab.class_count())


def test_zero_target_empty_certificate():
    G = parse_group_spec("S3")
    cert = membership_solve(zero_char(G), theorem_family(G))
    assert cert.terms == ()
    assert verify_certificate(cert)


def test_rho_s3_c2_hits_type2_generator():
    G = parse_group_spec("S3")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    rho = rho_H(G, rec)
    assert rho.coeffs == (-1, -1, 1)
    cert = membership_solve(rho, theorem_family(G))
    assert cert.terms == ((2, 1),)
    assert [g for g, _ in cert.named_terms()] == ["t2:h3:n0:Dihedral2p(3):tau3"]
    assert verify_certificate(cert)


def test_c4_conjugate_pair_certificate():
    G = parse_group_spec("C4")
    target = GenChar(character_table(G), (-2, 1, 1, 0))
    cert = membership_solve(target, theorem_family(G))
    assert cert.terms == ((0, 1),)
    assert dict(cert.named_terms())["t1:1"] == 1
    assert verify_certificate(cert)


def test_solve_rejects_foreign_table():
    G = parse_group_spec("S3")
    H = parse_group_spec("C4")
    with pytest.raises(ValueError):
        membership_solve(zero_char(H), theorem_family(G))


def test_solve_all_of_an_empty_batch_is_empty():
    for spec in ("C1", "S3"):
        assert membership_solve_all([], theorem_family(parse_group_spec(spec))) == []


def test_solve_all_rejects_a_foreign_table_anywhere_in_the_batch():
    G, H = parse_group_spec("S3"), parse_group_spec("C4")
    family = theorem_family(G)
    for batch in ([zero_char(H)], [zero_char(G), zero_char(H)], [zero_char(H), zero_char(G)]):
        with pytest.raises(ValueError, match="different groups"):
            membership_solve_all(batch, family)


def test_solve_all_matches_one_solve_per_target():
    for spec in ("C1", "C4", "S3", "D8", "A4"):
        G = parse_group_spec(spec)
        tab = character_table(G)
        off = GenChar(tab, [1] + [0] * (tab.class_count() - 1))
        targets = [rho_H(G, rec) for rec in subgroup_lattice(G).records]
        targets += [zero_char(G), off] + [random_S_element(G, seed, 4) for seed in range(5)]
        for family in (theorem_family(G), cor29_family(G)):
            batch = membership_solve_all(targets, family)
            singles = [membership_solve(rho, family) for rho in targets]
            assert [c and (c.target, c.terms) for c in batch] == [
                c and (c.target, c.terms) for c in singles
            ], spec
            assert batch[len(targets) - 6] is None and all(c is not None for c in batch[:-6])


def test_perturbed_certificate_fails():
    G = parse_group_spec("S3")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    cert = membership_solve(rho_H(G, rec), theorem_family(G))
    bad = MembershipCertificate(
        cert.family, cert.target, [(i, c + 1) for i, c in cert.terms]
    )
    assert not verify_certificate(bad)
    empty = MembershipCertificate(cert.family, cert.target, [])
    assert not verify_certificate(empty)


def test_non_membership_is_reported():
    G = parse_group_spec("C2")
    tab = character_table(G)
    assert membership_solve(GenChar(tab, (1, 0)), theorem_family(G)) is None


def test_certificate_json_shape():
    G = parse_group_spec("S3")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    cert = membership_solve(rho_H(G, rec), theorem_family(G))
    doc = certificate_to_json(cert, "S3")
    assert doc == {
        "group": "S3",
        "flavor": "thm12",
        "target": [-1, -1, 1],
        "terms": [
            {"generator": "t2:h3:n0:Dihedral2p(3):tau3", "coefficient": 1}
        ],
        "verified": True,
    }


def _s3_certificate_doc():
    G = parse_group_spec("S3")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 2)
    family = theorem_family(G)
    return certificate_to_json(membership_solve(rho_H(G, rec), family), "S3"), family


@pytest.mark.parametrize(
    "path, value",
    [(("target", 0), -0.5), (("terms", 0, "coefficient"), True), (("terms", 0, "coefficient"), 1.0)],
    ids=["target-half", "coefficient-bool", "coefficient-float"],
)
def test_certificate_from_json_rejects_non_integers(path, value):
    # -0.5 would truncate to a different target; True and 1.0 would verify
    doc, family = _s3_certificate_doc()
    assert verify_certificate(certificate_from_json(doc, family))
    *where, last = path
    node = doc
    for key in where:
        node = node[key]
    node[last] = value
    with pytest.raises(ValueError, match="must be an integer"):
        certificate_from_json(doc, family)


def test_certificate_from_json_rejects_a_repeated_generator():
    # terms 3 and -2 on one generator verify as its net 1, while
    # `coefficient` would report one of them
    doc, family = _s3_certificate_doc()
    (term,) = doc["terms"]
    doc["terms"] = [dict(term, coefficient=3), dict(term, coefficient=-2)]
    with pytest.raises(ValueError, match="more than one term"):
        certificate_from_json(doc, family)


def test_random_element_bound_zero():
    G = parse_group_spec("S3")
    assert random_S_element(G, 5, 0).is_zero()


def test_random_element_c2_shape():
    G = parse_group_spec("C2")
    for seed in range(6):
        rho = random_S_element(G, seed, 8)
        assert rho.coeffs[0] == -rho.coeffs[1]
        assert rho.coeffs[1] % 2 == 0


def test_random_element_s3_seed1_nonzero():
    G = parse_group_spec("S3")
    rho = random_S_element(G, 1, 3)
    assert not rho.is_zero()
    assert rho.degree == 0
    assert has_trivial_determinant(rho)
    assert perm_lattice_solve(rho) is not None


def test_random_element_deterministic():
    G = parse_group_spec("D8")
    assert random_S_element(G, 3, 4).coeffs == random_S_element(G, 3, 4).coeffs


def test_random_elements_stay_in_lattice():
    for name in ["S3", "D8", "Q8", "A4", "D10"]:
        G = parse_group_spec(name)
        for seed in range(8):
            rho = random_S_element(G, seed, 4)
            assert is_s_element(rho), (name, seed)


def reference_random_S_element(G, seed, bound):
    """The rejection loop random_S_element ran before it decided its draw space.

    Returns None, where that loop returned zero, when all 1,000 draws are
    rejected.
    """
    table = character_table(G)
    zero = GenChar(table, [0] * table.class_count())
    if bound <= 0:
        return zero
    records, chars, _ = membership._perm_lattice(G)
    basis = membership._admissible_lattice(G)
    if not basis:
        return zero
    rng = random.Random(seed)
    randint, sample, choice = rng.randint, rng.sample, rng.choice
    most = min(3, len(basis))
    for _ in range(1000):
        x = [0] * len(records)
        for row in sample(basis, randint(1, most)):
            c = choice((-2, -1, 1, 2))
            x = [xi + c * ri for xi, ri in zip(x, row)]
        if not any(x):
            continue
        if max(map(abs, x)) > bound:
            continue
        out = zero
        for coeff, ch in zip(x, chars):
            if coeff:
                out = out + coeff * ch
        return out
    return None


def drawn_random_S_element(G, seed, bound):
    """random_S_element as it drew before it sampled positions: each draw's
    multiplicities built by `_draw`, then combined with the permutation
    characters."""
    table = character_table(G)
    zero = GenChar(table, [0] * table.class_count())
    if bound <= 0:
        return zero
    _, chars, _ = membership._perm_lattice(G)
    basis = membership._admissible_lattice(G)
    if not basis or not membership._has_target(G, bound):
        return zero
    rng = random.Random(seed)
    for _ in range(membership._DRAWS):
        rows = rng.sample(basis, rng.randint(1, min(3, len(basis))))
        x = membership._draw(rows, [rng.choice(membership._COEFFS) for _ in rows], bound)
        if x is not None:
            columns = zip(*(ch.coeffs for ch in chars))
            return GenChar(table, [sum(map(mul, x, column)) for column in columns])
    return zero


@pytest.fixture(scope="module")
def catalog():
    return load_bundled_catalog()


def test_random_element_matches_drawn_reference(catalog):
    for entry in catalog:
        G = entry.group
        for bound in (1, 3, 4, 8):
            for seed in range(20):
                assert random_S_element(G, seed, bound).coeffs == drawn_random_S_element(
                    G, seed, bound
                ).coeffs, (entry.name, bound, seed)


def test_random_element_takes_no_hnf_of_the_permutation_characters(catalog, monkeypatch):
    # only a solve over the permutation lattice needs its HNF
    def refuse(G):
        raise AssertionError("permutation-lattice HNF taken")

    monkeypatch.setattr(membership, "_perm_lattice", refuse)
    for entry in catalog:
        G = entry.group
        for seed in range(3):
            random_S_element(G, seed, 4)


def test_random_element_matches_rejection_reference(catalog):
    for entry in catalog:
        G = entry.group
        zero = zero_char(G).coeffs
        for bound in (1, 3, 4, 8):
            for seed in range(10):
                expected = reference_random_S_element(G, seed, bound)
                expected = zero if expected is None else expected.coeffs
                assert random_S_element(G, seed, bound).coeffs == expected, (
                    entry.name,
                    bound,
                    seed,
                )


def test_random_element_budget_never_runs_out_on_catalog(catalog):
    # zero comes back only from an empty draw space, never from bad luck
    for entry in catalog:
        G = entry.group
        basis = membership._admissible_lattice(G)
        if not basis or not membership._has_target(G, 4):
            continue
        for seed in range(20):
            assert reference_random_S_element(G, seed, 4) is not None, (entry.name, seed)


def test_empty_draw_space_makes_no_generator(monkeypatch):
    def refuse(seed):
        raise AssertionError("random.Random constructed")

    monkeypatch.setattr(membership.random, "Random", refuse)
    for name in ("C29", "C25"):
        G = parse_group_spec(name)
        for seed in range(3):
            assert random_S_element(G, seed, 4).is_zero(), name
    with pytest.raises(AssertionError):
        random_S_element(parse_group_spec("C30"), 0, 4)


def test_s_predicate_rejects_outsiders():
    G = parse_group_spec("S3")
    tab = character_table(G)
    assert not is_s_element(trivial_char(tab))
    sigma = GenChar(tab, (0, 0, 1))
    eps = GenChar(tab, (0, 1, 0))
    assert not is_s_element(sigma - trivial_char(tab))
    assert is_s_element(sigma - eps - trivial_char(tab))


def test_all_rho_certified_zoo():
    for name in ["C1", "C2", "C6", "S3", "C4", "D8", "Q8", "A4", "S4", "D42"]:
        G = parse_group_spec(name)
        fam = theorem_family(G)
        for rec in subgroup_lattice(G).records:
            cert = membership_solve(rho_H(G, rec), fam)
            assert cert is not None and verify_certificate(cert), (
                name,
                rec.label,
            )


def test_solomon_hyperelementary_is_identity():
    for name in ["S3", "C12", "D8", "Q8", "D42"]:
        G = parse_group_spec(name)
        result = solomon_coefficients(G)
        assert len(result) == 1
        rec, coeff = result[0]
        assert coeff == 1 and rec.order == G.order()


def test_solomon_a4():
    G = parse_group_spec("A4")
    result = solomon_coefficients(G)
    assert all(rec.order < 12 for rec, _ in result)
    assert all(is_hyperelementary(rec.as_group()) for rec, _ in result)
    total = zero_char(G)
    for rec, c in result:
        total = total + c * perm_char(G, rec)
    assert total == trivial_char(character_table(G))


def test_solomon_a5_s5_exact():
    for name in ["A5", "S5"]:
        G = parse_group_spec(name)
        total = zero_char(G)
        for rec, c in solomon_coefficients(G):
            total = total + c * perm_char(G, rec)
        assert total == trivial_char(character_table(G)), name


def test_hyperelementary_records_s4():
    G = parse_group_spec("S4")
    recs = hyperelementary_records(G)
    assert all(rec.order < 24 for rec in recs)
    assert any(rec.order == 8 for rec in recs)


def test_induction_compatibility():
    for name, sub_order in [("S4", 8), ("S4", 6), ("D8", 4), ("A4", 4)]:
        G = parse_group_spec(name)
        fam = theorem_family(G)
        rec = next(r for r in subgroup_lattice(G).records if r.order == sub_order)
        sub = rec.as_group()
        sub_fam = theorem_family(sub)
        for seed in range(4):
            rho = random_S_element(sub, seed, 3)
            cert = membership_solve(rho, sub_fam)
            assert cert is not None
            lifted_target = induce(rec, rho)
            merged = {}
            for i, c in cert.terms:
                lift = induce(rec, sub_fam.generators[i].expansion)
                lift_cert = membership_solve(lift, fam)
                assert lift_cert is not None and verify_certificate(lift_cert)
                for j, d in lift_cert.terms:
                    merged[j] = merged.get(j, 0) + c * d
            combined = MembershipCertificate(
                fam, lifted_target, [(j, d) for j, d in merged.items() if d]
            )
            assert verify_certificate(combined), (name, sub_order, seed)


def test_inflation_compatibility():
    cases = [("S4", 4), ("D8", 2), ("Q8", 2), ("A4", 4)]
    for name, n_order in cases:
        G = parse_group_spec(name)
        fam = theorem_family(G)
        rec = next(
            r
            for r in subgroup_lattice(G).records
            if r.order == n_order and r.normal
        )
        qmap = QuotientMap(G, rec)
        quom = qmap.image
        quo_fam = theorem_family(quom)
        for seed in range(4):
            rho = random_S_element(quom, seed, 3)
            cert = membership_solve(rho, quo_fam)
            assert cert is not None
            lifted_target = inflate(qmap, rho)
            merged = {}
            for i, c in cert.terms:
                lift = inflate(qmap, quo_fam.generators[i].expansion)
                lift_cert = membership_solve(lift, fam)
                assert lift_cert is not None and verify_certificate(lift_cert)
                for j, d in lift_cert.terms:
                    merged[j] = merged.get(j, 0) + c * d
            combined = MembershipCertificate(
                fam, lifted_target, [(j, d) for j, d in merged.items() if d]
            )
            assert verify_certificate(combined), (name, n_order, seed)


def test_restriction_lands_in_subgroup_lattice():
    G = parse_group_spec("S4")
    rec = next(r for r in subgroup_lattice(G).records if r.order == 8)
    rho = random_S_element(G, 2, 3)
    res = restrict(rho, rec)
    sub_fam = theorem_family(rec.as_group())
    cert = membership_solve(res, sub_fam)
    assert cert is not None and verify_certificate(cert)
