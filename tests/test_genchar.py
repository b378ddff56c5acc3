"""Virtual character operations: frozen examples, reciprocity, determinant laws."""

import random
from fractions import Fraction

import pytest

from parity_inductor import genchar
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import CharTableError, character_table
from parity_inductor.genchar import (
    GenChar,
    determinant,
    induce,
    inflate,
    irreducible_char,
    order2_linear_chars,
    perm_char,
    restrict,
    rho_H,
    trivial_char,
)
from parity_inductor.groupspec import group_from_cycles, parse_group_spec
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.perm import Perm
from parity_inductor.structure import quotient

from _cyclo_reference import Cyclo, from_values, reference_rows, reference_values
from _perm_reference import inverse, mul


def records(G):
    return subgroup_lattice(G).records


def record_of_order(G, n, which=0):
    return [r for r in records(G) if r.order == n][which]


def inner_product(alpha, beta):
    """<alpha, beta>: the irreducibles are orthonormal, so it is the coordinates' dot product."""
    assert alpha.table is beta.table
    return sum(a * b for a, b in zip(alpha.coeffs, beta.coeffs))


def test_genchar_algebra():
    t = character_table(parse_group_spec("S3"))
    a = irreducible_char(t, 2)
    b = trivial_char(t)
    assert (a + b).coeffs == (1, 0, 1)
    assert (a - b).coeffs == (-1, 0, 1)
    assert (-a).coeffs == (0, 0, -1)
    assert (3 * a).coeffs == (0, 0, 3)
    assert a.degree == 2 and b.degree == 1
    assert reference_values(a - b)[0] == 1
    assert not (a - b).is_zero()
    assert (a - a).is_zero()


def test_conjugation_and_reality():
    C4 = parse_group_spec("C4")
    t = character_table(C4)
    chi = irreducible_char(t, 1)
    assert chi.conj() != chi
    assert chi.conj().coeffs == (0, 0, 1, 0)
    assert (chi + chi.conj()).conj() == chi + chi.conj()
    t3 = character_table(parse_group_spec("S3"))
    assert irreducible_char(t3, 2).conj() == irreducible_char(t3, 2)


def test_inner_product_regular_character():
    G = parse_group_spec("S4")
    t = character_table(G)
    reg = perm_char(G, record_of_order(G, 1))
    assert reg.coeffs == t.degrees
    for i in range(t.class_count()):
        assert inner_product(reg, irreducible_char(t, i)) == t.degrees[i]


def test_inner_product_induced_trivial():
    G = parse_group_spec("S4")
    for rec in records(G):
        pc = perm_char(G, rec)
        assert inner_product(pc, trivial_char(pc.table)) == 1


def test_perm_char_frozen_examples():
    S3 = parse_group_spec("S3")
    t = character_table(S3)
    assert perm_char(S3, record_of_order(S3, 3)).coeffs == (1, 1, 0)
    assert perm_char(S3, record_of_order(S3, 6)).coeffs == (1, 0, 0)
    assert perm_char(S3, record_of_order(S3, 1)).coeffs == (1, 1, 2)


def test_perm_char_equals_induced_trivial():
    for spec in ["S3", "D8", "Q8", "A4", "S4", "D12"]:
        G = parse_group_spec(spec)
        for rec in records(G):
            ht = character_table(rec.as_group())
            assert perm_char(G, rec) == induce(rec, trivial_char(ht))


def test_induce_frozen_examples():
    S3 = parse_group_spec("S3")
    C2 = record_of_order(S3, 2)
    ind = induce(C2, trivial_char(character_table(C2.as_group())))
    assert ind.coeffs == (1, 0, 1)
    assert ind.degree == 3

    C2g = parse_group_spec("C2")
    one = record_of_order(C2g, 1)
    ind2 = induce(one, trivial_char(character_table(one.as_group())))
    assert ind2.coeffs == (1, 1)

    full = record_of_order(S3, 6)
    tau = irreducible_char(character_table(full.as_group()), 2)
    assert induce(full, tau).coeffs == tau.coeffs


def test_induce_degree_scaling():
    G = parse_group_spec("S4")
    for rec in records(G):
        ht = character_table(rec.as_group())
        for i in range(ht.class_count()):
            ind = induce(rec, irreducible_char(ht, i))
            assert ind.degree == rec.index * ht.degrees[i]


def test_induce_reads_the_induction_matrix_once(monkeypatch):
    # the table check and the column sum share one lookup of H's columns
    G = parse_group_spec("S4")
    rec = record_of_order(G, 4)
    tau = irreducible_char(character_table(rec.as_group()), 1)
    want = induce(rec, tau)
    calls = []
    lookup = genchar._induction

    def counted(G, H):
        calls.append(H)
        return lookup(G, H)

    monkeypatch.setattr(genchar, "_induction", counted)
    assert induce(rec, tau) == want
    assert calls == [rec]


def test_frobenius_reciprocity():
    for spec in ["S3", "D8", "S4"]:
        G = parse_group_spec(spec)
        gt = character_table(G)
        for rec in records(G):
            ht = character_table(rec.as_group())
            for i in range(ht.class_count()):
                tau = irreducible_char(ht, i)
                ind = induce(rec, tau)
                for j in range(gt.class_count()):
                    chi = irreducible_char(gt, j)
                    assert inner_product(ind, chi) == inner_product(
                        tau, restrict(chi, rec)
                    )


def test_restrict_frozen_examples():
    S3 = parse_group_spec("S3")
    t = character_table(S3)
    sigma = irreducible_char(t, 2)
    C3 = record_of_order(S3, 3)
    res = restrict(sigma, C3)
    assert res.coeffs == (0, 1, 1)
    one = record_of_order(S3, 1)
    res1 = restrict(sigma, one)
    assert res1.coeffs == (2,)


def test_restrict_error_on_foreign_subgroup():
    S3 = parse_group_spec("S3")
    t = character_table(S3)
    alien = group_from_cycles(["(1 2 3 4)"])
    with pytest.raises(ValueError):
        restrict(trivial_char(t), alien)


def test_genchar_refuses_coefficients_that_are_not_ints():
    t = character_table(parse_group_spec("S3"))
    for coeffs in ([1.9, -0.5, 1], [1, 0, True], ["2", 0, 0], [Fraction(2), 0, 0]):
        with pytest.raises(ValueError, match="must be 3 integers"):
            GenChar(t, coeffs)
    assert GenChar(t, (2, -1, 0)).coeffs == (2, -1, 0)


def test_subgroup_operations_take_only_records_of_the_group():
    S3 = parse_group_spec("S3")
    own = record_of_order(S3, 2)
    H = own.as_group()
    tau = trivial_char(character_table(H))
    # the same subgroup as a group, as positions, and as a record of an equal group
    other = record_of_order(parse_group_spec("S3"), 2)
    for alien in (H, own.positions, list(own.positions), other):
        with pytest.raises(ValueError):
            restrict(trivial_char(character_table(S3)), alien)
        with pytest.raises(ValueError):
            perm_char(S3, alien)
        with pytest.raises(ValueError):
            rho_H(S3, alien)
    with pytest.raises(ValueError):
        induce(H, tau)
    assert induce(own, tau) == perm_char(S3, own)


def test_record_and_its_positions_give_one_quotient():
    # a character of either call's image inflates through the other
    G = parse_group_spec("D12")
    n = record_of_order(G, 3)
    q = quotient(G, n)
    assert quotient(G, n.positions) is q
    chi = irreducible_char(character_table(quotient(G, n.positions).image), 1)
    assert inflate(q, chi).degree == 1


def test_inflate_examples():
    C4 = parse_group_spec("C4")
    N = record_of_order(C4, 2)
    q = quotient(C4, N)
    eps = irreducible_char(character_table(q.image), 1)
    lifted = inflate(q, eps)
    assert lifted.degree == 1
    assert reference_values(lifted) == [1, 1, -1, -1]

    D42 = parse_group_spec("D42")
    C7 = record_of_order(D42, 7)
    q2 = quotient(D42, C7)
    assert q2.image.order() == 6
    qt = character_table(q2.image)
    sigma = irreducible_char(qt, 2)
    assert qt.degrees[2] == 2
    lifted2 = inflate(q2, sigma)
    assert lifted2.degree == 2
    # the lift kills every element of the order-7 kernel
    values = reference_values(lifted2)
    for p in C7.element_set():
        assert values[D42.class_of()[D42.element_index(p)]] == 2


def test_determinant_examples():
    S3 = parse_group_spec("S3")
    t = character_table(S3)
    assert determinant(trivial_char(t)).is_trivial()
    sigma = irreducible_char(t, 2)
    d = determinant(sigma)
    assert d.row == 1 and not d.is_trivial()

    C4 = parse_group_spec("C4")
    t4 = character_table(C4)
    chi = irreducible_char(t4, 1)
    pair = chi + chi.conj()
    assert determinant(pair).is_trivial()


def _newton_determinant_row(table, i):
    """Reference: the row of det X_i, from Newton's identities on power maps."""
    d = table.degrees[i]
    if d == 1:
        return i
    rows = reference_rows(table)
    vals = []
    for cycle in table.power_cycles:
        powers = [None] + [
            rows[i][cycle[j % len(cycle)]] for j in range(1, d + 1)
        ]
        es = [Cyclo.rational(1)]
        for m in range(1, d + 1):
            acc = Cyclo.rational(0)
            sign = 1
            for j in range(1, m + 1):
                acc = acc + es[m - j] * powers[j] * sign
                sign = -sign
            es.append(acc * Fraction(1, m))
        vals.append(es[d])
    hits = [r for r in table.linear_row_indices() if rows[r] == vals]
    assert len(hits) == 1, "determinant of irreducible %d is not a linear row" % i
    return hits[0]


def test_determinant_matches_newton_reference_on_catalog():
    for entry in load_bundled_catalog():
        t = character_table(entry.group)
        for i in range(t.class_count()):
            got = determinant(irreducible_char(t, i)).row
            assert got == _newton_determinant_row(t, i), (entry.name, i)
        for i in t.linear_row_indices():
            for c in range(t.class_count()):
                want = Cyclo.zeta(t.exponent, t.det_exponents[i][c])
                assert reference_rows(t)[i][c] == want, (entry.name, i, c)


# Reference paths: transport through class values, decomposed with cyclotomic
# inner products on every call, and coset characters by counting fixed points.


def _induce_reference(H, tau):
    G = H.parent
    sub = H.as_group()
    gt = character_table(G)
    tau_vals = reference_values(tau)
    buckets = [Cyclo.rational(0)] * gt.class_count()
    for x in sub.elements():
        gc = G.class_of()[G.element_index(x)]
        hc = sub.class_of()[sub.element_index(x)]
        buckets[gc] = buckets[gc] + tau_vals[hc]
    vals = [
        b * Fraction(G.order(), cls.size * sub.order())
        for b, cls in zip(buckets, gt.classes)
    ]
    return from_values(gt, vals)


def _restrict_reference(tau, H):
    G = tau.table.group
    ht = character_table(H.as_group())
    tau_vals = reference_values(tau)
    vals = [tau_vals[G.class_of()[G.element_index(c.rep)]] for c in ht.classes]
    return from_values(ht, vals)


def _inflate_reference(qmap, rho):
    Q = qmap.image
    gt = character_table(qmap.source)
    rho_vals = reference_values(rho)
    vals = []
    for cls in gt.classes:
        q = qmap.image_of[qmap.source.element_index(cls.rep)]
        vals.append(rho_vals[Q.class_of()[q]])
    return from_values(gt, vals)


def _perm_char_reference(G, H):
    h_set = H.element_set()
    gt = character_table(G)
    seen = set()
    reps = []
    for x in G.elements():
        if x in seen:
            continue
        reps.append(x)
        for h in h_set:
            seen.add(mul(h, x))
    vals = []
    for cls in gt.classes:
        g = cls.rep
        fixed = sum(1 for x in reps if mul(x, g, inverse(x)) in h_set)
        vals.append(Cyclo.rational(fixed))
    return from_values(gt, vals)


def test_transport_matches_value_reference_on_catalog():
    for entry in load_bundled_catalog():
        G = entry.group
        if G.order() > 24:
            continue
        gt = character_table(G)
        g_irr = [irreducible_char(gt, i) for i in range(gt.class_count())]
        for rec in records(G):
            where = (entry.name, rec.label)
            assert perm_char(G, rec) == _perm_char_reference(G, rec), where
            ht = character_table(rec.as_group())
            for i in range(ht.class_count()):
                tau = irreducible_char(ht, i)
                assert induce(rec, tau) == _induce_reference(rec, tau), where
            for chi in g_irr:
                assert restrict(chi, rec) == _restrict_reference(chi, rec), where
            if rec.normal:
                q = quotient(G, rec)
                qt = character_table(q.image)
                for i in range(qt.class_count()):
                    rho = irreducible_char(qt, i)
                    assert inflate(q, rho) == _inflate_reference(q, rho), where


def test_determinant_of_difference_rule():
    # det(a - b) = det(a) * conj(det b), checked via values
    G = parse_group_spec("D8")
    t = character_table(G)
    rng = random.Random(11)
    chars = [irreducible_char(t, i) for i in range(t.class_count())]
    for _ in range(25):
        a = sum((rng.randrange(0, 3) * c for c in chars), 0 * chars[0])
        b = sum((rng.randrange(0, 3) * c for c in chars), 0 * chars[0])
        da, db, dd = (reference_values(determinant(x)) for x in (a, b, a - b))
        for c in range(t.class_count()):
            assert dd[c] == da[c] * db[c].conj()


def test_determinant_tensor_law_random():
    for spec, seed in [("S4", 3), ("Q8", 5), ("D12", 9)]:
        G = parse_group_spec(spec)
        t = character_table(G)
        rng = random.Random(seed)
        chars = [irreducible_char(t, i) for i in range(t.class_count())]
        for _ in range(20):
            a = sum((rng.randrange(-2, 3) * c for c in chars), 0 * chars[0])
            b = sum((rng.randrange(-2, 3) * c for c in chars), 0 * chars[0])
            da, db, ds = (reference_values(determinant(x)) for x in (a, b, a + b))
            for c in range(t.class_count()):
                assert ds[c] == da[c] * db[c]


def test_determinant_of_induced_trivial_is_coset_sign():
    # the determinant of a coset character is the sign of the coset action
    for spec in ["S3", "D8", "A4", "S4", "D10"]:
        G = parse_group_spec(spec)
        for rec in records(G):
            pc = perm_char(G, rec)
            det = reference_values(determinant(pc))
            h_set = rec.element_set()
            reps = []
            seen = set()
            for x in G.elements():
                if x in seen:
                    continue
                reps.append(x)
                seen.update(mul(h, x) for h in h_set)
            coset_index = {}
            for i, x in enumerate(reps):
                for h in h_set:
                    coset_index[mul(h, x)] = i
            for ci, cls in enumerate(pc.table.classes):
                images = [coset_index[mul(x, cls.rep)] for x in reps]
                swaps = sum(len(c) - 1 for c in Perm(tuple(images)).cycles())
                assert det[ci] == (-1) ** swaps


def test_even_degree_trivial_det_induction_law():
    # trivial-determinant, even-degree characters induce with trivial determinant
    S3 = parse_group_spec("S3")
    rng = random.Random(23)
    for rec in records(S3):
        ht = character_table(rec.as_group())
        chars = [irreducible_char(ht, i) for i in range(ht.class_count())]
        for _ in range(10):
            base = sum((rng.randrange(-2, 3) * c for c in chars), 0 * chars[0])
            tau = base + base.conj()
            for lc in order2_linear_chars(rec.as_group()):
                tau = tau + 2 * rng.randrange(0, 2) * lc.genchar
            assert tau.degree % 2 == 0
            if not determinant(tau).is_trivial():
                continue
            assert determinant(induce(rec, tau)).is_trivial()


def test_rho_frozen_examples():
    S3 = parse_group_spec("S3")
    assert rho_H(S3, record_of_order(S3, 2)).coeffs == (-1, -1, 1)
    assert rho_H(S3, record_of_order(S3, 6)).is_zero()
    C4 = parse_group_spec("C4")
    assert rho_H(C4, record_of_order(C4, 1)).coeffs == (-2, 1, 1, 0)


def test_rho_degree_zero_trivial_det_everywhere():
    for spec in ["S3", "D8", "Q8", "A4", "S4", "D42"]:
        G = parse_group_spec(spec)
        for rec in records(G):
            r = rho_H(G, rec)
            assert r.degree == 0
            assert determinant(r).is_trivial()
            assert r.conj() == r


def test_order2_linear_chars():
    S3 = parse_group_spec("S3")
    chars = order2_linear_chars(S3)
    assert len(chars) == 1 and chars[0].row == 1

    V = group_from_cycles(["(1 2)", "(3 4)"])
    vchars = order2_linear_chars(V)
    assert len(vchars) == 3
    kernels = {subgroup_lattice(V).record_for_set(c.kernel_positions()).class_id for c in vchars}
    index2 = {r.class_id for r in records(V) if r.index == 2}
    assert kernels == index2

    assert order2_linear_chars(parse_group_spec("A5")) == ()
    assert len(order2_linear_chars(parse_group_spec("D8"))) == 3


def test_linear_char_behaviour():
    S3 = parse_group_spec("S3")
    eps = order2_linear_chars(S3)[0]
    assert len(eps.kernel_positions()) == 3
    assert eps.genchar.coeffs == (0, 1, 0)


def test_from_values_round_trip():
    # values as reference field elements and as integer class vectors
    G = parse_group_spec("D8")
    t = character_table(G)
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [rng.randrange(-3, 4) for _ in range(t.class_count())]
        g = GenChar(t, coeffs)
        assert from_values(t, reference_values(g)) == g
        vectors = [
            [sum(a * row[c][s] for a, row in zip(coeffs, t.vectors)) for s in range(cls.order)]
            for c, cls in enumerate(t.classes)
        ]
        assert t.decompose([vectors]) == (g.coeffs,)


def test_defect_on_non_integral_decomposition():
    G = parse_group_spec("S3")
    t = character_table(G)
    with pytest.raises(CharTableError):
        t.decompose([[(1,), (1,), (0,)]])
    with pytest.raises(CharTableError):
        t.decompose([[(1,), (1,), (1, 1, 0)]])
