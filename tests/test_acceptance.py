"""Acceptance battery: one checker per shipped guarantee, one report line each.

Runs under pytest (one test per criterion, in order) or directly via
``python3 tests/test_acceptance.py``.  Every equality asserted here is exact
integer or cyclotomic arithmetic; the only tolerances anywhere are the pinned
wall-clock budgets (criterion 1: 60s, criterion 2: 600s).
"""

import os
import random
import sys
import tempfile
import time

from _burnside import burnside_character_rows
from _cyclo_reference import Cyclo, reference_rows, reference_values
from _perm_reference import mul
from parity_inductor import (
    GenChar,
    character_table,
    decompose_structural,
    determinant,
    dihedral_symbol,
    family_for,
    flatten_to_certificate,
    full_assignment,
    group_from_cycles,
    has_trivial_determinant,
    induce,
    irreducible_char,
    is_hyperelementary,
    load_bundled_catalog,
    membership_solve,
    order2_linear_chars,
    parity_table,
    parse_group_spec,
    perm_char,
    quadratic_symbol,
    random_S_element,
    required_sha_primes,
    rho_H,
    solomon_coefficients,
    span_report,
    subgroup_lattice,
    trivial_char,
    verify_certificate,
)
from parity_inductor.cli import main as cli_main

_CRITERIA = []
_CACHE = {}


def _criterion(number, name):
    def register(fn):
        _CRITERIA.append((number, name, fn))
        return fn

    return register


def _entries():
    if "entries" not in _CACHE:
        _CACHE["entries"] = load_bundled_catalog()
    return _CACHE["entries"]


def _entry_group(name):
    for entry in _entries():
        if entry.name == name:
            return entry.group
    raise KeyError(name)


def _run(number):
    number, name, fn = next(c for c in _CRITERIA if c[0] == number)
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException as exc:
        print("criterion %2d: FAIL - %s (%s)" % (number, name, exc))
        raise
    print("criterion %2d: PASS - %s (%s, %.1fs)" % (number, name, detail, time.perf_counter() - start))


# ------------------------------------------------------------- criterion 1


@_criterion(1, "character tables: exact orthogonality and small-order oracle")
def _check_character_tables():
    start = time.perf_counter()
    oracle_matched = 0
    for entry in _entries():
        G = entry.group
        table = character_table(G)
        k = table.class_count()
        order = G.order()
        sizes = [c.size for c in table.classes]
        rows = reference_rows(table)
        conj = table.conj_rows
        assert sum(d * d for d in table.degrees) == order, entry.name
        for i in range(k):
            for j in range(i, k):
                s = Cyclo.rational(0)
                for c in range(k):
                    s = s + rows[i][c] * rows[conj[j]][c] * sizes[c]
                assert s == (order if i == j else 0), (entry.name, "rows", i, j)
        for a in range(k):
            for b in range(a, k):
                s = Cyclo.rational(0)
                for i in range(k):
                    s = s + rows[i][a] * rows[conj[i]][b]
                centralizer = order // sizes[a]
                assert s == (centralizer if a == b else 0), (entry.name, "cols", a, b)
        if order <= 24:
            unmatched = list(burnside_character_rows(G, seed=11))
            for row in rows:
                hits = [o for o in unmatched if all(x == y for x, y in zip(row, o))]
                assert len(hits) == 1, (entry.name, "row not in oracle table")
                unmatched.remove(hits[0])
            assert not unmatched, entry.name
            oracle_matched += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    return "%d tables exact, %d matched against the commutator-algebra oracle" % (
        len(_entries()),
        oracle_matched,
    )


def test_criterion_01_character_tables():
    _run(1)


# ------------------------------------------------------------- criterion 2


@_criterion(2, "full catalog certification sweep through the command line")
def _check_full_sweep():
    start = time.perf_counter()
    out = os.path.join(tempfile.mkdtemp(), "verify.txt")
    code = cli_main(
        ["verify", "--max-order", "128", "--samples", "20", "--seed", "0", "--out", out]
    )
    elapsed = time.perf_counter() - start
    with open(out) as handle:
        text = handle.read()
    total = len(_entries())
    assert code == 0, "verify exited %d" % code
    assert "FAILED" not in text
    assert text.rstrip().endswith("certified %d/%d groups" % (total, total))
    targets = text.count(": certified")
    assert targets == sum(
        len(subgroup_lattice(e.group).records) + 20 for e in _entries()
    )
    assert elapsed < 600.0, "budget exceeded: %.1fs" % elapsed
    return "%d groups, %d targets certified" % (total, targets)


def test_criterion_02_full_sweep():
    _run(2)


# ------------------------------------------------------------- criterion 3


@_criterion(3, "D42 certifies with odd dihedral twists only")
def _check_d42_usage():
    G = _entry_group("D42")
    allowed = {"Dihedral2p(3)", "Dihedral2p(7)"}
    family = family_for(G, "thm12")
    tags = {str(desc.tag) for desc in family.generators if desc.kind == "type2"}
    assert tags == allowed, tags
    report = span_report(G, "thm12", name="D42", samples=20, seed=0)
    assert report.all_certified
    used = set(report.usage)
    assert used <= allowed | {"type1"}, used
    assert allowed <= used, used
    return "usage %s" % ", ".join(sorted(used))


def test_criterion_03_d42_usage():
    _run(3)


# ------------------------------------------------------------- criterion 4


def _permutation_sign(images):
    seen = [False] * len(images)
    cycles = 0
    for i in range(len(images)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
    return 1 if (len(images) - cycles) % 2 == 0 else -1


def _coset_sign_values(G, rec):
    """Sign of each class representative acting on the left cosets of rec."""
    coset_of = {}
    reps = []
    for x in G.elements():
        if x in coset_of:
            continue
        index = len(reps)
        reps.append(x)
        for h in rec.element_set():
            coset_of[mul(x, h)] = index
    signs = []
    for cls in G.conjugacy_classes():
        images = [coset_of[mul(cls.rep, r)] for r in reps]
        signs.append(_permutation_sign(images))
    return signs


def _induced_determinant_trials(name, G, rec):
    K = rec.as_group()
    ht = character_table(K)
    k = ht.class_count()
    lifted = [induce(rec, irreducible_char(ht, i)) for i in range(k)]
    rng = random.Random("tau:%s:%d" % (name, rec.class_id))
    for trial in range(50):
        raw = [rng.randrange(3) for _ in range(k)]
        sym = [raw[i] + raw[ht.conj_rows[i]] for i in range(k)]
        tau = GenChar(ht, sym)
        assert tau.degree % 2 == 0
        assert has_trivial_determinant(tau)
        total = None
        for i in range(k):
            term = lifted[i] * sym[i]
            total = term if total is None else total + term
        if trial == 0:
            assert induce(rec, tau) == total, (name, rec.label)
        assert has_trivial_determinant(total), (name, rec.label, trial)
    return 50


@_criterion(4, "determinant laws for coset and induced characters")
def _check_determinant_laws():
    pairs = 0
    trials = 0
    for entry in _entries():
        G = entry.group
        k = character_table(G).class_count()
        for rec in subgroup_lattice(G).records:
            delta = reference_values(determinant(perm_char(G, rec)))
            signs = _coset_sign_values(G, rec)
            for c in range(k):
                assert delta[c] == signs[c], (entry.name, rec.label, c)
            pairs += 1
            trials += _induced_determinant_trials(entry.name, G, rec)
    return "%d subgroup pairs, %d induced trials" % (pairs, trials)


def test_criterion_04_determinant_laws():
    _run(4)


# ------------------------------------------------------------- criterion 5


@_criterion(5, "every generator of both flavors is degree 0 with trivial determinant")
def _check_generator_soundness():
    count = 0
    for entry in _entries():
        for flavor in ("thm12", "cor29"):
            for desc in family_for(entry.group, flavor).generators:
                assert desc.expansion.degree == 0, (entry.name, flavor, desc.gen_id)
                assert has_trivial_determinant(desc.expansion), (
                    entry.name,
                    flavor,
                    desc.gen_id,
                )
                count += 1
    return "%d generators over %d groups x 2 flavors" % (count, len(_entries()))


def test_criterion_05_generator_soundness():
    _run(5)


# ------------------------------------------------------------- criterion 6


@_criterion(6, "trivial character resolves integrally over transitive coset characters")
def _check_trivial_resolution():
    for entry in _entries():
        G = entry.group
        table = character_table(G)
        terms = solomon_coefficients(G)
        assert terms, entry.name
        total = None
        for rec, n in terms:
            assert is_hyperelementary(rec.as_group()) is not None, (entry.name, rec.label)
            part = perm_char(G, rec) * n
            total = part if total is None else total + part
        assert total == trivial_char(table), entry.name
    return "all %d groups, A5 and S5 included" % len(_entries())


def test_criterion_06_trivial_resolution():
    _run(6)


# ------------------------------------------------------------- criterion 7


@_criterion(7, "both flavors certify identical target sets up to order 64")
def _check_flavor_agreement():
    groups = 0
    probes = 0
    for entry in _entries():
        G = entry.group
        if G.order() > 64:
            continue
        table = character_table(G)
        families = (family_for(G, "thm12"), family_for(G, "cor29"))
        targets = [(rho_H(G, rec), True) for rec in subgroup_lattice(G).records]
        for i in range(5):
            targets.append((random_S_element(G, seed=700 + i, bound=3), True))
        for eps in order2_linear_chars(G):
            targets.append((eps.genchar - trivial_char(table), False))
        rng = random.Random("probe:%s" % entry.name)
        degrees = table.degrees
        anchor = degrees.index(1)
        for _ in range(5):
            coeffs = [rng.randint(-2, 2) for _ in range(table.class_count())]
            coeffs[anchor] -= sum(c * d for c, d in zip(coeffs, degrees))
            targets.append((GenChar(table, coeffs), None))
        for target, expect in targets:
            certs = [membership_solve(target, family) for family in families]
            found = [cert is not None for cert in certs]
            if expect is True:
                assert found == [True, True], (entry.name, "target should certify")
            elif expect is False:
                assert found == [False, False], (entry.name, "probe should fail")
            else:
                assert found[0] == found[1], (entry.name, "flavors disagree")
            for cert in certs:
                if cert is not None:
                    assert verify_certificate(cert)
            probes += 1
        groups += 1
    return "%d groups, %d shared targets" % (groups, probes)


def test_criterion_07_flavor_agreement():
    _run(7)


# ------------------------------------------------------------- criterion 8


_TREE_VOCABULARY = frozenset(
    ["Leaf", "Induced", "Inflated", "Lemma2.3", "Lemma2.4", "Lemma2.5", "Lemma2.7"]
    + ["Thm2.8.case%d" % n for n in (1, 2, 3, 4)]
    + ["Prop2.6.case%d" % n for n in (1, 2, 3, 4)]
)


def _walk_kinds(node):
    yield node.kind
    for child in node.children:
        for kind in _walk_kinds(child):
            yield kind


def _tree_rules(G):
    order = G.order()
    odd = order
    while odd % 2 == 0:
        odd //= 2
    if order % 2 == 1:
        return {"Lemma2.4"}, frozenset(["Lemma2.4", "Lemma2.3", "Leaf"])
    if odd == 1:
        forbidden = {"Lemma2.4", "Lemma2.7"} | {k for k in _TREE_VOCABULARY if k.startswith("Prop")}
        return {"Lemma2.5"}, _TREE_VOCABULARY - forbidden
    if is_hyperelementary(G) is not None:
        return {"Lemma2.5", "Lemma2.4"}, _TREE_VOCABULARY - {"Lemma2.7"}
    return {"Lemma2.7"}, _TREE_VOCABULARY


@_criterion(8, "structural decomposition trees up to order 48")
def _check_structural_trees():
    trees = 0
    general_roots = 0
    for entry in _entries():
        G = entry.group
        if G.order() > 48:
            continue
        roots, allowed = _tree_rules(G)
        for rec in subgroup_lattice(G).records:
            rho = rho_H(G, rec)
            tree = decompose_structural(G, rho)
            cert = flatten_to_certificate(tree)
            assert verify_certificate(cert), (entry.name, rec.label)
            assert cert.target == rho, (entry.name, rec.label)
            kinds = list(_walk_kinds(tree))
            assert tree.kind in roots, (entry.name, rec.label, tree.kind)
            assert set(kinds) <= allowed, (entry.name, rec.label, set(kinds) - allowed)
            if tree.kind == "Lemma2.7":
                assert kinds.count("Lemma2.7") == 1, (entry.name, rec.label)
                general_roots += 1
            trees += 1
    assert general_roots > 0
    return "%d trees flattened and re-verified" % trees


def test_criterion_08_structural_trees():
    _run(8)


# ------------------------------------------------------------- criterion 9


def _parity_battery_groups():
    return [
        ("S3", parse_group_spec("S3")),
        ("D10", parse_group_spec("D10")),
        ("D14", parse_group_spec("D14")),
        ("C2xC2", group_from_cycles(["(1 2)", "(3 4)"])),
        ("S4", parse_group_spec("S4")),
    ]


def _assert_flip(G, assignment, symbol):
    for row in parity_table(G, assignment).rows:
        expected = -1 if symbol in row.expression.symbols else 1
        assert row.value == expected, (symbol, row.label)


@_criterion(9, "parity tables respond to each input symbol exactly on its rows")
def _check_parity_battery():
    rows_checked = 0
    for name, G in _parity_battery_groups():
        table = parity_table(G, full_assignment(G))
        assert all(row.value == 1 for row in table.rows), name
        rows_checked += len(table.rows)
        quad_rows = [eps.row for eps in order2_linear_chars(G)]
        twist_ids = [
            desc.gen_id
            for desc in family_for(G, "thm12").generators
            if desc.kind == "type2"
        ]
        _assert_flip(G, full_assignment(G, base=-1), ("base",))
        for r in quad_rows:
            _assert_flip(G, full_assignment(G, quadratic={r: -1}), quadratic_symbol(r))
        for gid in twist_ids:
            _assert_flip(G, full_assignment(G, dihedral={gid: -1}), dihedral_symbol(gid))
        if name == "S3":
            assert len(twist_ids) == 1
            flipped = parity_table(G, full_assignment(G, dihedral={twist_ids[0]: -1}))
            for row in flipped.rows:
                assert row.value == (-1 if row.index == 3 else 1), row.label
        rng = random.Random("echo:%s" % name)
        for _ in range(3):
            base = rng.choice([1, -1])
            quads = {r: rng.choice([1, -1]) for r in quad_rows}
            twists = {g: rng.choice([1, -1]) for g in twist_ids}
            assignment = full_assignment(G, base=base, quadratic=quads, dihedral=twists)
            for row in parity_table(G, assignment).rows:
                if row.index != 2:
                    continue
                delta = determinant(perm_char(G, row.record))
                assert not delta.is_trivial()
                wanted = {("base",), quadratic_symbol(delta.row)}
                assert row.expression.symbols == wanted, (name, row.label)
                assert row.value == base * quads[delta.row], (name, row.label)
    return "5 groups, %d table rows, every symbol flipped" % rows_checked


def test_criterion_09_parity_battery():
    _run(9)


# ------------------------------------------------------------- criterion 10


@_criterion(10, "minimal twist-prime requirements pinned on four groups")
def _check_required_primes():
    cases = [
        ("S3", parse_group_spec("S3"), {3}, False),
        ("C2xC2", group_from_cycles(["(1 2)", "(3 4)"]), set(), True),
        ("D42", parse_group_spec("D42"), {3, 7}, False),
        ("S4", parse_group_spec("S4"), {3}, True),
    ]
    for name, G, odd, needs2 in cases:
        primes, flag = required_sha_primes(G)
        assert set(primes) == odd, (name, primes)
        assert flag == needs2, (name, flag)
    return "S3 ({3}, no 2), C2xC2 (none, needs 2), D42 ({3,7}, no 2), S4 ({3}, needs 2)"


def test_criterion_10_required_primes():
    _run(10)


if __name__ == "__main__":
    failures = 0
    for num, _name, _fn in _CRITERIA:
        try:
            _run(num)
        except BaseException:
            failures += 1
    sys.exit(1 if failures else 0)
