import json
import random
import subprocess
import sys

import pytest
from _intlinalg_reference import echelon as reference_echelon
from _intlinalg_reference import hnf as reference_hnf
from _intlinalg_reference import identity_matrix, reduce_mod_lattice, solve_left_canonical

from parity_inductor import decompose, intlinalg, membership
from parity_inductor._primes import prime_factors
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.chartab import character_table
from parity_inductor.genchar import rho_H, trivial_char
from parity_inductor.generators import family_for
from parity_inductor.groupspec import parse_group_spec
from parity_inductor.intlinalg import hnf, linear_combination
from parity_inductor.lattice import subgroup_lattice
from parity_inductor.spanreport import span_report


def mat_mul(a, b):
    if not a:
        return []
    rows, inner = len(a), len(a[0])
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def bareiss_det(a):
    """Fraction-free determinant, used as an independent check."""
    m = [row[:] for row in a]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_linear_combination_is_the_row_vector_times_the_matrix():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x = [rng.choice([0, 0, -3, 1, 2]) for _ in range(m)]
        assert linear_combination(zip(x, a), n) == mat_mul([x], a)[0]
    assert linear_combination([], 3) == [0, 0, 0]


def test_hnf_small_example():
    res = hnf([[2, 4], [1, 3]])
    assert res.h == [[1, 1], [0, 2]]
    assert res.rank == 2
    assert res.pivot_cols == [0, 1]
    assert mat_mul(res.u, [[2, 4], [1, 3]]) == res.h
    assert abs(bareiss_det(res.u)) == 1


def test_hnf_unimodular_transform_general():
    cases = [
        [[6, 4, 2], [2, 8, 10], [4, 4, 4]],
        [[0, 0], [0, 0]],
        [[3], [6], [9]],
        [[1, 2, 3]],
        [[5, 0], [0, 0], [10, 7]],
    ]
    for a in cases:
        res = hnf(a)
        assert mat_mul(res.u, a) == res.h
        if len(a) == len(a[0]) or len(a) >= 1:
            assert abs(bareiss_det(res.u)) == 1
        # pivots positive, entries above reduced
        for r, c in enumerate(res.pivot_cols):
            piv = res.h[r][c]
            assert piv > 0
            for r2 in range(r):
                assert 0 <= res.h[r2][c] < piv
        # rows beyond rank are zero
        for row in res.h[res.rank :]:
            assert not any(row)


def test_kernel_basis():
    k = hnf([[1, 1], [2, 2]]).kernel
    assert len(k) == 1
    assert mat_mul(k, [[1, 1], [2, 2]]) == [[0, 0]]
    assert k == [[-2, 1]]
    assert hnf([[1, 0], [0, 1]]).kernel == []


def test_solve_left():
    a = [[1, 1], [0, 2]]
    assert hnf(a).solve([1, 3]) == [1, 1]
    assert hnf([[2, 0], [0, 1]]).solve([1, 0]) is None
    assert hnf([[2, 0], [0, 1]]).solve([4, 7]) == [2, 7]


def test_solve_left_no_integer_solution():
    # 3x = 2 over the integers has no solution
    assert hnf([[3]]).solve([2]) is None


def test_reduce_mod_lattice():
    # the reference reduction behind the differential tests
    assert reduce_mod_lattice([5, 7], [[2, 0], [0, 3]]) == [1, 1]
    assert reduce_mod_lattice([5, 7], []) == [5, 7]
    assert reduce_mod_lattice([-1, 0], [[2, 0], [0, 3]]) == [1, 0]
    # solve reduces modulo the HNF of the kernel, here the row (1, -1, 0)
    a = [[1, 0], [1, 0], [0, 1]]
    res = hnf(a)
    assert hnf(res.kernel).h == [[1, -1, 0]]
    for b in ([5, 7], [-1, 0], [0, 0]):
        x = res.solve(b)
        assert mat_mul([x], a) == [b]
        assert x[0] == 0


def test_solve_left_canonical():
    a = [[1, 0], [1, 0]]
    x = hnf(a).solve([3, 0])
    assert x == [0, 3]
    assert mat_mul([x], a) == [[3, 0]]


def test_solve_rejects_a_wrong_length_target():
    res = hnf([[1, 1], [0, 2]])
    for b in ([1], [1, 3, 0], []):
        with pytest.raises(ValueError):
            res.solve(b)


def test_solve_over_an_empty_lattice():
    # no rows: only the empty zero vector is reached
    res = hnf([])
    assert res.rank == 0 and res.kernel == []
    assert res.solve([]) == []
    assert res.solve([0, 0]) == []
    assert res.solve([1]) is None
    # zero rows span {0}; the canonical solution is the zero combination
    res = hnf([[0, 0], [0, 0]])
    assert res.rank == 0 and res.kernel == [[1, 0], [0, 1]]
    assert res.solve([0, 0]) == [0, 0]
    assert res.solve([0, 1]) is None


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert mat_mul(identity_matrix(3), identity_matrix(3)) == identity_matrix(3)


def _lattices(G):
    """(name, matrix, HNF, degree zero) for every HNF that src solves against on G."""
    out = []
    for flavor in ("thm12", "cor29"):
        family = family_for(G, flavor)
        out.append((flavor, family.matrix, family.hnf() or hnf([]), True))
    _, chars, lattice = membership._perm_lattice(G)
    out.append(("perm", [list(ch.coeffs) for ch in chars], lattice, False))
    subfamilies = [
        ("Lemma2.3", decompose._lemma23_family(G)),
        ("Lemma2.4", decompose._lemma24_family(G)),
    ]
    for q in sorted(prime_factors(G.order()) - {2}):
        subfamilies.append(("Prop2.6(%d)" % q, decompose._prop26_family(G, q)))
    for name, family in subfamilies:
        out.append((name, family.matrix, family.hnf() or hnf([]), True))
    return out


def _check_solve_against_reference(G):
    targets = [rho_H(G, rec) for rec in subgroup_lattice(G).records]
    targets += [membership.random_S_element(G, seed, 4) for seed in (0, 1)]
    one = list(trivial_char(character_table(G)).coeffs)
    for name, matrix, res, degree_zero in _lattices(G):
        for rho in targets:
            b = list(rho.coeffs)
            assert res.solve(b) == solve_left_canonical(matrix, b), name
        x = res.solve(one)
        assert x == solve_left_canonical(matrix, one), name
        # the trivial character has degree 1: off every degree-zero lattice
        assert (x is None) == degree_zero, name


SMALL = (
    "C1", "C2", "C6", "C12", "C15", "D6", "D8", "D10", "D12", "C2xC2", "Q8", "A4", "S4",
    "SL(2,3)", "F5:4", "F7:3", "A5",
)


@pytest.mark.parametrize("name", SMALL)
def test_solve_matches_reference(name):
    by_name = {e.name: e.group for e in load_bundled_catalog()}
    _check_solve_against_reference(by_name[name])


@pytest.mark.large
def test_solve_matches_reference_on_catalog():
    for entry in load_bundled_catalog():
        if entry.name not in SMALL:
            _check_solve_against_reference(entry.group)


def _fields(res):
    return res.h, res.u, res.rank, res.pivot_cols


def _random_matrix(rng, m, n, entries):
    return [[rng.choice(entries) for _ in range(n)] for _ in range(m)]


def _random_matrices(count=3000, seed=12):
    """Seeded matrices of every shape the HNF meets: empty, zero rows, more rows
    than columns, rank-deficient, and with negative entries."""
    rng = random.Random(seed)
    out = [[], [[]], [[], []], [[0, 0, 0]], [[0], [0]]]
    entries = (0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -9)
    while len(out) < count:
        m, n = rng.randint(1, 8), rng.randint(1, 6)
        a = _random_matrix(rng, m, n, entries)
        kind = rng.randrange(4)
        if kind == 1:
            # rank-deficient: extra rows are integer combinations of the first
            a += [[sum(rng.randint(-3, 3) * row[j] for row in a) for j in range(n)]
                  for _ in range(rng.randint(1, 3))]
        elif kind == 2:
            a.insert(rng.randrange(m + 1), [0] * n)
        elif kind == 3:
            # non-unit pivots: scale whole columns
            a = [[x * (j + 2) for j, x in enumerate(row)] for row in a]
        out.append(a)
    return out


def test_hnf_matches_reference_on_random_matrices():
    tall = deficient = 0
    for a in _random_matrices():
        res = hnf(a)
        assert _fields(res) == _fields(reference_hnf(a)), a
        tall += bool(a) and len(a) > len(a[0])
        deficient += res.rank < len(a) <= len(a[0] if a else ())
    assert tall > 500 and deficient > 200


# The sparse elimination loop against the dense reference: written out dense,
# the same rows in the same order, and the same pivot columns.


def _echelon_matches_reference(dense, width):
    total = len(dense[0]) if dense else 0
    rows, pivot_cols = intlinalg._echelon([{c: x for c, x in enumerate(row) if x} for row in dense], width)
    written = [[row.get(c, 0) for c in range(total)] for row in rows]
    return (written, pivot_cols) == reference_echelon(dense, width)


def _with_identity(a):
    """[a | I], the rows `hnf` eliminates."""
    return [list(row) + e for row, e in zip(a, identity_matrix(len(a)))]


def test_sparse_echelon_matches_reference_on_random_matrices():
    """Counted on each matrix's first column: a lone negative entry (a sign
    flip), entries of equal size (the sort's ties) and entries the smallest
    does not divide (more than one Euclid round)."""
    negative = ties = rounds = 0
    for a in _random_matrices():
        width = len(a[0]) if a else 0
        assert _echelon_matches_reference(a, width), a
        assert _echelon_matches_reference(_with_identity(a), width), a
        live = [row[0] for row in a if row and row[0]]
        negative += len(live) == 1 and live[0] < 0
        ties += len({abs(x) for x in live}) < len(live)
        rounds += bool(live) and any(x % min(live, key=abs) for x in live)
    assert negative > 150 and ties > 1000 and rounds > 300, (negative, ties, rounds)


@pytest.fixture(scope="module")
def catalog_families():
    return [
        (entry.name, flavor, family_for(entry.group, flavor))
        for entry in load_bundled_catalog()
        for flavor in ("thm12", "cor29")
    ]


def test_hnf_matches_reference_on_catalog_families(catalog_families):
    for name, flavor, family in catalog_families:
        if len(family):
            assert _fields(family.hnf()) == _fields(reference_hnf(family.matrix)), (name, flavor)


def test_sparse_echelon_matches_reference_on_catalog_lattices(catalog_families):
    """Every family's kernel and [a | I], and [a | I] of the permutation lattice."""
    groups = {}
    for name, flavor, family in catalog_families:
        groups[name] = family.group
        if len(family):
            assert _echelon_matches_reference(family.hnf().kernel, len(family)), (name, flavor)
            width = family.table.class_count()
            assert _echelon_matches_reference(_with_identity(family.matrix), width), (name, flavor)
    for name, G in groups.items():
        _, chars, _ = membership._perm_lattice(G)
        matrix = [list(ch.coeffs) for ch in chars]
        assert _echelon_matches_reference(_with_identity(matrix), len(matrix[0])), name


def test_sparse_echelon_matches_reference_on_the_even_kernels(monkeypatch):
    """The [a | I] of every `kernel_mod2` call on fresh catalog groups: their row
    order fixes S_G's random targets and cor29's tagged generators."""
    seen = {}
    real = intlinalg.hnf

    def recorded(a):
        builder = sys._getframe(2).f_code.co_name
        seen[builder] = seen.get(builder, 0) + 1
        width = len(a[0])
        assert _echelon_matches_reference(_with_identity(a), width), (builder, a)
        return real(a)

    monkeypatch.setattr(intlinalg, "hnf", recorded)
    for entry in load_bundled_catalog():
        family_for(entry.group, "cor29")
        membership._admissible_lattice(entry.group)
    assert set(seen) == {"_admissible_lattice", "_real_zero_lattice_basis"}, seen
    assert seen["_admissible_lattice"] == 61 and seen["_real_zero_lattice_basis"] > 100, seen


def test_zero_target_gives_the_zero_solution(catalog_families):
    for name, flavor, family in catalog_families:
        res = family.hnf() or hnf([])
        b = [0] * family.table.class_count()
        x = res.solve(b)
        assert x == [0] * len(family), (name, flavor)
        assert x == solve_left_canonical(family.matrix, b), (name, flavor)


def test_solve_matches_reference_on_random_lattices():
    """On- and off-lattice probes of random lattices with non-unit pivots: the
    solve equals the reference, and is the solution whose entries at the
    kernel HNF's pivot columns lie in [0, pivot)."""
    rng = random.Random(7)
    kernel_pivots = lattice_pivots = 0
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 4)
        a = _random_matrix(rng, m, n, (0, 1, -1, 2, -2, 3, 4, -6))
        a = [[x * (j + 1) for j, x in enumerate(row)] for row in a]
        res, ref = hnf(a), reference_hnf(a)
        relations = reference_hnf(ref.kernel) if ref.kernel else None
        lattice_pivots += any(ref.h[k][c] > 1 for k, c in enumerate(ref.pivot_cols))
        kernel_pivots += bool(relations) and any(
            relations.h[k][c] > 1 for k, c in enumerate(relations.pivot_cols)
        )
        for _ in range(4):
            coeffs = [rng.randint(-5, 5) for _ in range(m)]
            b = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)]
            off = list(b)
            off[rng.randrange(n)] += rng.choice((-1, 1))
            for probe in (b, off):
                x = res.solve(probe)
                assert x == solve_left_canonical(a, probe, ref), (a, probe)
                if probe is b:
                    assert mat_mul([x], a) == [b]
                    for k, c in enumerate(relations.pivot_cols if relations else ()):
                        assert 0 <= x[c] < relations.h[k][c]
    assert lattice_pivots > 100 and kernel_pivots > 20


TARGET_STREAM_GROUPS = (
    ("C2^3", "(1 2),(3 4),(5 6)"),
    pytest.param("D8xC2", "(1 2 3 4),(1 3),(5 6)", marks=pytest.mark.large),
    pytest.param("S4xC2", "(1 2 3 4),(1 2),(5 6)", marks=pytest.mark.large),
    ("D64", "D64"),
)


@pytest.mark.parametrize("name,spec", TARGET_STREAM_GROUPS)
def test_solve_matches_reference_on_target_stream_groups(name, spec):
    """Every target the benchmark's target_stream solves on these groups."""
    G = parse_group_spec(spec)
    family = family_for(G, "thm12")
    ref = reference_hnf(family.matrix)
    targets = [rho_H(G, rec) for rec in subgroup_lattice(G).records]
    targets += [membership.random_S_element(G, seed, 4) for seed in range(8)]
    for rho in targets:
        b = list(rho.coeffs)
        assert family.hnf().solve(b) == solve_left_canonical(family.matrix, b, ref)
    one = list(trivial_char(character_table(G)).coeffs)
    assert family.hnf().solve(one) is None
    assert solve_left_canonical(family.matrix, one, ref) is None


# Batched solves: one kernel echelon per call, each answer the reference's.


def _mixed_batch(G, table):
    """Every rho_H, 20 random targets, zero targets and off-lattice probes
    (each shifted by the trivial character, so of degree 1), shuffled."""
    targets = [list(rho_H(G, rec).coeffs) for rec in subgroup_lattice(G).records]
    targets += [list(membership.random_S_element(G, seed, 4).coeffs) for seed in range(20)]
    zero = [0] * table.class_count()
    one = list(trivial_char(table).coeffs)
    off = [[x + y for x, y in zip(b, one)] for b in targets[::7]]
    batch = [zero, zero] + targets + off + [one]
    random.Random(len(batch)).shuffle(batch)
    return batch


def _check_batch(res, matrix, batch, where):
    ref = reference_hnf(matrix)
    expected = [solve_left_canonical(matrix, b, ref) for b in batch]
    assert res.solve_all(batch) == expected, where
    return expected


def test_solve_all_matches_reference_on_catalog_families(catalog_families):
    groups, batches, offs = {}, {}, 0
    for name, flavor, family in catalog_families:
        G = groups.setdefault(name, family.group)
        batch = batches.setdefault(name, _mixed_batch(G, family.table))
        expected = _check_batch(family.hnf() or hnf([]), family.matrix, batch, (name, flavor))
        offs += expected.count(None)
    assert len(batches) == 61 and offs > 250, offs
    for name, batch in batches.items():
        _, chars, lattice = membership._perm_lattice(groups[name])
        _check_batch(lattice, [list(ch.coeffs) for ch in chars], batch, (name, "perm"))


def test_solve_all_of_an_empty_batch_is_empty():
    assert hnf([]).solve_all([]) == []
    assert hnf([[1, 1], [0, 2], [1, 3]]).solve_all([]) == []


def test_solve_all_rejects_a_wrong_length_target():
    res = hnf([[1, 1], [0, 2]])
    for b in ([1], [1, 3, 0], []):
        with pytest.raises(ValueError):
            res.solve_all([[1, 1], b, [0, 2]])


def test_solve_all_builds_the_kernel_echelon_only_when_a_target_needs_it(monkeypatch):
    calls = []
    real = intlinalg._echelon

    def counted(rows, width):
        calls.append(len(rows))
        return real(rows, width)

    res = hnf([[1, 0], [1, 0], [0, 2]])
    monkeypatch.setattr(intlinalg, "_echelon", counted)
    assert res.solve_all([[0, 0], [0, 1], [1, 1]]) == [[0, 0, 0], None, None]
    assert calls == []
    assert res.solve_all([[0, 0], [3, 0], [0, 1], [2, 4], [5, 2]]) == [
        [0, 0, 0], [0, 3, 0], None, [0, 2, 2], [0, 5, 1],
    ]
    assert calls == [1]


# The sparse result in use: no solve path writes out a dense view, and the
# large families' HNFs fit in memory.

DENSE_VIEWS = {"h", "u"}  # `kernel` is a slice of `u`


def test_no_solve_path_builds_a_dense_view(monkeypatch):
    """Span reports over the catalog in both flavors, target_stream's solves on
    D8xC2 and flattened S4 trees, on fresh groups: every HnfResult built leaves
    its cached dense views unread, the families' and `_perm_lattice`'s among
    them."""
    built = []
    real = intlinalg.HnfResult

    def recorded(*fields):
        built.append(real(*fields))
        return built[-1]

    monkeypatch.setattr(intlinalg, "HnfResult", recorded)
    groups = [entry.group for entry in load_bundled_catalog()]
    for G in groups:
        for flavor in ("thm12", "cor29"):
            assert span_report(G, flavor, samples=2).all_certified
    G = parse_group_spec("(1 2 3 4),(1 3),(5 6)")
    family = family_for(G, "thm12")
    targets = [rho_H(G, rec) for rec in subgroup_lattice(G).records]
    targets += [membership.random_S_element(G, seed, 4) for seed in range(8)]
    for rho in targets:
        assert membership.verify_certificate(membership.membership_solve(rho, family))
    S4 = parse_group_spec("S4")
    for rec in subgroup_lattice(S4).records:
        tree = decompose.decompose_structural(S4, rho_H(S4, rec))
        assert membership.verify_certificate(decompose.flatten_to_certificate(tree))
    lattices = [family_for(H, flavor).hnf() for H in groups for flavor in ("thm12", "cor29")]
    lattices += [family.hnf(), membership._perm_lattice(S4)[2]]
    ids = {id(res) for res in built}
    assert all(id(res) in ids for res in lattices if res is not None)
    assert len(built) > 300, len(built)
    for res in built:
        assert not DENSE_VIEWS & set(vars(res)), sorted(DENSE_VIEWS & set(vars(res)))


def test_a_read_dense_view_is_cached_and_seen_by_the_guard():
    res = hnf([[2, 4], [1, 3], [1, 1]])
    assert res.solve([1, 3]) is not None and not DENSE_VIEWS & set(vars(res))
    kernel = res.kernel
    assert DENSE_VIEWS & set(vars(res)) == {"u"} and kernel == [res.u[2]]
    assert res.h is res.h and DENSE_VIEWS <= set(vars(res))


def _family_hnf_in_a_fresh_process(n):
    """Build C2^n's thm12 family and its HNF in a fresh process, whose parent
    reads its one child's CPU time and peak RSS."""
    spec = ",".join("(%d %d)" % (i, i + 1) for i in range(1, 2 * n, 2))
    child = (
        "from parity_inductor.groupspec import parse_group_spec\n"
        "from parity_inductor.generators import family_for\n"
        "family = family_for(parse_group_spec(%r), 'thm12')\n"
        "print(len(family), family.hnf().rank)\n" % spec
    )
    probe = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-c', %r], capture_output=True, text=True)\n"
        "use = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr,"
        " use.ru_utime + use.ru_stime, use.ru_maxrss]))\n" % child
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=600)
    return json.loads(proc.stdout)


@pytest.mark.large
@pytest.mark.parametrize(
    "n, out, mb_bound",
    [
        # with a dense transform u (4,092 x 4,092) this peaked at 174 MB
        (5, "4092 31\n", 105),
        # the dense u, 46,998 x 46,998 entries, ran out of memory; with the
        # sparse rows this peaked at 551 MB while every twist candidate was
        # built before duplicates were dropped, and at 291 MB with them keyed
        (6, "46998 63\n", 440),
    ],
    ids=["C2^5", "C2^6"],
)
def test_family_hnf_of_an_elementary_abelian_group_fits_in_memory(n, out, mb_bound):
    code, got, err, cpu_s, peak_kb = _family_hnf_in_a_fresh_process(n)
    assert (code, got, err) == (0, out, "")
    assert peak_kb < mb_bound * 1024, (cpu_s, peak_kb)
