from parity_inductor.intlinalg import (
    hnf,
    identity_matrix,
    kernel_basis,
    reduce_mod_lattice,
    solve_left,
    solve_left_canonical,
)


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
    k = kernel_basis([[1, 1], [2, 2]])
    assert len(k) == 1
    assert mat_mul(k, [[1, 1], [2, 2]]) == [[0, 0]]
    assert k == [[-2, 1]]
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_solve_left():
    a = [[1, 1], [0, 2]]
    assert solve_left(a, [1, 3]) == [1, 1]
    assert solve_left([[2, 0], [0, 1]], [1, 0]) is None
    assert solve_left([[2, 0], [0, 1]], [4, 7]) == [2, 7]


def test_solve_left_no_integer_solution():
    # 3x = 2 over the integers has no solution
    assert solve_left([[3]], [2]) is None


def test_reduce_mod_lattice():
    assert reduce_mod_lattice([5, 7], [[2, 0], [0, 3]]) == [1, 1]
    assert reduce_mod_lattice([5, 7], []) == [5, 7]
    assert reduce_mod_lattice([-1, 0], [[2, 0], [0, 3]]) == [1, 0]


def test_solve_left_canonical():
    a = [[1, 0], [1, 0]]
    x = solve_left_canonical(a, [3, 0])
    assert x == [0, 3]
    assert mat_mul([x], a) == [[3, 0]]


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert mat_mul(identity_matrix(3), identity_matrix(3)) == identity_matrix(3)
