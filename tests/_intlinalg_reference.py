"""Reference HNF, echelon and lattice solves, each solve taking its own HNF of the matrix.

`hnf` is the row HNF that updates h and its transform u in parallel, `echelon`
is the dense elimination loop `src/` ran before its rows went sparse, and the
solves are the ones `src/` used before `HnfResult.solve`.  `DenseHnf` is the
dense result `src/` returned before its result kept sparse rows.  Nothing here
comes from `src/`; they stay here as the independent side of the differential
tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DenseHnf:
    """Row Hermite normal form h = u @ a with u unimodular, h and u dense.

    Pivot rows come first (rank of them); pivots are positive and entries
    above each pivot are reduced into [0, pivot).
    """

    h: list
    u: list
    rank: int
    pivot_cols: list


def kernel(res):
    """Basis of the left kernel {x : x @ a = 0} of a row HNF result of a, as
    rows: its transform's rows past the rank, for a `DenseHnf` and for the
    package's `HnfResult` alike."""
    return res.u[res.rank:]


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def echelon(rows, width):
    """(rows, pivot_cols): an echelon form by integer row operations on dense
    rows, pivoting in the first `width` columns; pivots positive, entries above
    them as left."""
    rows = list(rows)  # rows are replaced, never mutated in place
    m = len(rows)
    r = 0
    pivot_cols = []
    for col in range(width):
        live = [i for i in range(r, m) if rows[i][col]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(rows[i][col]))
            base = rows[live[0]]
            for i in live[1:]:
                q = rows[i][col] // base[col]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], base)]
            live = [i for i in live if rows[i][col]]
        if not live:
            continue
        i = live[0]
        rows[i], rows[r] = rows[r], rows[i]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        pivot_cols.append(col)
        r += 1
    return rows, pivot_cols


def hnf(a) -> DenseHnf:
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(row) for row in a]
    u = identity_matrix(m)
    r = 0
    pivot_cols = []
    for col in range(n):
        live = [i for i in range(r, m) if h[i][col]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(h[i][col]))
            base = live[0]
            for i in live[1:]:
                q = h[i][col] // h[base][col]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[base])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[base])]
            live = [i for i in live if h[i][col]]
        if not live:
            continue
        i = live[0]
        if i != r:
            h[i], h[r] = h[r], h[i]
            u[i], u[r] = u[r], u[i]
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        piv = h[r][col]
        for k in range(r):
            q = h[k][col] // piv
            if q:
                h[k] = [x - q * y for x, y in zip(h[k], h[r])]
                u[k] = [x - q * y for x, y in zip(u[k], u[r])]
        pivot_cols.append(col)
        r += 1
    return DenseHnf(h=h, u=u, rank=r, pivot_cols=pivot_cols)


def kernel_basis(a):
    """Basis of the left kernel {x : x @ a = 0}, as rows."""
    res = hnf(a)
    return [row[:] for row in res.u[res.rank:]]


def solve_left(a, b, hnf_result: DenseHnf | None = None):
    """One integer solution x of x @ a = b, or None if b is off the row lattice."""
    res = hnf_result if hnf_result is not None else hnf(a)
    n = len(a[0]) if a else len(b)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    resid = list(b)
    y = [0] * len(a)
    for k, col in enumerate(res.pivot_cols):
        piv = res.h[k][col]
        if resid[col] % piv:
            return None
        q = resid[col] // piv
        if q:
            y[k] = q
            resid = [x - q * v for x, v in zip(resid, res.h[k])]
    if any(resid):
        return None
    x = [0] * len(a)
    for k in range(res.rank):
        if y[k]:
            x = [xi + y[k] * ui for xi, ui in zip(x, res.u[k])]
    return x


def reduce_mod_lattice(x, basis):
    """Canonical coset representative of x modulo the row lattice of basis."""
    if not basis:
        return list(x)
    res = hnf(basis)
    x = list(x)
    for k, col in enumerate(res.pivot_cols):
        piv = res.h[k][col]
        q = x[col] // piv
        if q:
            x = [xi - q * v for xi, v in zip(x, res.h[k])]
    return x


def solve_left_canonical(a, b, hnf_result: DenseHnf | None = None):
    """Deterministic solution of x @ a = b: particular solve reduced mod kernel."""
    res = hnf_result if hnf_result is not None else hnf(a)
    x = solve_left(a, b, res)
    if x is None:
        return None
    kernel = [row[:] for row in res.u[res.rank:]]
    return reduce_mod_lattice(x, kernel)
