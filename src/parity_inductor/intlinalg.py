"""Exact integer vector and matrix helpers: integer combinations of vectors,
row HNF with transform, canonical lattice solves, and left kernels that are
exact in some columns and mod 2 in the rest (`kernel_mod2`).

Matrices are plain lists of rows of ints; arithmetic is arbitrary precision.
Both the HNF and the solves' reduction run one elimination loop, `_echelon`,
on sparse rows ``{column: nonzero entry}``, since the rows it meets (a family
matrix beside the identity, a kernel of a few nonzeros per row) are mostly
zero; `HnfResult` keeps those rows, and no solve writes one out dense.  A
batch of solves shares one echelon of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub


def linear_combination(pairs, width: int):
    """The sum of c * v over the (c, v) pairs, as a list of ``width`` ints;
    zero coefficients are skipped."""
    total = [0] * width
    for c, v in pairs:
        if c in (1, -1):
            total = list(map(add if c == 1 else sub, total, v))
        elif c:
            total = [t + c * x for t, x in zip(total, v)]
    return total


@dataclass(frozen=True)
class HnfResult:
    """Row Hermite normal form h = u @ a with u unimodular, kept as the sparse
    rows of its elimination: ``h_rows[i]`` and ``u_rows[i]`` are row i of h and
    of u, and ``width`` is a's.

    Pivot rows come first (rank of them); pivots are positive and entries
    above each pivot are reduced into [0, pivot).  The dense ``h`` and ``u``
    are views built when read, for perfbench and the tests.
    """

    h_rows: list
    u_rows: list
    width: int
    rank: int
    pivot_cols: list

    @cached_property
    def h(self):
        return [[row.get(c, 0) for c in range(self.width)] for row in self.h_rows]

    @cached_property
    def u(self):
        return [[row.get(c, 0) for c in range(len(self.u_rows))] for row in self.u_rows]

    def solve(self, b):
        """The canonical x with x @ a = b, or None if b is off the row lattice."""
        return self.solve_all([b])[0]

    def solve_all(self, targets):
        """Per target b, the canonical x with x @ a = b, or None if b is off the
        row lattice: the unique solution with 0 <= x[c] < p at each pivot column
        c (pivot p) of the kernel lattice, i.e. one solution reduced modulo its
        HNF.  The kernel's echelon form is built at most once per call, and only
        when some target has a nonzero solution."""
        out, relations, m = [], None, len(self.u_rows)
        for b in targets:
            if m and len(b) != self.width:
                raise ValueError("dimension mismatch")
            resid = list(b)
            x = [0] * m
            for h, u, col in zip(self.h_rows, self.u_rows, self.pivot_cols):
                q, r = divmod(resid[col], h[col])
                if r:
                    break  # off the lattice: resid stays nonzero
                if q:
                    for c, v in h.items():
                        resid[c] -= q * v
                    for c, v in u.items():
                        x[c] += q * v
            if any(x) and not any(resid):
                if relations is None:
                    relations = list(zip(*_echelon([dict(row) for row in self.u_rows[self.rank:]], m)))
                for row, col in relations:
                    q = x[col] // row[col]
                    if q:
                        for c, v in row.items():
                            x[c] -= q * v
            out.append(None if any(resid) else x)
        return out


def _subtract(row, q, other):
    """row -= q * other on sparse rows, dropping the entries that cancel."""
    for c, y in other.items():
        x = row.get(c, 0) - q * y
        if x:
            row[c] = x
        else:
            del row[c]


def _echelon(rows, width):
    """(rows, pivot_cols): an echelon form by integer row operations, pivoting
    in the first `width` columns; pivots positive, entries above them as left.
    The rows are sparse, ``{column: nonzero entry}``, and are reduced in place;
    the steps are those of the dense loop, so the result is the same."""
    m = len(rows)
    r = 0
    pivot_cols = []
    for col in range(width):
        live = [i for i in range(r, m) if col in rows[i]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(rows[i][col]))
            base = rows[live[0]]
            for i in live[1:]:
                q = rows[i][col] // base[col]
                if q:
                    _subtract(rows[i], q, base)
            live = [i for i in live if col in rows[i]]
        if not live:
            continue
        i = live[0]
        rows[i], rows[r] = rows[r], rows[i]
        if rows[r][col] < 0:
            rows[r] = {c: -x for c, x in rows[r].items()}
        pivot_cols.append(col)
        r += 1
    return rows, pivot_cols


def hnf(a) -> HnfResult:
    m = len(a)
    n = len(a[0]) if m else 0
    # u rides along as columns n.. (one entry per row to start): the same row operations as on a.
    rows, pivot_cols = _echelon([{c: x for c, x in enumerate(v) if x} | {n + i: 1} for i, v in enumerate(a)], n)
    for r, col in enumerate(pivot_cols):
        piv = rows[r][col]
        for k in range(r):
            q = rows[k].get(col, 0) // piv
            if q:
                _subtract(rows[k], q, rows[r])
    h_rows = [{c: x for c, x in row.items() if c < n} for row in rows]
    u_rows = [{c - n: x for c, x in row.items() if c >= n} for row in rows]
    return HnfResult(h_rows, u_rows, n, len(pivot_cols), pivot_cols)


def kernel_mod2(rows, exact: int):
    """Basis of the integer x with x @ rows zero in the first ``exact`` columns
    and even in the others: the left kernel of ``rows`` over 2 * I in those
    columns, cut to len(rows) entries, zero rows dropped."""
    width = len(rows[0])
    evens = [[2 if j == c else 0 for j in range(width)] for c in range(exact, width)]
    res = hnf(list(rows) + evens)
    return [[x.get(c, 0) for c in range(len(rows))] for x in res.u_rows[res.rank:] if min(x) < len(rows)]
