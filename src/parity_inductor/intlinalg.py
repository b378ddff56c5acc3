"""Exact integer vector and matrix helpers: integer combinations of vectors,
row HNF with transform, canonical lattice solves, and left kernels that are
exact in some columns and mod 2 in the rest (`kernel_mod2`).

Matrices are plain lists of rows of ints; arithmetic is arbitrary precision.
Both the HNF and the solves' reduction run one elimination loop, `_echelon`,
on sparse rows ``{column: nonzero entry}``, since the rows it meets (a family
matrix beside the identity, a kernel of a few nonzeros per row) are mostly
zero; `HnfResult` holds its ``h`` and ``u`` dense.  A batch of solves shares
one echelon of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass


def linear_combination(pairs, width: int):
    """The sum of c * v over the (c, v) pairs, as a list of ``width`` ints;
    zero coefficients are skipped."""
    total = [0] * width
    for c, v in pairs:
        if c:
            total = [t + c * x for t, x in zip(total, v)]
    return total


@dataclass(frozen=True)
class HnfResult:
    """Row Hermite normal form h = u @ a with u unimodular.

    Pivot rows come first (rank of them); pivots are positive and entries
    above each pivot are reduced into [0, pivot).
    """

    h: list
    u: list
    rank: int
    pivot_cols: list

    @property
    def kernel(self):
        """Basis of the left kernel {x : x @ a = 0}, as rows."""
        return self.u[self.rank:]

    def solve(self, b):
        """The canonical x with x @ a = b, or None if b is off the row lattice."""
        return self.solve_all([b])[0]

    def solve_all(self, targets):
        """Per target b, the canonical x with x @ a = b, or None if b is off the
        row lattice: the unique solution with 0 <= x[c] < p at each pivot column
        c (pivot p) of the kernel lattice, i.e. one solution reduced modulo its
        HNF.  The kernel's echelon form is built at most once per call, and only
        when some target has a nonzero solution."""
        out, relations = [], None
        for b in targets:
            if self.h and len(b) != len(self.h[0]):
                raise ValueError("dimension mismatch")
            resid = list(b)
            x = [0] * len(self.u)
            for k, col in enumerate(self.pivot_cols):
                q, r = divmod(resid[col], self.h[k][col])
                if r:
                    break  # off the lattice: resid stays nonzero
                if q:
                    resid = [v - q * w for v, w in zip(resid, self.h[k])]
                    x = [xi + q * ui for xi, ui in zip(x, self.u[k])]
            if any(x) and not any(resid):
                if relations is None:
                    relations = list(zip(*_echelon([_sparse(row) for row in self.kernel], len(x))))
                for row, col in relations:
                    q = x[col] // row[col]
                    if q:
                        for c, v in row.items():
                            x[c] -= q * v
            out.append(None if any(resid) else x)
        return out


def _sparse(row):
    """The nonzero entries of a dense row, as ``{column: entry}``."""
    return {c: x for c, x in enumerate(row) if x}


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
    rows, pivot_cols = _echelon([_sparse(row) | {n + i: 1} for i, row in enumerate(a)], n)
    for r, col in enumerate(pivot_cols):
        piv = rows[r][col]
        for k in range(r):
            q = rows[k].get(col, 0) // piv
            if q:
                _subtract(rows[k], q, rows[r])
    h = [[row.get(c, 0) for c in range(n)] for row in rows]
    u = [[row.get(c, 0) for c in range(n, n + m)] for row in rows]
    return HnfResult(h=h, u=u, rank=len(pivot_cols), pivot_cols=pivot_cols)


def kernel_mod2(rows, exact: int):
    """Basis of the integer x with x @ rows zero in the first ``exact`` columns
    and even in the others: the left kernel of ``rows`` over 2 * I in those
    columns, cut to len(rows) entries, zero rows dropped."""
    width = len(rows[0])
    evens = [[2 if j == c else 0 for j in range(width)] for c in range(exact, width)]
    cut = (x[:len(rows)] for x in hnf(list(rows) + evens).kernel)
    return [x for x in cut if any(x)]
