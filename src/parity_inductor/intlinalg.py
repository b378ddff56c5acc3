"""Exact integer matrix helpers: row HNF with transform, canonical lattice solves.

Matrices are plain lists of rows of ints; arithmetic is arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
        """The canonical x with x @ a = b, or None if b is off the row lattice:
        one solution reduced modulo the HNF of the kernel."""
        if self.h and len(b) != len(self.h[0]):
            raise ValueError("dimension mismatch")
        resid = list(b)
        x = [0] * len(self.u)
        for k, col in enumerate(self.pivot_cols):
            q, r = divmod(resid[col], self.h[k][col])
            if r:
                return None
            if q:
                resid = [v - q * w for v, w in zip(resid, self.h[k])]
                x = [xi + q * ui for xi, ui in zip(x, self.u[k])]
        if any(resid):
            return None
        relations = hnf(self.kernel)
        for k, col in enumerate(relations.pivot_cols):
            q = x[col] // relations.h[k][col]
            if q:
                x = [xi - q * v for xi, v in zip(x, relations.h[k])]
        return x


def hnf(a) -> HnfResult:
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
    return HnfResult(h=h, u=u, rank=r, pivot_cols=pivot_cols)
