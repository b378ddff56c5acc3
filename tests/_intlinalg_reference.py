"""Reference lattice solves, each taking its own HNF of the matrix.

These are the solves `src/` used before `HnfResult.solve`.  They stay here as
the independent side of the differential tests.
"""

from __future__ import annotations

from parity_inductor.intlinalg import HnfResult, hnf


def kernel_basis(a):
    """Basis of the left kernel {x : x @ a = 0}, as rows."""
    res = hnf(a)
    return [row[:] for row in res.u[res.rank:]]


def solve_left(a, b, hnf_result: HnfResult | None = None):
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


def solve_left_canonical(a, b, hnf_result: HnfResult | None = None):
    """Deterministic solution of x @ a = b: particular solve reduced mod kernel."""
    res = hnf_result if hnf_result is not None else hnf(a)
    x = solve_left(a, b, res)
    if x is None:
        return None
    kernel = [row[:] for row in res.u[res.rank:]]
    return reduce_mod_lattice(x, kernel)
