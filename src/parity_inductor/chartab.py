"""Exact character tables via class-matrix eigenspace splitting mod a prime.

The table is computed over F_l (l prime, l = 1 mod exp(G), l > 2*sqrt(|G|)),
where the class algebra splits completely, then lifted to exact cyclotomic
values by discrete Fourier inversion over the power maps.
"""

from __future__ import annotations

from fractions import Fraction

from ._primes import is_prime, primitive_root
from .cyclotomic import Cyclo
from .group import PermGroup
from .perm import format_perm


class CharTableError(RuntimeError):
    """Internal defect while building or using a character table."""


# --------------------------------------------------------------------- F_l


def _choose_prime(order: int, exponent: int) -> int:
    l = exponent + 1
    while True:
        if l * l > 4 * order and l % exponent == 1 and is_prime(l):
            return l
        l += 1


def _matvec(m, v, p):
    return [sum(mj * vj for mj, vj in zip(row, v)) % p for row in m]


def _rref(rows, p):
    """Reduced row echelon form over F_p; returns (rows, pivot_cols)."""
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _kernel_mod(m, p):
    """Basis of the right kernel of m over F_p (vectors as lists)."""
    n = len(m[0])
    rows, pivots = _rref(m, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


def _charpoly_mod(a, p):
    """Characteristic polynomial det(xI - a) over F_p, low degree first."""
    n = len(a)
    h = [row[:] for row in a]
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][j + 1] = h[r][j + 1], h[r][piv]
        inv = pow(h[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            f = h[i][j] * inv % p
            if f:
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[j + 1])]
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + f * h[r][i]) % p
    # recurrence on leading principal minors of a Hessenberg matrix
    polys = [[1]]
    for k in range(1, n + 1):
        # p_k = (x - h[k-1][k-1]) p_{k-1} - sum_m h[m-1][k-1] * prod(subdiag) p_{m-1}
        prev = polys[k - 1]
        cur = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % p
            cur[i] = (cur[i] - h[k - 1][k - 1] * c) % p
        prod = 1
        for m in range(k - 1, 0, -1):
            prod = prod * h[m][m - 1] % p
            coeff = h[m - 1][k - 1] * prod % p
            if coeff:
                pm = polys[m - 1]
                for i, c in enumerate(pm):
                    cur[i] = (cur[i] - coeff * c) % p
        polys.append(cur)
    return polys[n]


def _poly_roots_mod(poly, p):
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


# ----------------------------------------------------------------- the table


class CharacterTable:
    """Irreducible characters of a finite group, exact and canonically ordered."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.exponent = group.exponent()
        k = len(self.classes)
        self.power_maps = tuple(
            tuple(group.power_class(c, j) for c in range(k))
            for j in range(self.exponent + 1)
        )
        self.inverse_map = tuple(
            group.power_class(c, self.classes[c].order - 1) if self.classes[c].order > 1 else c
            for c in range(k)
        )
        pairs = _dixon_schneider(group, self.classes, self.power_maps, self.inverse_map)
        pairs.sort(
            key=lambda pair: (
                pair[0][0].to_int(),
                0 if all(v == 1 for v in pair[0]) else 1,
                tuple(v.sort_key() for v in pair[0]),
            )
        )
        self.values = tuple(tuple(row) for row, _ in pairs)
        # det of row i at class c is zeta_exp ** det_exponents[i][c]
        self.det_exponents = tuple(tuple(dets) for _, dets in pairs)
        self.degrees = tuple(row[0].to_int() for row in self.values)
        self._verify()
        self.conj_rows = tuple(self._conjugate_row_index(i) for i in range(k))
        # a linear row is its own determinant
        self.linear_row_of = {
            self.det_exponents[i]: i for i in self.linear_row_indices()
        }

    # construction checks -------------------------------------------------

    def _verify(self):
        G = self.group
        k = len(self.classes)
        if sum(d * d for d in self.degrees) != G.order():
            raise CharTableError("degree squares do not sum to the group order")
        if not all(v == 1 for v in self.values[0]):
            raise CharTableError("first row is not the trivial character")
        for i in range(k):
            for j in range(i, k):
                got = self.inner_product_values(self.values[i], self.values[j])
                want = 1 if i == j else 0
                if got != Fraction(want):
                    raise CharTableError(
                        "row orthogonality fails at (%d, %d): %s" % (i, j, got)
                    )

    def _conjugate_row_index(self, i: int) -> int:
        target = tuple(v.conj() for v in self.values[i])
        for j, row in enumerate(self.values):
            if all(a == b for a, b in zip(row, target)):
                return j
        raise CharTableError("conjugate of row %d is not in the table" % i)

    # queries --------------------------------------------------------------

    def class_count(self) -> int:
        return len(self.classes)

    def inner_product_values(self, avals, bvals) -> Fraction:
        total = Cyclo.rational(0)
        for cls, a, b in zip(self.classes, avals, bvals):
            total = total + a * b.conj() * cls.size
        total = total * Fraction(1, self.group.order())
        f = total.to_fraction()
        if f is None:
            raise CharTableError("inner product is not rational")
        return f

    def decompose_values(self, vals):
        """Integer coordinates over the irreducibles; error if non-integral."""
        coeffs = []
        for row in self.values:
            f = self.inner_product_values(vals, row)
            if f.denominator != 1:
                raise CharTableError("values are not a generalized character")
            coeffs.append(f.numerator)
        return tuple(coeffs)

    def linear_row_indices(self):
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    # rendering ------------------------------------------------------------

    def format_text(self) -> str:
        from .cyclotomic import format_cyclo

        headers = ["chi"] + [
            "%s(%d)" % (format_perm(c.rep), c.size) for c in self.classes
        ]
        body = []
        for i, row in enumerate(self.values):
            cells = ["X%d" % i]
            for v in row:
                lifted = v if v.n == 1 else v.lift(self.exponent)
                cells.append(format_cyclo(lifted))
            body.append(cells)
        widths = [
            max(len(r[c]) for r in [headers] + body) for c in range(len(headers))
        ]
        lines = []
        for cells in [headers] + body:
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
            )
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def _dixon_schneider(group, classes, power_maps, inverse_map):
    order = group.order()
    k = len(classes)
    if k == 1:
        return [([Cyclo.rational(1)], [0])]
    exponent = group.exponent()
    l = _choose_prime(order, exponent)
    root = primitive_root(l)
    zgen = pow(root, (l - 1) // exponent, l)  # fixed element of order exp(G)

    elts = group.elements()
    class_of = [group.class_of_index(i) for i in range(order)]
    reps = [c.rep for c in classes]
    sizes = [c.size for c in classes]

    # class matrices: (A_i)[j][t] = #{x in C_i : x^{-1} * rep_t in C_j}
    def class_matrix(i):
        a = [[0] * k for _ in range(k)]
        members = [elts[m] for m in classes[i].members]
        for t in range(k):
            z = reps[t]
            col = [0] * k
            for x in members:
                y = x.inverse() * z
                col[class_of[group.element_index(y)]] += 1
            for j in range(k):
                a[j][t] = col[j]
        return a

    # split the common eigenspaces
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for i in range(1, k):
        if all(len(s) == 1 for s in spaces):
            break
        a = None
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            if a is None:
                a = class_matrix(i)
            rows, pivots = _rref(basis, l)
            images = [_matvec(a, v, l) for v in rows]
            # restricted matrix: coordinates of each image in the basis
            b = []
            for img in images:
                coords = [img[c] % l for c in pivots]
                check = [
                    (x - sum(cc * rows[r][col] for r, cc in enumerate(coords))) % l
                    for col, x in enumerate(img)
                ]
                if any(check):
                    raise CharTableError("class matrix does not preserve eigenspace")
                b.append(coords)
            bt = [[b[r][c] for r in range(len(b))] for c in range(len(b))]
            poly = _charpoly_mod(bt, l)
            for lam in _poly_roots_mod(poly, l):
                shifted = [
                    [(bt[r][c] - (lam if r == c else 0)) % l for c in range(len(bt))]
                    for r in range(len(bt))
                ]
                eigenspace = []
                for kern in _kernel_mod(shifted, l):
                    vec = [0] * k
                    for coord, row in zip(kern, rows):
                        if coord:
                            for idx in range(k):
                                vec[idx] = (vec[idx] + coord * row[idx]) % l
                    eigenspace.append(vec)
                if not eigenspace:
                    raise CharTableError("charpoly root has empty eigenspace")
                new_spaces.append(eigenspace)
        total = sum(len(s) for s in new_spaces)
        if total != k:
            raise CharTableError("eigenspace splitting does not cover the space")
        spaces = new_spaces
    if not all(len(s) == 1 for s in spaces):
        raise CharTableError("class-matrix eigenspaces failed to split")

    inv_mod = {x: pow(x, l - 2, l) for x in set(sizes)}
    rows_out = []
    for (w,) in spaces:
        if w[0] == 0:
            raise CharTableError("eigenvector vanishes at the identity class")
        scale = pow(w[0], l - 2, l)
        w = [x * scale % l for x in w]
        # degree from sum over classes of w(c) w(c*) / |C_c|
        s = 0
        for c in range(k):
            s = (s + w[c] * w[inverse_map[c]] * inv_mod[sizes[c]]) % l
        if s == 0:
            raise CharTableError("degree denominator vanished")
        d2 = order * pow(s, l - 2, l) % l
        degree = None
        d = 1
        while d * d <= order:
            if d * d % l == d2:
                degree = d
                break
            d += 1
        if degree is None:
            raise CharTableError("no integer degree matches modulo l")
        # character values mod l
        chi_mod = [degree * w[c] * inv_mod[sizes[c]] % l for c in range(k)]
        # exact lift by Fourier inversion over eigenvalue multiplicities m_s;
        # the determinant at c is then zeta_o ** sum(s * m_s)
        row = []
        dets = []
        for c in range(k):
            o = classes[c].order
            if o == 1:
                row.append(Cyclo.rational(degree))
                dets.append(0)
                continue
            z_o = pow(zgen, exponent // o, l)
            inv_o = pow(o, l - 2, l)
            value = Cyclo.rational(0)
            total_mult = 0
            det_sum = 0
            for s_exp in range(o):
                acc = 0
                for j in range(o):
                    acc = (acc + chi_mod[power_maps[j][c]] * pow(z_o, (-j * s_exp) % (l - 1), l)) % l
                m = acc * inv_o % l
                if m > degree:
                    raise CharTableError("eigenvalue multiplicity out of range")
                total_mult += m
                det_sum += s_exp * m
                if m:
                    value = value + Cyclo.zeta(exponent, (exponent // o) * s_exp) * m
            if total_mult != degree:
                raise CharTableError("eigenvalue multiplicities do not sum to degree")
            row.append(value)
            dets.append((exponent // o) * det_sum % exponent)
        rows_out.append((row, dets))
    return rows_out


def character_table(G: PermGroup) -> CharacterTable:
    if "chartab" not in G._cache:
        G._cache["chartab"] = CharacterTable(G)
    return G._cache["chartab"]
