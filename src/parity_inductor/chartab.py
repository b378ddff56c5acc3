"""Exact character tables via class-matrix eigenspace splitting mod a prime.

The table is computed over F_l (l prime, l = 1 mod exp(G), l > 2*sqrt(|G|)),
where the class algebra splits completely, then lifted to exact values by
discrete Fourier inversion over the power maps.

Representation: at a class of element order o, a row's value is its integer
multiplicity vector m in Z[x]/(x^o - 1), chi(c) = sum_s m_s * zeta_o ** s,
where m_s counts the eigenvalues zeta_o ** s.  These vectors are canonical,
so rows are compared, conjugated (s -> -s) and read for determinants as
integer tuples; `Cyclo` rows (`values`) are built only to render.

Orthogonality: sum_c |C_c| chi_i(c) conj(chi_j(c)) is accumulated as one
integer vector in Z[x]/(x^e - 1), e = exp(G), reduced modulo Phi_e once per
pair, and must be the constant |G| * delta_ij.

Decomposition: one path takes a class function as integer vectors (value
sum_s a_s zeta_n ** s at a class, any n); put N = lcm(n, o).  By Hoelder's
formula the normalized trace Tr(zeta_N ** k) / phi(N) is mu(N/g) / phi(N/g),
g = gcd(k, N): the Ramanujan sum c_N(k) over phi(N).  So the rational part of
<f, chi_j> is one integer dot product of f with the dual vector
D_j[c][s] = |C_c| * (L / phi(N)) * sum_t m_t * c_N(s - t), over |G| * L with
L = lcm of the phi(N).  For a generalized character the inner products are
rational, hence equal to their rational parts.  For other input they need
not be, so the coordinates must be integers and sum_j a_j * chi_j must
re-expand to the input at every class modulo Phi_N.  A return is then the
exact identity f = sum_j a_j * chi_j for any input, with no second path.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul, sub

from ._primes import is_prime, primitive_root
from .cyclotomic import Cyclo, _reduce_mod_phi, cyclotomic_polynomial, format_cyclo
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
    return [sum(map(mul, row, v)) % p for row in m]


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


# ------------------------------------------------------------ integer values


@lru_cache(maxsize=None)
def _ramanujan(n: int):
    """c_n(k) = Tr(zeta_n ** k) = (phi(n) / phi(d)) * Tr(zeta_d), d = n / gcd(k, n).

    Tr(zeta_d), the sum of the primitive d-th roots, is minus the
    second-highest coefficient of Phi_d.
    """
    phi_n = len(cyclotomic_polynomial(n)) - 1
    out = []
    for k in range(n):
        phi_d = cyclotomic_polynomial(n // gcd(k, n))
        out.append(-phi_d[-2] * phi_n // (len(phi_d) - 1))
    return tuple(out)


def _lift(m, n: int):
    """m in Z[x]/(x^len(m) - 1) as a vector of Z[x]/(x^n - 1); len(m) divides n."""
    out = [0] * n
    out[:: n // len(m)] = m
    return out


def _terms(row):
    """The nonzero (s, m_s) of a row at each class."""
    return tuple(tuple((s, x) for s, x in enumerate(m) if x) for m in row)


def _row_key(row, e: int):
    """(degree, not trivial, `Cyclo.sort_key` per class) without building a Cyclo."""
    keys = []
    for m in row:
        red = _reduce_mod_phi(_lift(m, e), e)
        keys.append((1, red[0]) if not any(red[1:]) else (e, *red))
    return (row[0][0], 0 if all(key == (1, 1) for key in keys) else 1, tuple(keys))


def _power_maps(group: PermGroup, classes, exponent: int):
    """power_maps[j][c] = class of rep_c ** j, and the inverse map, off the Cayley table."""
    table, inverse = group.cayley()[:2]
    class_of = [group.class_of_index(i) for i in range(len(table))]
    cycles = []
    for cls in classes:
        pos, cycle = 0, []
        for _ in range(cls.order):
            cycle.append(class_of[pos])
            pos = table[pos][cls.members[0]]
        cycles.append(cycle)
    power_maps = tuple(
        tuple(cycle[j % len(cycle)] for cycle in cycles) for j in range(exponent + 1)
    )
    return power_maps, tuple(class_of[inverse[cls.members[0]]] for cls in classes)


# ----------------------------------------------------------------- the table


class CharacterTable:
    """Irreducible characters of a finite group, exact and canonically ordered."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.exponent = e = group.exponent()
        self.power_maps, self.inverse_map = _power_maps(group, self.classes, e)
        rows = _dixon_schneider(group, self.classes, self.power_maps, self.inverse_map)
        rows.sort(key=lambda row: _row_key(row, e))
        # row i at class c: sum_s vectors[i][c][s] * zeta_o ** s, o = len(vectors[i][c])
        self.vectors = tuple(rows)
        self.degrees = tuple(row[0][0] for row in rows)
        # det of row i at class c is zeta_exp ** det_exponents[i][c]
        self.det_exponents = tuple(
            tuple(e // len(m) * sum(s * x for s, x in enumerate(m)) % e for m in row)
            for row in rows
        )
        index = {row: i for i, row in enumerate(rows)}
        conj = [tuple(m[:1] + m[:0:-1] for m in row) for row in rows]
        if not all(row in index for row in conj):
            raise CharTableError("the conjugate of a row is not in the table")
        self.conj_rows = tuple(index[row] for row in conj)
        self._verify()
        # a linear row is its own determinant
        self.linear_row_of = {
            self.det_exponents[i]: i for i in self.linear_row_indices()
        }
        self._values = self._duals = None

    # construction checks -------------------------------------------------

    def _verify(self):
        order = self.group.order()
        k = len(self.classes)
        if sum(d * d for d in self.degrees) != order:
            raise CharTableError("degree squares do not sum to the group order")
        if not all(m[0] == sum(m) == 1 for m in self.vectors[0]):
            raise CharTableError("first row is not the trivial character")
        terms = [_terms(row) for row in self.vectors]
        for i in range(k):
            for j in range(i, k):
                got = self._gram(terms[i], terms[j])
                if got != (order if i == j else 0):
                    raise CharTableError(
                        "row orthogonality fails at (%d, %d): %d/%d" % (i, j, got, order)
                    )

    def _gram(self, aterms, bterms) -> int:
        """|G| * <a, b> for two rows given by `_terms`."""
        e = self.exponent
        acc = [0] * e
        for cls, ta, tb in zip(self.classes, aterms, bterms):
            step = e // cls.order
            for t, y in tb:
                y *= cls.size
                for s, x in ta:
                    acc[(s - t) * step % e] += x * y
        red = _reduce_mod_phi(acc, e)
        if any(red[1:]):
            raise CharTableError("inner product is not rational")
        return red[0]

    # queries --------------------------------------------------------------

    def class_count(self) -> int:
        return len(self.classes)

    @property
    def values(self):
        """Exact class values as `Cyclo` rows in Q(zeta_exp), built on first use."""
        if self._values is None:
            e = self.exponent
            self._values = tuple(
                tuple(Cyclo(e, _lift(m, e)) for m in row) for row in self.vectors
            )
        return self._values

    def decompose_values(self, vals):
        """Integer coordinates of exact class values (`Cyclo` or rational)."""
        vectors = []
        for v in vals:
            v = v if isinstance(v, Cyclo) else Cyclo.rational(v)
            if v.den != 1:
                raise CharTableError("values are not a generalized character")
            vectors.append(v.coeffs + (0,) * (v.n - len(v.coeffs)))
        return self.decompose(vectors)

    def decompose(self, vectors):
        """Integer coordinates over the irreducibles of a class function.

        vectors[c] = (a_0, ..., a_{n-1}) stands for sum_s a_s * zeta_n ** s
        at class c, for any n >= 1.  Raises CharTableError unless the class
        function is exactly an integer combination of the rows.
        """
        k = len(self.classes)
        if len(vectors) != k:
            raise ValueError("%d values for %d classes" % (len(vectors), k))
        orders = [cls.order for cls in self.classes]
        lengths = [lcm(len(v), o) for v, o in zip(vectors, orders)]
        if lengths != orders:
            duals, den = self._dual_vectors(lengths)
        else:
            duals, den = self._duals = self._duals or self._dual_vectors(lengths)
        given = [_lift(v, n) for v, n in zip(vectors, lengths)]
        flat = [a for vec in given for a in vec]
        quotient = self.group.order() * den
        coords = []
        for dual in duals:
            num = sum(map(mul, flat, dual))
            if num % quotient:
                raise CharTableError("values are not a generalized character")
            coords.append(num // quotient)
        # re-expand sum_j a_j chi_j and compare with the input modulo Phi_N
        for c, (vec, n, o) in enumerate(zip(given, lengths, orders)):
            acc = [0] * n
            for a, row in zip(coords, self.vectors):
                if a:
                    for s, x in enumerate(row[c]):
                        if x:
                            acc[s * n // o] += a * x
            if acc != vec and any(_reduce_mod_phi(map(sub, acc, vec), n)):
                raise CharTableError("values are not a generalized character")
        return tuple(coords)

    def _dual_vectors(self, lengths):
        """Each row's trace-form dual over the flattened (class, slot) layout."""
        phis = [len(cyclotomic_polynomial(n)) - 1 for n in lengths]
        den = lcm(*phis)
        duals = [[] for _ in self.classes]
        for c, (cls, n, phi) in enumerate(zip(self.classes, lengths, phis)):
            weights = _ramanujan(n)
            scale = cls.size * (den // phi)
            for dual, row in zip(duals, self.vectors):
                shifted = [(t * n // cls.order, x * scale) for t, x in enumerate(row[c]) if x]
                dual.extend(
                    sum(x * weights[(s - t) % n] for t, x in shifted) for s in range(n)
                )
        return duals, den

    def linear_row_indices(self):
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    # rendering ------------------------------------------------------------

    def format_text(self) -> str:
        headers = ["chi"] + [
            "%s(%d)" % (format_perm(c.rep), c.size) for c in self.classes
        ]
        body = [
            ["X%d" % i] + [format_cyclo(v) for v in row] for i, row in enumerate(self.values)
        ]
        widths = [
            max(len(r[c]) for r in [headers] + body) for c in range(len(headers))
        ]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
            for cells in [headers] + body
        ]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def _dixon_schneider(group, classes, power_maps, inverse_map):
    """Rows of eigenvalue multiplicity vectors, one tuple per class."""
    order = group.order()
    k = len(classes)
    if k == 1:
        return [((1,),)]
    exponent = group.exponent()
    l = _choose_prime(order, exponent)
    root = primitive_root(l)
    zgen = pow(root, (l - 1) // exponent, l)  # fixed element of order exp(G)

    cayley = group.cayley()
    table, inverse = cayley.table, cayley.inverse
    class_of = [group.class_of_index(i) for i in range(order)]
    reps = [c.members[0] for c in classes]
    sizes = [c.size for c in classes]

    # class matrices: (A_i)[j][t] = #{x in C_i : x^{-1} * rep_t in C_j}
    def class_matrix(i):
        a = [[0] * k for _ in range(k)]
        inverses = [table[inverse[x]] for x in classes[i].members]
        for t in range(k):
            z = reps[t]
            for row in inverses:
                a[class_of[row[z]]][t] += 1
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
            columns = list(zip(*rows))
            # restricted matrix: coordinates of each image in the basis
            b = []
            for img in images:
                coords = [img[c] % l for c in pivots]
                check = [
                    (x - sum(map(mul, coords, col))) % l for col, x in zip(columns, img)
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

    # Fourier inversion over the power maps, with each element order's
    # table of powers of z_o = zgen ** (exp / o) computed once
    inversion = {}
    for o in {c.order for c in classes}:
        powers = [pow(zgen, exponent // o * i, l) for i in range(o)]
        rows = tuple([powers[-j * s % o] for j in range(o)] for s in range(o))
        inversion[o] = (rows, pow(o, l - 2, l))
    cycles = [[power_maps[j][c] for j in range(cls.order)] for c, cls in enumerate(classes)]
    # a class reached from an earlier one by a power j prime to the element
    # order needs no inversion: the eigenvalues of g ** j are those of g,
    # raised to the j, so m(g ** j)[s] = m(g)[s / j]
    galois = [None] * k
    for c0, cycle in enumerate(cycles):
        o = len(cycle)
        for j in range(2, o):
            c = cycle[j]
            if galois[c0] is None and c > c0 and galois[c] is None and gcd(j, o) == 1:
                galois[c] = (c0, pow(j, -1, o))

    inv_mod = {x: pow(x, l - 2, l) for x in set(sizes)}
    shared = {}  # one tuple object per distinct vector
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
        # character values mod l, then the exact multiplicities m_s of the
        # eigenvalues zeta_o ** s at each class
        chi_mod = [degree * w[c] * inv_mod[sizes[c]] % l for c in range(k)]
        row = []
        for cycle, source in zip(cycles, galois):
            o = len(cycle)
            if source is not None:
                c0, j_inv = source
                m = tuple(row[c0][s * j_inv % o] for s in range(o))
            else:
                dft, inv_o = inversion[o]
                along = [chi_mod[c] for c in cycle]
                m = tuple(sum(map(mul, along, f)) * inv_o % l for f in dft)
                if max(m) > degree or sum(m) != degree:
                    raise CharTableError("eigenvalue multiplicities do not sum to the degree")
            row.append(shared.setdefault(m, m))
        rows_out.append(tuple(row))
    return rows_out


def character_table(G: PermGroup) -> CharacterTable:
    if "chartab" not in G._cache:
        G._cache["chartab"] = CharacterTable(G)
    return G._cache["chartab"]
