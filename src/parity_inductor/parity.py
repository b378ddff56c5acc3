"""Rank-parity propagation to intermediate fields from certified twist data.

An assignment is one map from parity symbols (Base, Quad(Xr), Twist(id)) to ±1."""

from __future__ import annotations

from math import prod

from .genchar import determinant, order2_linear_chars, perm_char, rho_H
from .generators import THEOREM_FLAVOR, family_for
from .group import PermGroup
from .groupspec import shorten
from .lattice import SubgroupRecord, subgroup_lattice
from .membership import membership_solve_all
from .structure import DIHEDRAL_2P, KLEIN_FOUR, dihedral_subquotients

BASE = ("base",)

_KIND_RANK = {"base": 0, "quadratic": 1, "dihedral": 2}


class ParityError(RuntimeError):
    """Raised for missing certificates, bad assignments, or table defects."""


def quadratic_symbol(row: int):
    return ("quadratic", row)


def dihedral_symbol(gen_id: str):
    return ("dihedral", gen_id)


def symbol_name(symbol) -> str:
    if symbol[0] == "base":
        return "Base"
    if symbol[0] == "quadratic":
        return "Quad(X%d)" % symbol[1]
    return "Twist(%s)" % symbol[1]


def _symbol_key(symbol):
    return (_KIND_RANK[symbol[0]], symbol[1:])


class ParityExpression:
    """A square-free product of ±1 symbols (exponents live mod 2)."""

    __slots__ = ("symbols",)

    def __init__(self, symbols=()):
        reduced = set()
        for symbol in symbols:
            if symbol in reduced:
                reduced.discard(symbol)
            else:
                reduced.add(symbol)
        self.symbols = frozenset(reduced)

    def support(self):
        return tuple(sorted(self.symbols, key=_symbol_key))

    def symbol_names(self):
        return [symbol_name(s) for s in self.support()]

    def __mul__(self, other: "ParityExpression") -> "ParityExpression":
        if not isinstance(other, ParityExpression):
            return NotImplemented
        out = ParityExpression()
        out.symbols = self.symbols ^ other.symbols
        return out

    def __eq__(self, other):
        return isinstance(other, ParityExpression) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def evaluate(self, assignment: "ParityInput") -> int:
        missing = [symbol_name(s) for s in self.support() if assignment.value(s) is None]
        if missing:
            raise ParityError("missing parity assignments: %s" % ", ".join(missing))
        return prod(assignment.value(symbol) for symbol in self.symbols)

    def format_text(self) -> str:
        return " * ".join(self.symbol_names()) or "1"

    def __repr__(self):
        return "ParityExpression(%s)" % self.format_text()


def _check_sign(value, where: str) -> int:
    if type(value) is not int or value not in (1, -1):
        raise ValueError("%s must be +1 or -1, got %s" % (where, shorten(repr(value))))
    return value


def _quadratic_row(key) -> int:
    """Row r of a key "Xr" or "r": at most four ASCII digits, as in a group spec."""
    text = str(key)
    digits = text[1:] if text.startswith("X") else text
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 4):
        raise ValueError("bad quadratic character id %r (expected e.g. \"X3\")" % shorten(text))
    return int(digits)


def format_columns(cells) -> str:
    """Rows of strings as left-aligned columns two spaces apart, right-trimmed."""
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join("  ".join(map(str.ljust, line, widths)).rstrip() for line in cells)


class ParityInput:
    """A (possibly partial) ±1 assignment: ``values`` maps each given symbol to its sign."""

    __slots__ = ("values",)

    def __init__(self, base=None, quadratic=None, dihedral=None):
        for name, doc in (("quadratic", quadratic), ("dihedral", dihedral)):
            if doc is not None and not isinstance(doc, dict):
                raise ValueError(
                    "%s must be a JSON object or null, got %s" % (name, shorten(repr(doc)))
                )
        self.values = {} if base is None else {BASE: _check_sign(base, "base")}
        for k, v in (quadratic or {}).items():
            symbol = quadratic_symbol(_quadratic_row(k))
            if symbol in self.values:
                raise ValueError("quadratic character X%d is named twice" % symbol[1])
            self.values[symbol] = _check_sign(v, "quadratic[%s]" % k)
        for k, v in (dihedral or {}).items():
            if not isinstance(k, str):
                raise ValueError("dihedral generator id must be a string, got %r" % (k,))
            self.values[dihedral_symbol(k)] = _check_sign(v, "dihedral[%s]" % shorten(k))

    @classmethod
    def from_json(cls, doc: dict) -> "ParityInput":
        if not isinstance(doc, dict):
            raise ValueError("parity input must be a JSON object")
        unknown = set(doc) - {"base", "quadratic", "dihedral"}
        if unknown:
            raise ValueError("unknown parity input keys: %s" % shorten(", ".join(sorted(unknown))))
        return cls(doc.get("base"), doc.get("quadratic"), doc.get("dihedral"))

    def value(self, symbol):
        return self.values.get(symbol)

    def __repr__(self):
        return "ParityInput(%r)" % self.values


def parity_symbols(G: PermGroup, flavor=THEOREM_FLAVOR):
    """G's symbols: Base, one Quad per order-2 linear character, one Twist per
    type2 generator of the flavor's family."""
    quads = [quadratic_symbol(lc.row) for lc in order2_linear_chars(G)]
    twists = [dihedral_symbol(desc.gen_id) for desc in family_for(G, flavor) if desc.kind == "type2"]
    return [BASE] + quads + twists


def full_assignment(G: PermGroup, flavor=THEOREM_FLAVOR, base=None, quadratic=None, dihedral=None):
    """Total assignment for G's symbols: the overrides given, +1 everywhere else."""
    assignment = ParityInput(base, quadratic, dihedral)
    for symbol in parity_symbols(G, flavor):
        assignment.values.setdefault(symbol, 1)
    return assignment


def parity_expression(G: PermGroup, record: SubgroupRecord, certificate) -> ParityExpression:
    """Symbolic parity over the fixed field of `record`, from the certificate of its rho_H."""
    index = record.index
    delta = determinant(perm_char(G, record))
    symbols = []
    family = certificate.family
    for i, coeff in certificate.terms:
        desc = family.generators[i]
        if desc.kind == "type2" and coeff % 2:
            symbols.append(dihedral_symbol(desc.gen_id))
    if delta.is_trivial():
        base_exponent = index  # determinant factor contributes one more Base
    else:
        symbols.append(quadratic_symbol(delta.row))
        base_exponent = index - 1
    if base_exponent % 2:
        symbols.append(BASE)
    return ParityExpression(symbols)


def _certificates_for(G: PermGroup, records, flavor: str):
    """The certificate of each record's rho_H, solved in one batch."""
    certs = membership_solve_all([rho_H(G, rec) for rec in records], family_for(G, flavor))
    for record, cert in zip(records, certs):
        if cert is None:
            raise ParityError(
                "no certificate for the degree-zero coset character of %s" % record.label
            )
    return certs


class ParityRow:
    """One intermediate field: label, expression, certificate, optional value."""

    __slots__ = ("record", "label", "index", "expression", "certificate", "value")

    def __init__(self, record, label, index, expression, certificate, value):
        self.record = record
        self.label = label
        self.index = index
        self.expression = expression
        self.certificate = certificate
        self.value = value


class ParityTable:
    """Parity expressions (and values, when inputs suffice) for every field row."""

    __slots__ = ("group", "flavor", "rows")

    def __init__(self, group, flavor, rows):
        self.group = group
        self.flavor = flavor
        self.rows = tuple(rows)

    def format_text(self) -> str:
        headers = ("field", "index", "expression", "value")
        cells = [headers]
        for row in self.rows:
            value = "" if row.value is None else "%+d" % row.value
            cells.append((row.label, str(row.index), row.expression.format_text(), value))
        return format_columns(cells)

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "rows": [
                {
                    "field": row.label,
                    "class_id": row.record.class_id,
                    "index": row.index,
                    "expression": row.expression.symbol_names(),
                    "certificate": [[gid, c] for gid, c in row.certificate],
                    "value": row.value,
                }
                for row in self.rows
            ],
        }


def parity_table(G: PermGroup, assignment: ParityInput = None, flavor=THEOREM_FLAVOR) -> ParityTable:
    """One row per subgroup class; rows evaluate when the assignment covers them."""
    records = sorted(subgroup_lattice(G).records, key=lambda r: (-r.order, r.class_id))
    rows = []
    for record, cert in zip(records, _certificates_for(G, records, flavor)):
        expression = parity_expression(G, record, cert)
        index = record.index
        _check_row_shape(G, record, index, expression)
        covered = assignment is not None and expression.symbols <= assignment.values.keys()
        value = expression.evaluate(assignment) if covered else None
        cert_terms = tuple(cert.named_terms())
        label = "F(#%d)" % record.class_id
        rows.append(ParityRow(record, label, index, expression, cert_terms, value))
    return ParityTable(G, flavor, rows)


def _check_row_shape(G, record, index, expression):
    if index == 1 and expression.symbols != frozenset([BASE]):
        raise ParityError("whole-group row must reduce to Base alone")
    if index == 2:
        delta = determinant(perm_char(G, record))
        expected = frozenset([BASE, quadratic_symbol(delta.row)])
        if expression.symbols != expected:
            raise ParityError(
                "index-2 row %s does not echo its quadratic symbol" % record.label
            )


def required_sha_primes(G: PermGroup):
    """Odd primes with a dihedral subquotient, and whether Klein-four forces 2."""
    primes = set()
    needs2 = False
    for dq in dihedral_subquotients(G):
        if dq.tag.variant == DIHEDRAL_2P:
            primes.add(dq.tag.n)
        elif dq.tag.variant == KLEIN_FOUR:
            needs2 = True
    return frozenset(primes), needs2
