"""Parse group specifications: cycle-notation generators or family tokens."""

from __future__ import annotations

import re
from math import factorial

from ._primes import is_prime, primitive_root
from .group import MAX_CAYLEY_ORDER, PermGroup
from .perm import Perm, PermError, format_perm, max_point, parse_perm

_FAMILY_RE = re.compile(r"^([CDSAQF])([0-9]+)(?::([0-9]+))?$")


class GroupSpecError(ValueError):
    pass


def parse_group_spec(text: str) -> PermGroup:
    """Build a group from a family token (C6, D8, S4, A5, Q8, F5:4) or cycles."""
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group spec")
    m = _FAMILY_RE.match(text)
    if m:
        _refuse_long_numbers(text, "number")
        # the token states the order, so bounds on it list no element
        return group_from_cycles(*_family(m.group(1), int(m.group(2)), m.group(3)))
    if text[0] != "(":
        raise GroupSpecError("unknown family name: %r" % shorten(text))
    return group_from_cycles(split_generators(text))


def group_from_cycles(gen_texts, degree=None, order=None) -> PermGroup:
    """Group generated by cycle-notation strings, on points 1..degree, of the
    given order when the caller knows it.

    A degree above MAX_CAYLEY_ORDER is refused before any permutation is built:
    a group small enough for a Cayley table acts faithfully on its own elements,
    so it never needs more points.
    """
    gen_texts = list(gen_texts)
    _refuse_long_numbers(" ".join(gen_texts), "degree" if degree is None else "point")
    if degree is None:
        degree = max([max_point(t) for t in gen_texts] + [1])
    if degree > MAX_CAYLEY_ORDER:
        raise GroupSpecError("degree %d exceeds the bound of %d points" % (degree, MAX_CAYLEY_ORDER))
    try:
        gens = [parse_perm(t, degree) for t in gen_texts]
    except PermError as exc:
        raise GroupSpecError(shorten(str(exc))) from None
    return PermGroup(gens, degree=degree, order=order)


def _refuse_long_numbers(text: str, what: str) -> None:
    """Refuse a digit run longer than MAX_CAYLEY_ORDER's before int() reads it:
    no spec needs one, and int() refuses over 4,300 digits with a bare ValueError."""
    run = max(re.findall(r"[0-9]+", text), key=lambda run: (len(run), run), default="")
    if len(run) > len(str(MAX_CAYLEY_ORDER)):
        raise GroupSpecError(
            "%s %s exceeds the bound of %d points" % (what, shorten(run), MAX_CAYLEY_ORDER)
        )


def shorten(text: str) -> str:
    """text for an error line: each digit run over 20 digits cut to its first ten
    and its length, then the whole cut to its first 60 characters and its length."""
    short = re.sub(r"\d{21,}", lambda m: "%s... (%d digits)" % (m[0][:10], len(m[0])), text)
    return short if len(short) <= 60 else "%s... (%d characters)" % (short[:60], len(text))


def split_generators(text: str):
    """The generators of a cycle list such as "(1 2 3), (1 2)": split at the
    commas outside parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupSpecError("unbalanced parentheses in %r" % shorten(text))
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise GroupSpecError("unbalanced parentheses in %r" % shorten(text))
    parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _cycle_text(points) -> str:
    return "(" + " ".join(str(p) for p in points) + ")"


def _alternating_generators(n: int, listable: bool):
    """A_n's n - 2 three-cycles (i, i+1, i+2); or, when A_n is too large to
    list and is only ever refused, two: (1 2 3) and the even one of
    (1 2 ... n) and (2 3 ... n)."""
    if listable:
        return [_cycle_text((i, i + 1, i + 2)) for i in range(1, n - 1)]
    return ["(1 2 3)", _cycle_text(range(2 - n % 2, n + 1))]


def _family(letter: str, n: int, extra):
    """(generators, degree, order) of the group a family token names."""
    if extra is not None and letter != "F":
        raise GroupSpecError("unexpected ':' in %s%d:%s" % (letter, n, extra))
    if letter == "C":
        if n < 1:
            raise GroupSpecError("C%d is not a group" % n)
        return ([_cycle_text(range(1, n + 1))] if n > 1 else []), n, n
    if letter == "D":
        if n < 2 or n % 2:
            raise GroupSpecError("dihedral token D<m> needs even order m >= 2")
        half = n // 2
        if half == 1:
            return ["(1 2)"], 2, n
        if half == 2:
            return ["(1 2)", "(3 4)"], 4, n
        rot = _cycle_text(range(1, half + 1))
        pairs = [(i, half + 2 - i) for i in range(2, half + 2) if i < half + 2 - i]
        refl = "".join(_cycle_text(p) for p in pairs)
        return [rot, refl], half, n
    if letter == "S":
        if n < 1:
            raise GroupSpecError("S%d is not a group" % n)
        gens = [] if n == 1 else ["(1 2)"] if n == 2 else ["(1 2)", _cycle_text(range(1, n + 1))]
        return gens, n, factorial(n)
    if letter == "A":
        if n < 1:
            raise GroupSpecError("A%d is not a group" % n)
        order = max(factorial(n) // 2, 1)
        return _alternating_generators(n, order <= MAX_CAYLEY_ORDER), max(n, 1), order
    if letter == "Q":
        if n != 8:
            raise GroupSpecError("only Q8 is supported")
        return ["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8, 8
    if letter == "F":
        p = n
        if extra is None:
            raise GroupSpecError("Frobenius token needs the form F<p>:<k>")
        k = int(extra)
        if p < 3 or not is_prime(p):
            raise GroupSpecError("F%d:%d needs an odd prime modulus" % (p, k))
        if k < 1 or (p - 1) % k:
            raise GroupSpecError("F%d:%d needs k dividing p-1" % (p, k))
        trans = _cycle_text(range(1, p + 1))
        if k == 1:
            return [trans], p, p
        g = primitive_root(p)
        h = pow(g, (p - 1) // k, p)
        images = [(h * x) % p for x in range(p)]
        return [trans, format_perm(Perm(images))], p, p * k
    raise GroupSpecError("unknown family letter %r" % letter)
