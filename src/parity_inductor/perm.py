"""Permutations on the points 1..n (stored 0-based), parsed, printed and compared.

A `Perm` has no arithmetic: a group lists its elements once, and products,
powers, inverses and orders are read off its Cayley table on positions in
that list (`group.PermGroup.cayley`).
"""

from __future__ import annotations

import re


class PermError(ValueError):
    pass


class Perm:
    """Immutable permutation of {0, ..., n-1}, written in image form."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise PermError("not a permutation: %r" % (images,))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles as tuples of 1-based points, canonically ordered."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start + 1]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt + 1)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm(%s)" % (format_perm(self),)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_TOKEN_RE = re.compile(r"^[\s0-9(),]+$")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse one permutation in cycle notation, e.g. "(1 2 3)(4 5)"."""
    text = text.strip()
    if text in ("", "()"):
        return Perm(range(degree))
    if not _TOKEN_RE.match(text):
        raise PermError("bad cycle notation: %r" % text)
    covered = _CYCLE_RE.sub("", text).strip().replace(",", "").strip()
    if covered:
        raise PermError("stray text outside cycles: %r" % text)
    images = list(range(degree))
    seen = set()
    for body in _CYCLE_RE.findall(text):
        pts = [p for p in re.split(r"[\s,]+", body.strip()) if p]
        if not pts:
            continue
        pts = [int(p) for p in pts]
        if any(p < 1 for p in pts):
            raise PermError("points are 1-based, got %r" % (pts,))
        if any(p > degree for p in pts):
            raise PermError("point beyond degree %d: %r" % (degree, pts))
        pts0 = [p - 1 for p in pts]
        if len(set(pts0)) != len(pts0) or seen & set(pts0):
            raise PermError("repeated point in %r" % text)
        seen |= set(pts0)
        for a, b in zip(pts0, pts0[1:] + pts0[:1]):
            images[a] = b
    return Perm(images)


def max_point(text: str) -> int:
    """Largest 1-based point mentioned in a cycle-notation string (0 if none)."""
    pts = [int(p) for p in re.findall(r"[0-9]+", text)]
    return max(pts) if pts else 0


def format_perm(p: Perm) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycs)
