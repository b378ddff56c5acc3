"""Bundled group catalog: JSONL records parsed into named permutation groups."""

from __future__ import annotations

import json
import os

from .group import CayleyBoundError, PermGroup, order_text
from .groupspec import GroupSpecError, group_from_cycles, parse_group_spec


class CatalogError(ValueError):
    """Raised for malformed catalog files; messages carry the line number."""


class CatalogEntry:
    """A named group loaded from a catalog record."""

    __slots__ = ("name", "group")

    def __init__(self, name: str, group: PermGroup):
        self.name = name
        self.group = group

    def __repr__(self):
        return "CatalogEntry(%s, order %d)" % (self.name, self.group.order())


def bundled_catalog_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "small_catalog.jsonl")


def _entry_from_record(record: dict, line_number: int) -> CatalogEntry:
    def fail(message):
        raise CatalogError("line %d: %s" % (line_number, message))

    if not isinstance(record, dict):
        fail("record must be a JSON object")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        fail("missing or empty \"name\"")
    unknown = set(record) - {"name", "spec", "generators", "order"}
    if unknown:
        fail("unknown keys: %s" % ", ".join(sorted(unknown)))
    has_spec = "spec" in record
    has_gens = "generators" in record
    if has_spec == has_gens:
        fail("need exactly one of \"spec\" or \"generators\"")
    try:
        if has_spec:
            group = parse_group_spec(record["spec"])
        else:
            gens = record["generators"]
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                fail("\"generators\" must be a list of cycle strings")
            group = group_from_cycles(gens)
            group.order()  # lists the elements: refuses a group past the Cayley bound
    except (GroupSpecError, CayleyBoundError) as exc:
        fail(str(exc))
    declared = record.get("order")
    if "order" in record and type(declared) is not int:
        fail("declared order %r is not an integer" % (declared,))
    if declared is not None and group.order() != declared:
        fail(
            "declared order %r but computed %s for %s"
            % (declared, order_text(group.order()), name)
        )
    return CatalogEntry(name, group)


def load_catalog(path: str):
    """Parse a JSONL catalog; every group is rebuilt and checked against its record."""
    entries = []
    seen = set()
    # bytes that are not UTF-8 decode to lone surrogates, found line by line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                text.encode("utf-8")
                record = json.loads(text)
            except UnicodeEncodeError:
                raise CatalogError("line %d: not valid UTF-8" % line_number) from None
            except json.JSONDecodeError as exc:
                raise CatalogError("line %d: %s" % (line_number, exc)) from None
            except ValueError:  # json refuses integers over 4,300 digits
                raise CatalogError("line %d: an integer has too many digits" % line_number) from None
            entry = _entry_from_record(record, line_number)
            if entry.name in seen:
                raise CatalogError("line %d: duplicate name %s" % (line_number, entry.name))
            seen.add(entry.name)
            entries.append(entry)
    return entries


def load_bundled_catalog():
    return load_catalog(bundled_catalog_path())

