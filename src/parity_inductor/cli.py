"""Command-line front end: inspect groups, certify decompositions, print parities."""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CatalogError, bundled_catalog_path, load_catalog
from .chartab import CharTableError, character_table
from .decompose import DecomposeError, decompose_structural, flatten_to_certificate, tree_to_json
from .genchar import order2_linear_chars, rho_H
from .generators import GeneratorError, family_for
from .group import CayleyBoundError
from .groupspec import (GroupSpecError, group_from_cycles, parse_group_spec, shorten,
                        split_generators)
from .lattice import LatticeBoundError, subgroup_lattice
from .membership import MembershipError, certificate_to_json, membership_solve, verify_certificate
from .parity import (ParityError, ParityInput, format_columns, parity_symbols, parity_table,
                     required_sha_primes)
from .perm import format_perm
from .spanreport import span_report
from .structure import is_hyperelementary

_INPUT_ERRORS = (GroupSpecError, CatalogError, LatticeBoundError, CayleyBoundError, OSError)
_WORK_ERRORS = (CharTableError, DecomposeError, GeneratorError, MembershipError, ParityError)


class CliError(Exception):
    """A user input problem; the process exits with status 2."""


def _load_group(spec: str):
    try:
        return parse_group_spec(spec)
    except GroupSpecError as exc:
        raise CliError(str(exc)) from None


def _iso_signature(K):
    orders = sorted((cls.order, cls.size) for cls in K.conjugacy_classes())
    return (K.order(), K.is_abelian(), tuple(orders))


def _resolve_subgroup(G, text: str):
    lattice = subgroup_lattice(G)
    text = text.strip()
    if text.startswith("#"):
        digits = text[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise CliError("bad subgroup class id %r" % shorten(text))
        for record in lattice.records:
            if str(record.class_id) == (digits.lstrip("0") or "0"):
                return record
        raise CliError(
            "no subgroup class %s; classes run #0..#%d"
            % (shorten(text), len(lattice.records) - 1)
        )
    if text.isascii() and text.isdigit():
        # compared as digits: int() refuses over 4,300 of them
        matches = [r for r in lattice.records if str(r.order) == text.lstrip("0")]
    elif text.startswith("("):
        try:
            K = group_from_cycles(split_generators(text), degree=G.degree)
        except GroupSpecError as exc:
            raise CliError(str(exc)) from None
        try:
            # a K with more elements than G is no subgroup, and is not listed
            if not K.order_above(G.order()):
                return lattice.records[
                    lattice.class_of_set(G.element_index(k) for k in K.elements())
                ]
        except KeyError:
            pass
        raise CliError("%r does not generate a subgroup of the group" % shorten(text))
    else:
        try:
            K = parse_group_spec(text)
        except GroupSpecError as exc:
            raise CliError(str(exc)) from None
        # orders first: K's own classes are built only when some record matches
        matches = [r for r in lattice.records if r.order == K.order()]
        if matches:
            signature = _iso_signature(K)
            matches = [r for r in matches if _iso_signature(r.as_group()) == signature]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise CliError("no subgroup class matches %r" % shorten(text))
    raise CliError(
        "subgroup spec %r is ambiguous; pick one of %s"
        % (shorten(text), ", ".join(r.label for r in matches))
    )


def _emit(args, text, doc) -> None:
    """Write ``text()`` or ``doc()``, as ``--format`` asks: only that one is built."""
    if args.format == "json":
        payload = json.dumps(doc(), indent=2) + "\n"
    else:
        payload = text()
        payload = payload if payload.endswith("\n") else payload + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_group_info(args) -> int:
    G = _load_group(args.groupspec)
    lattice = subgroup_lattice(G)
    hyper = is_hyperelementary(G)
    doc = {
        "spec": args.groupspec,
        "order": G.order(),
        "degree": G.degree,
        "abelian": G.is_abelian(),
        "cyclic": G.is_cyclic(),
        "exponent": G.exponent(),
        "conjugacy_classes": len(G.conjugacy_classes()),
        "subgroup_classes": len(lattice.records),
        "order2_linear_characters": len(order2_linear_chars(G)),
        "hyperelementary": None
        if hyper is None
        else {"p": hyper[0], "normal_cyclic_order": hyper[1].order},
    }
    lines = [
        "spec: %s" % doc["spec"],
        "order: %d" % doc["order"],
        "degree: %d" % doc["degree"],
        "abelian: %s" % _yes(doc["abelian"]),
        "cyclic: %s" % _yes(doc["cyclic"]),
        "exponent: %d" % doc["exponent"],
        "conjugacy classes: %d" % doc["conjugacy_classes"],
        "subgroup classes: %d" % doc["subgroup_classes"],
        "order-2 linear characters: %d" % doc["order2_linear_characters"],
        "hyperelementary: %s"
        % (
            "no"
            if hyper is None
            else "yes (p=%d, normal cyclic part of order %d)"
            % (hyper[0], hyper[1].order)
        ),
    ]
    _emit(args, lambda: "\n".join(lines), lambda: doc)
    return 0


def _cmd_chartab(args) -> int:
    G = _load_group(args.groupspec)
    table = character_table(G)
    _emit(args, table.format_text, lambda: {
        "spec": args.groupspec,
        "order": G.order(),
        "class_reps": [format_perm(c.rep) for c in table.classes],
        "class_sizes": [c.size for c in table.classes],
        "class_orders": [c.order for c in table.classes],
        "degrees": list(table.degrees),
        "rows": table.formatted_rows(),
    })
    return 0


def _cmd_subgroups(args) -> int:
    G = _load_group(args.groupspec)
    lattice = subgroup_lattice(G)
    entries = []
    for record in lattice.records:
        entries.append(
            {
                "label": record.label,
                "class_id": record.class_id,
                "order": record.order,
                "index": record.index,
                "normal": record.normal,
                "conjugates": len(lattice.class_sets[record.class_id]),
            }
        )
    doc = {"spec": args.groupspec, "order": G.order(), "subgroup_classes": entries}
    header = ("label", "order", "index", "normal", "conjugates")
    table = [header] + [
        (
            e["label"],
            str(e["order"]),
            str(e["index"]),
            _yes(e["normal"]),
            str(e["conjugates"]),
        )
        for e in entries
    ]
    _emit(args, lambda: format_columns(table), lambda: doc)
    return 0


def _cmd_decompose(args) -> int:
    G = _load_group(args.groupspec)
    record = _resolve_subgroup(G, args.subgroup)
    rho = rho_H(G, record)
    if args.structural:
        if args.flavor == "cor29":
            raise CliError("--structural trees always use the thm12 family")
        tree = decompose_structural(G, rho)
        flatten_to_certificate(tree)  # must verify; raises on defect
        doc = tree_to_json(tree)
        _emit(args, lambda: json.dumps(doc, indent=2), lambda: doc)
        return 0
    family = family_for(G, args.flavor)
    cert = membership_solve(rho, family)
    if cert is None or not verify_certificate(cert):
        print(
            "verification failed: rho[%s] of %s has no certificate over %s"
            % (record.label, args.groupspec, args.flavor),
            file=sys.stderr,
        )
        return 1
    doc = {
        "group": args.groupspec,
        "subgroup": record.label,
        "subgroup_order": record.order,
        "index": record.index,
        **certificate_to_json(cert, args.groupspec),
    }
    text = "\n".join(
        [
            "group: %s (order %d)" % (args.groupspec, G.order()),
            "subgroup: %s (order %d, index %d)"
            % (record.label, record.order, doc["index"]),
            "flavor: %s" % args.flavor,
            "certificate: %s" % cert.format_terms(),
            "verified: yes",
        ]
    )
    _emit(args, lambda: text, lambda: doc)
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 0:
        raise CliError("--samples must be at least 0, got %d" % args.samples)
    if args.max_order < 1:
        raise CliError("--max-order must be at least 1, got %d" % args.max_order)
    path = args.catalog or bundled_catalog_path()
    entries = load_catalog(path)
    selected = [e for e in entries if e.group.order() <= args.max_order]
    reports = [
        span_report(e.group, args.flavor, name=e.name, samples=args.samples, seed=args.seed)
        for e in selected
    ]
    certified = sum(1 for r in reports if r.all_certified)
    summary = "certified %d/%d groups" % (certified, len(reports))
    _emit(args, lambda: "\n\n".join([r.format_text() for r in reports] + [summary]), lambda: {
        "flavor": args.flavor,
        "max_order": args.max_order,
        "samples": args.samples,
        "seed": args.seed,
        "reports": [r.to_json() for r in reports],
        "certified_groups": certified,
        "total_groups": len(reports),
    })
    return 0 if certified == len(reports) else 1


def _cmd_parity(args) -> int:
    G = _load_group(args.groupspec)
    assignment = None
    if args.parities:
        with open(args.parities, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CliError("bad parity input file: %s" % exc) from None
            except UnicodeDecodeError:
                raise CliError("bad parity input file: not valid UTF-8") from None
            except ValueError:  # json refuses integers over 4,300 digits
                raise CliError("bad parity input file: an integer has too many digits") from None
        try:
            assignment = ParityInput.from_json(raw)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        known = set(parity_symbols(G, args.flavor))
        unknown = ["X%d" % s[1] if s[0] == "quadratic" else s[1]
                   for s in assignment.values if s not in known]
        if unknown:
            raise CliError("%s has no parity symbols %s under flavor %s"
                           % (shorten(args.groupspec), shorten(", ".join(unknown)), args.flavor))
    table = parity_table(G, assignment, args.flavor)
    _emit(args, table.format_text, lambda: {"group": args.groupspec, **table.to_json()})
    return 0


def _cmd_required_primes(args) -> int:
    G = _load_group(args.groupspec)
    primes, needs2 = required_sha_primes(G)
    ordered = sorted(primes)
    doc = {"group": args.groupspec, "odd_primes": ordered, "needs2": needs2}
    text = "\n".join(
        [
            "odd primes: %s" % (", ".join(str(p) for p in ordered) or "none"),
            "needs 2: %s" % _yes(needs2),
        ]
    )
    _emit(args, lambda: text, lambda: doc)
    return 0


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _add_groupspec(parser) -> None:
    parser.add_argument(
        "groupspec",
        metavar="GROUPSPEC",
        help='family token (C12, D8, S4, A5, Q8, F7:3) or cycle generators "(1 2 3),(1 2)"',
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parity-inductor",
        description="Certify degree-zero coset-character decompositions over twist "
        "generator families and propagate rank parities to intermediate fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="order, classes, and structure flags")
    _add_groupspec(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_group_info)

    p = sub.add_parser("chartab", help="print the character table")
    _add_groupspec(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_chartab)

    p = sub.add_parser("subgroups", help="subgroup classes up to conjugacy")
    _add_groupspec(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_subgroups)

    p = sub.add_parser(
        "decompose", help="certificate (or structural tree) for one coset character"
    )
    _add_groupspec(p)
    p.add_argument(
        "--subgroup",
        required=True,
        metavar="SPEC",
        help="subgroup class: '#3', an order, a family token, or cycle generators",
    )
    p.add_argument("--flavor", choices=["thm12", "cor29"], default="thm12")
    p.add_argument(
        "--structural",
        action="store_true",
        help="emit the recursive proof tree instead of a flat certificate",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="certify every catalog group; exit 1 on failure")
    p.add_argument("--catalog", metavar="PATH", help="JSONL catalog (default: bundled)")
    p.add_argument("--max-order", type=int, default=128, metavar="N")
    p.add_argument("--flavor", choices=["thm12", "cor29"], default="thm12")
    p.add_argument("--samples", type=int, default=20, metavar="K")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("parity", help="parity expressions/values per intermediate field")
    _add_groupspec(p)
    p.add_argument("--parities", metavar="PATH", help="JSON ±1 assignments file")
    p.add_argument("--flavor", choices=["thm12", "cor29"], default="thm12")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_parity)

    p = sub.add_parser("required-primes", help="odd primes (and 2) flagged by subquotients")
    _add_groupspec(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_required_primes)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _WORK_ERRORS as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
