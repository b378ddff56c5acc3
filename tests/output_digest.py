"""Hash the CLI's output over the bundled catalog, one sha256 per command.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/output_digest.py

It runs 1,673 commands in one process:
- `verify` in text and json, in both flavors, at seeds 0 and 1;
- for every catalog group, `chartab`, `group-info`, `parity` and
  `required-primes` in text and json, and `subgroups --format json`;
- `decompose --subgroup #i --format json` for every subgroup class of every
  catalog group, in both flavors;
- `decompose --subgroup #i --structural --format json` for every subgroup
  class of every catalog group.

Each command prints one line: the sha256 of
``json.dumps([argv, exit code, stdout, stderr])``, then the argv.  The last
line, ``all <sha256>``, hashes those digests, one per line.  Two trees whose
last lines agree print the same bytes on every command.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from parity_inductor.catalog import bundled_catalog_path, load_bundled_catalog
from parity_inductor.cli import main
from parity_inductor.lattice import subgroup_lattice

FLAVORS = ("thm12", "cor29")


def catalog_specs():
    """Each catalog group's GROUPSPEC: its token, or its generators as cycles."""
    with open(bundled_catalog_path()) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r["spec"] if "spec" in r else ",".join(r["generators"]) for r in records]


def commands():
    """The argv of every command, in the order they run."""
    out = [["verify", "--flavor", flavor, "--seed", seed, "--format", fmt]
           for fmt in ("text", "json") for flavor in FLAVORS for seed in ("0", "1")]
    specs = catalog_specs()
    for spec in specs:
        for command in ("chartab", "group-info", "parity", "required-primes"):
            out += [[command, spec, "--format", fmt] for fmt in ("text", "json")]
        out.append(["subgroups", spec, "--format", "json"])
    classes = [len(subgroup_lattice(entry.group).records) for entry in load_bundled_catalog()]
    for spec, n in zip(specs, classes):
        out += [["decompose", spec, "--subgroup", "#%d" % i, "--flavor", flavor, "--format", "json"]
                for flavor in FLAVORS for i in range(n)]
    for spec, n in zip(specs, classes):
        out += [["decompose", spec, "--subgroup", "#%d" % i, "--structural", "--format", "json"]
                for i in range(n)]
    return out


def digest(argv):
    """sha256 of json.dumps([argv, exit code, stdout, stderr]) for one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return hashlib.sha256(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def total_digest(echo=None):
    """The sha256 of every command's digest, one per line; ``echo`` gets
    each command's line as it runs."""
    total = hashlib.sha256()
    for argv in commands():
        one = digest(argv)
        total.update((one + "\n").encode())
        if echo:
            echo("%s %s" % (one, json.dumps(argv)))
    return total.hexdigest()


if __name__ == "__main__":
    print("all %s" % total_digest(echo=print))
