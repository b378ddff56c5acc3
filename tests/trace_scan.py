"""List the package's functions that the traffic never enters.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/trace_scan.py

The traffic is what the project runs for its users: every `parity-inductor`
command and every ``python`` block in the README, then the set-up and one
pass of each perfbench workload at its default seed.  All of it runs in this
process under ``sys.setprofile``, which records each function of
``src/parity_inductor`` that is entered.  The script prints every named
function or method defined there (found by walking the modules' code
objects; dunder methods, lambdas and comprehensions are left out) that was
never entered, one ``module.qualname`` per line, then their count.  Where
the name scan of `test_every_definition_is_called.py` goes by names, this
goes by calls: a name that only the tests call shows here.  A helper that
runs only when input is refused shows here too, since the traffic is
well-formed.
"""

from __future__ import annotations

import io
import json
import os
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parity_inductor"


def definitions():
    """(file, first line) -> "module.qualname" of every named function in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            name = code.co_name
            if name.startswith("<") or (name.startswith("__") and name.endswith("__")):
                continue
            out[(str(path), code.co_firstlineno)] = "%s.%s" % (path.stem, code.co_qualname)
    return out


def readme_traffic(workdir):
    """The README's `parity-inductor` commands, each as one call of the CLI in
    ``workdir``, then its python blocks.  The files the commands name are
    made there first: ``inputs.json`` with the inputs behind the README's
    parity table, and ``mygroups.jsonl`` as a copy of the bundled catalog."""
    from parity_inductor.catalog import bundled_catalog_path
    from parity_inductor.cli import main

    (workdir / "inputs.json").write_text(json.dumps(
        {"base": 1, "quadratic": {"X1": 1}, "dihedral": {"t2:h3:n0:Dihedral2p(3):tau3": -1}}))
    (workdir / "mygroups.jsonl").write_text(Path(bundled_catalog_path()).read_text())
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["parity-inductor"]:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    main(argv[1:])
    for source in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        with redirect_stdout(io.StringIO()):
            exec(compile(source, "README.md", "exec"), {"__name__": "__readme__"})


def perfbench_traffic():
    """The set-up and one checked pass of each workload, on the package as
    `perfbench/run.py` imports it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import import_package
    from workloads import DEFAULT_SEED, WORKLOADS, Check, Pass, build_counters

    pi = import_package()
    for workload in WORKLOADS.values():
        run = workload(pi, DEFAULT_SEED)
        state = run.setup(Pass())
        chk = Check()
        run.check(state, run.run_pass(state, Pass()), chk)
        build_counters(pi, run.groups(state), chk)  # as a traced run reads them


def main() -> int:
    defined = definitions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        sys.setprofile(profile)
        try:
            readme_traffic(Path(workdir))
            perfbench_traffic()
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    missed = sorted(name for key, name in defined.items() if key not in entered)
    for name in missed:
        print(name)
    print("%d of %d functions never entered" % (len(missed), len(defined)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
