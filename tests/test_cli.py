"""Tests for the command-line interface."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from _catalog_records import render_catalog
from output_digest import catalog_specs, commands, total_digest

from parity_inductor import cli, group
from parity_inductor.chartab import CharTableError
from parity_inductor.catalog import load_bundled_catalog
from parity_inductor.cli import main
from parity_inductor.genchar import order2_linear_chars
from parity_inductor.generators import family_for
from parity_inductor.group import PermGroup
from parity_inductor.groupspec import parse_group_spec
from parity_inductor.perm import Perm
from parity_inductor.membership import certificate_from_json, verify_certificate


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_chartab_s3():
    code, out, _ = run_cli("chartab", "S3")
    assert code == 0
    assert "X0" in out and "X2" in out
    code, out, _ = run_cli("chartab", "S3", "--format", "json")
    doc = json.loads(out)
    assert sorted(doc["degrees"]) == [1, 1, 2]
    assert len(doc["rows"]) == 3 and all(len(r) == 3 for r in doc["rows"])


def test_group_info_json():
    code, out, _ = run_cli("group-info", "S3", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["order"] == 6 and doc["abelian"] is False
    assert doc["hyperelementary"] == {"p": 2, "normal_cyclic_order": 3}
    _, out, _ = run_cli("group-info", "S4", "--format", "json")
    assert json.loads(out)["hyperelementary"] is None


def test_subgroups_listing():
    code, out, _ = run_cli("subgroups", "S3", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert [e["order"] for e in doc["subgroup_classes"]] == [1, 2, 3, 6]
    assert sum(e["conjugates"] for e in doc["subgroup_classes"]) == 6


def test_decompose_text_matches_known_certificate():
    code, out, _ = run_cli("decompose", "S3", "--subgroup", "C2")
    assert code == 0
    assert "flavor: thm12" in out
    assert "certificate: +1*t2:h3:n0:Dihedral2p(3):tau3" in out
    assert "verified: yes" in out
    assert run_cli("decompose", "S3", "--subgroup", "C2", "--flavor", "thm12") == (code, out, "")


def test_decompose_structural_tree_has_twist_leaf():
    code, out, _ = run_cli("decompose", "S3", "--subgroup", "C2", "--structural")
    assert code == 0
    doc = json.loads(out)

    def leaves(node):
        if node["kind"] == "Leaf":
            yield node
        for child in node["children"]:
            yield from leaves(child)

    generators = [leaf["generator"] for leaf in leaves(doc)]
    assert generators == ["t2:h3:n0:Dihedral2p(3):tau3"]


def test_decompose_structural_rejects_cor29():
    code, _, err = run_cli(
        "decompose", "S3", "--subgroup", "C2", "--structural", "--flavor", "cor29"
    )
    assert code == 2 and "thm12" in err


def test_certificate_json_round_trip(tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        "decompose", "S4", "--subgroup", "#2", "--format", "json", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    G = parse_group_spec("S4")
    cert = certificate_from_json(doc, family_for(G, doc["flavor"]))
    assert verify_certificate(cert)


def test_subgroup_selector_forms_agree():
    outputs = []
    for selector in ["#1", "2", "C2", "(1 2)"]:
        code, out, _ = run_cli(
            "decompose", "S3", "--subgroup", selector, "--format", "json"
        )
        assert code == 0
        outputs.append(json.loads(out)["terms"])
    assert all(terms == outputs[0] for terms in outputs)


def test_ambiguous_and_missing_subgroup_specs():
    code, _, err = run_cli("decompose", "D8", "--subgroup", "C2")
    assert code == 2 and "ambiguous" in err
    code, _, err = run_cli("decompose", "S3", "--subgroup", "#9")
    assert code == 2
    code, _, err = run_cli("decompose", "S3", "--subgroup", "5")
    assert code == 2
    code, _, err = run_cli("decompose", "S4", "--subgroup", "(1 2 3 4")
    assert code == 2 and "unbalanced" in err


def test_bad_groupspec_exits_2():
    code, _, err = run_cli("group-info", "Z6")
    assert code == 2 and "error" in err


def test_group_with_too_many_subgroups_exits_2_fast():
    # C2^8 has 417,199 subgroups: refused once the enumeration passes its bound
    started = time.perf_counter()
    code, out, err = run_cli("group-info", "(1 2),(3 4),(5 6),(7 8),(9 10),(11 12),(13 14),(15 16)")
    assert time.perf_counter() - started < 5
    assert code == 2 and out == "" and "more than 32768 subgroups" in err


def test_chartab_above_the_cayley_bound_exits_2_fast(monkeypatch):
    # S8 would need a Cayley table of 40,320 ** 2 positions, about 13 GB:
    # refused on its order, before a single element is listed
    def unreachable(G):
        raise AssertionError("elements of a group of order %d were listed" % G.order())

    monkeypatch.setattr(PermGroup, "elements", unreachable)
    started = time.perf_counter()
    code, out, err = run_cli("chartab", "S8")
    assert time.perf_counter() - started < 5
    assert code == 2 and out == "" and "order 40320 exceeds the Cayley-table bound 8192" in err


@pytest.mark.parametrize("spec", ["(1 10000000)", "(1 8193)", "C10000", "S9000"])
def test_degree_above_the_cayley_bound_exits_2_fast(monkeypatch, spec):
    # a group small enough for a Cayley table acts faithfully on at most 8,192
    # points, so more points are refused before a single permutation is built
    def unreachable(self, images):
        raise AssertionError("a permutation of degree %d was built" % len(images))

    monkeypatch.setattr(Perm, "__init__", unreachable)
    started = time.perf_counter()
    code, out, err = run_cli("group-info", spec)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == "" and "exceeds the bound of 8192 points" in err


NINES = "9" * 5000  # int() refuses strings over 4,300 digits


@pytest.mark.parametrize(
    "argv",
    [
        ["group-info", "(1 %s)" % NINES],
        ["group-info", "C" + NINES],
        ["group-info", "F7:" + NINES],
        ["decompose", "C4", "--subgroup", "(1 %s)" % NINES],
        ["decompose", "C4", "--subgroup", NINES],
    ],
    ids=["cycles", "C", "F", "subgroup-cycles", "subgroup-order"],
)
def test_numbers_too_long_for_int_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, quadratic, message",
    [
        (["group-info", "C١٢"], None, "unknown family name"),
        (["group-info", "(١ ٢ ٣)"], None, "bad cycle notation"),
        (["group-info", "(1 %s)" % ("١" * 5000)], None, "bad cycle notation"),
        (["decompose", "S3", "--subgroup", "#١"], None, "bad subgroup class id"),
        (["decompose", "S3", "--subgroup", "٢"], None, "unknown family name"),
        (["decompose", "S3", "--subgroup", "(١ ٢)"], None, "bad cycle notation"),
        (["parity", "S3"], {"X²": -1}, "bad quadratic character id"),
        (["parity", "S3"], {"X١": -1}, "bad quadratic character id"),
        (["parity", "S3"], {"X" + NINES: -1}, "bad quadratic character id"),
    ],
    ids=["family", "cycles", "long-cycles", "class-id", "order", "subgroup-cycles",
         "superscript-key", "arabic-indic-key", "long-key"],
)
def test_numbers_are_read_in_ascii_digits_only(tmp_path, argv, quadratic, message):
    # int(), str.isdigit and a regex's \d all read other scripts' digits too
    if quadratic is not None:
        path = tmp_path / "parities.json"
        path.write_text(json.dumps({"quadratic": quadratic}))
        argv = argv + ["--parities", str(path)]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and err.startswith("error: " + message), err[:300]
    assert len(err) < 200, err[:300]


@pytest.mark.parametrize(
    "subgroup",
    ["#" + NINES, "#" + NINES[:1000], NINES, "X" + NINES, "(1 2" + NINES],
    ids=["class-id", "class-id-int", "order", "family", "unbalanced"],
)
def test_subgroup_refusals_shorten_long_numbers(subgroup):
    code, out, err = run_cli("decompose", "C4", "--subgroup", subgroup)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
    assert re.search(r"\d{10}\.\.\. \(\d+ digits\)", err), err


D1000 = "d" * 1000
CUT = "%s... (1000 characters)" % ("d" * 60)
C300 = "(%s)" % " ".join(map(str, range(1, 301)))


@pytest.mark.parametrize(
    "argv, parities, message",
    [
        (["group-info", "Y" * 1000], None, "unknown family name"),
        (["group-info", "(" * 1000 + "(1 2)"], None, "unbalanced parentheses"),
        (["group-info", "(1 2" + "a" * 1000 + ")"], None, "bad cycle notation"),
        (["group-info", "(%s)" % " ".join(["1"] * 1000)], None, "repeated point"),
        (["decompose", "S3", "--subgroup", "x" * 1000], None, "unknown family name"),
        (["parity", "S3"], {"dihedral": {D1000: 0}}, "dihedral[%s] must be +1 or -1" % CUT),
        (["parity", "S3"], {"dihedral": {D1000: 1}}, "S3 has no parity symbols %s" % CUT),
        (["parity", "S3"], {"dihedral": {"d%d" % i: 1 for i in range(300)}},
         "S3 has no parity symbols d0, d1, "),
        (["parity", C300], {"dihedral": {"d": 1}},
         "%s... (%d characters) has no parity symbols d" % (C300[:60], len(C300))),
        (["parity", "S3"], {"dihedral": {"d": D1000}}, "dihedral[d] must be +1 or -1, got 'ddd"),
        (["parity", "S3"], {"quadratic": {"X" + D1000: 1}}, "bad quadratic character id 'Xddd"),
        (["parity", "S3"], {"quadratic": [D1000]}, "quadratic must be a JSON object or null"),
        (["parity", "S3"], {D1000: 1}, "unknown parity input keys: %s" % CUT),
    ],
    ids=["family", "unbalanced", "cycles", "repeated-point", "subgroup", "dihedral-key",
         "unknown-symbol", "unknown-symbols", "long-group", "dihedral-value", "quadratic-key",
         "quadratic-doc", "input-key"],
)
def test_error_lines_do_not_grow_with_the_input(tmp_path, argv, parities, message):
    if parities is not None:
        path = tmp_path / "parities.json"
        path.write_text(json.dumps(parities))
        argv = argv + ["--parities", str(path)]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and err.startswith("error: " + message), err[:300]
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]


def test_json_integers_too_long_for_int_exit_2(tmp_path):
    catalog = tmp_path / "cat.jsonl"
    catalog.write_text('{"name": "C2", "spec": "C2"}\n{"name": "C3", "spec": "C3", "order": %s}\n' % NINES)
    code, out, err = run_cli("verify", "--catalog", str(catalog))
    assert (code, out, err) == (2, "", "error: line 2: an integer has too many digits\n")
    parities = tmp_path / "parities.json"
    parities.write_text('{"base": %s}' % NINES)
    code, out, err = run_cli("parity", "C4", "--parities", str(parities))
    assert (code, out) == (2, "") and "too many digits" in err


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (("verify", "--catalog"), b'{"name": "C2", "spec": "C2"}\n\xff\xfe\n', "line 2: not valid UTF-8"),
        (("parity", "S3", "--parities"), b'{"base": 1}\xff\n', "bad parity input file: not valid UTF-8"),
    ],
    ids=["catalog", "parities"],
)
def test_files_not_utf8_exit_2(tmp_path, argv, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert run_cli(*argv, str(path)) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("spec", ["C4000", "C8000", "D8000", "S2000"])
def test_family_token_above_the_lattice_bound_exits_2_fast(monkeypatch, spec):
    # the token gives the order, so the bound lists no element
    def unreachable(G, limit):
        raise AssertionError("elements of a group of degree %d were listed" % G.degree)

    monkeypatch.setattr(group, "_closure", unreachable)
    started = time.perf_counter()
    code, out, err = run_cli("group-info", spec)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == "" and "exceeds the subgroup-enumeration bound 512" in err


def _refused_small_and_fast(argv, message):
    """Run the CLI on argv in a fresh process, whose parent reads its one
    child's CPU time and peak RSS: it must exit 2 with this message in under
    0.5 s of CPU and 100 MB."""
    probe = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'parity_inductor.cli', *%r],"
        " capture_output=True, text=True)\n"
        "use = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr,"
        " use.ru_utime + use.ru_stime, use.ru_maxrss]))\n" % (argv,)
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    code, out, err, cpu_s, peak_kb = json.loads(proc.stdout)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert cpu_s < 0.5 and peak_kb < 100 * 1024, (cpu_s, peak_kb)


@pytest.mark.parametrize("spec", ["A4000", "A8000"])
def test_alternating_token_above_the_cayley_bound_is_refused_small_and_fast(spec):
    # its n - 2 three-cycles of degree n once took A4000 3 s and 598 MB
    digits = {"A4000": 12673, "A8000": 27752}[spec]
    message = "group order about 10^%d exceeds the subgroup-enumeration bound 512" % digits
    _refused_small_and_fast(["group-info", spec], message)


CYCLE_4000 = "(%s)" % " ".join(map(str, range(1, 4001)))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group-info", CYCLE_4000],
         "group order more than 512 exceeds the subgroup-enumeration bound 512"),
        (["decompose", "C12", "--subgroup", "(1 2),(1 2 3 4 5 6 7 8 9 10)"],
         "'(1 2),(1 2 3 4 5 6 7 8 9 10)' does not generate a subgroup of the group"),
        (["decompose", "C12", "--subgroup", "(1 2),(1 2 3 4 5 6 7 8 9 10 11 12)"],
         "'(1 2),(1 2 3 4 5 6 7 8 9 10 11 12)' does not generate a subgroup of the group"),
        (["decompose", "C4", "--subgroup", "S7"], "no subgroup class matches 'S7'"),
    ],
    ids=["cycle-4000", "subgroup-S10", "subgroup-S12", "subgroup-token-S7"],
)
def test_oversize_group_or_subgroup_is_refused_small_and_fast(argv, message):
    # a group written as cycles is listed to one element past the bound at
    # hand (512, or |G| for a subgroup); a token's table is built only once
    # its order matches a subgroup class
    _refused_small_and_fast(argv, message)


def _chartab_in_a_fresh_process(spec, *flags):
    """Run `chartab` on spec in a fresh process, whose parent streams its
    stdout into a sha256 and reads its one child's CPU time and peak RSS."""
    probe = (
        "import hashlib, json, resource, subprocess, sys\n"
        "proc = subprocess.Popen([sys.executable, '-m', 'parity_inductor.cli', 'chartab', %r, *%r],"
        " stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
        "digest = hashlib.sha256()\n"
        "for chunk in iter(lambda: proc.stdout.read(1 << 20), b''):\n"
        "    digest.update(chunk)\n"
        "err, code = proc.stderr.read().decode(), proc.wait()\n"
        "use = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "print(json.dumps([code, digest.hexdigest(), err,"
        " use.ru_utime + use.ru_stime, use.ru_maxrss]))\n" % (spec, flags)
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout)


C2_9 = ", ".join("(%d %d)" % (i, i + 1) for i in range(1, 19, 2))


@pytest.mark.large
@pytest.mark.parametrize(
    "spec, digest, cpu_bound, mb_bound",
    [
        (C2_9, "5b7a5f3ffc7421ac01d80db2c1dfccc76e5359eaf9a46a45470f6604f35be5a0", 1.0, 100),
        # every column pads to its class representative, a 512-cycle's
        # power: 512 MB of text
        ("C512", "a1e93551ea1d3b5cd1a6b24271e27a3da4107bfcfc6900aa8e7e4d2fe443c912", 4.0, 2000),
    ],
    ids=["C2^9", "C512"],
)
def test_large_abelian_chartab_is_fast(spec, digest, cpu_bound, mb_bound):
    # on a shared 2-core host, with Gram sums between linear rows these took
    # 4.0 s (C2^9) and 12.3-13.1 s (C512) of CPU; the bounds are about twice
    # the 0.45-0.54 s and 1.75-1.96 s they take with the homomorphism check
    code, got, err, cpu_s, peak_kb = _chartab_in_a_fresh_process(spec)
    assert (code, got, err) == (0, digest, "")
    assert cpu_s < cpu_bound and peak_kb < mb_bound * 1024, (cpu_s, peak_kb)


@pytest.mark.large
def test_json_chartab_builds_no_text():
    # the 512 MB text table is never formatted for --format json: with it,
    # this peaked at 1.05 GB; the document alone takes 0.9 s of CPU and 65 MB
    code, got, err, cpu_s, peak_kb = _chartab_in_a_fresh_process("C512", "--format", "json")
    assert (code, got, err) == (
        0, "04898181b3cdef4829d5171db103a652f1066e18f6ca35973c2b13e1e60ab2c3", ""
    )
    assert peak_kb < 100 * 1024, peak_kb


@pytest.mark.large
def test_catalog_outputs_match_the_pinned_digest():
    # `tests/output_digest.py`: every catalog command's (argv, exit code,
    # stdout, stderr), hashed; a change to any byte of them moves the digest
    assert len(commands()) == 1673
    assert total_digest() == "a16ac2a58128d273819eb38d4a9a8f704b52b0e266db17c52a79b94c12f23166"


@pytest.mark.parametrize("token", ["S7", "S8"])
def test_subgroup_token_of_no_record_order_builds_no_table(monkeypatch, token):
    # K's order matches no record of C4, so K's classes are never needed
    cayley = PermGroup.cayley

    def only_c4(G):
        assert G.order() <= 4, "a Cayley table of order %d was built" % G.order()
        return cayley(G)

    monkeypatch.setattr(PermGroup, "cayley", only_c4)
    code, out, err = run_cli("decompose", "C4", "--subgroup", token)
    assert (code, out, err) == (2, "", "error: no subgroup class matches '%s'\n" % token)


def test_order_too_long_for_str_is_refused_by_size(monkeypatch):
    # S2000 has order 2000!, 5,736 digits: more than str() prints
    monkeypatch.setattr(group, "_closure", lambda G, limit: pytest.fail("elements were listed"))
    code, out, err = run_cli("chartab", "S2000")
    assert (code, out) == (2, "")
    assert err == "error: group order about 10^5735 exceeds the Cayley-table bound 8192\n"


def test_verify_custom_catalog(tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_text(
        render_catalog(
            [
                {"name": "S3", "spec": "S3", "order": 6},
                {"name": "C8", "spec": "C8", "order": 8},
                {"name": "D8", "spec": "D8", "order": 8},
            ]
        )
    )
    code, out, _ = run_cli(
        "verify", "--catalog", str(path), "--samples", "2", "--seed", "7"
    )
    assert code == 0
    assert out.rstrip().endswith("certified 3/3 groups")
    assert out.index("group S3") < out.index("group C8") < out.index("group D8")

    code, out_json, _ = run_cli(
        "verify", "--catalog", str(path), "--samples", "2", "--seed", "7",
        "--format", "json",
    )
    doc = json.loads(out_json)
    assert doc["certified_groups"] == doc["total_groups"] == 3
    assert [r["group"] for r in doc["reports"]] == ["S3", "C8", "D8"]


def test_verify_max_order_filters(tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_text(
        render_catalog(
            [
                {"name": "C2", "spec": "C2"},
                {"name": "S4", "spec": "S4"},
            ]
        )
    )
    code, out, _ = run_cli(
        "verify", "--catalog", str(path), "--max-order", "10", "--samples", "1"
    )
    assert code == 0 and "certified 1/1 groups" in out and "S4" not in out


def test_verify_empty_catalog(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run_cli("verify", "--catalog", str(path))
    assert code == 0 and out.strip() == "certified 0/0 groups"


def test_verify_rejects_negative_samples():
    code, out, err = run_cli("verify", "--samples", "-3", "--format", "json")
    assert code == 2 and out == "" and "--samples must be at least 0" in err


@pytest.mark.parametrize("max_order", ["0", "-1"])
def test_verify_rejects_max_order_below_one(max_order):
    code, out, err = run_cli("verify", "--max-order", max_order)
    assert code == 2 and out == "" and "--max-order must be at least 1, got " + max_order in err


def test_verify_malformed_catalog(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{nope\n")
    code, _, err = run_cli("verify", "--catalog", str(path))
    assert code == 2 and "line 1" in err


# sha256 of `chartab SPEC --format json` and of `chartab SPEC`, as printed
_CHARTAB_DIGESTS = {
    "A5": (
        "186c7291f3aacbf2a6919a6839acfa928e3b483d841d862c6693b1ae235ed9c6",
        "296a0807ea4dbe9a1004cdf563fea41207fd04d517512189ac1f2934cd4b5a00",
    ),
    "F7:3": (
        "b052518b6608a124e8b4bfff508b45d2eea3c9d34d8bf39dbebaa3fe2e7b86eb",
        "184798970a655fc3cbfc694a8e6048aeceda5aae69e59e844fb68a40930611e7",
    ),
    "(1 4 7)(2 8 5), (1 6 2 3)(4 7 8 5)": (  # SL(2,3)
        "d7b29bfa01a656a0ed3a63a678633322c871ce3cfb4855aa45f81f70573ae83a",
        "8b971d10187f20ffbe2a0501883d2a833993abe7c1953de3a3072e93bc241f15",
    ),
    "C8": (
        "88b8d0739d79bf8fed7c4e26a3983ef9fb91241649ee203849039121d49dae28",
        "317b88583c140ea6d997cfcb253d12eb337c93cae8e286487fca0f7568e16817",
    ),
}


@pytest.mark.parametrize(
    "spec", list(_CHARTAB_DIGESTS), ids=["A5", "F7:3", "SL(2,3)", "C8"]
)
def test_chartab_rendering_is_pinned(spec):
    want_json, want_text = _CHARTAB_DIGESTS[spec]
    code, out, _ = run_cli("chartab", spec, "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want_json
    code, out, _ = run_cli("chartab", spec)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want_text


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--catalog", "{catalog}", "--samples", "4", "--seed", "3"),
        # C25 and C29 have no random target at the default bound
        ("verify", "--catalog", "{empty_space}", "--samples", "5"),
        ("decompose", "S4", "--subgroup", "#3", "--structural"),
        # a subgroup given by cycles, looked up by its positions
        ("decompose", "S4", "--subgroup", "(1 3)", "--structural"),
        # Thm2.8.case4, through kernel preimages in the quotient
        ("decompose", "D16", "--subgroup", "#0", "--structural"),
        # Prop2.6.case1 and case3, through inflation
        ("decompose", "C12", "--subgroup", "#1", "--structural"),
        ("parity", "A5"),
        ("subgroups", "S4"),
        ("subgroups", "A5"),
        ("chartab", "A5"),
        ("chartab", "F7:3"),
    ],
    ids=[
        "verify",
        "verify-empty-space",
        "tree",
        "tree-cycles",
        "tree-D16",
        "tree-C12",
        "parity",
        "subgroups-S4",
        "subgroups-A5",
        "chartab-A5",
        "chartab-F7:3",
    ],
)
def test_verify_deterministic_across_hash_seeds(tmp_path, argv):
    path = tmp_path / "cat.jsonl"
    path.write_text(
        render_catalog(
            [
                {"name": "S3", "spec": "S3"},
                {"name": "A4", "spec": "A4"},
                {"name": "D10", "spec": "D10"},
                {"name": "C12", "spec": "C12"},
            ]
        )
    )
    empty_space = tmp_path / "empty_space.jsonl"
    empty_space.write_text(
        render_catalog([{"name": n, "spec": n} for n in ("C25", "C29", "D10")])
    )
    argv = tuple(a.format(catalog=path, empty_space=empty_space) for a in argv)
    _, serial, _ = run_cli(*argv)
    _, again, _ = run_cli(*argv)
    assert serial == again
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "parity_inductor.cli", *argv, "--format", "json"],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# sha256 of `verify --format json --seed 0` over the bundled catalog: the
# digest the benchmark's catalog_sweep workload pins for the same bytes
VERIFY_SEED0_JSON = "db660aa3baf539b984b05487d5e28dd76bdf91ba72aa9ad6c9cded5dea8f2beb"


def test_verify_json_bytes_are_pinned():
    code, out, err = run_cli("verify", "--format", "json", "--seed", "0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED0_JSON


# sha256 of `verify --flavor cor29 --format json --seed 0`: its usage labels
# name each generator by its tag, else its kind ("cyclic", never "type2")
VERIFY_COR29_SEED0_JSON = "02e844fe5049981f2b75ba21390cddf00704663719f29ae6091e3389e1c76d48"


def test_verify_cor29_json_bytes_are_pinned():
    code, out, err = run_cli("verify", "--flavor", "cor29", "--format", "json", "--seed", "0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_COR29_SEED0_JSON


def test_parity_cli_with_assignment_file(tmp_path):
    path = tmp_path / "parities.json"
    path.write_text(
        json.dumps(
            {
                "base": 1,
                "quadratic": {"X1": 1},
                "dihedral": {"t2:h3:n0:Dihedral2p(3):tau3": -1},
            }
        )
    )
    code, out, _ = run_cli("parity", "S3", "--parities", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["field", "index", "expression", "value"]
    cubic = [ln for ln in lines if ln.startswith("F") and "  3" in ln.split("  ")[1]]
    values = {}
    for line in lines[1:]:
        parts = line.split()
        values[int(parts[1])] = parts[-1]
    assert values[3] == "-1" and values[1] == "+1" and values[2] == "+1"


def test_parity_cli_symbolic_without_file():
    code, out, _ = run_cli("parity", "S3", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert all(row["value"] is None for row in doc["rows"])
    assert doc["rows"][0]["expression"] == ["Base"]


def test_parity_cli_rejects_bad_input_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli("parity", "S3", "--parities", str(path))
    assert code == 2
    path.write_text(json.dumps({"base": 3}))
    code, _, err = run_cli("parity", "S3", "--parities", str(path))
    assert code == 2 and "base" in err
    code, _, err = run_cli("parity", "S3", "--parities", str(tmp_path / "nope.json"))
    assert code == 2


def test_parity_cli_rejects_unknown_symbols(tmp_path):
    path = tmp_path / "parities.json"
    path.write_text(json.dumps({"quadratic": {"X99": -1, "X0": 1}, "dihedral": {"nope": -1}}))
    code, out, err = run_cli("parity", "D8", "--parities", str(path))
    assert code == 2 and out == ""
    assert "X99, X0, nope" in err, err
    # a thm12 twist id names no symbol of the cor29 family
    path.write_text(json.dumps({"dihedral": {"t2:h3:n0:Dihedral2p(3):tau3": -1}}))
    assert run_cli("parity", "S3", "--parities", str(path))[0] == 0
    code, out, err = run_cli("parity", "S3", "--parities", str(path), "--flavor", "cor29")
    assert code == 2 and out == "" and "t2:h3:n0:Dihedral2p(3):tau3" in err


# sha256 over (spec, format, exit code, stdout, stderr), one JSON line each, of
# `parity <spec> --parities FILE --format text|json` for every catalog group of
# order <= 24, FILE setting every thm12 symbol of the group to -1
PARITY_ALL_MINUS_ONE = "86cf9aa4fcdeff33a1a07aa22a34be12460d95e9612a842f19cf1a3d61b50baf"


def test_parity_cli_with_every_symbol_set_is_pinned(tmp_path):
    path = tmp_path / "parities.json"
    total = hashlib.sha256()
    runs = 0
    for spec, entry in zip(catalog_specs(), load_bundled_catalog()):
        G = entry.group
        if G.order() > 24:
            continue
        path.write_text(json.dumps({
            "base": -1,
            "quadratic": {"X%d" % lc.row: -1 for lc in order2_linear_chars(G)},
            "dihedral": {d.gen_id: -1 for d in family_for(G, "thm12") if d.kind == "type2"},
        }))
        for fmt in ("text", "json"):
            code, out, err = run_cli("parity", spec, "--parities", str(path), "--format", fmt)
            assert (code, err) == (0, ""), (spec, err)
            total.update((json.dumps([spec, fmt, code, out, err]) + "\n").encode())
            runs += 1
    assert runs == 86
    assert total.hexdigest() == PARITY_ALL_MINUS_ONE


@pytest.mark.parametrize("quadratic", [{"X1": 1, "1": -1}, {"1": -1, "X1": 1}])
def test_parity_cli_rejects_a_row_named_twice(tmp_path, quadratic):
    # "X1", "1" and "X01" all name row 1: neither spelling may silently win
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"base": 1, "quadratic": quadratic}))
    code, out, err = run_cli("parity", "S3", "--parities", str(path))
    assert code == 2 and out == "" and "X1" in err, err


def test_parity_cli_rejects_bool_and_float_signs(tmp_path):
    path = tmp_path / "signs.json"
    for doc in (
        {"base": True},
        {"base": 1, "quadratic": {"X1": 1.0}},
        {"base": True, "quadratic": {"X1": 1.0}},
        {"base": 1, "dihedral": {"t2:h3:n0:Dihedral2p(3):tau3": -1.0}},
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("parity", "S3", "--parities", str(path))
        assert code == 2 and out == "" and "must be +1 or -1" in err, doc


def test_parity_cli_rejects_symbol_maps_that_are_not_objects(tmp_path):
    path = tmp_path / "maps.json"
    for doc in ({"quadratic": [1]}, {"dihedral": "x"}, {"quadratic": []}, {"dihedral": False}):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("parity", "D8", "--parities", str(path))
        assert code == 2 and out == "", doc
        assert "must be a JSON object or null" in err, doc
    path.write_text(json.dumps({"base": 1, "quadratic": None, "dihedral": None}))
    assert run_cli("parity", "D8", "--parities", str(path))[0] == 0


def test_table_defect_exits_1(monkeypatch):
    def defect(G):
        raise CharTableError("degree squares do not sum to the group order")

    monkeypatch.setattr(cli, "character_table", defect)
    code, out, err = run_cli("chartab", "S3")
    assert (code, out) == (1, "")
    assert err == "verification failed: degree squares do not sum to the group order\n"


def test_required_primes_cli():
    code, out, _ = run_cli("required-primes", "S4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"group": "S4", "odd_primes": [3], "needs2": True}
    code, out, _ = run_cli("required-primes", "C2")
    assert "odd primes: none" in out and "needs 2: no" in out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "parity_inductor.cli", "chartab", "S3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and "X2" in proc.stdout


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    for name in ["group-info", "chartab", "decompose", "verify", "parity"]:
        assert name in out
