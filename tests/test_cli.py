"""Tests for the command-line interface."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from parity_inductor.catalog import render_catalog
from parity_inductor.cli import main
from parity_inductor.generators import family_for
from parity_inductor.groupspec import parse_group_spec
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
    assert "certificate: +1*t2:h3:n0:Dihedral2p(3):tau3" in out
    assert "verified: yes" in out


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
        ("decompose", "S4", "--subgroup", "#3", "--structural"),
        ("parity", "A5"),
        ("subgroups", "S4"),
        ("subgroups", "A5"),
        ("chartab", "A5"),
        ("chartab", "F7:3"),
    ],
    ids=[
        "verify",
        "tree",
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
    argv = tuple(a.format(catalog=path) for a in argv)
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
