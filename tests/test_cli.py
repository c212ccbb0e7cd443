import json
import sys

import pytest

import mixcuts
from mixcuts.cli import main

from conftest import fixture_path


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diagnose_example1(capsys):
    code, out, _ = run_cli(capsys, "diagnose", fixture_path("example1.json"))
    assert code == 0
    assert out.splitlines()[0] == "sufficient: yes; L_W(eps)=8; I_bar={4,5}"
    assert "g_submodular=yes" in out


def test_diagnose_example2_insufficient(capsys):
    code, out, _ = run_cli(capsys, "diagnose", fixture_path("example2.json"))
    assert code == 3
    assert out.splitlines()[0] == "sufficient: no (eps > L_W(eps))"


def test_diagnose_examples_3_4_conditions(capsys):
    code, out, _ = run_cli(capsys, "diagnose", fixture_path("example3.json"))
    assert code == 3 and "C1 violated" in out
    code, out, _ = run_cli(capsys, "diagnose", fixture_path("example4.json"))
    assert code == 3 and "C2 violated" in out


def test_diagnose_garbage_file(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{{{ not json")
    code, _, err = run_cli(capsys, "diagnose", str(bad))
    assert code == 1
    assert "error" in err


def test_diagnose_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "k": 1, "W": [["-3"]]}')
    code, _, err = run_cli(capsys, "diagnose", str(bad))
    assert code == 2


def test_separate_finds_cuts(capsys):
    code, out, _ = run_cli(
        capsys,
        "separate",
        fixture_path("example1.json"),
        fixture_path("point_example1.json"),
    )
    assert code == 0
    lines = out.splitlines()
    assert "1 0 | 8 0 5 0 0 | >= 13 | Mix*" in lines
    assert any("| >= 17 | AMix*" in line for line in lines)
    # most violated first
    assert lines[0] == "1 0 | 8 0 5 0 0 | >= 13 | Mix*"


def test_separate_deterministic(capsys):
    args = (
        "separate",
        fixture_path("example1.json"),
        fixture_path("point_example1.json"),
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_separate_hull_vertex_empty(tmp_path, capsys):
    point = tmp_path / "vertex.json"
    point.write_text('{"y": ["13", "4"], "z": ["0", "0", "0", "0", "0"]}')
    code, out, _ = run_cli(
        capsys, "separate", fixture_path("example1.json"), str(point)
    )
    assert code == 0
    assert out == ""


def test_separate_malformed_point(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text('{"y": ["1"], "z": ["0"]}')
    code, _, err = run_cli(
        capsys, "separate", fixture_path("example1.json"), str(point)
    )
    assert code == 2


def test_separate_families_flag(tmp_path, capsys):
    point = tmp_path / "p.json"
    point.write_text('{"y": ["8", "8"], "z": ["0", "0", "0", "1", "1"]}')
    code, out, _ = run_cli(
        capsys,
        "separate",
        fixture_path("example1.json"),
        str(point),
        "--families=amix",
    )
    assert code == 0
    assert all("AMix" in line for line in out.splitlines())


def test_verify_sufficiency_example1(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        fixture_path("example1.json"),
        "--mode=sufficiency",
        "--samples=10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sufficient"] and doc["branch"] == "closure" and doc["ok"]


def test_verify_witness_example2(capsys):
    code, out, _ = run_cli(
        capsys, "verify", fixture_path("example2.json"), "--mode=witness"
    )
    assert code == 0
    assert "z = (1, 1/2, 1/2, 1, 1)" in out
    assert "ok: membership LP certifies the point outside the hull" in out


def test_verify_witness_example3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", fixture_path("example3.json"), "--mode=witness"
    )
    assert code == 0
    assert "case: dominance" in out


def test_verify_witness_on_sufficient_instance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", fixture_path("example1.json"), "--mode=witness"
    )
    assert code == 3


def test_verify_validity(capsys):
    code, out, _ = run_cli(
        capsys, "verify", fixture_path("example1.json"), "--mode=validity"
    )
    assert code == 0
    assert "0 invalid" in out


def test_quantile(tmp_path, capsys):
    out_path = tmp_path / "reduced.json"
    code, out, _ = run_cli(
        capsys,
        "quantile",
        fixture_path("example1_probs.json"),
        "--risk=1/5",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert "l = (8, 3)" in out
    doc = json.loads(out_path.read_text())
    assert doc["lower"] == ["0", "0"]
    assert doc["W"][0] == ["0", "0"]  # (8-8, 3-3)
    assert doc["W"][2] == ["5", "0"]  # (13-8, 2-3 clipped)


def test_quantile_requires_probabilities(capsys):
    code, _, err = run_cli(
        capsys, "quantile", fixture_path("example1.json"), "--risk=1/5"
    )
    assert code == 2


def test_twosided_cuts(capsys):
    code, out, _ = run_cli(
        capsys,
        "twosided",
        fixture_path("twosided_demo.json"),
        "--theta=2,1,3",
    )
    assert code == 0
    assert "g_submodular=yes" in out
    assert "transformed:" in out and "original:" in out


def test_twosided_band_report(capsys):
    code, out, _ = run_cli(capsys, "twosided", fixture_path("twosided_demo.json"))
    assert code == 0
    assert "band_ok=yes" in out


LIFTED_EXAMPLE1 = json.dumps(
    {
        "n": 5,
        "k": 2,
        "W": [["9", "4"], ["7", "5"], ["14", "3"], ["2", "3"], ["5", "2"]],
        "lower": ["1", "1"],
        "epsilon": "7",
    }
)


class File(str):
    """A command-line argument given as a file holding this text."""


@pytest.mark.parametrize(
    "argv,code",
    [
        (["twosided", fixture_path("twosided_demo.json"), "--theta=0,1"], 2),
        (["twosided", fixture_path("twosided_demo.json"), "--theta=1,9"], 2),
        (["twosided", fixture_path("twosided_demo.json"), "--theta=1,1"], 2),
        (["twosided", fixture_path("twosided_demo.json"), "--theta=x"], 2),
        (["twosided", fixture_path("example1.json")], 1),
        (["diagnose", LIFTED_EXAMPLE1], 0),
        (["verify", LIFTED_EXAMPLE1, "--mode=witness"], 3),
        (["diagnose", '{"n": 1, "k": 1, "W": [["-3"]]}'], 2),
        (["diagnose", "{ not json"], 1),
        (["twosided", {"w": ["1", "4"], "v": ["2", "1"], "u_a": "5"}], 2),
        (["twosided", {"w": ["6", "4"], "v": ["1", "1"], "u_a": "5"}], 2),
        (["separate", fixture_path("example1.json"), "no-such-point.json"], 1),
        (["separate", fixture_path("example1.json"), File("{ not json")], 1),
        (["separate", fixture_path("example1.json"), {"y": ["1"], "z": ["0"]}], 2),
        (
            [
                "separate",
                fixture_path("example1.json"),
                {"y": ["1", "1"], "z": ["2", "0", "0", "0", "0"]},
                "--families=amix",
            ],
            2,
        ),
    ],
)
def test_exit_codes(capsys, tmp_path, argv, code):
    # two-sided data and points are read from a file only
    for t, arg in enumerate(argv):
        if isinstance(arg, (dict, File)):
            path = tmp_path / f"arg{t}.json"
            text = arg if isinstance(arg, File) else json.dumps(arg)
            path.write_text(text, encoding="utf-8")
            argv = argv[:t] + [str(path)] + argv[t + 1 :]
    assert run_cli(capsys, *argv)[0] == code


def test_validity_sweep_enumerates_vertices_once(capsys, monkeypatch):
    original = mixcuts.v_representation
    calls = []

    def counting(inst):
        calls.append(inst)
        return original(inst)

    for name, module in list(sys.modules.items()):
        if name == "mixcuts" or name.startswith("mixcuts."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    code, out, _ = run_cli(
        capsys, "verify", fixture_path("example1.json"), "--mode=validity"
    )
    assert code == 0 and out.startswith("checked 379 cuts: 379 valid")
    assert len(calls) == 1


def test_diagnose_reduces_lower_bounds_first(capsys):
    _, plain, _ = run_cli(capsys, "diagnose", fixture_path("example1.json"))
    _, lifted, _ = run_cli(capsys, "diagnose", LIFTED_EXAMPLE1)
    assert lifted == "note: lower bounds ('1', '1') reduced away\n" + plain
