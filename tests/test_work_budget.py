"""One work budget: every exponential path counts its work from its inputs
and refuses before it starts when the count is more than
``core.WORK_BUDGET``.

Each path is run with the budget set to its count, where it must finish,
and to one less, where it must refuse before any of its work (no sequence
walked, no row or chain built, no cut checked), with an error that names
the count and ``WORK_BUDGET``."""

import json
from fractions import Fraction

import pytest

from mixcuts import MixingInstance, core, load_instance
from mixcuts import aggregated, counterexample, hull, mixing, vertices
from mixcuts.aggregated import count_sequences
from mixcuts.cli import main

from conftest import fixture_path

# Insufficient (eps > L_W(eps)), no low row: 9,864,100 sequences.
TEN = {
    "n": 10,
    "k": 2,
    "W": [[str(i), str(11 - i)] for i in range(1, 11)],
    "epsilon": "9",
}


def recorded(monkeypatch, module, name):
    """Calls of ``module.name`` from here on, each as its arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def refuses(monkeypatch, count, run):
    """With the budget one below ``count``, ``run()`` raises before it
    starts, naming the count and the budget."""
    monkeypatch.setattr(core, "WORK_BUDGET", count - 1)
    with pytest.raises(core.GroundSetTooLarge) as caught:
        run()
    message = str(caught.value)
    assert message.startswith(f"{count} ")
    assert message.endswith(f", more than WORK_BUDGET = {count - 1}")


def test_check_work_accepts_the_budget_and_refuses_one_more():
    core.check_work(core.WORK_BUDGET, "units")
    with pytest.raises(core.GroundSetTooLarge, match="2000001 units, more than"):
        core.check_work(core.WORK_BUDGET + 1, "units")


def test_enumeration_separation_counts_its_sequences(monkeypatch, example2):
    assert not aggregated.diagnose(example2).g_submodular
    # Every z below 1, so the walk runs over all five indices.
    y, z = [Fraction(6), Fraction(3)], [Fraction(1, 2)] * 5
    want = aggregated.separate_aggregated(example2, y, z)
    walks = recorded(monkeypatch, aggregated, "walk")
    count = count_sequences(5)
    monkeypatch.setattr(core, "WORK_BUDGET", count)
    got = aggregated.separate_aggregated(example2, y, z)
    assert got.canonical_key() == want.canonical_key() and len(walks) == 1
    refuses(monkeypatch, count, lambda: aggregated.separate_aggregated(example2, y, z))
    assert len(walks) == 1


def test_family_rows_count_the_sequences_outside_the_low_set(monkeypatch):
    rows = [[4, 1], [3, 3], [1, 5], [2, 2]]
    inst = MixingInstance(rows, None, 3)
    assert not aggregated.diagnose(inst).i_bar
    want = hull.family_rows(inst)
    star = recorded(monkeypatch, hull, "star_rows")
    starred = recorded(monkeypatch, hull, "starred_rows")
    count = count_sequences(4)
    monkeypatch.setattr(core, "WORK_BUDGET", count)
    assert hull.family_rows(MixingInstance(rows, None, 3)) == want
    assert len(star) == 2 and len(starred) == 1
    refuses(monkeypatch, count, lambda: hull.family_rows(MixingInstance(rows, None, 3)))
    assert len(star) == 2 and len(starred) == 1


def test_certification_counts_every_sequence(monkeypatch, example2):
    point, _ = counterexample.witness(example2)
    want = counterexample.certify_witness(example2, point)
    walks = recorded(monkeypatch, counterexample, "walk")
    count = count_sequences(5)
    monkeypatch.setattr(core, "WORK_BUDGET", count)
    assert counterexample.certify_witness(example2, point) == want
    assert len(walks) == 1
    refuses(monkeypatch, count, lambda: counterexample.certify_witness(example2, point))
    refuses(monkeypatch, count, lambda: hull.check_sufficiency(example2))
    assert len(walks) == 1


def test_mask_floors_count_the_masks(monkeypatch, example1):
    monkeypatch.setattr(core, "WORK_BUDGET", 32)
    assert len(vertices.mask_floors(example1)) == 32
    refuses(monkeypatch, 32, lambda: vertices.mask_floors(example1))
    refuses(monkeypatch, 32, lambda: vertices.v_representation(example1))


@pytest.mark.parametrize("star_only", [True, False])
def test_chain_rows_count_their_chains(monkeypatch, star_only):
    # Value groups of sizes 2, 1, 3, 1 and a row below the lower bound:
    # 2 * 2 * 4 * 2 = 32 starred chains, 3 * 2 * 4 * 2 - 1 = 47 in all.
    inst = MixingInstance([[5], [3], [5], [2], [2], [1], [2], [0]], [1], 0)
    count = 32 if star_only else 47
    built = recorded(monkeypatch, mixing, "_column_row")
    monkeypatch.setattr(core, "WORK_BUDGET", count)
    rows = mixing._chain_rows(inst, 0, star_only)
    assert len(built) == count and len(rows) == len(set(rows))
    refuses(monkeypatch, count, lambda: mixing._chain_rows(inst, 0, star_only))
    assert len(built) == count


def test_validity_sweep_checks_every_cut_or_refuses(monkeypatch, capsys):
    # n = 5, k = 2: at most 31 chains per column and 325 sequences, at most
    # 2 points per mask and 2 rays.
    count = (2 * 31 + count_sequences(5)) * 2 * (32 + 1)
    checks = recorded(monkeypatch, vertices, "check_validity")
    lists = recorded(monkeypatch, vertices, "v_representation")
    mix = recorded(monkeypatch, mixing, "all_mixing_cuts")
    argv = ["verify", fixture_path("example1.json"), "--mode=validity"]
    monkeypatch.setattr(core, "WORK_BUDGET", count)
    assert main(argv) == 0
    assert capsys.readouterr().out == "checked 379 cuts: 379 valid, 0 invalid\n"
    assert (len(checks), len(lists), len(mix)) == (379, 1, 2)
    monkeypatch.setattr(core, "WORK_BUDGET", count - 1)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {count} cut checks (387 cuts, 66 columns at most), "
        f"more than WORK_BUDGET = {count - 1}\n"
    )
    assert (len(checks), len(lists), len(mix)) == (379, 1, 2)


def test_ten_index_witness_is_refused_before_the_vertex_list(
    monkeypatch, capsys, tmp_path
):
    inst = load_instance(json.dumps(TEN))
    assert not aggregated.diagnose(inst).sufficient

    def never(*args):
        raise AssertionError("the vertex list was built")

    monkeypatch.setattr(hull, "v_representation", never)
    monkeypatch.setattr(hull, "membership", never)
    with pytest.raises(core.GroundSetTooLarge) as caught:
        hull.check_sufficiency(inst)
    assert str(caught.value) == (
        "9864100 sequences of 10 indices to certify, "
        "more than WORK_BUDGET = 2000000"
    )
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(TEN))
    for mode in ("sufficiency", "witness"):
        assert main(["verify", str(path), f"--mode={mode}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {caught.value}\n"
