"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import random
import sys
from pathlib import Path

import pytest

import gen
import run
import tracing
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) == 9
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(999)), 99) is None
    assert run.percentile(list(reversed(range(1000))), 99) == 989


def synthetic(spans):
    """A tracer holding (name, parent, start, end) spans, all of op 0."""
    tracer = tracing.Tracer()
    for name, parent, start, end in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.val.append(0)
        tracer.aux.append(0)
    return tracer


NESTED = [
    (tracing.OP, -1, 0.0, 10.0),
    ("hull.membership", 0, 1.0, 4.0),
    ("exactlp.solve_feasibility", 1, 2.0, 3.0),
    ("hull.membership", 0, 5.0, 9.0),
]


def test_self_time_subtracts_direct_children_only():
    tracer = synthetic(NESTED)
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    totals = tracing.layer_totals(tracer, tracer.self_times())
    assert totals["calls"]["hull.membership"] == 2
    assert totals["self_s"]["hull.membership"] == 6.0


def test_self_times_and_benchmark_time_account_for_wall():
    tracer = synthetic(NESTED)
    bench, errors = tracing.accounting(tracer, tracer.self_times(), 12.0)
    assert errors == []
    assert bench == 5.0  # op self time 3 plus 2 s outside the op
    assert 7.0 + bench == 12.0


@pytest.mark.parametrize(
    "last, problem",
    [
        (("hull.membership", 0, 5.0, 11.0), "not inside its parent"),
        (("hull.membership", 0, 3.5, 9.0), "overlaps an earlier sibling"),
    ],
)
def test_accounting_rejects_spans_that_do_not_nest(last, problem):
    tracer = synthetic(NESTED[:3] + [last])
    _, errors = tracing.accounting(tracer, tracer.self_times(), 12.0)
    assert any(problem in e for e in errors)


def test_accounting_rejects_roots_longer_than_wall():
    tracer = synthetic(NESTED)
    _, errors = tracing.accounting(tracer, tracer.self_times(), 9.0)
    assert any("more than the wall time" in e for e in errors)


def test_install_wraps_every_binding_and_uninstall_restores():
    lib = run.fresh_import()
    from mixcuts import aggregated, counterexample, hull

    original = aggregated.aggregated_cut
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert aggregated.aggregated_cut is hull.aggregated_cut is counterexample.aggregated_cut
        assert aggregated.aggregated_cut.__wrapped__ is original
        inst = lib.loads_instance((Path(__file__).parent.parent / "fixtures" / "example2.json").read_text())
        tracer.tag = "enum"
        tracer.run_op(0, lib.aggregated.separate_aggregated, inst, ["8", "8"], ["1/2", "1/2", "1", "1", "1"])
    finally:
        tracer.uninstall()
    assert aggregated.aggregated_cut is hull.aggregated_cut is original
    names = [tracer.names[n] for n in tracer.name]
    assert names[:3] == [tracing.OP, "aggregated.separate_aggregated.enum", "hull.diagnose"]
    assert names.count("aggregated.aggregated_cut") == 4  # sequences over 2 free indices
    assert all(tracer.parent[i] == 1 for i, n in enumerate(names) if n == "hull.diagnose")
    _, errors = tracing.accounting(tracer, tracer.self_times(), tracer.end[0] - tracer.start[0])
    assert errors == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_seeded(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.generate(5, 1, tmp_path)
    assert workload.generate(5, 1, tmp_path) == first
    assert workload.generate(6, 1, tmp_path) != first


def test_generated_instances_meet_their_conditions():
    rng = random.Random(3)
    for case in ("lw", "c1", "c2"):
        weights, eps = gen.insufficient_instance(rng, 5, 2, case)
        _, c1, c2, ok = gen.conditions(weights, eps)
        assert not ok and {"lw": c1 and c2, "c1": not c1 and c2, "c2": not c2}[case]
    weights, eps = gen.sufficient_instance(rng, 4, 2, low_row=True)
    i_bar, _, _, ok = gen.conditions(weights, eps)
    assert ok and i_bar


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.DECLARED)
    result, _, code = run.run(WORKLOADS["families"], 1, 0.0, True, 1, 2, lambda line: None)
    assert code == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in spec["per_layer"])


def test_smoke_runs_every_workload_in_both_modes(capsys):
    assert run.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    for name in WORKLOADS:
        assert f"{name}: " in out
    assert "FAILED" not in out
