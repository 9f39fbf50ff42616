"""Tests of the benchmark itself, on tiny inputs."""

import json
from pathlib import Path

import run
import spans
import workloads
from mixedpf import evaluator, models
from mixedpf.algebra import GaussianRational

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "verify-charpoly": lambda seed: workloads.verify_charpoly(seed, max_vertices=2, max_edges=3),
    "eval-ladders": lambda seed: workloads.eval_ladders(seed, names=("K4", "fig-8", "prism-3")),
    "connrank-gram": lambda seed: workloads.connrank_gram(seed, families=((2, 1, 3, 4),)),
}


def traced_pass(items):
    tracer = spans.Tracer()
    with tracer.installed():
        return run.run_pass(items, tracer)


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_every_metric_is_printed_by_name_with_its_unit():
    items = TINY["eval-ladders"](0)
    untraced = [run.run_pass(items)]
    e2e = run.end_to_end_metrics(untraced, [(0.5, 1.0), (0.25, 2.0), (0.75, 1.5)])
    layer = run.per_layer_metrics(untraced, [traced_pass(items)], spans.COUNT_METRICS)
    assert {name: unit for name, (_, unit) in e2e.items()} == declared("end_to_end")
    assert {name: unit for name, (_, unit) in layer.items()} == declared("per_layer")
    for metrics in (e2e, layer):
        lines = run.result_lines("eval-ladders", 0, items, untraced, metrics)
        for name, (_, unit) in metrics.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] == len(items) and result["failed"] == 0
        assert set(result["metrics"]) == set(metrics)


def test_times_are_divided_by_the_slowdown():
    measured = run.run_pass(TINY["eval-ladders"](0))
    assert len(measured.probes) >= 2
    steady = measured._replace(probes=[run.PROBE_REFERENCE_S] * len(measured.probes))
    slower = measured._replace(probes=[2 * run.PROBE_REFERENCE_S] * len(measured.probes))
    base = run.end_to_end_metrics([steady], [(0.5, 1.0)])
    slow = run.end_to_end_metrics([slower], [(0.5, 2.0)])
    assert slower.slowdown == 2.0
    for name in ("setup_s", "run_s", "item_p50_ms", "item_p90_ms"):
        assert slow[name][0] == base[name][0] / 2
    assert slow["peak_rss_mb"] == base["peak_rss_mb"]


def test_planted_wrong_reference_is_counted_as_failed():
    items = TINY["eval-ladders"](0)
    good = run.run_pass(items)
    assert good.failed == 0
    k4 = workloads.LADDERS["K4"]
    model = models.charpoly_model(workloads.LADDER_T)
    right = evaluator.partition_function(k4, model, "mixed").value
    wrong = workloads.ladder_item("K4", k4, model, right + GaussianRational(1))
    planted = [wrong if item.label == "K4" else item for item in items]
    bad = run.run_pass(planted)
    assert bad.failed == 1
    lines = run.result_lines("eval-ladders", 0, planted, [bad], {})
    assert f"failed_frac {1 / len(planted):.6g} (1/{len(planted)})" in lines
    assert json.loads(lines[-1])["correct"] is False


def test_planted_wrong_rank_is_counted_as_failed():
    fragments = workloads.sample_fragments(2, 1, 3, 4)
    model = models.charpoly_model(0, cap=workloads.CAP)
    upper = workloads.gram_upper(fragments, model)
    rank = workloads.reference_rank(workloads._symmetric(upper, len(fragments)))
    right = workloads.certificate_item("right", fragments, model, "mixed", rank)
    wrong = workloads.certificate_item("wrong", fragments, model, "mixed", rank - 1)
    result = run.run_pass([right, wrong])
    assert result.failed == 1


def test_reference_rank_over_gaussian_rationals():
    i = GaussianRational(0, 1)
    assert workloads.reference_rank([]) == 0
    assert workloads.reference_rank([[0, 0], [0, 0]]) == 0
    assert workloads.reference_rank([[1, 2], [2, 4]]) == 1
    assert workloads.reference_rank([[1, i], [i, -1]]) == 1
    assert workloads.reference_rank([[1, i], [i, 1]]) == 2
    assert workloads.reference_rank([[0, 1, 2], [0, 2, 4], [3, 0, 1]]) == 2


def test_an_exception_is_a_failed_input():
    boom = workloads.Item("boom", lambda: 1 / 0, lambda values: True)
    result = run.run_pass([boom])
    assert result.failed == 1
    assert result.digest == run.digest([boom], [["ZeroDivisionError: division by zero"]])


def test_traced_counts_repeat_exactly_for_a_seed():
    for make in TINY.values():
        first = traced_pass(make(3)).layers
        second = traced_pass(make(3)).layers
        assert {n: first[n] for n in spans.COUNT_METRICS} == {
            n: second[n] for n in spans.COUNT_METRICS
        }
    assert evaluator.partition_function_many.__module__ == "mixedpf.evaluator"


def test_traced_layers_match_each_workload_purpose():
    charpoly = traced_pass(TINY["verify-charpoly"](0)).layers
    ladders = traced_pass(TINY["eval-ladders"](0)).layers
    connrank = traced_pass(TINY["connrank-gram"](0)).layers
    assert charpoly["oracles.calls"] > 0
    assert ladders["oracles.calls"] == connrank["oracles.calls"] == 0
    assert connrank["connection.matrix_entries"] > 0 and connrank["connection.pairings"] > 0
    assert charpoly["connection.matrix_entries"] == ladders["connection.tensors"] == 0
    assert ladders["graph.masks_tried"] == 2**6 + 2**6 + 2**9
    assert ladders["graph.subsets_found"] == 8 + 4 + 16


def test_different_seeds_give_identical_exact_values():
    for make in TINY.values():
        a, b = make(1), make(2)
        pa, pb = run.run_pass(a), run.run_pass(b)
        assert pa.failed == pb.failed == 0
        assert pa.digest == pb.digest


def test_fragment_sample_keeps_the_family_mix():
    sample = workloads.sample_fragments(2, 3, 5, 24)
    assert len(sample) == len({id(f) for f in sample}) == 24
    edges = sorted(f.graph.n_edges for f in sample)
    assert edges[0] < edges[-1] == 5
