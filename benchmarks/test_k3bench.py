"""Tests of the benchmark's own helpers (no k3pencils needed)."""

import json
import random
from pathlib import Path

from k3bench import inputs, metrics, oracles, stats, trace

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_needs_ten_samples_beyond():
    xs = list(range(100))
    random.Random(1).shuffle(xs)
    value, pct, n = stats.tail(xs)
    assert (value, n) == (89, 100)
    assert sum(1 for x in xs if x > value) == 10
    assert pct == 90.0


def test_tail_falls_back_to_the_median_below_21_samples():
    assert stats.tail([5, 1, 3]) == (3, 50.0, 3)
    assert stats.tail(list(range(20))) == (9.5, 50.0, 20)
    value, pct, n = stats.tail(list(range(21)))
    assert (value, n) == (10, 21)
    assert abs(pct - 100 * 11 / 21) < 1e-12


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],      # overlaps a: the union 1..5 counts once
        ["leaf", 2.5, 4.5, 2],
        ["c", 9.0, 12.0, 0],     # runs past its parent: clipped at 10
    ]
    got = trace.self_times(spans)
    assert got == [10.0 - 4.0 - 1.0, 2.0, 1.0, 2.0, 3.0]
    by_name = trace.totals(spans)
    assert by_name["b"] == [1, 1.0, 3.0]


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    def everything(seed):
        rng = random.Random(seed)
        rounds = [[inputs.query_json(c) for c in inputs.query_round(rng)]
                  for _ in range(2)]
        sizes = {g: (6, 9) for g in inputs.ALL_GROUPS}
        picks = inputs.witness_rounds(rng, sizes, 3)
        pool = inputs.lattice_pool(rng, [("ctx", "v", 2, "curve A\n")])
        return inputs.digest([rounds, picks, [i.as_json() for i in pool]])

    assert everything(7) == everything(7)
    assert everything(7) != everything(8)


def test_query_round_holds_every_call_once():
    calls = inputs.query_round(random.Random(3))
    kinds = sorted(c[0] for c in calls)
    assert kinds.count("groups") == 1
    for cmd in ("orbits", "fixlines", "sing", "nu"):
        assert sorted(c[1] for c in calls if c[0] == cmd) == sorted(
            inputs.PENCIL_GROUPS)
    assert sorted(c[1] for c in calls if c[0] == "lattice") == sorted(
        inputs.LATTICE_WHATS)


def test_generated_configs_are_nondegenerate_and_divisible():
    rng = random.Random(11)
    for rank, block in ((10, "A1x8"), (16, "A1x16"), (22, "A2x6")):
        text, p = inputs.lattice_config(rng, rank, block)
        names, gram, v = oracles.parse_graph(text, "V")
        assert len(names) == rank
        assert oracles.fraction_det(gram) != 0
        assert oracles.rational_divisible(gram, v, p)


def test_fraction_det_and_divisibility_oracles():
    a2 = [[-2, 1], [1, -2]]
    assert oracles.fraction_det(a2) == 3
    assert oracles.fraction_det([[0, 1], [1, 0]]) == -1
    assert not oracles.rational_divisible(a2, [1, -1], 3)  # square -2/3
    a1x4 = [[-2 if i == j else 0 for j in range(4)] for i in range(4)]
    assert oracles.rational_divisible(a1x4, [1, 1, 1, 1], 2)
    assert not oracles.rational_divisible(a1x4, [1, 1, 0, 0], 2)
    assert oracles.group_order("Z2 x Z6") == (12, [2, 6])
    assert oracles.group_order("0") == (1, [])


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == {name: (unit, better)
                   for name, unit, better, _ in metrics.END_TO_END}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {name: (unit, better)
                     for name, (unit, better, _) in metrics.PER_LAYER.items()}
    assert set(metrics.units(False)) == set(e2e)
    assert set(metrics.units(True)) == set(layer)
