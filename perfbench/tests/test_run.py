"""Tail-percentile rule, the item loop's bookkeeping, and BENCHMARK.json agreement."""

import json

import pytest

import run
import workloads


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(v) for v in range(1, 1001)]
    pct, value = run.tail(list(reversed(xs)))
    assert (pct, value) == (99.0, 990.0)
    assert sum(x > value for x in xs) == run.TAIL_BEYOND
    pct, value = run.tail([float(v) for v in range(11)])
    assert value == 0.0 and pct == pytest.approx(100.0 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail([float(v) for v in range(10)]) == (100.0, 9.0)
    with pytest.raises(ValueError):
        run.tail([])


class Scripted(workloads.Workload):
    """Items 2 and 5 crash; item 5 is the tolerated kind, item 2 is not."""

    name = "scripted"
    units_per_item = 3
    window = 2
    digest_items = 4

    def run_item(self, i):
        if i in (2, 5):
            raise ValueError(f"item {i}")
        return workloads.ItemResult(str(i).encode(), None, {"n": i})

    def tolerated(self, i):
        return i == 5


def test_measure_counts_failures_units_and_windows():
    def slow_host(clock):
        return 2 * run.REFERENCE_S  # every interval is scaled by 1/2

    res = run.measure(Scripted(0), None, items=6, clock=iter(range(100)).__next__, reference=slow_host)
    assert res.items == 6 and res.prefix_items == 4
    assert (res.attempted_units, res.failed_units, res.tolerated_units) == (18, 6, 3)
    assert [(f.item, f.tolerated) for f in res.failures] == [(2, False), (5, True)]
    assert [f.item for f in res.unexpected] == [2]
    assert res.counts == {"n": 0 + 1 + 3 + 4}
    # each item takes one clock tick: a window of 2 items x 3 units is 6 units per 2 s
    assert res.raw_window_rates == [3.0, 3.0, 3.0] and res.window_rates == [6.0, 6.0, 6.0]
    assert res.unit_latencies_s == [1 / 6] * 4
    again = run.measure(Scripted(0), None, items=5, clock=iter(range(0, 300, 3)).__next__, reference=slow_host)
    assert again.raw_window_rates == [1.0, 1.0, 1.0]  # the last window holds one item
    assert again.prefix_digest == res.prefix_digest and again.digest != res.digest


def test_measure_scales_each_item_by_the_references_around_it():
    refs = iter(run.REFERENCE_S * r for r in (1, 1, 3))  # host slows 3x after item 0

    res = run.measure(Scripted(0), None, items=2, clock=iter(range(100)).__next__,
                      reference=lambda clock: next(refs))
    # item 0 ran between references 1 and 1 (scale 1), item 1 between 1 and 3 (scale 1/2)
    assert res.unit_latencies_s == [1 / 3, 1 / 6]
    assert res.raw_window_rates == [3.0] and res.window_rates == [4.0]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
