"""Tests of the benchmark's own arithmetic: span self time, the tail
percentile choice and failed_frac counting.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import Checks, nearest_rank, tail_percentile  # noqa: E402
from tracing import (Span, Tracer, foreign_time, layer_self_times,  # noqa: E402
                     self_times, split_runs)


class StepClock:
    """Returns the next scripted time on each call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def nested_trace():
    # a.outer [0, 10] holds b.inner [1, 4] (which holds a.leaf [2, 3]) and
    # a.same [5, 9] (which holds c.x [6, 8]).
    tracer = Tracer(clock=StepClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            with tracer.span("a.leaf"):
                pass
        with tracer.span("a.same"):
            with tracer.span("c.x"):
                pass
    return tracer.spans


def test_spans_record_parents_and_times():
    spans = nested_trace()
    assert [sp.name for sp in spans] == ["a.outer", "b.inner", "a.leaf", "a.same", "c.x"]
    assert [sp.parent for sp in spans] == [None, 0, 1, 0, 3]
    assert [sp.duration for sp in spans] == [10, 3, 1, 4, 2]


def test_self_time_subtracts_direct_children():
    assert self_times(nested_trace()) == [3, 2, 1, 2, 2]


def test_layer_self_time_sums_to_root_duration():
    per_layer = layer_self_times(nested_trace())
    assert per_layer == {"a": 6, "b": 2, "c": 2}
    assert sum(per_layer.values()) == 10


def test_foreign_time_stops_at_the_first_other_layer():
    spans = nested_trace()
    # b.inner (3) and c.x (2, reached through a.same) are foreign to a.outer;
    # a.leaf sits inside b.inner and is already counted there.
    assert foreign_time(spans, 0) == 5
    assert foreign_time(spans, 1) == 1


def test_split_runs_reindexes_parents():
    spans = [Span("a.f", 0, 5, None, 1), Span("b.g", 1, 2, 0, 1),
             Span("a.f", 6, 9, None, 2), Span("b.g", 7, 8, 2, 2)]
    runs = split_runs(spans)
    assert sorted(runs) == [1, 2]
    assert [sp.parent for sp in runs[2]] == [None, 0]
    assert self_times(runs[2]) == [2, 1]


def test_wrap_annotates_and_unpatch_restores():
    class Owner:
        @staticmethod
        def f(x, scale=2):
            return x * scale

    original = Owner.f
    tracer = Tracer()
    tracer.patch(Owner, "f", tracer.wrap("m.f", original,
                                         lambda args, r: {"scale": args["scale"], "r": r}))
    assert Owner.f(3) == 6
    tracer.unpatch()
    assert Owner.f is original
    assert tracer.spans[0].attrs == {"scale": 2, "r": 6}


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == (50, 50.0)
    assert nearest_rank(values, 99.9) == (100, 100.0)


@pytest.mark.parametrize("count, expected", [
    (19, None),        # even the median would have only 9 samples beyond it
    (20, 50.0),        # rank 10, 10 beyond
    (40, 75.0),        # rank 30, 10 beyond
    (99, 75.0),        # p90 has rank 90, 9 beyond
    (100, 90.0),
    (200, 95.0),
    (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    tail = tail_percentile([float(i) for i in range(count)])
    assert (tail[0] if tail else None) == expected


def test_tail_percentile_value_is_the_nearest_rank_sample():
    values = [float(v) for v in range(100, 0, -1)]  # order must not matter
    assert tail_percentile(values) == (90.0, 90.0)


def test_failed_frac_counts_checks_and_exceptions():
    checks = Checks()
    assert checks.failed_frac == 0.0
    checks.check("ok", True)
    checks.check("bad", False, "detail")
    try:
        raise MemoryError("no room")
    except MemoryError as exc:
        checks.raised("op", exc)
    checks.check("ok again", True)
    assert (checks.attempted, checks.failed) == (4, 2)
    assert checks.failed_frac == 0.5
    assert checks.failures[0] == "bad: detail"
    assert checks.failures[1].startswith("op: raised MemoryError: no room")


def test_benchmark_json_lists_what_the_benchmark_emits():
    import json

    import layers
    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]


def test_a_repetition_that_raises_is_counted_and_the_loop_goes_on():
    import run

    calls = []

    def flaky(inputs, checks, span):
        calls.append(None)
        checks.check("value positive", True)
        if len(calls) == 1:
            raise MemoryError("lift")
        return {"lower_bound": 0.5}

    checks = Checks()
    result = run.measure(flaky, "fake", None, 0.05, checks)
    assert len(calls) >= 2 and len(result["untraced"]) == len(calls)
    assert result["values"] == [0.5] * (len(calls) - 1)
    assert checks.failed == 1
    assert checks.failures[0].startswith("fake repetition 0: raised MemoryError: lift")
    # one check per repetition, the exception, and the repeat check at the end
    assert checks.attempted == len(calls) + 2
