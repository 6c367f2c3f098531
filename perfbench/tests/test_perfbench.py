"""Unit tests of the benchmark's helpers: the percentile rule and its
sample-count floor, self time from span intervals, host-speed scaling,
and the oracle.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from oracle import NO_MODEL, SOLVED, UNSOLVED, WRONG, Truth, judge  # noqa: E402


# -- percentiles -------------------------------------------------------------


def test_nearest_rank_percentile():
    samples = [float(v) for v in range(1, 11)]  # 1..10, shuffled below
    shuffled = samples[5:] + samples[:5]
    assert summary.percentile(shuffled, 0.5) == 5.0
    assert summary.percentile(shuffled, 0.9) == 9.0
    assert summary.percentile(shuffled, 1.0) == 10.0
    assert summary.percentile([3.0], 0.9) == 3.0
    # 0.9 * 100 carries float noise; the rank must still be exactly 90
    assert summary.percentile([float(v) for v in range(1, 101)], 0.9) == 90.0


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        summary.percentile([], 0.5)
    with pytest.raises(ValueError):
        summary.percentile([1.0], 0.0)


def test_sample_floor_for_p90():
    assert summary.samples_beyond(100, 0.9) == 10
    assert summary.meets_floor(100, 0.9)
    assert not summary.meets_floor(99, 0.9)
    assert summary.samples_beyond(99, 0.9) == 9
    assert not summary.meets_floor(2, 0.9)
    assert summary.meets_floor(20, 0.5)
    assert not summary.meets_floor(0, 0.5)


def test_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summary.quartiles(values) == (q1, median, q3)
    assert summary.spread(values) == pytest.approx((q3 - q1) / median)


def test_agreement_rule():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    slower = [v * 1.3 for v in steady]
    assert summary.agreement(steady, steady, bound=0.1, better="lower")["ok"]
    assert not summary.agreement(steady, slower, bound=0.1, better="lower")["ok"]
    # higher-is-better: a 30% rise is an improvement, not a regression
    assert summary.agreement(steady, slower, bound=0.1, better="higher")["ok"]
    noisy = [0.5, 1.0, 1.5, 1.0, 2.0]
    assert not summary.agreement(noisy, noisy, bound=0.1, better="lower")["ok"]
    assert summary.agreement(noisy, noisy, bound=0.1, better="lower",
                             check_spread=False)["ok"]


# -- spans -------------------------------------------------------------------


def _span(sid, parent, name, start, end):
    return spans.Span(sid, parent, "r", name, start, end)


def test_self_time_subtracts_covered_child_intervals():
    trace = [
        _span(0, None, "request", 0.0, 10.0),
        _span(1, 0, "finder", 1.0, 6.0),
        _span(2, 1, "sat", 2.0, 3.0),
        _span(3, 1, "sat", 2.5, 4.0),  # overlaps its sibling: counted once
        _span(4, 0, "cex", 7.0, 9.0),
    ]
    own = spans.self_times(trace)
    assert own["request"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["finder"] == pytest.approx(5.0 - 2.0)
    assert own["sat"] == pytest.approx(1.0 + 1.5)
    assert own["cex"] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    trace = [_span(0, None, "a", 0.0, 2.0), _span(1, 0, "b", 1.0, 5.0)]
    assert spans.self_times(trace)["a"] == pytest.approx(1.0)


def test_busy_time_counts_nested_same_name_spans_once():
    trace = [
        _span(0, None, "sat", 0.0, 4.0),
        _span(1, 0, "sat", 1.0, 2.0),
        _span(2, None, "sat", 6.0, 7.0),
    ]
    assert spans.busy_times(trace)["sat"] == pytest.approx(5.0)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)


def test_wrapped_records_spans_and_restores():
    recorder = spans.SpanRecorder()
    seen = []
    original_method = _Target.__dict__["method"]
    original_build = _Target.__dict__["build"]
    with spans.wrapped(recorder, _Target, "method", "m", seen.append), \
            spans.wrapped(recorder, _Target, "build", "b"):
        with recorder.span("request"):
            assert _Target().method(1) == 2
            assert _Target.build(3) == (_Target, 3)
    assert seen == [2]
    assert [s.name for s in recorder.spans] == ["request", "m", "b"]
    assert recorder.spans[1].parent == recorder.spans[0].sid
    assert _Target.__dict__["method"] is original_method
    assert _Target.__dict__["build"] is original_build


# -- oracle ------------------------------------------------------------------

SAT_REG = Truth("sat", True, "sat")
SAT_NOREG = Truth("sat", False, "sat")
UNSAT = Truth("unsat", False, "unsat")
REFUTE = Truth("sat", False, NO_MODEL)


def test_oracle_wrong_verdicts():
    assert judge(UNSAT, "sat") == WRONG
    assert judge(SAT_REG, "unsat") == WRONG
    assert judge(SAT_NOREG, "sat") == WRONG  # no regular invariant exists
    assert judge(REFUTE, "sat") == WRONG
    assert judge(REFUTE, "unsat") == WRONG


def test_oracle_solved_and_unsolved():
    assert judge(SAT_REG, "sat") == SOLVED
    assert judge(UNSAT, "unsat") == SOLVED
    assert judge(UNSAT, "unknown") == UNSOLVED
    assert judge(REFUTE, "unknown", complete=True) == SOLVED
    # a budget-limited sweep is not "no model <= N"
    assert judge(REFUTE, "unknown", complete=False) == UNSOLVED


def test_oracle_truth_from_generators():
    class _Problem:
        expected_status = "sat"
        expected_classes = frozenset({"Reg", "SizeElem"})

    assert oracle.truth_of_problem(_Problem()) == SAT_REG

    class _Goal:
        expected = "divergent"
        category = "classical-only"

    assert oracle.truth_of_stlc(_Goal()) == Truth("sat", False, "sat")
    assert oracle.truth_of_stlc(_Goal(), refute=True) == REFUTE


# -- host-speed scaling --------------------------------------------------------


def _clock(probes):
    """A HostClock holding ``probes`` = [(start, duration), ...], unstarted."""
    clock = hostspeed.HostClock()
    clock.starts = [start for start, _ in probes]
    clock.durations = [duration for _, duration in probes]
    return clock


def test_scaled_subtracts_probes_inside_and_scales_by_their_mean():
    ref = hostspeed.REFERENCE_S
    # the host runs the probe at half speed around and during the work
    clock = _clock([(9.0, 2 * ref), (10.5, 2 * ref), (12.0, 2 * ref)])
    probes_s, factor = clock.within(10.0, 11.0)
    assert probes_s == pytest.approx(2 * ref)
    assert factor == pytest.approx(0.5)
    assert clock.scaled(10.0, 11.0) == pytest.approx((1.0 - 2 * ref) * 0.5)


def test_scaled_uses_only_the_nearest_probe_on_either_side():
    ref = hostspeed.REFERENCE_S
    clock = _clock([
        (0.0, 10 * ref),          # earlier: not used
        (5.0, 3 * ref),           # the probe taken just before the work
        (5.1, ref),               # the first probe after it
        (9.0, 10 * ref),          # later: not used
    ])
    probes_s, factor = clock.within(5.0 + 1e-9, 5.05)
    assert probes_s == 0.0
    assert factor == pytest.approx(0.5)


def test_host_clock_probes_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock(interval=0.05) as clock:
        time.sleep(0.3)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the probes on entry and exit plus several from the timer, in order
    assert len(clock.durations) >= 4
    assert clock.starts == sorted(clock.starts)
    assert all(d > 0 for d in clock.durations)


# -- records -----------------------------------------------------------------


def test_layer_map_matches_benchmark_json():
    record = json.loads((BENCH / "workloads.json").read_text())
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = [(e["metric"], e["unit"]) for e in record["layer_map"]]
    assert layer == [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert set(record["workloads"]) == {w["name"] for w in bench["workloads"]}
    for entry in record["layer_map"]:
        assert set(entry["on"]) <= set(record["workloads"])
