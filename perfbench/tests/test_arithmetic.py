"""Tests of the benchmark's own arithmetic, on synthetic spans and samples.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Span, self_times  # noqa: E402
from summary import failed_frac, speed_scale, tail, tail_rank  # noqa: E402


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, 0)


# -- tail percentile -------------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert tail_rank(10) is None
    assert tail([1.0] * 10) is None
    rank, pct = tail_rank(11)
    assert rank == 0
    assert pct == pytest.approx(100 / 11)


def test_tail_is_highest_sample_with_ten_beyond():
    samples = [float(x) for x in range(100)]
    rank, pct = tail_rank(100)
    assert rank == 89 and pct == 90.0
    value, pct = tail(list(reversed(samples)))
    assert value == 89.0 and pct == 90.0
    assert sum(1 for x in samples if x > value) == 10


def test_tail_percentile_moves_with_sample_count():
    assert tail_rank(1000) == (989, 99.0)
    rank, pct = tail_rank(24)
    assert rank == 13
    assert pct == pytest.approx(100 * 14 / 24)


def test_tail_with_other_margin():
    assert tail_rank(5, beyond=2) == (2, 60.0)


# -- self time -------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 7.0, parent=0),   # overlaps a on [3, 5]
        span("c", 4.0, 4.5, parent=0),   # inside both
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("root", 2.0, 6.0), span("late", 5.0, 9.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_ignores_other_parents_children():
    spans = [
        span("a", 0.0, 4.0),
        span("b", 4.0, 8.0),
        span("under-b", 5.0, 7.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0])


# -- failed share ----------------------------------------------------------


def test_failed_frac_counts_failures_against_attempts():
    assert failed_frac([True] * 7) == 0.0
    assert failed_frac([True, False, True, False]) == 0.5
    assert failed_frac([False]) == 1.0


def test_failed_frac_needs_an_attempt():
    with pytest.raises(ValueError):
        failed_frac([])


# -- reference speed -------------------------------------------------------


def test_speed_scale_is_one_at_the_reference_speed():
    assert speed_scale(0.01, 0.01, reference_s=0.01) == 1.0


def test_speed_scale_uses_the_mean_of_both_probes():
    # the host ran the reference in 0.015 s and then 0.025 s: 2x slow on average
    assert speed_scale(0.015, 0.025, reference_s=0.01) == pytest.approx(0.5)
    assert 3.0 * speed_scale(0.005, 0.005, reference_s=0.01) == pytest.approx(6.0)


def test_speed_scale_refuses_an_empty_probe():
    with pytest.raises(ValueError):
        speed_scale(0.0, 0.01, reference_s=0.01)
