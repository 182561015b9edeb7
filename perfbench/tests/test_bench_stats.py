"""The benchmark's own arithmetic: tail percentile, fail ratio, self time."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import fail_ratio, self_times, tail_percentile  # noqa: E402


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0), (100, 90.0), (1000, 99.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile):
    samples = random.Random(n).sample(range(10 * n), n)
    value, pct, count = tail_percentile(samples)
    assert count == n
    assert pct == pytest.approx(percentile)
    assert sum(s > value for s in samples) == 10


def test_tail_is_the_highest_such_percentile():
    samples = list(range(1, 101))
    value, _, _ = tail_percentile(samples)
    # the next sample up would leave only nine beyond it
    assert value == 90
    assert sum(s > value + 1 for s in samples) == 9


def test_tail_with_too_few_samples_reports_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail_percentile(list(range(10)))[1:] == (100.0, 10)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_fail_ratio_base_is_cases_attempted():
    assert fail_ratio(3, 12) == 0.25
    assert fail_ratio(0, 5) == 0.0
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(6, 5)


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1, "c0"),
        ("b", 1.0, 4.0, 0, "c0"),
        ("c", 2.0, 3.0, 1, "c0"),
        ("d", 5.0, 6.0, 0, "c0"),
        ("e", 11.0, 12.5, -1, "c1"),
    ]
    own = self_times(spans)
    assert own == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])
    # self times partition the top-level spans
    assert sum(own) == pytest.approx(10.0 + 1.5)

