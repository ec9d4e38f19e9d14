"""Tests for the timing utilities."""

import time

import pytest

from repro.utils.timing import Timer, TimingBreakdown, timed_region


class TestTimer:
    def test_start_stop_accumulates(self):
        timer = Timer()
        timer.start()
        elapsed = timer.stop()
        assert elapsed >= 0.0
        assert timer.elapsed == elapsed

    def test_double_start_raises(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError):
            timer.start()
        timer.stop()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer.measure():
            pass
        timer.reset()
        assert timer.elapsed == 0.0

    def test_measure_context_manager(self):
        timer = Timer()
        with timer.measure():
            sum(range(1000))
        assert timer.elapsed > 0.0


class TestTimingBreakdown:
    def test_add_and_total(self):
        breakdown = TimingBreakdown()
        breakdown.add("cg", 1.0)
        breakdown.add("cg", 0.5)
        breakdown.add("gradient", 2.0)
        assert breakdown.get("cg") == pytest.approx(1.5)
        assert breakdown.total() == pytest.approx(3.5)

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingBreakdown().add("cg", -1.0)

    def test_region_accumulates(self):
        breakdown = TimingBreakdown()
        with breakdown.region("work"):
            sum(range(1000))
        assert breakdown.get("work") > 0.0

    def test_get_missing_component_is_zero(self):
        assert TimingBreakdown().get("missing") == 0.0

    def test_merge(self):
        a = TimingBreakdown({"cg": 1.0})
        b = TimingBreakdown({"cg": 2.0, "other": 3.0})
        merged = a.merge(b)
        assert merged.get("cg") == pytest.approx(3.0)
        assert merged.get("other") == pytest.approx(3.0)
        # operands untouched
        assert a.get("cg") == pytest.approx(1.0)

    def test_as_dict_is_copy(self):
        breakdown = TimingBreakdown({"cg": 1.0})
        d = breakdown.as_dict()
        d["cg"] = 99.0
        assert breakdown.get("cg") == pytest.approx(1.0)


def test_timed_region_with_none_is_noop():
    with timed_region(None, "anything"):
        pass


def test_timed_region_records():
    breakdown = TimingBreakdown()
    with timed_region(breakdown, "step"):
        sum(range(100))
    assert breakdown.get("step") > 0.0


def test_excluded_span_counts_toward_no_region():
    breakdown = TimingBreakdown()
    with breakdown.region("work"):
        with breakdown.excluded():
            time.sleep(0.05)
    assert breakdown.get("work") < 0.04
    assert breakdown.components.keys() == {"work"}
