"""Tests of the benchmark's own arithmetic: python3 -m pytest bench/test_stats.py"""

import pytest

import stats
from hostspeed import NOMINAL_S, WINDOW, HostSpeed, reference
from tracing import Tracer


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled order is irrelevant
    value, pct, beyond = stats.tail(list(reversed(values)))
    assert value == 90.0
    assert pct == 90.0
    assert beyond == 10
    assert sum(v > value for v in values) == 10


def test_tail_percentile_tracks_sample_count():
    value, pct, beyond = stats.tail([float(v) for v in range(1000)])
    assert (value, beyond) == (989.0, 10)
    assert pct == pytest.approx(99.0)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([float(v) for v in range(10)]) == (9.0, 100.0, 0)
    value, pct, beyond = stats.tail([float(v) for v in range(11)])
    assert (value, beyond) == (0.0, 10)
    assert pct == pytest.approx(100 / 11)


def test_spread():
    # statistics.quantiles(..., n=4) uses the exclusive method: for 1..9 the
    # quartiles are 2.5 and 7.5 around the median 5.
    assert stats.spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)
    assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0.0


def test_self_time_subtracts_covered_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 9.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert stats.self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    # A child closed after its parent (an interrupted op) counts only inside it.
    assert stats.self_times([0.0, 1.0], [2.0, 5.0], [-1, 0]) == pytest.approx([1.0, 4.0])


class _Mod:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Mod.inner(x) * 2


def test_tracer_records_parents_and_restores():
    original_inner, original_outer = _Mod.inner, _Mod.outer
    tr = Tracer()
    tr.span(_Mod, "outer", "outer")
    tr.span(_Mod, "inner", "inner", lambda t, a, k, r, e: t.counts.update(seen=r))
    tr.install()
    tr.begin_op(7)
    assert _Mod.outer(1) == 4
    tr.end_op()
    tr.restore()
    assert (_Mod.inner, _Mod.outer) == (original_inner, original_outer)
    assert [tr.names[i] for i in tr.name_ids] == ["outer", "inner"]
    assert list(tr.parents) == [-1, 0]
    assert list(tr.op_ids) == [7, 7]
    assert tr.counts["seen"] == 2
    own = stats.self_times(tr.starts, tr.ends, tr.parents)
    assert own[0] == pytest.approx(tr.ends[0] - tr.starts[0] - (tr.ends[1] - tr.starts[1]))


def test_host_speed_scale_uses_the_nearest_window():
    # Reference calls at t = 0..19; the host is twice as slow from t = 10 on.
    speed = HostSpeed()
    speed.at = [float(t) for t in range(20)]
    speed.took = [NOMINAL_S] * 10 + [2 * NOMINAL_S] * 10
    assert WINDOW == 5
    assert speed.scale(2.0) == pytest.approx(1.0)
    assert speed.scale(16.0) == pytest.approx(0.5)
    assert speed.scale(-5.0) == pytest.approx(1.0)  # clamped to the first window
    assert speed.scale(99.0) == pytest.approx(0.5)  # and to the last
    # Window [8, 12]: medians of 1, 1, 2, 2, 2 calls of NOMINAL_S.
    assert speed.scale(10.0) == pytest.approx(0.5)
    speed.at, speed.took = [0.0, 1.0], [NOMINAL_S, 3 * NOMINAL_S]
    assert speed.scale(0.5) == pytest.approx(0.5)  # fewer calls than WINDOW


def test_reference_is_fixed_work():
    assert reference() == reference()
    speed = HostSpeed()
    speed.sample()
    assert len(speed.at) == len(speed.took) == 1 and speed.took[0] > 0
