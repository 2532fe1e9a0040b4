"""Property-based invariants of the max-min fair flow model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.events import Engine
from repro.fs.flows import FlowScheduler, Resource

_sizes = st.lists(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False), min_size=1, max_size=12
)


def _makespan(sizes, capacity, caps=None):
    disk = Resource("disk", capacity)
    eng = Engine()
    sched = FlowScheduler(eng)
    flows = []
    with sched.batch():
        for i, s in enumerate(sizes):
            cap = caps[i] if caps else math.inf
            flows.append(sched.submit(s, (disk,), rate_cap=cap))
    eng.run()
    assert sched.active_flows == 0
    return max(f.finish_time for f in flows), flows


@settings(max_examples=60, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=1000.0))
def test_work_conservation_single_resource(sizes, capacity):
    """One shared resource with uncapped flows: makespan == total/capacity."""
    makespan, _ = _makespan(sizes, capacity)
    assert makespan == sum(sizes) / capacity or abs(
        makespan - sum(sizes) / capacity
    ) <= 1e-6 * max(1.0, makespan)


@settings(max_examples=60, deadline=None)
@given(
    sizes=_sizes,
    capacity=st.floats(min_value=1.0, max_value=1000.0),
    cap=st.floats(min_value=0.5, max_value=100.0),
)
def test_makespan_lower_bounds(sizes, capacity, cap):
    """Makespan can never beat the capacity bound or any flow's cap bound."""
    makespan, flows = _makespan(sizes, capacity, caps=[cap] * len(sizes))
    total = sum(sizes)
    assert makespan >= total / capacity - 1e-9
    for f in flows:
        assert f.duration >= f.size_mb / cap - 1e-9


@settings(max_examples=40, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=100.0))
def test_completions_ordered_by_size(sizes, capacity):
    """Equal-priority flows on one resource finish in size order."""
    _, flows = _makespan(sizes, capacity)
    by_size = sorted(flows, key=lambda f: f.size_mb)
    finish = [f.finish_time for f in by_size]
    assert all(a <= b + 1e-9 for a, b in zip(finish, finish[1:]))


@settings(max_examples=40, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=100.0))
def test_adding_a_flow_never_speeds_anyone_up(sizes, capacity):
    base, _ = _makespan(sizes, capacity)
    more, _ = _makespan([*sizes, 10.0], capacity)
    assert more >= base - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    sizes=_sizes,
    weight=st.floats(min_value=0.1, max_value=1.0),
    capacity=st.floats(min_value=1.0, max_value=100.0),
)
def test_weighted_usage_scales_capacity(sizes, weight, capacity):
    """Charging weight w is the same as a resource with capacity/w."""
    disk1 = Resource("d", capacity)
    eng1 = Engine()
    s1 = FlowScheduler(eng1)
    with s1.batch():
        f1 = [s1.submit(s, ((disk1, weight),)) for s in sizes]
    eng1.run()

    disk2 = Resource("d", capacity / weight)
    eng2 = Engine()
    s2 = FlowScheduler(eng2)
    with s2.batch():
        f2 = [s2.submit(s, (disk2,)) for s in sizes]
    eng2.run()

    for a, b in zip(f1, f2):
        assert math.isclose(a.finish_time, b.finish_time, rel_tol=1e-9, abs_tol=1e-9)


# -- flow classes: one submit with ``count=n`` equals ``n`` member submits ----

_class = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=100.0)),  # size
    st.lists(  # path: distinct resource indices with weights
        st.tuples(st.integers(0, 2), st.floats(min_value=0.1, max_value=1.0)),
        max_size=3,
        unique_by=lambda rw: rw[0],
    ),
    st.one_of(st.just(math.inf), st.floats(min_value=0.5, max_value=200.0)),  # cap
    st.integers(min_value=1, max_value=50),  # count
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),  # start
)


def _run_classes(classes, capacities, expand):
    """Simulate ``classes``; return per class the (time, active_flows,
    finish_time) seen by each completion callback."""
    disks = [Resource(f"d{i}", c) for i, c in enumerate(capacities)]
    eng = Engine()
    sched = FlowScheduler(eng)
    seen: dict[int, list] = {}

    def done(now, flow):
        seen.setdefault(flow.tag, []).append((now, sched.active_flows, flow.finish_time))

    def start(c):
        size, path, cap, count, _ = classes[c]
        resources = tuple((disks[i], w) for i, w in path)
        if expand:
            for _ in range(count):
                sched.submit(size, resources, cap, done, tag=c)
        else:
            sched.submit(size, resources, cap, done, tag=c, count=count)

    for c, cls in enumerate(classes):
        eng.schedule_at(cls[4], start, c)
    eng.run()
    assert sched.active_flows == 0
    return seen


@settings(max_examples=80, deadline=None)
@given(
    classes=st.lists(_class, min_size=1, max_size=6),
    capacities=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=3, max_size=3),
)
def test_class_submit_equals_member_submits(classes, capacities):
    """Finish times agree exactly, and so does ``active_flows`` whenever a
    class (or its members) completes."""
    one = _run_classes(classes, capacities, expand=False)
    many = _run_classes(classes, capacities, expand=True)
    assert sorted(one) == sorted(many) == list(range(len(classes)))
    for c, cls in enumerate(classes):
        assert len(one[c]) == 1  # one callback per class
        assert many[c] == one[c] * cls[3]  # == on floats, not isclose


def test_class_count_must_be_positive():
    sched = FlowScheduler(Engine())
    disk = Resource("disk", 10.0)
    for bad in (0, -1):
        with pytest.raises(ValueError):
            sched.submit(10.0, (disk,), count=bad)
    with pytest.raises(TypeError):
        sched.submit(10.0, (disk,), count=2.5)
    assert sched.active_flows == 0


def test_active_flows_counts_members():
    eng = Engine()
    sched = FlowScheduler(eng)
    disk = Resource("disk", 10.0)
    with sched.batch():
        sched.submit(10.0, (disk,), count=7)
        sched.submit(20.0, (disk,), count=3)
    assert sched.active_flows == 10
    eng.run()
    assert sched.active_flows == 0


def test_zero_byte_class_completes_instantly():
    eng = Engine()
    sched = FlowScheduler(eng)
    calls = []
    eng.schedule_at(
        2.0,
        lambda: sched.submit(
            0.0, (Resource("disk", 1.0),), on_complete=lambda t, f: calls.append(t), count=9
        ),
    )
    eng.run()
    assert calls == [2.0]
    assert sched.active_flows == 0
    (flow,) = sched.completed
    assert flow.count == 9 and flow.start_time == flow.finish_time == 2.0


def test_on_complete_fires_once_per_class():
    eng = Engine()
    sched = FlowScheduler(eng)
    disk = Resource("disk", 100.0)
    calls = []
    with sched.batch():
        flow = sched.submit(
            10.0, (disk,), on_complete=lambda t, f: calls.append((t, f)), count=50
        )
    eng.run()
    # 50 members x 10 MB over 100 MB/s: all finish together at t = 5.
    assert calls == [(5.0, flow)]
    assert flow.finish_time == 5.0
