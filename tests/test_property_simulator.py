"""Property-based tests for the simulator primitives."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Resource, Simulator, Store
from repro.simulator.core import NORMAL, URGENT


@given(delays=st.lists(st.floats(0, 10), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_clock_ends_at_max_delay(delays):
    sim = Simulator()

    def proc(d):
        yield sim.timeout(d)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    assert sim.now == max(delays)


@given(
    delays=st.lists(st.floats(0, 5), min_size=2, max_size=15),
)
@settings(max_examples=60, deadline=None)
def test_all_of_completes_at_slowest(delays):
    sim = Simulator()

    def proc():
        evs = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
        result = yield sim.all_of(evs)
        assert sorted(result.values()) == sorted(range(len(delays)))
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == max(delays)


@given(delays=st.lists(st.floats(0.001, 5), min_size=2, max_size=15))
@settings(max_examples=60, deadline=None)
def test_any_of_completes_at_fastest(delays):
    sim = Simulator()

    def proc():
        evs = [sim.timeout(d) for d in delays]
        yield sim.any_of(evs)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == min(delays)


@given(
    capacity=st.integers(1, 5),
    holds=st.lists(st.floats(0.001, 2.0), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    peak = {"v": 0}

    def user(h):
        req = res.request()
        yield req
        peak["v"] = max(peak["v"], res.count)
        yield sim.timeout(h)
        res.release(req)

    for h in holds:
        sim.process(user(h))
    sim.run()
    assert peak["v"] <= capacity
    assert res.count == 0 and res.queued == 0


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_store_preserves_order_and_items(items):
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for it in items:
            yield sim.timeout(0.1)
            store.put(it)

    def consumer():
        for _ in items:
            it = yield store.get()
            got.append(it)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == items


#: Instants on a binary grid, so ``now + (when - now)`` is exact and a
#: ``timeout`` lands on the same float as a ``wake_at``.
_GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_KINDS = ("timeout", "wake_at", "succeed", "succeed_urgent")


@given(
    initial=st.lists(st.tuples(st.sampled_from(_KINDS[:2]), _GRID), max_size=12),
    spawned=st.lists(st.tuples(_GRID, st.sampled_from(_KINDS), _GRID), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_scheduler_fires_in_time_then_creation_order(initial, spawned):
    """A drawn mix of ``timeout``, ``wake_at`` and ``succeed()`` fires
    in ``(time, creation order)``, except that URGENT events fire
    before every NORMAL event still pending at their instant.

    ``initial`` entries are scheduled before the run; ``spawned``
    entries ``(at, kind, offset)`` are scheduled at instant ``at`` by a
    ``wake_at(at)`` callback (created first, so it is the first to fire
    at its instant), and fire at ``at + offset`` (``succeed`` fires at
    ``at``).
    """
    sim = Simulator()
    fired = []
    expected = []
    created = itertools.count()

    def schedule(kind, when, label):
        if kind == "timeout":
            ev = sim.timeout(when - sim.now)
        elif kind == "wake_at":
            ev = sim.wake_at(when)
        else:
            ev = sim.event()
            ev.succeed(priority=URGENT if kind == "succeed_urgent" else NORMAL)
        ev.callbacks.append(lambda _ev: fired.append((sim.now, label)))
        rank = 0 if kind == "succeed_urgent" else 1
        expected.append((when, rank, next(created), label))

    def spawner(at):
        def spawn(_ev):
            for label, (t, kind, offset) in enumerate(spawned):
                if t == at:
                    when = at if kind.startswith("succeed") else at + offset
                    schedule(kind, when, f"spawned{label}")

        return spawn

    for at in sorted({t for t, _kind, _off in spawned}):
        sim.wake_at(at).callbacks.append(spawner(at))
    for label, (kind, when) in enumerate(initial):
        schedule(kind, when, f"initial{label}")
    sim.run()
    assert fired == [(when, label) for when, _rank, _n, label in sorted(expected)]
