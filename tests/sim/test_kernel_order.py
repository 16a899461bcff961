"""Kernel-ordering property tests: the simulator vs a reference heap.

``Simulator`` (and the inlined inserts in ``events.py``) must dispatch in
*exactly* the total order a plain heap over ``(time, priority, seq)``
produces — the scenario goldens byte-pin this, and these tests pin it at
the kernel level with random schedules, cascading (run-time) schedules
and absolute-time timeouts.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.sim.events import NORMAL, URGENT, Event
from repro.sim.resources import PriorityStore, Store

# Delays from sub-microsecond to minutes, with exact repeats so equal
# fire times (the seq tie-break) come up often.
delay_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e-4, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-3, 2e-3, 0.5e-3, 1.0, 1.0 + 1e-3, 123.456]),
)

schedule_entries = st.lists(
    st.tuples(delay_values, st.sampled_from([URGENT, NORMAL])),
    min_size=1,
    max_size=60,
)


class ReferenceKernel:
    """The order contract spelled out: one global heap, nothing else."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count(1)
        self.now = 0.0
        self.fired = []

    def schedule(self, tag, delay, priority):
        when = self.now + delay
        heapq.heappush(self._heap, (when, priority, next(self._seq), tag))

    def run(self, program):
        while self._heap:
            when, _priority, _seq, tag = heapq.heappop(self._heap)
            self.now = when
            self.fired.append(tag)
            for child_tag, delay, priority in program.get(tag, ()):
                self.schedule(child_tag, delay, priority)


def _trigger(sim, delay, priority, callback):
    """Schedule a bare event the way the kernel does internally."""
    event = Event(sim)
    event.callbacks.append(callback)
    event._state = 1  # triggered
    sim._schedule(event, delay, priority)
    return event


def _run_program(sim, initial, program):
    """Replay a cascading schedule program on a real Simulator."""
    fired = []

    def make_callback(tag):
        def on_fire(_event):
            fired.append(tag)
            for child_tag, delay, priority in program.get(tag, ()):
                _trigger(sim, delay, priority, make_callback(child_tag))

        return on_fire

    for tag, delay, priority in initial:
        _trigger(sim, delay, priority, make_callback(tag))
    sim.run()
    return fired


@given(schedule_entries)
@settings(max_examples=60)
def test_flat_schedule_matches_reference_heap(entries):
    """Random up-front schedules dispatch in reference-heap order."""
    sim = Simulator()
    reference = ReferenceKernel()
    fired = []
    for tag, (delay, priority) in enumerate(entries):
        _trigger(sim, delay, priority, lambda _e, tag=tag: fired.append(tag))
        reference.schedule(tag, delay, priority)
    sim.run()
    reference.run({})
    assert fired == reference.fired


@given(
    st.lists(st.tuples(delay_values, st.sampled_from([URGENT, NORMAL])),
             min_size=1, max_size=12),
    st.lists(st.lists(st.tuples(delay_values, st.sampled_from([URGENT, NORMAL])),
                      max_size=4),
             min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_cascading_schedule_matches_reference_heap(roots, spawn_lists):
    """Events scheduled *while running* keep the reference order."""
    # program: tag -> children spawned when the tag fires.  Child tags are
    # fresh so the cascade terminates after one generation.
    program = {}
    next_tag = len(roots)
    for tag, spawns in enumerate(spawn_lists[: len(roots)]):
        children = []
        for delay, priority in spawns:
            children.append((next_tag, delay, priority))
            next_tag += 1
        program[tag] = children

    initial = [
        (tag, delay, priority) for tag, (delay, priority) in enumerate(roots)
    ]

    sim = Simulator()
    fired = _run_program(sim, initial, program)

    reference = ReferenceKernel()
    for tag, delay, priority in initial:
        reference.schedule(tag, delay, priority)
    reference.run(program)

    assert fired == reference.fired


@given(
    st.lists(delay_values, min_size=1, max_size=40),
    st.lists(delay_values, max_size=10),
)
@settings(max_examples=60)
def test_timeout_at_matches_individual_timeouts(delays, rival_delays):
    """timeout_at dispatches exactly like the same Timeouts made singly.

    Rival timeouts created *before* the absolute ones check that the
    same-instant tie-break by sequence number is preserved.
    """
    offsets = sorted(delays)

    sim_a = Simulator()
    order_a = []
    for i, delay in enumerate(rival_delays):
        timeout = sim_a.timeout(delay)
        timeout.callbacks.append(lambda _e, i=i: order_a.append(("rival", i)))
    for i, offset in enumerate(offsets):
        timeout = sim_a.timeout(offset)
        timeout.callbacks.append(lambda _e, i=i: order_a.append(("abs", i)))
    sim_a.run()

    sim_b = Simulator()
    order_b = []
    for i, delay in enumerate(rival_delays):
        timeout = sim_b.timeout(delay)
        timeout.callbacks.append(lambda _e, i=i: order_b.append(("rival", i)))
    for i, offset in enumerate(offsets):
        timeout = sim_b.timeout_at(sim_b.now + offset)
        timeout.callbacks.append(lambda _e, i=i: order_b.append(("abs", i)))
    sim_b.run()

    assert order_a == order_b
    assert sim_a.events_scheduled == sim_b.events_scheduled


def test_timeout_at_fires_at_exactly_when():
    """No ``now + (when - now)`` round trip: the clock lands on ``when``."""
    sim = Simulator(start_time=0.3)
    when = 0.9
    assert sim.now + (when - sim.now) != when  # 0.9000000000000001
    fired = []
    sim.timeout_at(when).callbacks.append(lambda _e: fired.append(sim.now))
    sim.run()
    assert fired == [when]
    assert sim.now == when


def test_timeout_at_rejects_the_past():
    sim = Simulator(start_time=1.0)
    with pytest.raises(SimulationError):
        sim.timeout_at(0.5)
    assert sim.queue_depth == 0


@given(st.lists(delay_values, min_size=2, max_size=30), delay_values)
@settings(max_examples=60)
def test_run_until_horizon_preserves_pending_order(delays, horizon):
    """Events beyond run(until) stay queued and fire correctly later."""
    sim = Simulator()
    fired = []
    for tag, delay in enumerate(delays):
        timeout = sim.timeout(delay)
        timeout.callbacks.append(lambda _e, tag=tag: fired.append(tag))
    sim.run(until=horizon)
    assert sim.now == horizon
    for tag, delay in enumerate(delays):
        if delay <= horizon:
            assert tag in fired
    before_horizon = list(fired)
    sim.run()
    expected = [
        tag
        for tag, _delay in sorted(enumerate(delays), key=lambda p: (p[1], p[0]))
    ]
    assert fired == expected
    assert fired[: len(before_horizon)] == before_horizon


def test_peek_reports_a_distant_event_then_run_reaches_it():
    sim = Simulator()
    sim.timeout(5.0)
    assert sim.peek() == 5.0
    sim.run()
    assert sim.now == 5.0


class TestStoreInterleaving:
    """drain()/try_get() must admit blocked putters in FIFO order."""

    def test_drain_admits_blocked_putters_fifo(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        store.put("a")
        store.put("b")
        blocked = [store.put(f"p{i}") for i in range(4)]
        sim.run()
        assert [event.processed for event in blocked] == [False] * 4

        assert store.drain() == ["a", "b"]
        # Capacity freed: exactly the two longest-waiting putters admitted.
        assert store.items == ("p0", "p1")
        sim.run()
        assert [event.processed for event in blocked] == [True, True, False, False]

        assert store.drain() == ["p0", "p1"]
        sim.run()
        assert all(event.processed for event in blocked)
        assert store.drain() == ["p2", "p3"]

    def test_try_get_admits_blocked_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put("a")
        waiting = store.put("b")
        sim.run()
        assert not waiting.processed

        ok, item = store.try_get()
        assert (ok, item) == (True, "a")
        assert store.items == ("b",)
        sim.run()
        assert waiting.processed

    def test_getter_drain_interleaving(self):
        sim = Simulator()
        store = Store(sim)
        got = store.get()  # waits: store empty
        store.put("direct")  # handed straight to the getter, never buffered
        store.put("buffered")
        sim.run()
        assert got.value == "direct"
        assert store.drain() == ["buffered"]

    def test_priority_store_drain_sorted_and_admits(self):
        sim = Simulator()
        store = PriorityStore(sim, capacity=3)
        for value in (5, 1, 3):
            store.put(value)
        blocked = [store.put(value) for value in (4, 2)]
        sim.run()
        assert [event.processed for event in blocked] == [False, False]

        assert store.drain() == [1, 3, 5]
        # Both blocked putters fit now; admission is FIFO (4 before 2)
        # but retrieval is by priority.
        sim.run()
        assert [event.processed for event in blocked] == [True, True]
        assert store.drain() == [2, 4]

    def test_priority_store_try_get_admits_in_order(self):
        sim = Simulator()
        store = PriorityStore(sim, capacity=2)
        store.put(10)
        store.put(20)
        blocked = store.put(15)
        sim.run()
        assert not blocked.processed

        ok, item = store.try_get()
        assert (ok, item) == (True, 10)
        sim.run()
        assert blocked.processed
        assert store.items == (15, 20)
        assert store.drain() == [15, 20]
