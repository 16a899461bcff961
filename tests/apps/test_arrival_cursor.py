"""The pull-based arrival cursor against the per-arrival pump.

:class:`~repro.apps.traffic.ArrivalCursor` must report, at every read,
exactly the bytes :meth:`TrafficSource.start`'s pump would have sunk by
then, ties at one instant included.  The pump is the oracle: each test
runs both on one simulator (the cursor made just before the pump, so
their start-up instants coincide in the kernel's order) and compares the
running totals at every read.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.traffic import (
    Mp3Stream,
    OnOffTraffic,
    PoissonTraffic,
    TraceTraffic,
    VideoStream,
    fire_instant,
)
from repro.sim import Simulator
from repro.sim.events import URGENT


class Oracle:
    """A cursor and a pump over twin sources, compared on every read."""

    def __init__(self, sim, make_source, until_s):
        self.sim = sim
        self.pumped = 0
        self.settled = 0
        self.reads = 0
        self.cursor = make_source().cursor(sim, until_s)
        make_source().start(sim, self._sink, until_s)

    def _sink(self, nbytes, _kind):
        self.pumped += nbytes

    def read(self, _event=None):
        self.settled += self.cursor.settle()
        self.reads += 1
        assert self.settled == self.pumped, (
            f"cursor {self.settled} != pump {self.pumped} at t={self.sim.now!r}"
        )


def fire_instants(source, start_s, until_s):
    """Each arrival's delivery instant, by the pump's recurrence."""
    instants = []
    fire_s = start_s
    for time_s, _n, _k in source.arrivals(until_s):
        fire_s = fire_instant(fire_s, time_s)
        instants.append(fire_s)
    return instants


class TestFireInstant:
    def test_future_arrival_lands_on_the_timeout_instant(self):
        assert fire_instant(0.3, 0.9) == 0.3 + (0.9 - 0.3) != 0.9

    def test_due_arrival_is_delivered_at_once(self):
        assert fire_instant(0.3, 0.2) == 0.3
        assert fire_instant(0.3, 0.3) == 0.3


class TestSettle:
    def test_settles_each_arrival_once(self):
        sim = Simulator()
        cursor = TraceTraffic([(0.5, 100, "a"), (2.5, 200, "b")]).cursor(
            sim, until_s=10.0
        )
        assert cursor.settle() == 0
        sim.run(until=1.0)
        assert cursor.settle() == 100
        assert cursor.settle() == 0
        sim.run(until=10.0)
        assert cursor.settle() == 200
        assert cursor.consumed == 2

    def test_skip_resumes_after_the_consumed_prefix(self):
        trace = [(0.1 * i, 10 + i, "x") for i in range(1, 6)]
        sim = Simulator()
        sim.run(until=0.25)
        cursor = TraceTraffic(trace).cursor(sim, until_s=1.0, skip=2)
        assert cursor.consumed == 2
        sim.run(until=1.0)
        assert cursor.settle() == 13 + 14 + 15
        assert cursor.consumed == 5

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            Mp3Stream().cursor(Simulator(), until_s=1.0, skip=-1)

    def test_reads_schedule_no_events(self):
        sim = Simulator()
        cursor = Mp3Stream().cursor(sim, until_s=5.0)
        sim.run(until=5.0)
        assert cursor.settle() > 0
        assert sim.events_scheduled == 0


class TestTies:
    """Reads exactly on a delivery instant, one rule per case."""

    def test_start_up_arrivals_count_only_after_the_start_up_event(self):
        sim = Simulator()
        sim.run(until=1.0)
        before = sim.timeout(0.0)
        trace = [(0.5, 1, "x"), (1.0, 2, "x"), (1.0, 4, "x")]
        oracle = Oracle(sim, lambda: TraceTraffic(trace), until_s=5.0)
        after = sim.timeout(0.0)
        before.callbacks.append(oracle.read)
        after.callbacks.append(oracle.read)
        urgent = sim.event()
        urgent.callbacks.append(oracle.read)
        urgent._state = 1
        sim._schedule(urgent, 0.0, URGENT)
        oracle.read()  # before the run: the start-up event has not run
        assert oracle.settled == 0
        sim.run(until=1.0)  # a run at the same instant dispatches it
        oracle.read()
        assert oracle.settled == 7
        assert oracle.reads == 5

    def test_reader_scheduled_after_the_previous_instant_counts(self):
        sim = Simulator()
        trace = [(0.5, 1, "x"), (1.0, 2, "x")]
        oracle = Oracle(sim, lambda: TraceTraffic(trace), until_s=5.0)
        sim.timeout_at(1.0).callbacks.append(oracle.read)  # before 0.5
        sim.timeout_at(0.75).callbacks.append(
            lambda _e: sim.timeout_at(1.0).callbacks.append(oracle.read)
        )
        sim.run(until=5.0)
        assert oracle.reads == 2
        assert oracle.settled == 3

    def test_read_after_run_until_an_instant_counts_it(self):
        sim = Simulator()
        trace = [(0.25, 1, "x"), (0.5, 2, "x"), (0.75, 4, "x")]
        oracle = Oracle(sim, lambda: TraceTraffic(trace), until_s=5.0)
        sim.run(until=0.5)
        oracle.read()
        assert oracle.settled == 3
        sim.run(until=0.75)
        oracle.read()
        assert oracle.settled == 7


def _sources():
    """(label, factory of twin sources) over every source kind."""
    seeded = st.integers(0, 2**16)
    mp3 = st.sampled_from([64_000.0, 128_000.0]).map(
        lambda rate: ("mp3-cbr", lambda: Mp3Stream(bitrate_bps=rate))
    )
    vbr = seeded.map(
        lambda seed: (
            "mp3-vbr",
            lambda: Mp3Stream(vbr_fraction=0.2, rng=random.Random(seed)),
        )
    )
    poisson = seeded.map(
        lambda seed: (
            "poisson",
            lambda: PoissonTraffic(0.03, 500, random.Random(seed)),
        )
    )
    onoff = seeded.map(
        lambda seed: (
            "onoff",
            lambda: OnOffTraffic(
                random.Random(seed), mean_on_s=0.3, mean_off_s=0.4,
                packet_interval_s=0.02,
            ),
        )
    )
    video = st.just(("video", lambda: VideoStream(frame_rate_fps=24.0)))
    # Equal times, times before the start, and times on a coarse grid
    # (exact sums, so deliveries collide with other events' instants).
    trace_times = st.lists(
        st.one_of(
            st.integers(0, 24).map(lambda k: k / 8.0),
            st.floats(0.0, 3.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
    trace = trace_times.map(
        lambda times: (
            "trace",
            lambda: TraceTraffic(
                [(t, 1 + i, "x") for i, t in enumerate(times)]
            ),
        )
    )
    return st.one_of(mp3, vbr, poisson, onoff, video, trace)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=_sources(),
    start_s=st.sampled_from([0.0, 0.5, 0.3]),
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
    kinds=st.lists(st.sampled_from(["early", "late", "run"]), min_size=30, max_size=30),
)
def test_cursor_matches_the_pump_at_every_read(source, start_s, picks, kinds):
    _label, make_source = source
    until_s = 3.0
    sim = Simulator()
    if start_s:
        sim.run(until=start_s)
    instants = fire_instants(make_source(), start_s, until_s)
    if not instants:
        return
    readers = [
        (instants[pick % len(instants)], kind, pick % 2)
        for pick, kind in zip(picks, kinds)
    ]
    # Half the early readers are made before the pump and cursor, half
    # after: at the start-up instant that decides which runs first.
    made_before = [
        sim.timeout_at(due)
        for due, kind, odd in readers
        if kind == "early" and odd
    ]
    oracle = Oracle(sim, make_source, until_s)
    for event in made_before:
        event.callbacks.append(oracle.read)
    stops = []
    for due, kind, odd in readers:
        if kind == "early" and not odd:
            sim.timeout_at(due).callbacks.append(oracle.read)
        elif kind == "late":
            # Scheduled from inside the run, strictly between the
            # previous delivery instant and this one.
            previous = max([f for f in instants if f < due], default=start_s)
            middle = previous + (due - previous) / 2.0
            if previous < middle < due:
                sim.timeout_at(middle).callbacks.append(
                    lambda _e, due=due: sim.timeout_at(due).callbacks.append(
                        oracle.read
                    )
                )
        elif kind == "run":
            stops.append(due)
    for stop in sorted(set(stops)):
        sim.run(until=stop)
        oracle.read()
    sim.run(until=until_s + 1.0)
    oracle.read()
    assert oracle.cursor.consumed == len(instants)
