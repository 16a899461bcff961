"""Differential test: the one-timer DCF countdown against the per-slot loop.

``DcfStation._contention`` races a single absolute timer (DIFS plus every
remaining backoff slot) against one ``wait_busy`` event.  The loop it
replaced raced one ``AnyOf(slot, busy)`` per slot; it survives here, and
only here, as :class:`PerSlotStation`, the oracle.  Both must produce the
same transmit instants (exact floats) and the same remaining slot count
after every freeze, on both :class:`Medium` and :class:`SpatialMedium`.

A jammer drives busy periods at drawn instants, including exactly on slot
boundaries and exactly at DIFS end.  Like every transmitter in the
simulator, it calls ``transmit`` one zero-delay hop after the timer that
woke it (DCF senders transmit an ``AnyOf`` hop after their own timer;
ACK/CTS senders use a SIFS timer, shorter than a slot).  Without that hop,
a transmit issued straight from a timer scheduled before the boundary's
slot timer is signalled before the per-slot loop resumes, and the loop
then counts down through the whole busy period -- a carrier-sense miss
the one-timer countdown does not reproduce.
"""

from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import wlan_cf_card
from repro.mac import DcfConfig, DcfStation, Medium, SpatialMedium
from repro.mac.frames import Dot11Timing, Frame, FrameKind
from repro.obs.bus import TraceBus
from repro.phy import Radio
from repro.sim import Simulator
from repro.sim.events import AnyOf, Timeout


class PerSlotStation(DcfStation):
    """Oracle: the historical slot-by-slot backoff countdown."""

    def _contention(self, contention_window):
        timing = self.timing
        backoff_slots = self.rng.randint(0, contention_window)
        sim = self.sim
        bus = sim.trace
        if bus.enabled:
            bus.emit(
                "mac", self.address, "backoff", slots=backoff_slots, cw=contention_window
            )
        medium = self.medium
        address = self.address
        while True:
            if not medium.is_idle_for(address):
                yield medium.wait_idle(address)
            now = sim.now
            if now < self._nav_until:
                yield Timeout(sim, self._nav_until - now)
                continue
            busy = medium.wait_busy(address)
            difs = Timeout(sim, timing.difs_s)
            yield AnyOf(sim, (difs, busy))
            if busy.processed:
                if bus.enabled:
                    bus.emit("mac", address, "freeze", slots=backoff_slots)
                continue
            interrupted = False
            while backoff_slots > 0:
                busy = medium.wait_busy(address)
                slot = Timeout(sim, timing.slot_s)
                yield AnyOf(sim, (slot, busy))
                if busy.processed:
                    interrupted = True
                    break
                backoff_slots -= 1
            if bus.enabled and interrupted:
                bus.emit("mac", address, "freeze", slots=backoff_slots)
            if not interrupted:
                return


class ScriptedDraws:
    """Backoff "rng" replaying drawn values, folded into the window."""

    def __init__(self, draws):
        self._draws = cycle(draws)

    def randint(self, low, high):
        return low + next(self._draws) % (high - low + 1)


def recording(medium_cls):
    """``medium_cls`` that logs (time, source, kind) of every transmission."""

    class Recording(medium_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.log = []

        def transmit(self, frame):
            self.log.append((self.sim.now, frame.source, frame.kind.name))
            return super().transmit(frame)

    return Recording


def jam_instant(reference, where, slots, timing):
    """A busy-start instant relative to a countdown starting at ``reference``.

    Slot boundaries follow the countdown's own recurrence (DIFS end, then
    ``+ slot_s`` per slot), so ``"boundary"`` lands on them exactly.
    """
    instant = reference + timing.difs_s
    if where == "difs":
        return reference + timing.difs_s / 2
    for _ in range(slots):
        instant += timing.slot_s
    if where == "inside":
        instant += timing.slot_s / 2
    return instant


def run_world(station_cls, medium_cls, cw, draws, jams, frames, with_radio):
    """Two contending stations plus a jammer; returns everything observable."""
    timing = Dot11Timing(cw_min=cw, cw_max=max(cw, 255))
    sim = Simulator(trace=TraceBus())
    medium = recording(medium_cls)(sim, timing=timing)
    stations = {}
    for index, address in enumerate(("s", "r")):
        radio = Radio(sim, wlan_cf_card(), name=address) if with_radio else None
        stations[address] = station_cls(
            sim,
            medium,
            address,
            rng=ScriptedDraws(draws[index:] + draws[:index]),
            config=DcfConfig(timing=timing),
            radio=radio,
        )

    def sender(source, destination, count):
        for number in range(count):
            yield stations[source].send(destination, 200 + 300 * number)

    def jammer():
        reference = 0.0  # the stations' countdowns (re)start at a busy end
        for where, slots, nbytes in jams:
            instant = jam_instant(reference, where, slots, timing)
            (timer,) = sim.bulk_timeouts((instant,))
            yield timer
            yield Timeout(sim, 0.0)
            yield medium.transmit(
                Frame(
                    kind=FrameKind.DATA,
                    source="jam",
                    destination="nobody",
                    payload_bytes=nbytes,
                )
            )
            reference = sim.now

    sim.process(sender("s", "r", frames[0]))
    sim.process(sender("r", "s", frames[1]))
    sim.process(jammer())
    sim.run(until=1.0)
    countdown = [
        (event.time_s, event.entity, event.kind, tuple(sorted(event.fields.items())))
        for event in sim.trace.events(layer="mac")
        if event.kind in ("backoff", "freeze")
    ]
    counters = {
        address: (
            station.frames_delivered,
            station.frames_dropped,
            station.retransmissions,
        )
        for address, station in stations.items()
    }
    # Time-ordered multisets: transmissions starting at the same instant
    # may start in either order (they collide either way).
    return sorted(medium.log), sorted(countdown), counters


MEDIA = [Medium, SpatialMedium]


@pytest.mark.parametrize("medium_cls", MEDIA, ids=lambda cls: cls.__name__)
@settings(max_examples=120, deadline=None)
@given(
    cw=st.integers(min_value=0, max_value=63),
    draws=st.lists(st.integers(min_value=0, max_value=1023), min_size=2, max_size=8),
    jams=st.lists(
        st.tuples(
            st.sampled_from(["boundary", "inside", "difs"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=1500),
        ),
        max_size=6,
    ),
    frames=st.tuples(
        st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3)
    ),
    with_radio=st.booleans(),
)
def test_one_timer_countdown_matches_per_slot_loop(
    medium_cls, cw, draws, jams, frames, with_radio
):
    expected = run_world(PerSlotStation, medium_cls, cw, draws, jams, frames, with_radio)
    actual = run_world(DcfStation, medium_cls, cw, draws, jams, frames, with_radio)
    assert actual == expected


@pytest.mark.parametrize("medium_cls", MEDIA, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "where, slots, remaining",
    [
        ("difs", 0, 10),  # busy during DIFS: nothing elapsed
        ("boundary", 0, 10),  # busy exactly at DIFS end: nothing elapsed
        ("inside", 3, 7),  # busy inside slot 4: three slots elapsed
        ("boundary", 4, 6),  # busy exactly on boundary 4: it counts
    ],
)
def test_freeze_keeps_slots_whose_boundary_was_reached(
    medium_cls, where, slots, remaining
):
    jams = [(where, slots, 100)]
    for station_cls in (PerSlotStation, DcfStation):
        log, countdown, _ = run_world(
            station_cls, medium_cls, 31, [10], jams, (1, 0), False
        )
        freezes = [
            dict(fields)["slots"]
            for _, entity, kind, fields in countdown
            if entity == "s" and kind == "freeze"
        ]
        assert freezes == [remaining], station_cls.__name__
        assert [entry[1] for entry in log] == ["jam", "s", "r"]
