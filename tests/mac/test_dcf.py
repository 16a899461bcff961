"""Tests for the DCF station: contention, ACKs, retries, energy hooks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devices import wlan_cf_card
from repro.mac import DcfStation, Medium
from repro.mac.frames import BROADCAST, Frame, FrameKind
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator


def make_pair(error_model=None, seed=0):
    sim = Simulator()
    medium = Medium(sim, error_model=error_model)
    streams = RandomStreams(seed=seed)
    received = []
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
    b = DcfStation(
        sim,
        medium,
        "b",
        rng=streams.stream("b"),
        on_receive=lambda frame: received.append(frame),
    )
    return sim, medium, a, b, received


def test_single_frame_delivery_and_ack():
    sim, medium, a, b, received = make_pair()
    results = []

    def sender(sim):
        ok = yield a.send("b", 1500, payload="hello")
        results.append((sim.now, ok))

    sim.process(sender(sim))
    sim.run()
    assert results[0][1] is True
    assert len(received) == 1
    assert received[0].payload == "hello"
    assert a.frames_delivered == 1
    assert a.frames_dropped == 0
    assert b.bytes_received == 1500


def test_delivery_takes_at_least_difs_plus_airtime():
    sim, medium, a, b, received = make_pair()
    timing = a.timing
    results = []

    def sender(sim):
        yield a.send("b", 1500)
        results.append(sim.now)

    sim.process(sender(sim))
    sim.run()
    floor = (
        timing.difs_s
        + timing.data_airtime_s(1500, a.config.rate_bps)
        + timing.sifs_s
        + timing.ack_airtime_s()
    )
    assert results[0] >= floor


def test_many_frames_fifo_order():
    sim, medium, a, b, received = make_pair()

    def sender(sim):
        events = [a.send("b", 500, payload=i) for i in range(10)]
        for event in events:
            yield event

    sim.process(sender(sim))
    sim.run()
    assert [frame.payload for frame in received] == list(range(10))


def test_contending_stations_all_deliver():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=3)
    received = []
    DcfStation(
        sim, medium, "sink", rng=streams.stream("sink"),
        on_receive=lambda f: received.append(f),
    )
    stations = [
        DcfStation(sim, medium, f"s{i}", rng=streams.stream(f"s{i}"))
        for i in range(4)
    ]

    def burst(sim, station):
        for j in range(5):
            yield station.send("sink", 700, payload=(station.address, j))

    for station in stations:
        sim.process(burst(sim, station))
    sim.run()
    assert len(received) == 20
    # Collisions may happen, but retries must recover every frame.
    assert all(s.frames_dropped == 0 for s in stations)


def test_lossy_channel_causes_retries_then_delivers():
    # Fail the first two data transmissions, then let everything through.
    failures = {"remaining": 2}

    def error_model(frame, now):
        if frame.kind is FrameKind.DATA and failures["remaining"] > 0:
            failures["remaining"] -= 1
            return False
        return True

    sim, medium, a, b, received = make_pair(error_model=error_model)
    results = []

    def sender(sim):
        ok = yield a.send("b", 1000)
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    assert results == [True]
    assert a.retransmissions == 2
    assert len(received) == 1


def test_total_loss_drops_after_retry_limit():
    sim, medium, a, b, received = make_pair(error_model=lambda f, n: False)
    results = []

    def sender(sim):
        ok = yield a.send("b", 1000)
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    assert results == [False]
    assert a.frames_dropped == 1
    assert received == []


def test_lost_ack_causes_duplicate_suppression():
    # Data frames pass; every ACK is destroyed.
    def error_model(frame, now):
        return frame.kind is not FrameKind.ACK

    sim, medium, a, b, received = make_pair(error_model=error_model)
    results = []

    def sender(sim):
        ok = yield a.send("b", 1000, payload="once")
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    # Sender never sees an ACK: reports failure after exhausting retries...
    assert results == [False]
    # ...but the receiver got the frame exactly once (dedup by seq).
    assert len(received) == 1


def test_broadcast_is_fire_and_forget():
    sim, medium, a, b, received = make_pair()
    all_frames = []
    b.on_receive = lambda frame: all_frames.append(frame)
    results = []

    def sender(sim):
        frame = Frame(FrameKind.DATA, "a", BROADCAST, payload_bytes=100)
        ok = yield a.enqueue_frame(frame)
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    assert results == [True]
    # No ACK was expected or sent.
    assert medium.frames_sent == 1


def test_queue_length_and_stats():
    sim, medium, a, b, received = make_pair()
    for i in range(5):
        a.send("b", 100)
    assert a.frames_queued == 5
    sim.run()
    assert a.frames_delivered == 5
    assert a.bytes_sent == 500


def test_radio_tx_energy_accounted():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    radio = Radio(sim, wlan_cf_card())
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"), radio=radio)
    DcfStation(sim, medium, "b", rng=streams.stream("b"))

    def sender(sim):
        yield a.send("b", 1500)

    sim.process(sender(sim))
    sim.run()
    airtime = a.timing.data_airtime_s(1500, a.config.rate_bps)
    assert radio.time_in_state("tx") == pytest.approx(airtime)


def test_receiver_radio_charged_rx_delta():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    radio = Radio(sim, wlan_cf_card())
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
    DcfStation(sim, medium, "b", rng=streams.stream("b"), radio=radio)

    def sender(sim):
        yield a.send("b", 1500)

    sim.process(sender(sim))
    sim.run()
    airtime = a.timing.data_airtime_s(1500, a.config.rate_bps)
    model = wlan_cf_card()
    rx_delta = (model.power("rx") - model.power("idle")) * airtime
    idle_energy = model.power("idle") * sim.now
    # b transmitted one ACK as well.
    ack_airtime = a.timing.ack_airtime_s()
    tx_extra = (model.power("tx") - model.power("idle")) * ack_airtime
    expected = idle_energy + rx_delta + tx_extra
    assert radio.energy_j() == pytest.approx(expected, rel=1e-6)


def test_dozing_radio_hears_nothing():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    radio = Radio(sim, wlan_cf_card())
    received = []
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
    DcfStation(
        sim, medium, "b", rng=streams.stream("b"), radio=radio,
        on_receive=lambda f: received.append(f),
    )

    def driver(sim):
        yield radio.transition_to("doze")
        result = yield a.send("b", 1000)
        assert result is False  # no ACK ever comes back

    sim.process(driver(sim))
    sim.run()
    assert received == []
    assert a.frames_dropped == 1


class _FixedDraw:
    """Backoff "rng" that always draws ``slots`` (capped at the window)."""

    def __init__(self, slots):
        self.slots = slots

    def randint(self, low, high):
        return min(self.slots, high)


def test_events_per_frame_do_not_grow_with_backoff_slots():
    """The countdown is one timer, however many slots it spans."""

    def events_per_frame(slots):
        sim = Simulator()
        medium = Medium(sim)
        a = DcfStation(sim, medium, "a", rng=_FixedDraw(slots))
        DcfStation(sim, medium, "b", rng=_FixedDraw(slots))

        def sender(sim):
            for _ in range(5):
                yield a.send("b", 500)

        sim.process(sender(sim))
        sim.run()
        assert a.frames_delivered == 5
        return sim.events_scheduled / 5

    per_frame = {slots: events_per_frame(slots) for slots in (0, 1, 7, 31)}
    assert len(set(per_frame.values())) == 1, per_frame


def test_default_backoff_stream_ignores_hash_salt():
    """Stations built without an rng draw the same backoffs in every
    interpreter, whatever PYTHONHASHSEED salts ``str`` hashing with."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "from repro.mac import DcfStation, Medium\n"
        "from repro.sim import Simulator\n"
        "sim = Simulator()\n"
        "station = DcfStation(sim, Medium(sim), 'sta0')\n"
        "print([station.rng.randint(0, 1023) for _ in range(16)])\n"
    )
    outputs = set()
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs
