"""Tests for application traffic generators."""

import random

import pytest

from repro.apps import Mp3Stream, OnOffTraffic, PoissonTraffic, TraceTraffic, VideoStream
from repro.apps.traffic import MP3_FRAME_INTERVAL_S, merge_arrivals
from repro.sim import Simulator


class TestMp3Stream:
    def test_frame_cadence(self):
        stream = Mp3Stream(bitrate_bps=128_000.0)
        arrivals = list(stream.arrivals(1.0))
        # ~38 frames per second at 26.12 ms spacing.
        assert 37 <= len(arrivals) <= 39
        gaps = [b[0] - a[0] for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(MP3_FRAME_INTERVAL_S) for g in gaps)

    def test_mean_rate_matches_bitrate(self):
        stream = Mp3Stream(bitrate_bps=128_000.0)
        assert stream.mean_rate_bps(60.0) == pytest.approx(128_000.0, rel=0.02)

    def test_higher_bitrate_bigger_frames(self):
        low = Mp3Stream(bitrate_bps=128_000.0)
        high = Mp3Stream(bitrate_bps=320_000.0)
        assert high.frame_bytes > low.frame_bytes

    def test_vbr_varies_sizes(self):
        stream = Mp3Stream(
            bitrate_bps=128_000.0, vbr_fraction=0.2, rng=random.Random(1)
        )
        sizes = {nbytes for _t, nbytes, _k in stream.arrivals(5.0)}
        assert len(sizes) > 1

    def test_all_arrivals_tagged_audio(self):
        stream = Mp3Stream()
        assert all(kind == "audio" for _t, _n, kind in stream.arrivals(1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            Mp3Stream(bitrate_bps=0.0)
        with pytest.raises(ValueError):
            Mp3Stream(vbr_fraction=1.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            Mp3Stream(vbr_fraction=0.2)  # rng required


class TestPoisson:
    def test_mean_rate(self):
        source = PoissonTraffic(
            mean_interarrival_s=0.1, packet_bytes=100, rng=random.Random(2)
        )
        arrivals = list(source.arrivals(200.0))
        assert len(arrivals) == pytest.approx(2000, rel=0.1)

    def test_times_ordered(self):
        source = PoissonTraffic(0.05, 100, random.Random(3))
        times = [t for t, _n, _k in source.arrivals(10.0)]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonTraffic(0.0, 100, random.Random(0))
        with pytest.raises(ValueError):
            PoissonTraffic(1.0, 0, random.Random(0))


class TestOnOff:
    def test_bursty_structure(self):
        source = OnOffTraffic(random.Random(4), mean_on_s=1.0, mean_off_s=5.0)
        times = [t for t, _n, _k in source.arrivals(200.0)]
        assert times, "expected some traffic"
        gaps = [b - a for a, b in zip(times, times[1:])]
        # A mix of tiny in-burst gaps and long think times.
        assert min(gaps) < 0.02
        assert max(gaps) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffTraffic(random.Random(0), mean_on_s=0.0)


class TestVideo:
    def test_gop_structure(self):
        source = VideoStream(frame_rate_fps=10.0, gop_length=5)
        arrivals = list(source.arrivals(1.0))
        kinds = [k for _t, _n, k in arrivals]
        assert kinds[0] == "video-i"
        assert kinds[1] == "video-p"
        assert kinds[5] == "video-i"

    def test_i_frames_bigger(self):
        source = VideoStream()
        sizes = {k: n for _t, n, k in source.arrivals(2.0)}
        assert sizes["video-i"] > sizes["video-p"]

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoStream(frame_rate_fps=0.0)
        with pytest.raises(ValueError):
            VideoStream(gop_length=0)


class TestTrace:
    def test_replays_sorted(self):
        source = TraceTraffic([(2.0, 10, "x"), (1.0, 20, "y")])
        arrivals = list(source.arrivals(10.0))
        assert arrivals == [(1.0, 20, "y"), (2.0, 10, "x")]

    def test_until_is_exclusive(self):
        source = TraceTraffic([(1.0, 10, "x"), (5.0, 10, "x")])
        assert len(list(source.arrivals(5.0))) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceTraffic([(1.0, 0, "x")])
        with pytest.raises(ValueError):
            TraceTraffic([(-1.0, 10, "x")])


class TestPump:
    def test_des_pump_delivers_at_right_times(self):
        sim = Simulator()
        source = TraceTraffic([(0.5, 100, "a"), (2.5, 200, "b")])
        seen = []
        source.start(sim, lambda n, k: seen.append((sim.now, n, k)), until_s=10.0)
        sim.run(until=10.0)
        assert seen == [(0.5, 100, "a"), (2.5, 200, "b")]

    def test_long_trace_sinks_at_timeout_instants(self):
        # 602 arrivals, each time repeated once, the first two already
        # due when the pump starts at 0.3.
        # Each sleep is timeout(t - now), so the sink runs at
        # now + (t - now): the first sleep lands on 0.9000000000000001,
        # not 0.9, and every later instant follows from that one.
        trace = [(0.2, 1, "x"), (0.2, 2, "x")] + [
            (0.9 + 0.013 * (i // 2), 3 + i, "x") for i in range(600)
        ]
        sim = Simulator()
        sim.run(until=0.3)
        seen = []
        TraceTraffic(trace).start(
            sim, lambda n, k: seen.append((sim.now, n)), until_s=10.0
        )
        sim.run(until=10.0)

        expected = []
        now = 0.3
        for time_s, nbytes, _kind in trace:
            if time_s > now:
                now = now + (time_s - now)
            expected.append((now, nbytes))
        assert seen == expected
        assert seen[:2] == [(0.3, 1), (0.3, 2)]  # past due: no sleep
        assert seen[2][0] == 0.3 + (0.9 - 0.3) != 0.9

    def test_running_pumps_hold_one_pending_timeout_each(self):
        sim = Simulator()
        pumps = 8
        for _ in range(pumps):
            Mp3Stream().start(sim, lambda n, k: None, until_s=20.0)
        deepest = 0
        while sim.peek() <= 20.0:
            sim.step()
            deepest = max(deepest, sim.queue_depth)
        assert sim.now > 19.9
        assert deepest <= pumps + 1


def test_merge_arrivals_ordered():
    a = TraceTraffic([(1.0, 10, "a"), (3.0, 10, "a")])
    b = TraceTraffic([(2.0, 20, "b")])
    merged = merge_arrivals([a, b], until_s=10.0)
    assert [t for t, _n, _k in merged] == [1.0, 2.0, 3.0]
