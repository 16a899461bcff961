"""Tests for a medium with geometry: hidden terminals and NAV/RTS rescue."""


from repro.mac import (
    DcfConfig,
    DcfStation,
    Medium,
    audibility_from_groups,
)
from repro.obs.bus import TraceBus
from repro.sim import RandomStreams, Simulator


def hidden_terminal_audibility():
    """A and C each hear the AP 'b'; they do not hear each other."""
    return audibility_from_groups({"a", "b"}, {"b", "c"})


class TestAudibility:
    def test_groups(self):
        audible = hidden_terminal_audibility()
        assert audible("a", "b") and audible("b", "a")
        assert audible("c", "b") and audible("b", "c")
        assert not audible("a", "c")
        assert not audible("c", "a")
        assert audible("a", "a")  # self


class TestSpatialSensing:
    def make(self):
        sim = Simulator()
        medium = Medium(sim, audibility=hidden_terminal_audibility())
        return sim, medium

    def test_everyone_idle_initially(self):
        sim, medium = self.make()
        assert medium.is_idle_for("a")
        assert medium.is_idle_for("c")

    def test_hidden_station_senses_idle_during_foreign_tx(self):
        sim, medium = self.make()
        streams = RandomStreams(seed=1)
        a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
        DcfStation(sim, medium, "b", rng=streams.stream("b"))
        DcfStation(sim, medium, "c", rng=streams.stream("c"))
        observations = []

        def observer(sim):
            yield sim.timeout(0.0006)  # mid-flight of a's frame
            observations.append(("c_senses_idle", medium.is_idle_for("c")))
            observations.append(("b_senses_busy", not medium.is_idle_for("b")))

        def tx(sim):
            yield a.send("b", 1500)

        sim.process(tx(sim))
        sim.process(observer(sim))
        sim.run(until=1.0)
        assert ("c_senses_idle", True) in observations
        assert ("b_senses_busy", True) in observations

    def test_unicast_not_heard_outside_audibility(self):
        sim, medium = self.make()
        streams = RandomStreams(seed=2)
        received = []
        a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
        DcfStation(
            sim, medium, "c", rng=streams.stream("c"),
            on_receive=lambda f: received.append(f),
        )

        def tx(sim):
            ok = yield a.send("c", 500)
            assert ok is False  # c cannot hear a at all

        sim.process(tx(sim))
        sim.run(until=2.0)
        assert received == []


def run_hidden_terminal(rts_threshold, n_frames=25, seed=5):
    """A and C simultaneously push frames to the AP 'b'."""
    sim = Simulator(trace=TraceBus())
    medium = Medium(sim, audibility=hidden_terminal_audibility())
    streams = RandomStreams(seed=seed)
    received = []
    DcfStation(
        sim, medium, "b", rng=streams.stream("b"),
        on_receive=lambda f: received.append(f),
    )
    config = DcfConfig(rts_threshold_bytes=rts_threshold, rate_bps=2e6)
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"), config=config)
    c = DcfStation(sim, medium, "c", rng=streams.stream("c"), config=config)

    def burst(sim, station):
        for i in range(n_frames):
            yield station.send("b", 1400, payload=(station.address, i))

    sim.process(burst(sim, a))
    sim.process(burst(sim, c))
    sim.run(until=60.0)
    drops = a.frames_dropped + c.frames_dropped
    retries = a.retransmissions + c.retransmissions
    return {
        "delivered": len(received),
        "drops": drops,
        "retries": retries,
        "collided": medium.frames_collided,
        "collision_events": len(
            sim.trace.events(layer="mac", entity="medium", kind="collision")
        ),
    }


class TestHiddenTerminal:
    def test_bare_dcf_suffers_collisions_at_the_ap(self):
        result = run_hidden_terminal(rts_threshold=None)
        # Hidden senders cannot defer to each other: collisions abound.
        assert result["collided"] > 10
        assert result["retries"] > 10
        # Overlaps are traced as on a geometry-free medium.
        assert result["collision_events"] > 0

    def test_rts_cts_nav_rescues_the_exchange(self):
        bare = run_hidden_terminal(rts_threshold=None)
        protected = run_hidden_terminal(rts_threshold=500)
        # The CTS from the AP silences the hidden sender via its NAV:
        # data-frame collisions all but vanish.
        assert protected["retries"] < bare["retries"]
        assert protected["delivered"] >= bare["delivered"]
        assert protected["drops"] <= bare["drops"]

    def test_all_frames_eventually_delivered_with_rts(self):
        result = run_hidden_terminal(rts_threshold=500)
        assert result["drops"] == 0
        assert result["delivered"] == 50
