"""Tests for mobility models and motion-derived link quality."""

import pytest

from repro.phy import (
    LinearMobility,
    LogDistancePathLoss,
    RandomWaypoint,
    WaypointMobility,
    quality_from_mobility,
)
from repro.sim import RandomStreams


class TestLinearMobility:
    def test_position_advances_with_velocity(self):
        walker = LinearMobility(start_xy=(1.0, 2.0), velocity_xy=(1.5, -0.5))
        assert walker.position(0.0) == (1.0, 2.0)
        assert walker.position(4.0) == (7.0, 0.0)

    def test_distance_to_point(self):
        walker = LinearMobility(start_xy=(0.0, 0.0), velocity_xy=(1.0, 0.0))
        assert walker.distance_to(3.0, (0.0, 4.0)) == pytest.approx(5.0)

    def test_stationary(self):
        sitter = LinearMobility(start_xy=(5.0, 5.0), velocity_xy=(0.0, 0.0))
        assert sitter.position(100.0) == (5.0, 5.0)


class TestWaypointMobility:
    def test_interpolates_between_waypoints(self):
        path = WaypointMobility([(0.0, 0.0, 0.0), (10.0, 20.0, 0.0)])
        assert path.position(5.0) == (10.0, 0.0)

    def test_holds_outside_range(self):
        path = WaypointMobility([(5.0, 1.0, 1.0), (10.0, 2.0, 2.0)])
        assert path.position(0.0) == (1.0, 1.0)
        assert path.position(99.0) == (2.0, 2.0)

    def test_multi_segment(self):
        path = WaypointMobility(
            [(0.0, 0.0, 0.0), (10.0, 10.0, 0.0), (20.0, 10.0, 10.0)]
        )
        assert path.position(15.0) == (10.0, 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaypointMobility([])
        with pytest.raises(ValueError):
            WaypointMobility([(1.0, 0, 0), (1.0, 1, 1)])


class TestRandomWaypoint:
    AREA = ((0.0, 0.0), (100.0, 40.0))

    def make_walker(self, seed=0, name="w0", **kwargs):
        return RandomWaypoint(
            RandomStreams(seed=seed), name, area=self.AREA, **kwargs
        )

    def test_same_seed_same_trajectory(self):
        times = [0.0, 3.7, 10.0, 42.5, 120.0]
        a = [self.make_walker().position(t) for t in times]
        b = [self.make_walker().position(t) for t in times]
        assert a == b

    def test_different_seed_different_trajectory(self):
        a = self.make_walker(seed=0).position(60.0)
        b = self.make_walker(seed=1).position(60.0)
        assert a != b

    def test_named_substreams_isolate_walkers(self):
        # Two walkers share one RandomStreams; querying one must not
        # perturb the other (the mobility/<name> substream contract).
        streams = RandomStreams(seed=0)
        w0 = RandomWaypoint(streams, "w0", area=self.AREA)
        w1 = RandomWaypoint(streams, "w1", area=self.AREA)
        w0.position(500.0)  # burn through many of w0's legs
        lone = RandomWaypoint(RandomStreams(seed=0), "w1", area=self.AREA)
        assert w1.position(77.0) == lone.position(77.0)

    def test_positions_stay_inside_the_area(self):
        walker = self.make_walker()
        (x0, y0), (x1, y1) = self.AREA
        for t in range(0, 600, 7):
            x, y = walker.position(float(t))
            assert x0 <= x <= x1
            assert y0 <= y <= y1

    def test_query_order_does_not_change_the_path(self):
        forward = self.make_walker()
        ordered = [forward.position(float(t)) for t in range(0, 100, 5)]
        shuffled = self.make_walker()
        scattered = {
            t: shuffled.position(float(t)) for t in (95, 5, 50, 0, 75, 25)
        }
        for t, xy in scattered.items():
            assert xy == ordered[t // 5]

    def test_speed_respects_the_configured_range(self):
        walker = self.make_walker(speed_range_m_s=(1.0, 2.0),
                                  pause_range_s=(0.0, 0.0))
        walker.position(300.0)
        for t0, t1, x0, y0, x1, y1 in walker._legs:
            if t1 <= t0:
                continue
            speed = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5 / (t1 - t0)
            assert 1.0 - 1e-9 <= speed <= 2.0 + 1e-9

    def test_start_position_override(self):
        walker = self.make_walker(start_xy=(10.0, 20.0))
        assert walker.position(0.0) == (10.0, 20.0)

    def test_distance_to(self):
        walker = self.make_walker(start_xy=(0.0, 0.0),
                                  pause_range_s=(100.0, 100.0))
        assert walker.distance_to(0.0, (3.0, 4.0)) == pytest.approx(5.0)

    def test_validation(self):
        streams = RandomStreams(seed=0)
        with pytest.raises(ValueError):
            RandomWaypoint(streams, "w", area=((10.0, 0.0), (0.0, 10.0)))
        with pytest.raises(ValueError):
            RandomWaypoint(streams, "w", speed_range_m_s=(0.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypoint(streams, "w", pause_range_s=(-1.0, 1.0))


class TestQualityFromMobility:
    def make_quality(self, tx_power_dbm=4.0, velocity=1.0):
        walker = LinearMobility(start_xy=(1.0, 0.0), velocity_xy=(velocity, 0.0))
        loss = LogDistancePathLoss(exponent=3.0)
        return quality_from_mobility(
            walker, base_station_xy=(0.0, 0.0), path_loss=loss,
            tx_power_dbm=tx_power_dbm,
        )

    def test_quality_degrades_while_walking_away(self):
        quality = self.make_quality()
        samples = [quality(t) for t in (0.0, 10.0, 30.0, 60.0)]
        assert samples == sorted(samples, reverse=True)
        assert samples[0] == 1.0  # next to the base station
        assert samples[-1] < 0.5  # far away

    def test_quality_bounded(self):
        quality = self.make_quality()
        for t in range(0, 200, 10):
            assert 0.0 <= quality(float(t)) <= 1.0

    def test_higher_tx_power_survives_longer(self):
        """The BT-vs-WLAN budget gap: more dBm, later degradation."""
        bluetooth = self.make_quality(tx_power_dbm=4.0)
        wlan = self.make_quality(tx_power_dbm=15.0)
        for t in (20.0, 40.0, 60.0):
            assert wlan(t) >= bluetooth(t)

    def test_validation(self):
        walker = LinearMobility()
        loss = LogDistancePathLoss()
        with pytest.raises(ValueError):
            quality_from_mobility(
                walker, (0, 0), loss, 4.0, snr_floor_db=20.0, snr_ceiling_db=10.0
            )


class TestMobilityDrivenSwitchover:
    def test_walkaway_forces_bluetooth_to_wlan_switch(self):
        """End-to-end: a client walking away from its Bluetooth master
        degrades that link; the Hotspot moves it to WLAN (whose AP has
        10 dB more budget) without losing the stream."""
        from repro.apps import Mp3Stream
        from repro.core import (
            HotspotClient,
            HotspotServer,
            QoSContract,
            bluetooth_interface,
            wlan_interface,
        )
        from repro.sim import Simulator

        sim = Simulator()
        walker = LinearMobility(start_xy=(1.0, 0.0), velocity_xy=(0.7, 0.0))
        loss = LogDistancePathLoss(exponent=3.0)
        bt_quality = quality_from_mobility(walker, (0.0, 0.0), loss, 4.0)
        wlan_quality = quality_from_mobility(walker, (0.0, 0.0), loss, 15.0)
        interfaces = {
            "bluetooth": bluetooth_interface(sim, quality=bt_quality),
            "wlan": wlan_interface(sim, quality=wlan_quality),
        }
        contract = QoSContract(client="c0", stream_rate_bps=128_000.0,
                               client_buffer_bytes=96_000)
        client = HotspotClient(sim, "c0", contract, interfaces)
        server = HotspotServer(sim, min_burst_bytes=40_000)
        session = server.register(client)
        server.ingest("c0", 480_000)
        session.cursor = Mp3Stream().cursor(sim, until_s=90.0)
        server.start()
        sim.run(until=90.0)
        session = server.sessions["c0"]
        names = [name for _t, name in session.interface_log]
        assert names[0] == "bluetooth"
        assert "wlan" in names
        assert client.finish().underruns == 0
