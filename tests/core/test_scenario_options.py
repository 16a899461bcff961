"""Tests for scenario builder options and edge configurations."""

import pytest

from repro.build import WorldBuilder, hotspot_world, unscheduled_world
from repro.core.scheduling import WeightedFairScheduler


def test_scheduler_object_accepted():
    result = WorldBuilder(hotspot_world(
        n_clients=1, duration_s=15.0, scheduler=WeightedFairScheduler()
    )).run()
    assert result.label == "hotspot[wfq]"
    assert result.clients[0].bursts > 0


def test_wlan_only_configuration():
    result = WorldBuilder(hotspot_world(
        n_clients=2, duration_s=20.0, interfaces=("wlan",)
    )).run()
    assert all(
        name == "wlan"
        for client in result.clients
        for _t, name in client.interface_log
    )
    assert result.qos_maintained()


def test_bluetooth_only_configuration():
    result = WorldBuilder(hotspot_world(
        n_clients=2, duration_s=20.0, interfaces=("bluetooth",)
    )).run()
    used = {name for c in result.clients for _t, name in c.interface_log}
    assert used == {"bluetooth"}


def test_zero_prefetch_still_works():
    """Without proxy prefetch, bursts shrink to the prebuffer scale but
    streaming must still hold together."""
    result = WorldBuilder(hotspot_world(
        n_clients=1, duration_s=30.0, server_prefetch_s=0.0
    )).run()
    client = result.clients[0]
    assert client.bytes_received > 0
    # Bursts are much smaller without prefetch.
    mean_burst = client.bytes_received / max(client.bursts, 1)
    assert mean_burst < 40_000


def test_prefetch_increases_burst_size():
    small = WorldBuilder(
        hotspot_world(n_clients=1, duration_s=30.0, server_prefetch_s=0.0)
    ).run()
    large = WorldBuilder(
        hotspot_world(n_clients=1, duration_s=30.0, server_prefetch_s=30.0)
    ).run()

    def mean_burst(result):
        c = result.clients[0]
        return c.bytes_received / max(c.bursts, 1)

    assert mean_burst(large) > mean_burst(small)


def test_higher_bitrate_stream():
    result = WorldBuilder(hotspot_world(
        n_clients=1, duration_s=20.0, bitrate_bps=320_000.0
    )).run()
    assert result.qos_maintained()
    expected = 320_000 / 8 * 20.0
    assert result.clients[0].bytes_received == pytest.approx(expected, rel=0.25)


def test_unscheduled_bluetooth_duty_reflects_rate():
    low = WorldBuilder(unscheduled_world(
        "bluetooth", n_clients=1, duration_s=20.0, bitrate_bps=64_000.0
    )).run()
    high = WorldBuilder(unscheduled_world(
        "bluetooth", n_clients=1, duration_s=20.0, bitrate_bps=256_000.0
    )).run()
    assert high.mean_wnic_power_w() > low.mean_wnic_power_w()


def test_energy_reports_have_all_radios():
    result = WorldBuilder(hotspot_world(n_clients=2, duration_s=15.0)).run()
    for client in result.clients:
        assert len(client.energy.radios) == 2  # bluetooth + wlan
        assert client.energy.total_average_power_w() > 0


def test_seed_changes_nothing_for_deterministic_workload():
    """CBR MP3 + deterministic scheduling: seeds only touch unused RNG
    streams, so results coincide — documenting the determinism boundary."""
    a = WorldBuilder(hotspot_world(n_clients=1, duration_s=15.0, seed=1)).run()
    b = WorldBuilder(hotspot_world(n_clients=1, duration_s=15.0, seed=2)).run()
    assert a.mean_wnic_power_w() == b.mean_wnic_power_w()
