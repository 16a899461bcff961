"""Integration: interface switchover driven by a stochastic channel.

The Figure-2 scenario uses a scripted degradation; here the Bluetooth
link quality follows a Gilbert-Elliott chain instead, so the server's
interface policy reacts to *random* fades — switching to WLAN in bad
phases and back to Bluetooth when the link recovers.
"""

import random

import pytest

from repro.core import (
    HotspotClient,
    HotspotServer,
    QoSContract,
    bluetooth_interface,
    wlan_interface,
)
from repro.apps import Mp3Stream
from repro.phy import GilbertElliottChannel
from repro.phy.channel import quality_from_gilbert_elliott
from repro.sim import Simulator

DURATION_S = 120.0


def run_stochastic(seed=0):
    sim = Simulator()
    channel = GilbertElliottChannel(
        p_good_to_bad=0.005,
        p_bad_to_good=0.02,
        slot_s=0.1,
        rng=random.Random(seed),
    )
    quality = quality_from_gilbert_elliott(channel)
    interfaces = {
        "bluetooth": bluetooth_interface(sim, quality=quality),
        "wlan": wlan_interface(sim),
    }
    contract = QoSContract(client="c0", stream_rate_bps=128_000.0,
                           client_buffer_bytes=96_000)
    client = HotspotClient(sim, "c0", contract, interfaces)
    server = HotspotServer(sim, min_burst_bytes=40_000)
    session = server.register(client)
    server.ingest("c0", 480_000)  # 30 s proxy prefetch
    session.cursor = Mp3Stream().cursor(sim, until_s=DURATION_S)
    server.start()
    sim.run(until=DURATION_S)
    return server.sessions["c0"], client


def test_quality_adapter_validation():
    channel = GilbertElliottChannel(0.1, 0.1, rng=random.Random(0))
    with pytest.raises(ValueError):
        quality_from_gilbert_elliott(channel, good_quality=0.1, bad_quality=0.5)


def test_quality_adapter_tracks_state():
    channel = GilbertElliottChannel(
        p_good_to_bad=1.0, p_bad_to_good=0.0, slot_s=1.0, rng=random.Random(0)
    )
    quality = quality_from_gilbert_elliott(channel)
    assert quality(0.5) == 1.0  # still good (no full slot elapsed)
    assert quality(1.5) == 0.2  # flipped bad
    # Querying the past returns the current state, never rewinds.
    assert quality(0.1) == 0.2


def test_switchovers_follow_the_fades():
    session, client = run_stochastic(seed=3)
    # The chain spends ~29% of time bad (0.005/(0.005+0.02) stationary
    # bad fraction); over 120 s multiple fades occur -> multiple switches.
    assert session.switchovers >= 2
    used = {name for _t, name in session.interface_log}
    assert used == {"bluetooth", "wlan"}


def test_stream_survives_random_fades():
    session, client = run_stochastic(seed=3)
    qos = client.finish()
    expected = 128_000 / 8 * DURATION_S
    assert client.bytes_received == pytest.approx(expected, rel=0.15)
    # Fades may cost at most a brief stall; the buffer bridges most.
    assert qos.underrun_time_s < 2.0


def test_different_seeds_different_trajectories():
    a, _ = run_stochastic(seed=1)
    b, _ = run_stochastic(seed=2)
    assert a.interface_log != b.interface_log
