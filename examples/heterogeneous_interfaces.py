#!/usr/bin/env python3
"""Heterogeneous wireless environments: Bluetooth, WLAN and GPRS.

The paper: "The mobiles themselves support multiple wireless interfaces,
such as WLAN and GPRS.  Mobility between the interfaces should happen
seamlessly while still saving energy and meeting quality of service
needs."

A client carries all three interfaces.  As the run progresses, first the
Bluetooth link degrades (t=20 s), then the WLAN link too (t=40 s); the
server walks down the preference list, landing on GPRS — which can only
carry a low-rate stream, so we stream 24 kb/s speech-quality audio.

Run:  python examples/heterogeneous_interfaces.py
"""

from repro.core import (
    HotspotClient,
    HotspotServer,
    QoSContract,
    bluetooth_interface,
    gprs_interface,
    wlan_interface,
)
from repro.apps import Mp3Stream
from repro.metrics import format_table
from repro.phy import ScriptedLinkQuality
from repro.sim import Simulator

DURATION_S = 60.0
BITRATE_BPS = 24_000.0  # speech-grade stream GPRS can still carry


def main() -> None:
    sim = Simulator()
    bt_quality = ScriptedLinkQuality([(0.0, 1.0), (20.0, 0.2)])
    wlan_quality = ScriptedLinkQuality([(0.0, 1.0), (40.0, 0.2)])

    interfaces = {
        "bluetooth": bluetooth_interface(sim, quality=bt_quality.quality),
        "wlan": wlan_interface(sim, quality=wlan_quality.quality),
        "gprs": gprs_interface(sim),
    }
    contract = QoSContract(
        client="roamer", stream_rate_bps=BITRATE_BPS, client_buffer_bytes=48_000
    )
    client = HotspotClient(sim, "roamer", contract, interfaces)
    server = HotspotServer(sim, scheduler="edf", min_burst_bytes=12_000)
    session = server.register(client)
    server.ingest("roamer", int(30.0 * BITRATE_BPS / 8))  # proxy prefetch
    session.cursor = Mp3Stream(bitrate_bps=BITRATE_BPS).cursor(
        sim, until_s=DURATION_S
    )
    server.start()
    sim.run(until=DURATION_S)

    session = server.sessions["roamer"]
    print("Interface trajectory:")
    for time_s, name in session.interface_log:
        print(f"  t={time_s:5.1f}s  ->  {name}")

    qos = client.finish()
    rows = [
        [name, iface.radio.average_power_w(), iface.bursts]
        for name, iface in interfaces.items()
    ]
    print()
    print(
        format_table(
            ["interface", "avg power (W)", "bursts carried"],
            rows,
            title=f"Per-interface power over {DURATION_S:.0f}s ({BITRATE_BPS/1000:.0f} kb/s stream)",
        )
    )
    print(f"\nswitchovers: {session.switchovers}, "
          f"QoS maintained: {qos.maintained} "
          f"(underruns: {qos.underruns})")


if __name__ == "__main__":
    main()
