#!/usr/bin/env python3
"""Hidden terminals and the RTS/CTS + NAV rescue, on a medium with geometry.

Stations A and C both talk to access point B but cannot hear each other:
their carrier sense never defers to one another, so their data frames
collide *at B* — the classic hidden-terminal problem.  Protecting frames
with an RTS/CTS handshake fixes it: B's CTS is audible to both sides and
arms the hidden sender's NAV (virtual carrier sense) for the duration of
the exchange.

Run:  python examples/hidden_terminal.py
"""

from repro.mac import (
    DcfConfig,
    DcfStation,
    Medium,
    audibility_from_groups,
)
from repro.metrics import format_table
from repro.sim import RandomStreams, Simulator

N_FRAMES = 40


def run(rts_threshold, label):
    sim = Simulator()
    # A hears B; C hears B; A and C are mutually hidden.
    medium = Medium(
        sim, audibility=audibility_from_groups({"A", "B"}, {"B", "C"})
    )
    streams = RandomStreams(seed=7)
    received = []
    DcfStation(
        sim, medium, "B", rng=streams.stream("B"),
        on_receive=lambda f: received.append(f),
    )
    config = DcfConfig(rts_threshold_bytes=rts_threshold, rate_bps=2e6)
    senders = [
        DcfStation(sim, medium, name, rng=streams.stream(name), config=config)
        for name in ("A", "C")
    ]

    def push(sim, station):
        for i in range(N_FRAMES):
            yield station.send("B", 1400)

    for sender in senders:
        sim.process(push(sim, sender))
    sim.run(until=120.0)
    return [
        label,
        len(received),
        sum(s.frames_dropped for s in senders),
        sum(s.retransmissions for s in senders),
        medium.frames_collided,
        medium.busy_time_s,
    ]


def main() -> None:
    rows = [
        run(None, "bare DCF"),
        run(500, "RTS/CTS + NAV"),
    ]
    print(
        format_table(
            ["configuration", "delivered", "dropped", "retries", "collisions", "airtime (s)"],
            rows,
            title=f"Hidden terminals A--B--C, {2 * N_FRAMES} frames offered to B",
        )
    )
    print(
        "\nWithout RTS/CTS the hidden senders collide at B invisibly;\n"
        "with it, B's CTS reserves the air for the whole exchange."
    )


if __name__ == "__main__":
    main()
