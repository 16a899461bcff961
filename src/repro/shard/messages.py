"""Cross-shard message payloads: client snapshots and their restore.

A migration message carries everything the owning world needs to rebuild
the client *exactly* where the origin world froze it: playout-buffer
state, per-radio energy totals, delivery counters, and the full
:class:`~repro.core.server.ClientSession` bookkeeping (backlog included —
the session backlog is the paper's proxy buffer, and it must survive the
move byte-for-byte).  The backlog is settled at the barrier, and
``arrivals_consumed`` records how far the session's stream cursor had
read, so the owning world resumes the stream exactly there.  Snapshots
are plain JSON-able dicts so the same payload crosses a
:mod:`multiprocessing` pipe or stays in-process untouched.

Radios are *not* serialised as state machines.  The origin only migrates
a fully quiescent client (every radio asleep, no burst in flight), so
the restore parks the fresh radios administratively
(:meth:`~repro.phy.radio.Radio.force_state`) and folds the consumed
energy in as an impulse — total energy, and therefore average power over
the run, is preserved across any number of hops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.server import ClientSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import HotspotClient

__all__ = ["snapshot_client", "restore_client_state", "restore_session"]


def snapshot_client(
    client: "HotspotClient", session: ClientSession, time_s: float
) -> Dict[str, object]:
    """Freeze a quiescent client + session into a JSON-able payload."""
    backlog = session.backlog_bytes  # settles the cursor first
    return {
        "playout": client.playout.snapshot_state(time_s),
        "energy_j": {
            kind: interface.radio.energy_j(time_s)
            for kind, interface in client.interfaces.items()
        },
        "bursts_received": client.bursts_received,
        "bytes_received": client.bytes_received,
        "burst_log": [list(entry) for entry in client.burst_log],
        "arrivals_consumed": session.cursor.consumed,
        "session": {
            "backlog_bytes": backlog,
            "interface": session.interface,
            "switchovers": session.switchovers,
            "bursts_served": session.bursts_served,
            "bytes_served": session.bytes_served,
            "paused": session.paused,
            "bursts_failed": session.bursts_failed,
            "interface_log": [list(entry) for entry in session.interface_log],
        },
    }


def restore_client_state(
    client: "HotspotClient", snapshot: Dict[str, object]
) -> None:
    """Load a snapshot into a freshly built client (same node spec).

    The client's counters pick up where the origin's left off, the fresh
    radios are parked in their sleep states, and the energy consumed in
    previous worlds lands as an impulse — so end-of-run energy totals
    read as if the client had lived here all along.  ``_start_time``
    rewinds to 0: a migrant's averaging window is the whole run, not its
    local tenure.
    """
    client.playout.restore_state(snapshot["playout"])
    client.bursts_received = snapshot["bursts_received"]
    client.bytes_received = snapshot["bytes_received"]
    client.burst_log = [tuple(entry) for entry in snapshot["burst_log"]]
    client._start_time = 0.0
    carried = snapshot["energy_j"]
    for kind, interface in client.interfaces.items():
        interface.radio.force_state(interface.sleep_state)
        energy = carried.get(kind, 0.0)
        if energy > 0:
            interface.radio.add_energy_impulse(energy)


def restore_session(
    client: "HotspotClient", snapshot: Dict[str, object]
) -> ClientSession:
    """Rebuild the travelled session object around the restored client.

    The session comes back without a cursor; the caller attaches one
    that resumes after ``snapshot["arrivals_consumed"]`` arrivals.
    """
    payload = snapshot["session"]
    session = ClientSession(
        client=client,
        interface=payload["interface"],
        switchovers=payload["switchovers"],
        bursts_served=payload["bursts_served"],
        bytes_served=payload["bytes_served"],
        paused=payload["paused"],
        bursts_failed=payload["bursts_failed"],
    )
    session.interface_log = [
        tuple(entry) for entry in payload["interface_log"]
    ]
    session.backlog_bytes = payload["backlog_bytes"]
    return session
