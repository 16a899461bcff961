"""Scenario outcome containers: what every runnable world produces.

Kept apart from the declarative composition layer (:mod:`repro.build`)
so the simulator layers and the builder share them without import
cycles: :class:`ClientOutcome` is everything measured for one client,
:class:`ScenarioResult` the whole run's output, and
:meth:`ScenarioResult.summary_record` the JSON-ready scalar record the
campaign engine hashes, caches and aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.qos import QoSContract
from repro.metrics.energy import ClientEnergyReport
from repro.metrics.qos import QosSummary
from repro.phy import Radio

#: MP3 decode keeps the platform busy a modest fraction of the time.
MP3_DECODE_BUSY_FRACTION = 0.15

#: Summary-record fields that vary run-to-run on the same (params, seed)
#: because they measure the host, not the simulation.  The campaign
#: runner strips these from stored records (they move to the progress
#: heartbeat instead) so caching, resume and jobs=1 == jobs=N diffs stay
#: byte-identical.
VOLATILE_TIMING_FIELDS = ("wall_time_s", "events_per_second")


@dataclass
class ClientOutcome:
    """Everything measured for one client."""

    name: str
    qos: QosSummary
    energy: ClientEnergyReport
    wnic_average_power_w: float
    bursts: int
    bytes_received: int
    switchovers: int = 0
    interface_log: List[Tuple[float, str]] = field(default_factory=list)


@dataclass
class ScenarioResult:
    """Output of one scenario run."""

    label: str
    duration_s: float
    clients: List[ClientOutcome]
    #: Radios by "client/interface" for timeline rendering.
    radios: Dict[str, Radio] = field(default_factory=dict)
    server: Optional[object] = None
    #: Scenario-specific scalar fields merged into the summary record
    #: (e.g. fault-injection counters); must stay JSON-serialisable and
    #: deterministic for a given (params, seed).
    extras: Dict[str, object] = field(default_factory=dict)
    #: Kernel events the run scheduled (deterministic for params+seed).
    sim_events: int = 0
    #: Wall-clock seconds the run took — host-dependent, never cached.
    wall_time_s: float = 0.0

    def mean_wnic_power_w(self) -> float:
        """Average per-client WNIC power (the paper's Figure 2 metric)."""
        if not self.clients:
            return 0.0
        return sum(c.wnic_average_power_w for c in self.clients) / len(self.clients)

    def mean_total_power_w(self) -> float:
        """Average per-client whole-device power."""
        if not self.clients:
            return 0.0
        return sum(
            c.energy.total_average_power_w() for c in self.clients
        ) / len(self.clients)

    def qos_maintained(self) -> bool:
        return all(c.qos.maintained for c in self.clients)

    def events_per_second(self) -> float:
        """Kernel throughput: events scheduled per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.sim_events / self.wall_time_s

    def summary_record(self) -> Dict[str, object]:
        """JSON-ready per-run summary (the campaign engine's cache unit).

        Only plain scalars: this is what :mod:`repro.exp` hashes runs
        against, persists in its result store, and aggregates across
        seeds — keep fields deterministic for a given (params, seed).
        The :data:`VOLATILE_TIMING_FIELDS` are the one exception: they
        measure the host and are stripped by the campaign runner before
        records are stored or compared.
        """
        record: Dict[str, object] = {
            "label": self.label,
            "duration_s": self.duration_s,
            "n_clients": len(self.clients),
            "wnic_power_w": self.mean_wnic_power_w(),
            "device_power_w": self.mean_total_power_w(),
            "qos_maintained": self.qos_maintained(),
            "bursts": sum(c.bursts for c in self.clients),
            "bytes_received": sum(c.bytes_received for c in self.clients),
            "switchovers": sum(c.switchovers for c in self.clients),
            "sim_events": self.sim_events,
            "wall_time_s": self.wall_time_s,
            "events_per_second": self.events_per_second(),
        }
        record.update(self.extras)
        return record


def make_stream_contract(
    name: str,
    bitrate_bps: float,
    buffer_bytes: int,
    prebuffer_s: float = 1.0,
    weight: float = 1.0,
) -> QoSContract:
    """The standard streaming contract every scenario hands its clients."""
    return QoSContract(
        client=name,
        stream_rate_bps=bitrate_bps,
        client_buffer_bytes=buffer_bytes,
        prebuffer_s=prebuffer_s,
        weight=weight,
    )
