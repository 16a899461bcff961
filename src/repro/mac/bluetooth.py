"""Bluetooth ACL link with the low-power modes the Hotspot client uses.

The paper's §2 scenario starts clients on Bluetooth and parks the link
between scheduled bursts: *"the client's wireless devices enter low power
modes: park for Bluetooth and off for WLAN."*

:class:`BluetoothLink` models one master-slave ACL connection from the
slave's (client's) perspective:

- ``active`` — data flowing at the ACL payload rate;
- ``connected`` — link up, no data, radio still duty-cycling;
- ``sniff`` — periodic listen windows (modelled by its average power);
- ``hold`` — one-shot silence interval;
- ``park`` — deepest connected mode; the slave gives up its active-member
  address and only listens to periodic park beacons (charged as energy
  impulses on the radio).

Data transfer is modelled at burst granularity — appropriate for the
Hotspot layer, which schedules tens-of-kilobyte bursts, not baseband
packets.  Per-packet protocol overhead is captured by ``efficiency``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.devices.profiles import BLUETOOTH_ACL_RATE_BPS
from repro.phy.radio import Radio

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.events import Event

#: Modes a link can rest in between transfers, ordered by depth.
LOW_POWER_MODES = ("connected", "sniff", "hold", "park")


class BluetoothLink:
    """One ACL link, driven from the client side.

    Parameters
    ----------
    sim:
        Owning simulator.
    radio:
        A radio built from :func:`repro.devices.bluetooth_module`.
    rate_bps:
        Nominal ACL payload rate (DH5 asymmetric: 723.2 kb/s).
    efficiency:
        Fraction of nominal rate achieved after baseband overhead.
    park_beacon_interval_s:
        How often a parked slave wakes to listen for beacons.
    park_listen_s:
        Duration of each park-beacon listen.
    """

    def __init__(
        self,
        sim: "Simulator",
        radio: Radio,
        rate_bps: float = BLUETOOTH_ACL_RATE_BPS,
        efficiency: float = 0.85,
        park_beacon_interval_s: float = 1.28,
        park_listen_s: float = 0.00125,
        sniff_interval_s: float = 0.5,
        sniff_attempt_s: float = 0.00625,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if park_beacon_interval_s <= 0 or park_listen_s <= 0:
            raise ValueError("park beacon parameters must be positive")
        if sniff_interval_s <= 0 or sniff_attempt_s <= 0:
            raise ValueError("sniff parameters must be positive")
        if sniff_attempt_s >= sniff_interval_s:
            raise ValueError("sniff attempt must be shorter than the interval")
        self.sim = sim
        self.radio = radio
        self.rate_bps = rate_bps
        self.efficiency = efficiency
        self.park_beacon_interval_s = park_beacon_interval_s
        self.park_listen_s = park_listen_s
        self.sniff_interval_s = sniff_interval_s
        self.sniff_attempt_s = sniff_attempt_s
        self.bytes_transferred = 0
        self.transfers = 0
        self._park_generation = 0
        sim.process(self._park_beacon_loop(), name="bt-park-beacons")
        sim.process(self._sniff_attempt_loop(), name="bt-sniff-attempts")

    # -- queries ------------------------------------------------------------

    @property
    def mode(self) -> str:
        """Current link mode (the radio state)."""
        return self.radio.state

    @property
    def effective_rate_bps(self) -> float:
        """Payload goodput after baseband overhead."""
        return self.rate_bps * self.efficiency

    def transfer_duration_s(self, nbytes: int) -> float:
        """Time a transfer of ``nbytes`` occupies the link."""
        if nbytes < 0:
            raise ValueError("byte count must be >= 0")
        return nbytes * 8.0 / self.effective_rate_bps

    # -- mode control -------------------------------------------------------------

    def set_mode(self, mode: str) -> "Event":
        """Move the link to ``mode``; yield the returned event to wait.

        Valid targets are the low-power modes plus ``active`` and ``off``.
        """
        if mode not in LOW_POWER_MODES and mode not in ("active", "off"):
            raise ValueError(f"unknown Bluetooth mode {mode!r}")
        return self.radio.transition_to(mode)

    # -- data ------------------------------------------------------------------------

    def transfer(self, nbytes: int, resume_mode: Optional[str] = None):
        """Move one burst over the link; yield the process to wait.

        The link wakes to ``active``, holds it for the transfer duration,
        then drops to ``resume_mode`` (default: stay ``active``).  Returns
        the transfer duration in seconds.
        """
        return self.sim.process(
            self._transfer_body(nbytes, resume_mode), name="bt-transfer"
        )

    def _transfer_body(self, nbytes: int, resume_mode: Optional[str]):
        duration = self.transfer_duration_s(nbytes)
        if self.radio.state != "active":
            yield self.radio.transition_to("active")
        if duration > 0:
            yield self.sim.timeout(duration)
        self.bytes_transferred += nbytes
        self.transfers += 1
        if resume_mode is not None and resume_mode != "active":
            yield self.set_mode(resume_mode)
        return duration

    # -- park beacons ---------------------------------------------------------------

    def _park_beacon_loop(self):
        """Charge the periodic beacon listens a parked slave performs."""
        listen_power = self.radio.model.power("connected")
        while True:
            yield self.sim.timeout(self.park_beacon_interval_s)
            if self.radio.state == "park" and not self.radio.in_transition:
                delta = max(listen_power - self.radio.model.power("park"), 0.0)
                self.radio.add_energy_impulse(delta * self.park_listen_s)
                bus = self.sim.trace
                if bus.enabled:
                    bus.emit(
                        "mac",
                        self.radio.name,
                        "park-beacon",
                        listen_s=self.park_listen_s,
                        energy_j=delta * self.park_listen_s,
                    )

    def _sniff_attempt_loop(self):
        """Charge the periodic receive attempts of a sniffing slave.

        In sniff mode the slave listens for its master every sniff
        interval for the duration of the sniff attempt, at near-active
        power; between attempts it rests at the sniff floor.
        """
        listen_power = self.radio.model.power("active")
        while True:
            yield self.sim.timeout(self.sniff_interval_s)
            if self.radio.state == "sniff" and not self.radio.in_transition:
                delta = max(listen_power - self.radio.model.power("sniff"), 0.0)
                self.radio.add_energy_impulse(delta * self.sniff_attempt_s)
