"""MAC layer: 802.11 DCF + power-save mode, EC-MAC, aggregation, PAMAS, Bluetooth.

Implements every MAC-level technique the paper's survey names:

- :mod:`repro.mac.dcf` — the 802.11 distributed coordination function
  (CSMA/CA with binary exponential backoff) as the contention substrate;
- :mod:`repro.mac.powersave` — the pluggable :class:`PowerPolicy` seam all
  station doze/wake decisions route through (CAM, static PSM, μNap
  micro-sleeps), with a registry for naming policies in specs;
- :mod:`repro.mac.psm` — the 802.11 power-saving standard: beacons carry a
  traffic-indication map, dozing stations wake per beacon and PS-Poll for
  buffered frames;
- :mod:`repro.mac.ecmac` — EC-MAC's centrally broadcast transmission
  schedule (collision-free slots, exact doze windows);
- :mod:`repro.mac.aggregation` — MAC-layer packet aggregation for longer
  sleep periods;
- :mod:`repro.mac.pamas` — PAMAS-style battery-level-driven independent
  sleep;
- :mod:`repro.mac.bluetooth` — Bluetooth ACL links with the
  active/sniff/hold/park low-power modes the Hotspot client uses.
"""

from repro.mac.frames import Dot11Timing, Frame, FrameKind
from repro.mac.medium import Medium, all_hear, audibility_from_groups
from repro.mac.dcf import DcfConfig, DcfStation
from repro.mac.powersave import (
    CamPolicy,
    MicroNapPolicy,
    PowerPolicy,
    StaticPsmPolicy,
    make_power_policy,
    power_policy_description,
    power_policy_names,
    register_power_policy,
)
from repro.mac.psm import AccessPoint, PsmConfig, PsmStation
from repro.mac.ecmac import EcMacConfig, EcMacCoordinator, EcMacStation, ScheduleEntry
from repro.mac.aggregation import AggregatorStats, PacketAggregator
from repro.mac.pamas import (
    PamasNode,
    PamasStats,
    aggressive_sleep_policy,
    linear_sleep_policy,
)
from repro.mac.bluetooth import BluetoothLink
from repro.mac.rate_adaptation import AarfRateController, ArfRateController

__all__ = [
    "AarfRateController",
    "AccessPoint",
    "AggregatorStats",
    "ArfRateController",
    "BluetoothLink",
    "CamPolicy",
    "DcfConfig",
    "DcfStation",
    "Dot11Timing",
    "EcMacConfig",
    "EcMacCoordinator",
    "EcMacStation",
    "Frame",
    "FrameKind",
    "Medium",
    "MicroNapPolicy",
    "PacketAggregator",
    "PamasNode",
    "PamasStats",
    "PowerPolicy",
    "PsmConfig",
    "PsmStation",
    "ScheduleEntry",
    "StaticPsmPolicy",
    "aggressive_sleep_policy",
    "all_hear",
    "audibility_from_groups",
    "linear_sleep_policy",
    "make_power_policy",
    "power_policy_description",
    "power_policy_names",
    "register_power_policy",
]
