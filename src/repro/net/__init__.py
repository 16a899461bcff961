"""repro.net — multi-AP hotspot fleets: topology, roaming, steering.

The paper's Hotspot is a single server cell; this package scales it
out.  A :class:`Topology` of placed :class:`AccessPointSite` cells
derives coverage footprints from :mod:`repro.phy.channel` link budgets,
the :class:`AssociationManager` tracks which cell each client is
attached to, the :class:`FleetCoordinator` runs one
:class:`~repro.core.server.HotspotServer` per cell and steers new
admissions to the least-loaded covering cell, and the
:class:`HandoffController` roams clients between cells (with hysteresis
and seeded, deterministic latencies) without QoS underruns.

:func:`repro.build.presets.fleet_hotspot_world` wires it all into the
canonical fleet experiment (a corridor of cells, a population of
random-waypoint walkers), registered as ``fleet-hotspot`` in
:mod:`repro.exp.scenarios`.
"""

from repro.net.association import AssociationManager
from repro.net.fleet import DEFAULT_CAPACITY_BPS, Cell, FleetCoordinator
from repro.net.handoff import HandoffController
from repro.net.topology import (
    BLUETOOTH_LINK_BUDGET,
    WLAN_LINK_BUDGET,
    AccessPointSite,
    LinkBudget,
    Topology,
    grid_deployment,
    linear_deployment,
)

__all__ = [
    "AccessPointSite",
    "AssociationManager",
    "BLUETOOTH_LINK_BUDGET",
    "Cell",
    "DEFAULT_CAPACITY_BPS",
    "FleetCoordinator",
    "HandoffController",
    "LinkBudget",
    "Topology",
    "WLAN_LINK_BUDGET",
    "grid_deployment",
    "linear_deployment",
]
