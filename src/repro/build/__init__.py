"""repro.build — declarative stack/world composition.

The paper's Hotspot system is a *composition*: per-client stacks
(radio → interface → MAC → link → QoS/playout) assembled under a
resource manager.  This package makes that composition data instead of
code:

- :mod:`repro.build.spec` — :class:`NodeSpec` / :class:`InterfaceSpec` /
  :class:`TrafficSpec` / :class:`FleetSpec` / :class:`WorldSpec`
  dataclasses describing a runnable world;
- :mod:`repro.build.builder` — :class:`WorldBuilder` assembling the full
  simulation (simulator, seeded streams, platform, interfaces, MAC
  substrate, server or fleet, faults, observability, traffic pumps) from
  a spec, and :class:`World`, the assembled-but-not-yet-run result;
- :mod:`repro.build.presets` — the registered scenarios expressed as
  spec factories (``hotspot_world`` & friends); every scenario runs as
  ``WorldBuilder(hotspot_world(...)).run()``.

Adding a scenario is now ~20 lines of spec::

    from repro.build import (
        InterfaceSpec, TrafficSpec, WorldBuilder, WorldSpec, uniform_nodes,
    )

    def tcp_sta_world(n_clients=5, duration_s=60.0, seed=0):
        return WorldSpec(
            delivery="hotspot",
            duration_s=duration_s,
            seed=seed,
            clients=uniform_nodes(
                n_clients,
                [InterfaceSpec("wlan")],
                TrafficSpec("poisson", bitrate_bps=256_000.0,
                            options={"mean_interarrival_s": 0.04,
                                     "packet_bytes": 1460}),
                buffer_bytes=128_000,
            ),
        )

    result = WorldBuilder(tcp_sta_world(seed=3)).run()

Determinism contract: same spec + seed ⇒ same world ⇒ byte-identical
``summary_record()`` (pinned by the golden-equivalence tests).
"""

from repro.build.spec import (
    DELIVERY_MODES,
    INTERFACE_KINDS,
    FleetSpec,
    InterfaceSpec,
    NodeSpec,
    TrafficSpec,
    WorldSpec,
    uniform_nodes,
)
from repro.build.presets import (
    city_grid_world,
    ecmac_world,
    faulty_hotspot_world,
    fleet_hotspot_world,
    hotspot_world,
    pamas_world,
    psm_baseline_world,
    psm_crossval_world,
    unap_hotspot_world,
    unscheduled_world,
)
from repro.build.builder import (
    World,
    WorldBuilder,
    build_managed_client,
    scripted_quality,
)

__all__ = [
    "DELIVERY_MODES",
    "FleetSpec",
    "INTERFACE_KINDS",
    "InterfaceSpec",
    "NodeSpec",
    "TrafficSpec",
    "World",
    "WorldBuilder",
    "WorldSpec",
    "build_managed_client",
    "city_grid_world",
    "ecmac_world",
    "faulty_hotspot_world",
    "fleet_hotspot_world",
    "hotspot_world",
    "pamas_world",
    "psm_baseline_world",
    "psm_crossval_world",
    "scripted_quality",
    "unap_hotspot_world",
    "uniform_nodes",
    "unscheduled_world",
]
