"""Spec factories for the registered scenarios.

Each factory maps one scenario's keyword arguments onto a
:class:`~repro.build.spec.WorldSpec`; running a scenario is always
``WorldBuilder(<factory>(**params, seed=seed)).run(obs=obs)``, and the
:mod:`repro.exp.scenarios` registry wraps exactly that.  ``obs`` is an
optional observability hook (anything with an ``attach(sim)`` method,
e.g. :class:`repro.obs.ObsSession`): :meth:`WorldBuilder.run` attaches
it to the freshly built simulator before any process starts, so the
trace covers the whole run.  Validation (and its error messages) lives
in the factories, so every caller fails identically.

These are also the reference examples for writing new scenarios as
specs — a new workload is a ~20-line factory, not a hand-wired runner.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.build.spec import (
    FleetSpec,
    InterfaceSpec,
    TrafficSpec,
    WorldSpec,
    uniform_nodes,
)
from repro.core.server import InterfaceSelectionPolicy
from repro.faults import ClientChurn, FaultPlan, RadioOutage


def hotspot_world(
    n_clients: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 40_000,
    client_buffer_bytes: int = 96_000,
    interfaces: Sequence[str] = ("bluetooth", "wlan"),
    bluetooth_quality_script: Optional[Sequence[Tuple[float, float]]] = None,
    epoch_s: float = 0.25,
    seed: int = 0,
    platform=None,
    interface_policy=None,
    server_prefetch_s: float = 30.0,
    fault_plan=None,
    utilisation_cap: float = 0.9,
    label: Optional[str] = None,
) -> WorldSpec:
    """The paper's system: Hotspot-scheduled bursts, interface switching.

    ``bluetooth_quality_script`` reproduces the paper's degradation
    scenario: e.g. ``[(0, 1.0), (40, 0.2)]`` starts clean and degrades at
    t=40 s, forcing the switch to WLAN.

    ``server_prefetch_s`` is how far ahead of real time the Hotspot proxy
    has already fetched the stream from the (fast, wired) infrastructure
    when playback starts — what lets it burst "10s of Kbytes at a time"
    instead of trickling at the encoding rate.

    ``fault_plan`` injects scheduled failures (radio outages, churn,
    interference) via a :class:`repro.faults.FaultInjector`; the result's
    ``extras`` then carry fault/recovery counters into the summary
    record.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    iface_specs = []
    if "bluetooth" in interfaces:
        iface_specs.append(
            InterfaceSpec(
                "bluetooth",
                quality_script=(
                    tuple(tuple(point) for point in bluetooth_quality_script)
                    if bluetooth_quality_script
                    else None
                ),
            )
        )
    if "wlan" in interfaces:
        iface_specs.append(InterfaceSpec("wlan"))
    if not iface_specs:
        raise ValueError(f"no known interfaces in {interfaces!r}")
    return WorldSpec(
        delivery="hotspot",
        duration_s=duration_s,
        seed=seed,
        label=label,
        clients=uniform_nodes(
            n_clients,
            iface_specs,
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=client_buffer_bytes,
            prefetch_s=server_prefetch_s,
        ),
        scheduler=scheduler,
        epoch_s=epoch_s,
        min_burst_bytes=min(burst_bytes, client_buffer_bytes),
        utilisation_cap=utilisation_cap,
        interface_policy=interface_policy,
        platform=platform,
        fault_plan=fault_plan,
    )


def faulty_hotspot_world(
    n_clients: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 40_000,
    client_buffer_bytes: int = 96_000,
    outage_interface: str = "wlan",
    outage_start_s: float = 40.0,
    outage_duration_s: float = 30.0,
    churn_clients: int = 0,
    interference_rate_per_min: float = 0.0,
    epoch_s: float = 0.25,
    seed: int = 0,
    platform=None,
    server_prefetch_s: float = 30.0,
) -> WorldSpec:
    """The Hotspot under stress: mid-stream radio death with failover.

    Clients run WLAN-first (reversing the healthy scenario's
    Bluetooth-first preference so the *expensive* radio carries the
    stream), then every client's ``outage_interface`` dies at
    ``outage_start_s`` for ``outage_duration_s``.  The resource manager
    must detect the dead interface, fail each client over to the
    surviving radio (the paper's dual-radio selection, now exercised
    under stress), and re-schedule the bursts the outage swallowed —
    QoS must hold throughout.

    Optional extra stress, all drawn from seeded ``faults/*`` substreams
    so identical seeds give byte-identical runs:

    - ``churn_clients``: that many clients leave mid-stream and rejoin
      (scheduling pauses, playback suspends, no underruns accrue);
    - ``interference_rate_per_min``: Poisson interference bursts that
      collapse link quality on the backup interface.

    The fault plan is a *factory* resolved at build time against the
    world's seeded streams — churn and interference times come from
    ``faults/*`` substreams, so plans are insensitive to foreign draws.
    """
    if outage_start_s < 0:
        raise ValueError("outage start must be >= 0")
    if outage_duration_s < 0:
        raise ValueError("outage duration must be >= 0")
    if not 0 <= churn_clients <= n_clients:
        raise ValueError("churn_clients must be in [0, n_clients]")

    def plan_factory(streams) -> FaultPlan:
        plan = FaultPlan()
        if outage_duration_s > 0:
            plan.add(
                RadioOutage(
                    target=f"*/{outage_interface}",
                    start_s=outage_start_s,
                    duration_s=outage_duration_s,
                )
            )
        for index in range(churn_clients):
            name = f"client{index}"
            leave = streams.uniform(
                f"faults/churn/{name}", 0.15 * duration_s, 0.45 * duration_s
            )
            away = streams.uniform(
                f"faults/churn/{name}", 0.10 * duration_s, 0.25 * duration_s
            )
            plan.add(
                ClientChurn(client=name, leave_s=leave, rejoin_s=leave + away)
            )
        if interference_rate_per_min > 0:
            backup = "bluetooth" if outage_interface == "wlan" else "wlan"
            plan = FaultPlan(
                plan.faults
                + FaultPlan.random(
                    streams,
                    duration_s,
                    interface_names=[
                        f"client{i}/{backup}" for i in range(n_clients)
                    ],
                    outage_rate_per_min=0.0,
                    interference_rate_per_min=interference_rate_per_min,
                ).faults
            )
        return plan

    policy = InterfaceSelectionPolicy(
        preference=(outage_interface,)
        + tuple(
            name
            for name in ("bluetooth", "wlan", "gprs")
            if name != outage_interface
        )
    )
    scheduler_name = (
        scheduler if isinstance(scheduler, str) else scheduler.name
    )
    return hotspot_world(
        n_clients=n_clients,
        duration_s=duration_s,
        bitrate_bps=bitrate_bps,
        scheduler=scheduler,
        burst_bytes=burst_bytes,
        client_buffer_bytes=client_buffer_bytes,
        interfaces=("bluetooth", "wlan"),
        epoch_s=epoch_s,
        seed=seed,
        platform=platform,
        interface_policy=policy,
        server_prefetch_s=server_prefetch_s,
        fault_plan=plan_factory,
        label=f"faulty-hotspot[{scheduler_name}]",
    )


def unscheduled_world(
    interface: str = "wlan",
    n_clients: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """Figure-2 baseline: streaming with no power management at all.

    The WNIC sits in its listening state (WLAN ``idle`` / Bluetooth
    ``connected``) for the whole run; each MP3 frame is received at the
    interface's natural rate (WLAN charges the rx-vs-idle delta,
    Bluetooth briefly enters ``active``).
    """
    if interface not in ("wlan", "bluetooth"):
        raise ValueError("interface must be 'wlan' or 'bluetooth'")
    return WorldSpec(
        delivery="unscheduled",
        duration_s=duration_s,
        seed=seed,
        label=f"unscheduled[{interface}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec(interface)],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            # No resource manager: an effectively unbounded buffer.
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
    )


def psm_baseline_world(
    n_clients: int = 3,
    duration_s: float = 60.0,
    bitrate_bps: float = 128_000.0,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """Standard 802.11 PSM on the full packet-level MAC.

    Every MP3 frame flows through the AP; dozing stations fetch buffered
    frames with the beacon/TIM/PS-Poll machinery of :mod:`repro.mac.psm`.
    """
    return WorldSpec(
        delivery="psm",
        duration_s=duration_s,
        seed=seed,
        label="802.11-psm",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
        ),
        platform=platform,
    )


def psm_crossval_world(
    n_clients: int = 1,
    duration_s: float = 10.0,
    offered_load_bps: float = 128_000.0,
    packet_bytes: int = 1000,
    listen_interval: int = 1,
    direction: str = "downlink",
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """Analytic cross-validation workload: fixed-size Poisson frames.

    Frames arrive at a controllable offered load on the packet-level
    MAC, and every knob maps one-to-one onto
    :class:`repro.analytic.models.PsmParams`, so the same grid point can
    be fed to the simulator and to the closed-form predictors
    (:mod:`repro.analytic.crossval` automates the comparison).  Push
    ``offered_load_bps`` past the drain capacity and the run
    saturates.  ``direction="downlink"`` drains AP-buffered frames via
    PSM; ``"uplink"`` sends from always-on CAM stations to the AP.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if packet_bytes <= 0:
        raise ValueError("packet_bytes must be positive")
    if listen_interval < 1:
        raise ValueError("listen interval must be >= 1")
    if direction not in ("downlink", "uplink"):
        raise ValueError("direction must be 'downlink' or 'uplink'")
    return WorldSpec(
        delivery="psm",
        duration_s=duration_s,
        seed=seed,
        label=f"psm-crossval[{direction}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec(
                "poisson",
                bitrate_bps=offered_load_bps,
                options={"packet_bytes": packet_bytes},
            ),
            # No resource manager in the loop: unbounded sink buffer.
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
        extras={
            "psm_listen_interval": listen_interval,
            "psm_direction": direction,
            "offered_load_bps": offered_load_bps,
            "packet_bytes": packet_bytes,
        },
    )


def unap_hotspot_world(
    n_clients: int = 4,
    duration_s: float = 10.0,
    offered_load_bps: float = 256_000.0,
    packet_bytes: int = 1000,
    rts_threshold_bytes: int = 500,
    power_policy: str = "unap",
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """μNap micro-sleeps: stations doze through overheard reservations.

    Every station contends for the same AP on a broadcast-overheard
    medium with RTS/CTS protection, so each data exchange announces a
    NAV reservation the *other* stations can nap through.
    ``power_policy="unap"`` naps (the μNap technique);
    ``power_policy="cam"`` is the byte-for-byte identical assembly that
    never sleeps — the fair baseline for the energy-saving claim.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if packet_bytes <= 0:
        raise ValueError("packet_bytes must be positive")
    if power_policy not in ("unap", "cam"):
        raise ValueError("power_policy must be 'unap' or 'cam'")
    return WorldSpec(
        delivery="psm",
        duration_s=duration_s,
        seed=seed,
        label=f"unap-hotspot[{power_policy}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan", power_policy=power_policy)],
            TrafficSpec(
                "poisson",
                bitrate_bps=offered_load_bps,
                options={"packet_bytes": packet_bytes},
            ),
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
        power_policy=power_policy,
        extras={
            "rts_threshold_bytes": rts_threshold_bytes,
            "offered_load_bps": offered_load_bps,
            "packet_bytes": packet_bytes,
        },
    )


def pamas_world(
    n_clients: int = 8,
    duration_s: float = 120.0,
    capacity_j: float = 50.0,
    cycle_s: float = 1.0,
    threshold: float = 0.8,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """PAMAS battery-aware independent sleeping (availability/lifetime).

    There is no AP: nodes sleep on their own battery level alone.
    Every node runs the linear sleep policy — fully awake above
    ``threshold`` state-of-charge, sleeping progressively more as the
    battery drains below it.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if capacity_j <= 0:
        raise ValueError("battery capacity must be positive")
    return WorldSpec(
        delivery="pamas",
        duration_s=duration_s,
        seed=seed,
        label="pamas",
        clients=uniform_nodes(n_clients, [InterfaceSpec("wlan")], TrafficSpec()),
        platform=platform,
        extras={
            "pamas_capacity_j": capacity_j,
            "pamas_cycle_s": cycle_s,
            "pamas_threshold": threshold,
        },
    )


def ecmac_world(
    n_clients: int = 3,
    duration_s: float = 30.0,
    bitrate_bps: float = 128_000.0,
    superframe_s: float = 0.050,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """EC-MAC scheduled downlink with exact, collision-free doze windows."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if superframe_s <= 0:
        raise ValueError("superframe must be positive")
    return WorldSpec(
        delivery="ecmac",
        duration_s=duration_s,
        seed=seed,
        label="ec-mac",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
        extras={"ecmac_superframe_s": superframe_s},
    )


def city_grid_world(
    n_clients: int = 54,
    grid_rows: int = 3,
    grid_cols: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 80_000,
    client_buffer_bytes: int = 192_000,
    ap_spacing_m: float = 50.0,
    epoch_s: float = 0.25,
    utilisation_cap: float = 0.9,
    seed: int = 0,
    platform=None,
    server_prefetch_s: float = 30.0,
    label: Optional[str] = None,
) -> WorldSpec:
    """A city block of WLAN hotspot cells on a square grid.

    The deployment behind the sharded fleet runner: ``grid_rows x
    grid_cols`` WLAN cells on a lattice (``ap_spacing_m`` pitch) serving
    a roaming random-waypoint population.  Identical machinery to
    :func:`fleet_hotspot_world`, but WLAN-only clients (no per-client
    Bluetooth beacon load) keep the per-client event load low enough
    for 10k-walker populations.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    scheduler_name = scheduler if isinstance(scheduler, str) else scheduler.name
    return WorldSpec(
        delivery="fleet",
        duration_s=duration_s,
        seed=seed,
        label=label or f"city-grid[{scheduler_name}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=client_buffer_bytes,
            prefetch_s=server_prefetch_s,
        ),
        scheduler=scheduler,
        epoch_s=epoch_s,
        min_burst_bytes=min(burst_bytes, client_buffer_bytes),
        utilisation_cap=utilisation_cap,
        platform=platform,
        fleet=FleetSpec(
            deployment="grid",
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            ap_spacing_m=ap_spacing_m,
        ),
    )


def fleet_hotspot_world(
    n_clients: int = 24,
    n_aps: int = 4,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 80_000,
    client_buffer_bytes: int = 192_000,
    epoch_s: float = 0.25,
    ap_spacing_m: float = 50.0,
    arena_depth_m: float = 30.0,
    speed_range_m_s: tuple = (0.5, 2.0),
    pause_range_s: tuple = (0.0, 5.0),
    utilisation_cap: float = 0.9,
    coverage_threshold: float = 0.05,
    handoff_check_interval_s: float = 1.0,
    hysteresis_margin: float = 0.1,
    min_dwell_s: float = 5.0,
    handoff_latency_range_s: tuple = (0.05, 0.2),
    gauge_interval_s: float = 5.0,
    seed: int = 0,
    platform=None,
    server_prefetch_s: float = 30.0,
    label: Optional[str] = None,
) -> WorldSpec:
    """A multi-cell hotspot fleet with roaming random-waypoint clients.

    ``n_aps`` co-located WLAN+Bluetooth hotspot sites form a corridor
    (``ap_spacing_m`` apart, arena ``n_aps * ap_spacing_m`` by
    ``arena_depth_m`` metres); ``n_clients`` walkers roam it under the
    seeded :class:`~repro.phy.mobility.RandomWaypoint` model.  Each cell
    runs its own :class:`~repro.core.server.HotspotServer`, admissions
    are steered to the least-loaded covering cell, and the
    :class:`~repro.net.handoff.HandoffController` moves clients between
    cells with hysteresis as they walk.  Per-client assembly goes
    through the same :func:`~repro.build.builder.build_managed_client`
    path as the single-AP scenarios, with the fleet layers (topology,
    association, steering, handoff) wired around it by the builder's
    fleet mode.

    The result's ``extras`` carry the fleet-level counters (handoffs,
    association churn, per-cell breakdowns and the full handoff
    timeline) into the campaign summary record.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if n_aps < 1:
        raise ValueError("need at least one access point")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if arena_depth_m <= 0:
        raise ValueError("arena depth must be positive")
    scheduler_name = (
        scheduler if isinstance(scheduler, str) else scheduler.name
    )
    return WorldSpec(
        delivery="fleet",
        duration_s=duration_s,
        seed=seed,
        label=label or f"fleet-hotspot[{scheduler_name}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("bluetooth"), InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=client_buffer_bytes,
            prefetch_s=server_prefetch_s,
        ),
        scheduler=scheduler,
        epoch_s=epoch_s,
        min_burst_bytes=min(burst_bytes, client_buffer_bytes),
        utilisation_cap=utilisation_cap,
        platform=platform,
        fleet=FleetSpec(
            n_aps=n_aps,
            ap_spacing_m=ap_spacing_m,
            arena_depth_m=arena_depth_m,
            speed_range_m_s=tuple(speed_range_m_s),
            pause_range_s=tuple(pause_range_s),
            coverage_threshold=coverage_threshold,
            handoff_check_interval_s=handoff_check_interval_s,
            hysteresis_margin=hysteresis_margin,
            min_dwell_s=min_dwell_s,
            handoff_latency_range_s=tuple(handoff_latency_range_s),
            gauge_interval_s=gauge_interval_s,
            load_aware_selection=True,
        ),
    )
