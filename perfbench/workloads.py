"""The benchmark's workloads, metrics and the layer each metric watches.

Every workload is one public preset of ``repro.build.presets`` with
fixed parameters; only the world seed comes from the ``--seed``
argument.  One timed run builds and runs the preset once, in a fresh
interpreter, so import, the BER cache and the allocator start cold as
they do for a command-line user.
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    preset: str
    params: dict
    #: Whether every client's playout QoS must hold; a run where it does
    #: not counts as failed.
    qos_held: bool
    why: str


WORKLOADS = {
    "psm-contention": Workload(
        "psm_baseline_world",
        {"n_clients": 3, "duration_s": 20.0},
        True,
        "PSM downlink contention on packet DCF: sim and mac dominate, "
        "one AnyOf per backoff slot; no net, apps or core",
    ),
    # Poisson uplink into a playout drained at the mean offered rate is a
    # zero-drift walk, so whether it underruns depends on the seed: QoS
    # is modelled behaviour here, checked only against the reference.
    "unap-nav": Workload(
        "unap_hotspot_world",
        {"n_clients": 4, "duration_s": 20.0, "power_policy": "unap"},
        False,
        "uplink RTS/CTS with NAV micro-naps: the same MAC used differently, "
        "a radio transition per nap",
    ),
    "city-grid-1k": Workload(
        "city_grid_world",
        {"n_clients": 1000, "grid_rows": 6, "grid_cols": 6, "duration_s": 5.0},
        True,
        "unsharded 1000 roaming burst-level clients: net ranking, apps pumps, "
        "kernel inserts, world building; no packet MAC",
    ),
}


def describe(name):
    """One line for BENCHMARK.json: the preset call and why it is here."""
    w = WORKLOADS[name]
    params = ", ".join(f"{k}={v}" for k, v in w.params.items())
    return f"{w.preset}({params}): {w.why}"


#: Layers: the subpackages of ``repro`` the per-layer metrics are keyed by.
LAYERS = ("sim", "mac", "phy", "net", "apps", "core", "build")

#: End-to-end metric -> (unit, better, bound).  Measured with tracing off;
#: times are scaled to the reference host speed of ``calibrate.py``.
END_TO_END = {
    "client_s_per_wall_s": ("client_s/s", "higher", 0.2),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Counts, and ratios of counts, read from the World after every run
#: (traced or not); all exact for a given seed.
WORLD_COUNTS = {
    "sim.events": ("count", "lower"),
    "sim.events_per_client_s": ("1/client_s", "lower"),
    "mac.frames_delivered": ("count", "higher"),
    "mac.retransmissions": ("count", "lower"),
    "mac.useful_frac": ("fraction", "higher"),
    "mac.naps": ("count", "higher"),
    "phy.transitions": ("count", "lower"),
    "phy.ber_cache_hit_frac": ("fraction", "higher"),
    "net.handoffs": ("count", "lower"),
    "core.bursts_served": ("count", "higher"),
}

#: Call counts of public functions, read from the traced run.
NAMED_CALLS = {
    "sim.anyof.calls": ("count", "lower"),
    "sim.process.calls": ("count", "lower"),
    "net.ranked_sites.calls": ("count", "lower"),
    "phy.loss_db.calls": ("count", "lower"),
}


def per_layer_metrics():
    """Per-layer metric name -> (unit, better), in report order."""
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = ("s", "lower")
        metrics[f"{layer}.self_frac"] = ("fraction", "lower")
        metrics[f"{layer}.calls_in"] = ("count", "lower")
    metrics.update(NAMED_CALLS)
    metrics.update(WORLD_COUNTS)
    metrics["trace.overhead"] = ("ratio", "lower")
    return metrics


#: Which end-to-end metric a per-layer metric should move, on which
#: workloads most, and where it should stay put.  A change claiming a gain
#: through one of these layers states its prediction from this table.
#: Behaviour counts (frames, retransmissions, naps, transitions, handoffs,
#: bursts) must stay exactly equal under any pure speed change.
MOVES = {
    "sim": ("client_s_per_wall_s", ["psm-contention", "unap-nav"], ["city-grid-1k"]),
    "sim.anyof": ("client_s_per_wall_s", ["psm-contention", "unap-nav"], ["city-grid-1k"]),
    "sim.events": ("client_s_per_wall_s", ["psm-contention", "unap-nav"], ["city-grid-1k"]),
    "sim.process": ("client_s_per_wall_s", ["unap-nav"], ["city-grid-1k"]),
    "phy": ("client_s_per_wall_s", ["unap-nav"], ["city-grid-1k"]),
    "mac": ("client_s_per_wall_s", ["psm-contention", "unap-nav"], ["city-grid-1k"]),
    "net": ("client_s_per_wall_s", ["city-grid-1k"], ["psm-contention", "unap-nav"]),
    "phy.loss_db": ("client_s_per_wall_s", ["city-grid-1k"], ["psm-contention", "unap-nav"]),
    "apps": ("client_s_per_wall_s", ["city-grid-1k"], ["psm-contention"]),
    "core": ("client_s_per_wall_s", ["city-grid-1k"], ["psm-contention"]),
    "build": ("setup_s", ["city-grid-1k"], ["psm-contention", "unap-nav"]),
    "phy.ber_cache": ("peak_rss_mb", ["city-grid-1k"], []),
}
