"""One timed run of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED [--trace]

Imports ``repro``, builds the workload's world through the public
entry points (preset spec factory, ``WorldBuilder.build``, ``World.run``)
and prints one JSON object: the set-up and run wall times, the process's
peak resident memory, the run's behaviour record and the counts read off
the World.  With ``--trace`` the spec factory, build and run execute
under ``cProfile`` and the object also carries the per-layer attribution.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

_T_START = time.perf_counter()

#: summary_record() fields that measure the host or the event count, not
#: the modelled behaviour; everything else must match the reference.
COST_FIELDS = ("sim_events", "wall_time_s", "events_per_second")


def make_spec(workload, seed, **overrides):
    """The workload's WorldSpec for one seed, from its public preset."""
    import repro.build.presets as presets
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    return getattr(presets, w.preset)(seed=seed, **{**w.params, **overrides})


def peak_rss_mb():
    """This process's peak resident memory since exec.

    ``getrusage`` would also count the benchmark process this one was
    forked from, whose size ``VmHWM`` forgets at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def world_counts(world, client_s):
    """The behaviour and work counts of a finished World."""
    from repro.phy.channel import ber_cache_stats

    stations = list(world.stations)
    if world.access_point is not None:
        stations.append(world.access_point)
    delivered = sum(s.frames_delivered for s in stations)
    retransmissions = sum(s.retransmissions for s in stations)
    dropped = sum(s.frames_dropped for s in stations)
    attempts = delivered + retransmissions + dropped
    naps = sum(getattr(s.power_policy, "naps", 0) for s in stations)
    if world.fleet is not None:
        bursts_served = world.fleet.total_bursts_served()
    elif world.server is not None:
        bursts_served = world.server.bursts_served
    else:
        bursts_served = 0
    ber = ber_cache_stats()
    lookups = ber["hits"] + ber["misses"]
    events = world.sim.events_scheduled
    return {
        "sim.events": events,
        "sim.events_per_client_s": events / client_s,
        "mac.frames_delivered": delivered,
        "mac.retransmissions": retransmissions,
        "mac.useful_frac": delivered / attempts if attempts else 0.0,
        "mac.naps": naps,
        "phy.transitions": sum(r.transition_count for r in world.radios.values()),
        "phy.ber_cache_hit_frac": ber["hits"] / lookups if lookups else 0.0,
        "net.handoffs": world.handoff.handoffs if world.handoff is not None else 0,
        "core.bursts_served": bursts_served,
    }


def trace_metrics(stats):
    """Per-layer attribution plus the named call counts of one profile."""
    from cProfile import label

    import repro
    from attribution import attribute, calls_of
    from repro.net.topology import Topology
    from repro.sim import AnyOf, Process, Simulator
    from workloads import LAYERS

    package_dir = os.path.dirname(repro.__file__)
    trace = attribute(stats, package_dir, LAYERS)
    phy_dir = os.path.join(package_dir, "phy", "")
    # AnyOf and AllOf share Condition.__init__; every AllOf in repro is
    # built by Simulator.all_of, so its calls are the AllOf share.
    trace["calls"] = {
        "sim.anyof.calls": calls_of(
            stats, label(AnyOf.__init__.__code__), [label(Simulator.all_of.__code__)]
        ),
        "sim.process.calls": calls_of(stats, label(Process.__init__.__code__)),
        "net.ranked_sites.calls": calls_of(stats, label(Topology.ranked_sites.__code__)),
        "phy.loss_db.calls": sum(
            entry[1]
            for key, entry in stats.items()
            if key[2] == "loss_db" and key[0].startswith(phy_dir)
        ),
    }
    return trace


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), "--trace" in argv[2:]
    from repro.build import WorldBuilder

    profiler = None
    if traced:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t_spec = time.perf_counter()
    spec = make_spec(workload, seed)
    world = WorldBuilder(spec).build()
    t_built = time.perf_counter()
    result = world.run()
    t_ran = time.perf_counter()
    if profiler is not None:
        profiler.disable()

    import json

    record = result.summary_record()
    for name in COST_FIELDS:
        del record[name]
    client_s = len(result.clients) * result.duration_s
    out = {
        "setup_s": t_built - _T_START,
        "build_s": t_built - t_spec,
        "run_s": t_ran - t_built,
        "client_s": client_s,
        "peak_rss_mb": peak_rss_mb(),
        "record": record,
        "counts": world_counts(world, client_s),
    }
    if profiler is not None:
        profiler.create_stats()
        out["trace"] = trace_metrics(profiler.stats)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
