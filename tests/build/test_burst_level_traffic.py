"""Burst-level delivery pulls traffic: arrivals cost no kernel events.

The Hotspot and fleet modes attach a stream cursor to each session
instead of a per-arrival pump, so the kernel's workload no longer grows
with the arrival count.  Splitting one session's stream into ten times
as many arrivals (same bytes, all settled before the first scheduling
round reads them) must leave both the behaviour and
``sim.events_scheduled`` unchanged.
"""

from dataclasses import replace

import pytest

from repro.build import WorldBuilder
from repro.build.presets import fleet_hotspot_world, hotspot_world
from repro.build.spec import TrafficSpec
from repro.core.outcome import COST_FIELDS, VOLATILE_TIMING_FIELDS

#: 48 kB arriving within the first 0.2 s, before the first 0.25 s round.
WINDOW_S = (0.01, 0.2)
TOTAL_BYTES = 48_000


def _trace(count):
    start, end = WINDOW_S
    step = (end - start) / count
    return tuple(
        (start + i * step, TOTAL_BYTES // count, "audio") for i in range(count)
    )


def _with_trace(spec, count):
    node = replace(
        spec.clients[0],
        traffic=TrafficSpec(kind="trace", options={"trace": _trace(count)}),
    )
    return replace(spec, clients=(node,) + spec.clients[1:])


def _run(spec):
    world = WorldBuilder(spec).build()
    record = world.run().summary_record()
    behaviour = {
        k: v
        for k, v in record.items()
        if k not in VOLATILE_TIMING_FIELDS and k not in COST_FIELDS
    }
    return behaviour, world.sim.events_scheduled


@pytest.mark.parametrize(
    "spec",
    [
        hotspot_world(n_clients=2, duration_s=10.0, seed=0),
        fleet_hotspot_world(n_clients=4, n_aps=2, duration_s=10.0, seed=0),
    ],
    ids=["hotspot", "fleet"],
)
def test_ten_times_the_arrivals_schedule_no_more_events(spec):
    behaviour, events = _run(_with_trace(spec, 40))
    behaviour_10x, events_10x = _run(_with_trace(spec, 400))
    assert behaviour_10x == behaviour
    assert events_10x == events
