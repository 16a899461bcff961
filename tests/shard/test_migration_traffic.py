"""Stream traffic across a cross-shard migration: every arrival once.

A session's backlog is settled from its stream cursor; a migrant's
snapshot carries the settled backlog and how many arrivals the cursor
consumed, and the owning world resumes the stream after exactly that
many.  These tests drive two cell-worlds through the barrier protocol by
hand, force a departure at a barrier on which an arrival lands, and
check byte conservation — backlog + bytes served = prefetch + arrivals
so far — in whichever world owns the client, for a granted and for a
declined move.
"""

from dataclasses import replace

import pytest

from repro.build.presets import fleet_hotspot_world
from repro.build.spec import TrafficSpec
from repro.shard.plan import placement_plan
from repro.shard.world import CellWorld

EPOCH_S = 0.25
DURATION_S = 4.0
#: Dyadic arrival times: every delivery instant equals its time exactly,
#: so one lands on each barrier.
TRACE = tuple((k / 16.0, 1000, "audio") for k in range(1, 64))
PREFETCH_S = 2.0
NAME = "client0"
DEPART_AT = 1.0


def _spec():
    spec = fleet_hotspot_world(
        n_clients=2, n_aps=2, duration_s=DURATION_S, epoch_s=EPOCH_S, seed=0
    )
    node = replace(
        spec.clients[0],
        prefetch_s=PREFETCH_S,
        traffic=TrafficSpec(kind="trace", options={"trace": TRACE}),
    )
    return replace(spec, clients=(node,) + spec.clients[1:])


def _barriers():
    return [k * EPOCH_S for k in range(1, int(DURATION_S / EPOCH_S) + 1)]


class TwoCells:
    """Both cells of the spec, stepped through the barrier protocol."""

    def __init__(self):
        self.spec = _spec()
        plan = placement_plan(self.spec)
        self.home_cell = plan[NAME]
        self.away_cell = "ap1" if self.home_cell == "ap0" else "ap0"
        self.worlds = {
            cell: CellWorld(self.spec, cell, plan)
            for cell in (self.home_cell, self.away_cell)
        }
        node = self.spec.clients[0]
        self.prefetch = int(PREFETCH_S * node.contract_rate_bps / 8.0)

    @property
    def home(self):
        return self.worlds[self.home_cell]

    @property
    def away(self):
        return self.worlds[self.away_cell]

    def advance(self, until_s):
        for world in self.worlds.values():
            world.advance(until_s)
            assert not world.handoff.remote_departures

    def owner(self):
        owners = [
            world
            for world in self.worlds.values()
            if NAME in world.fleet.client_names()
        ]
        assert len(owners) == 1
        return owners[0]

    def assert_conserved(self, now):
        session = self.owner().fleet.session_of(NAME)
        arrived = sum(n for t, n, _k in TRACE if t <= now)
        assert session.backlog_bytes + session.bytes_served == (
            self.prefetch + arrived
        ), f"t={now}"

    def depart(self):
        """Force a cross-shard departure of the client at this barrier."""
        home = self.home
        home.handoff._begin_remote_departure(
            NAME, home.fleet.cell(self.home_cell), self.away_cell
        )
        messages = home.drain_outbox()
        assert [m["kind"] for m in messages] == ["migrate"]
        return messages


@pytest.fixture
def cells():
    cells = TwoCells()
    for barrier in _barriers():
        if barrier > DEPART_AT:
            break
        cells.advance(barrier)
        cells.assert_conserved(barrier)
    return cells


def test_granted_move_carries_each_arrival_once(cells):
    messages = cells.depart()
    snapshot = messages[0]["snapshot"]
    # The arrival delivered exactly at the barrier went with the client.
    assert DEPART_AT in [t for t, _n, _k in TRACE]
    consumed = sum(1 for t, _n, _k in TRACE if t <= DEPART_AT)
    assert snapshot["arrivals_consumed"] == consumed
    assert snapshot["session"]["backlog_bytes"] == (
        cells.prefetch
        + sum(n for t, n, _k in TRACE if t <= DEPART_AT)
        - snapshot["session"]["bytes_served"]
    )
    cells.away.apply_ingress(messages)
    session = cells.away.fleet.session_of(NAME)
    assert session.cursor.consumed == consumed
    assert session.backlog_bytes == snapshot["session"]["backlog_bytes"]
    replies = cells.away.drain_outbox()
    assert [m["kind"] for m in replies] == ["grant"]
    cells.assert_conserved(DEPART_AT)
    for barrier in _barriers():
        if barrier <= DEPART_AT:
            continue
        cells.home.apply_ingress(replies)
        replies = []
        cells.advance(barrier)
        assert cells.owner() is cells.away
        cells.assert_conserved(barrier)


def test_declined_move_settles_the_away_window_once(cells):
    messages = cells.depart()
    stashed = cells.home._stash[NAME][1]
    assert NAME not in cells.home.fleet.client_names()
    decline = {
        "kind": "decline",
        "to": cells.home_cell,
        "origin": cells.away_cell,
        "seq": 0,
        "client": NAME,
    }
    # The reply arrives one barrier later, as the runner routes it.
    bounce_at = DEPART_AT + EPOCH_S
    cells.advance(bounce_at)
    cells.home.apply_ingress([decline])
    assert cells.home.fleet.session_of(NAME) is stashed
    consumed = messages[0]["snapshot"]["arrivals_consumed"]
    assert stashed.cursor.consumed == consumed  # unread while away
    cells.assert_conserved(bounce_at)  # this read settles the window
    assert stashed.cursor.consumed == sum(
        1 for t, _n, _k in TRACE if t <= bounce_at
    )
    for barrier in _barriers():
        if barrier <= bounce_at:
            continue
        cells.advance(barrier)
        assert cells.owner() is cells.home
        cells.assert_conserved(barrier)
