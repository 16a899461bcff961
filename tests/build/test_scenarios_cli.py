"""The scenario registry's introspection and the ``repro scenarios`` CLI."""

import json

from repro.__main__ import main
from repro.build import presets
from repro.exp import (
    scenarios,
    get_scenario,
    scenario_entries,
    scenario_entry,
    scenario_names,
)
from repro.obs import ObsSession

EXPECTED = [
    "faulty-hotspot",
    "fleet-hotspot",
    "hotspot",
    "psm-baseline",
    "unscheduled",
]


class TestRegistryMetadata:
    def test_builtins_registered_sorted(self):
        assert [n for n in scenario_names() if n in EXPECTED] == EXPECTED

    def test_every_builtin_is_declarative(self):
        builtins = {
            "hotspot": presets.hotspot_world,
            "faulty-hotspot": presets.faulty_hotspot_world,
            "unscheduled": presets.unscheduled_world,
            "psm-baseline": presets.psm_baseline_world,
            "psm-crossval": presets.psm_crossval_world,
            "unap-hotspot": presets.unap_hotspot_world,
            "pamas": presets.pamas_world,
            "ecmac": presets.ecmac_world,
            "fleet-hotspot": presets.fleet_hotspot_world,
            "city-grid": presets.city_grid_world,
        }
        assert set(builtins) <= set(scenario_names())
        for name, factory in builtins.items():
            entry = scenario_entry(name)
            assert entry.fn.__wrapped__ is factory, name
            assert entry.declarative, name

    def test_plain_callable_is_not_declarative(self):
        def fake(gain=1, seed=0, obs=None):
            """A fake."""

        entry = scenarios.ScenarioEntry(name="fake", fn=fake)
        assert not entry.declarative
        assert [p.name for p in entry.parameters] == ["gain"]

    def test_obs_session_sees_the_run_through_the_registry(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        with ObsSession(trace_path=str(trace_path)) as obs:
            obs.begin_run("test/hotspot")
            result = get_scenario("hotspot")(
                n_clients=1, duration_s=5.0, seed=0, obs=obs
            )
            obs.record(result)
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert events, "the registry's runnable never attached the session"
        assert {"sim", "core"} <= {event["layer"] for event in events}
        assert events[-1]["time_s"] <= 5.0

    def test_parameters_come_from_spec_factory(self):
        entry = scenario_entry("hotspot")
        params = {p.name: p for p in entry.parameters}
        assert params["n_clients"].default == 3
        assert params["burst_bytes"].default == 40_000
        # Engine-managed params never appear as sweepables.
        assert "seed" not in params and "obs" not in params

    def test_descriptions_come_from_docstrings(self):
        assert "Figure-2 baseline" in scenario_entry("unscheduled").description

    def test_describe_payload_is_json_serialisable(self):
        for entry in scenario_entries():
            json.dumps(entry.describe())


class TestScenariosCommand:
    def test_lists_all_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED:
            assert name in out
        assert "n_clients" in out and "declarative spec" in out

    def test_json_output_round_trips(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload]
        assert set(EXPECTED) <= set(names)
        fleet = next(e for e in payload if e["name"] == "fleet-hotspot")
        defaults = {p["name"]: p.get("default") for p in fleet["parameters"]}
        assert defaults["n_aps"] == 4

    def test_single_scenario_filter(self, capsys):
        assert main(["scenarios", "--scenario", "psm-baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == ["psm-baseline"]
