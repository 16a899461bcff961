"""Campaign engine end-to-end: caching, resume, parallel determinism.

Real-scenario runs here use short durations and few clients so the
whole module stays in tier-1 time budgets; the cache/resume mechanics
are additionally exercised against a cheap fake scenario registered
just for these tests.
"""

import json

import pytest

from repro.exp import (
    CampaignSpec,
    ResultStore,
    aggregate,
    campaign_payload,
    dump_json,
    register_scenario,
    run_campaign,
    scenario_names,
)
from repro.exp import scenarios

CALLS = []


class _FakeResult:
    def __init__(self, gain, seed):
        self.gain = gain
        self.seed = seed

    def summary_record(self):
        return {
            "label": f"fake[{self.gain}]",
            "wnic_power_w": 0.1 * self.gain + 0.001 * self.seed,
            "qos_maintained": True,
        }


def fake_scenario(gain=1, seed=0, obs=None):
    CALLS.append((gain, seed))
    return _FakeResult(gain, seed)


@pytest.fixture(autouse=True, scope="module")
def _fake_scenario_registered():
    """Register the fake only while this module runs, so other modules
    (the golden coverage check) see the product registry alone."""
    register_scenario("test-fake", fake_scenario)
    yield
    scenarios._SCENARIOS.pop("test-fake")


def fake_spec(**overrides):
    kwargs = dict(
        name="fake-campaign",
        scenario="test-fake",
        grid={"gain": [1, 2, 3]},
        seeds=[0, 1],
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCacheAndResume:
    def test_cold_run_executes_everything(self, tmp_path):
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(fake_spec(), store=store)
        assert (report.total, report.cached, report.executed) == (6, 0, 6)
        assert len(CALLS) == 6
        assert not any(r.from_cache for r in report.results)

    def test_rerun_is_all_cache_hits_zero_executions(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            first = run_campaign(fake_spec(), store=store)
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            second = run_campaign(fake_spec(), store=store)
        assert CALLS == []  # the acceptance criterion: zero re-executions
        assert (second.cached, second.executed) == (6, 0)
        assert all(r.from_cache for r in second.results)
        assert dump_json(campaign_payload(first)) == dump_json(
            campaign_payload(second)
        )

    def test_changed_axis_only_computes_the_new_points(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(fake_spec(), store=store)
        CALLS.clear()
        widened = fake_spec(grid={"gain": [1, 2, 3, 4]})
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(widened, store=store)
        assert sorted(CALLS) == [(4, 0), (4, 1)]
        assert (report.cached, report.executed) == (6, 2)

    def test_interrupted_campaign_resumes_from_last_whole_line(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            complete = run_campaign(fake_spec(), store=store)
            path = store.path
        # Simulate an interrupt: the final append died mid-line.
        lines = open(path, "rb").read().splitlines(keepends=True)
        open(path, "wb").write(b"".join(lines[:4]) + lines[4][:20])
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            resumed = run_campaign(fake_spec(), store=store)
        assert (resumed.cached, resumed.executed) == (4, 2)
        assert len(CALLS) == 2
        assert dump_json(campaign_payload(resumed)) == dump_json(
            campaign_payload(complete)
        )

    def test_refresh_ignores_cache_but_rewrites_it(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(fake_spec(), store=store)
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(fake_spec(), store=store, refresh=True)
        assert (report.cached, report.executed) == (0, 6)
        assert len(CALLS) == 6

    def test_no_store_always_executes(self):
        CALLS.clear()
        run_campaign(fake_spec())
        run_campaign(fake_spec())
        assert len(CALLS) == 12


class TestGuards:
    def test_obs_with_pool_rejected(self):
        with pytest.raises(ValueError, match="jobs=1"):
            run_campaign(fake_spec(), jobs=2, obs=object())

    def test_obs_with_collect_metrics_rejected(self):
        with pytest.raises(ValueError, match="per-run obs"):
            run_campaign(fake_spec(collect_metrics=True), obs=object())

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(fake_spec(), jobs=0)

    def test_unknown_params_rejected_before_any_run(self, tmp_path):
        CALLS.clear()
        spec = fake_spec(base={"bogus": 1}, grid={"gain": [1], "nope": [2]})
        with ResultStore(tmp_path / "s") as store:
            with pytest.raises(ValueError) as excinfo:
                run_campaign(spec, store=store)
        message = str(excinfo.value)
        assert "['bogus', 'nope']" in message
        assert "known: ['gain']" in message
        assert CALLS == []
        assert (tmp_path / "s" / "results.jsonl").read_text() == ""

    def test_builtin_unknown_param_names_the_known_ones(self):
        spec = CampaignSpec(
            name="typo", scenario="psm-baseline", base={"n_client": 2}
        )
        with pytest.raises(ValueError, match="n_clients"):
            run_campaign(spec)

    def test_builtin_scenarios_registered(self):
        for name in ("hotspot", "unscheduled", "psm-baseline"):
            assert name in scenario_names()


def hotspot_spec(collect_metrics=False):
    return CampaignSpec(
        name="determinism",
        scenario="hotspot",
        base={"duration_s": 4.0, "n_clients": 1},
        grid={"burst_bytes": [20_000, 40_000]},
        seeds=[0, 1],
        collect_metrics=collect_metrics,
    )


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1_byte_identical(self):
        serial = run_campaign(hotspot_spec(), jobs=1)
        parallel = run_campaign(hotspot_spec(), jobs=4)
        assert serial.records() == parallel.records()
        assert dump_json(campaign_payload(serial)) == dump_json(
            campaign_payload(parallel)
        )

    def test_parallel_fills_store_serial_rerun_all_hits(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            parallel = run_campaign(hotspot_spec(), store=store, jobs=4)
        assert parallel.executed == 4
        with ResultStore(tmp_path / "s") as store:
            resumed = run_campaign(hotspot_spec(), store=store, jobs=1)
        assert (resumed.cached, resumed.executed) == (4, 0)
        assert dump_json(campaign_payload(parallel)) == dump_json(
            campaign_payload(resumed)
        )

    def test_collect_metrics_rides_along_in_workers(self):
        report = run_campaign(hotspot_spec(collect_metrics=True), jobs=2)
        for result in report.results:
            assert isinstance(result.record["metrics"], dict)
            assert result.record["metrics"]
        merged = aggregate(report.results)[0].metrics
        assert merged  # snapshots merged per grid point


class TestCampaignCli:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        assert code == 0
        return capsys.readouterr()

    def test_campaign_table_and_cache_line(self, tmp_path, capsys):
        argv = [
            "campaign", "--scenario", "hotspot",
            "--param", "burst_bytes=20000,40000",
            "--set", "duration_s=4", "--set", "n_clients=1",
            "--seeds", "1", "--jobs", "2",
            "--store", str(tmp_path / "c"), "--name", "cli-demo",
        ]
        first = self.run_cli(argv, capsys)
        assert "Campaign cli-demo" in first.out
        assert "burst_bytes" in first.out
        assert "2 cached, 0 executed" not in first.err
        second = self.run_cli(argv, capsys)
        assert "2 cached, 0 executed" in second.err
        assert first.out == second.out

    def test_unknown_param_exits_2_without_running(self, tmp_path, capsys):
        from repro.__main__ import main

        store = tmp_path / "c"
        code = main([
            "campaign", "--scenario", "psm-baseline", "--set", "bogus=1",
            "--store", str(store), "--json",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err and "n_clients" in captured.err
        assert (store / "results.jsonl").read_text() == ""

    def test_campaign_json_payload_shape(self, tmp_path, capsys):
        out = self.run_cli(
            [
                "campaign", "--scenario", "unscheduled",
                "--param", 'interface=["wlan"]',
                "--set", "duration_s=4", "--set", "n_clients=1",
                "--json",
            ],
            capsys,
        )
        payload = json.loads(out.out)
        assert payload["campaign"]["scenario"] == "unscheduled"
        assert payload["version"]
        point = payload["points"][0]
        assert point["params"]["interface"] == "wlan"
        assert "wnic_power_w" in point["stats"]

    def test_campaign_csv_artifact(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        self.run_cli(
            [
                "campaign", "--scenario", "test-fake",
                "--param", "gain=1,2", "--seeds", "2",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("gain,n,wnic_power_w_mean")
        assert len(lines) == 3

    def test_version_flag(self, capsys):
        from repro import package_version
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_sweep_bursts_still_runs_through_engine(self, tmp_path, capsys):
        argv = [
            "sweep-bursts", "--duration", "4", "--clients", "1",
            "--jobs", "2", "--store", str(tmp_path / "s"), "--json",
        ]
        first = self.run_cli(argv, capsys)
        rows = json.loads(first.out)
        assert [r["burst_bytes"] for r in rows] == [
            10_000, 20_000, 40_000, 80_000, 160_000,
        ]
        second = self.run_cli(argv, capsys)
        assert first.out == second.out
        assert "5 cached, 0 executed" in second.err
