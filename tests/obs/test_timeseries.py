"""In-run timeseries: recorder cadence, columnar format, determinism."""

import io
import json

import pytest

from repro.build import WorldBuilder, hotspot_world
from repro.obs import ObsSession, TimeseriesRecorder, TimeseriesWriter, read_timeseries
from repro.obs.timeseries import KERNEL_COLUMNS
from repro.sim import Simulator


def recorder_on(sim, interval_s=1.0, run=None):
    stream = io.StringIO()
    recorder = TimeseriesRecorder(
        TimeseriesWriter(stream), interval_s=interval_s, run=run
    )
    recorder.install(sim)
    return recorder, stream


class TestRecorder:
    def test_samples_on_cadence_with_kernel_columns(self):
        sim = Simulator()
        recorder, stream = recorder_on(sim, interval_s=2.0, run="r")
        sim.run(until=10.0)
        lines = stream.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header == {
            "run": "r", "interval_s": 2.0, "columns": list(KERNEL_COLUMNS),
        }
        rows = [json.loads(line) for line in lines[1:]]
        assert [row[0] for row in rows] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert recorder.samples == 6

    def test_probe_columns_follow_kernel_columns_in_order(self):
        sim = Simulator()
        recorder, stream = recorder_on(sim)
        recorder.probe("a", lambda: 1.5)
        recorder.probe("b", lambda: 2.5)
        sim.run(until=1.0)
        lines = stream.getvalue().splitlines()
        assert json.loads(lines[0])["columns"] == [*KERNEL_COLUMNS, "a", "b"]
        assert json.loads(lines[1])[-2:] == [1.5, 2.5]

    def test_events_per_s_is_a_rate_not_a_total(self):
        sim = Simulator()

        def busy():
            while True:
                yield sim.timeout(0.1)

        sim.process(busy())
        recorder, stream = recorder_on(sim)
        sim.run(until=3.0)
        rows = [json.loads(x) for x in stream.getvalue().splitlines()[1:]]
        events_idx = KERNEL_COLUMNS.index("events")
        rate_idx = KERNEL_COLUMNS.index("events_per_s")
        for prev, cur in zip(rows, rows[1:]):
            assert cur[rate_idx] == pytest.approx(
                cur[events_idx] - prev[events_idx]
            )

    def test_duplicate_and_late_probes_rejected(self):
        sim = Simulator()
        recorder, _ = recorder_on(sim)
        recorder.probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            recorder.probe("x", lambda: 1.0)
        with pytest.raises(ValueError):
            recorder.probe("time_s", lambda: 1.0)  # kernel column collision
        sim.run(until=1.0)  # first sample freezes the columns
        with pytest.raises(RuntimeError):
            recorder.probe("late", lambda: 0.0)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeseriesRecorder(TimeseriesWriter(io.StringIO()), interval_s=0)

    def test_double_install_rejected(self):
        sim = Simulator()
        recorder, _ = recorder_on(sim)
        with pytest.raises(RuntimeError):
            recorder.install(sim)


class TestReadTimeseries:
    def test_round_trip_multiple_blocks(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        writer = TimeseriesWriter.open(str(path))
        writer.write_header(["time_s", "x"], 1.0, "first")
        writer.write_row([0.0, 1.0])
        writer.write_row([1.0, 2.0])
        writer.write_header(["time_s", "y"], 0.5, "second")
        writer.write_row([0.0, 9.0])
        writer.close()
        first, second = read_timeseries(str(path))
        assert first["run"] == "first" and first["rows"] == [
            [0.0, 1.0], [1.0, 2.0],
        ]
        assert second["run"] == "second" and second["interval_s"] == 0.5
        assert second["rows"] == [[0.0, 9.0]]

    def test_torn_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text(
            '{"run":"r","interval_s":1.0,"columns":["time_s"]}\n'
            "[0.0]\n"
            "[1.0, 2.\n"  # interrupted write
        )
        (block,) = read_timeseries(str(path))
        assert block["rows"] == [[0.0]]


class TestScenarioIntegration:
    def run_sampled(self, tmp_path, name, seed=0):
        path = tmp_path / f"{name}.jsonl"
        with ObsSession(
            timeseries_path=str(path), timeseries_interval_s=1.0
        ) as obs:
            obs.begin_run("ts/hotspot")
            WorldBuilder(hotspot_world(
                n_clients=2, duration_s=10.0, seed=seed
            )).run(obs=obs)
        return path

    def test_builder_registers_energy_and_sleep_probes(self, tmp_path):
        path = self.run_sampled(tmp_path, "probes")
        (block,) = read_timeseries(str(path))
        assert block["run"] == "ts/hotspot"
        columns = block["columns"]
        assert list(KERNEL_COLUMNS) == columns[: len(KERNEL_COLUMNS)]
        assert any(c.startswith("energy_j.client0/") for c in columns)
        assert any(c.startswith("sleep_frac.client0/") for c in columns)
        assert "backlog_bytes" in columns
        assert len(block["rows"]) == 11  # t = 0..10 inclusive at 1 s
        energy_idx = next(
            i for i, c in enumerate(columns) if c.startswith("energy_j.")
        )
        energies = [row[energy_idx] for row in block["rows"]]
        # Energy is a cumulative integral: non-negative, non-decreasing.
        assert energies[0] == 0.0
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        sleep_idx = next(
            i for i, c in enumerate(columns) if c.startswith("sleep_frac.")
        )
        for row in block["rows"]:
            assert 0.0 <= row[sleep_idx] <= 1.0

    def test_same_seed_byte_identical_stream(self, tmp_path):
        first = self.run_sampled(tmp_path, "a", seed=3)
        second = self.run_sampled(tmp_path, "b", seed=3)
        assert first.read_bytes() == second.read_bytes()

    def test_sampling_does_not_change_scenario_outcome(self, tmp_path):
        from repro.core.outcome import VOLATILE_TIMING_FIELDS

        def pinned(result):
            record = result.summary_record()
            return {
                k: v
                for k, v in record.items()
                if k not in VOLATILE_TIMING_FIELDS and k != "sim_events"
            }

        bare = WorldBuilder(hotspot_world(n_clients=2, duration_s=10.0, seed=0)).run()
        with ObsSession(
            timeseries_path=str(tmp_path / "s.jsonl")
        ) as obs:
            sampled = WorldBuilder(hotspot_world(
                n_clients=2, duration_s=10.0, seed=0
            )).run(obs=obs)
        # Sampling schedules extra kernel events (sim_events moves) but
        # must never perturb scenario physics or QoS.
        assert pinned(bare) == pinned(sampled)
