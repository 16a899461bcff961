"""ObsSession: one observability configuration across scenario runs.

The CLI builds a session from its ``--trace/--chrome-trace/--profile/
--metrics`` flags and passes it to scenario functions as their ``obs``
argument; each scenario calls :meth:`ObsSession.attach` on its freshly
built simulator (binding the TraceBus and installing the profiler) and
the CLI calls :meth:`record` with each result and :meth:`close` at the
end to flush files and collect report tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.obs.bus import TraceBus
from repro.obs.export import (
    ChromeRun,
    JsonlTraceWriter,
    MetricsCollector,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import KernelProfiler
from repro.obs.timeseries import TimeseriesRecorder, TimeseriesWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.outcome import ScenarioResult
    from repro.sim.core import Simulator


class ObsSession:
    """Bundle of bus + exporters + profiler behind the CLI's obs flags.

    Parameters
    ----------
    trace_path:
        JSONL trace destination (None = no file; events still flow to
        other subscribers and the ring buffer).
    chrome_trace_path:
        Chrome trace-event JSON destination (None = skip).
    profile:
        Install a :class:`KernelProfiler` on every attached simulator.
    collect_metrics:
        Fold bus traffic into a :class:`MetricsRegistry`.
    ring_capacity:
        Bus ring-buffer size (streaming exports don't depend on it).
    timeseries_path:
        Columnar JSONL timeseries destination (None = no sampling).
        Each attached simulator gets a fresh
        :class:`~repro.obs.timeseries.TimeseriesRecorder` streaming into
        this one file; world builders register their probes on
        :attr:`timeseries` between :meth:`attach` and the run start.
    timeseries_interval_s:
        Simulated seconds between samples (default 1.0).
    """

    def __init__(
        self,
        trace_path: Optional[str] = None,
        chrome_trace_path: Optional[str] = None,
        profile: bool = False,
        collect_metrics: bool = False,
        ring_capacity: int = 65_536,
        timeseries_path: Optional[str] = None,
        timeseries_interval_s: float = 1.0,
    ) -> None:
        self.bus = TraceBus(capacity=ring_capacity)
        self.profiler = KernelProfiler() if profile else None
        self.registry: Optional[MetricsRegistry] = None
        #: Whether the caller asked for the registry report (``--metrics``);
        #: the registry itself may exist just to feed other summaries.
        self.registry_requested = collect_metrics
        self._writer: Optional[JsonlTraceWriter] = None
        self._chrome_trace_path = chrome_trace_path
        self._chrome_runs: List[ChromeRun] = []
        self._run_label: Optional[str] = None
        self._closed = False
        #: Recorder for the most recently attached simulator; world
        #: builders register probes on it right after :meth:`attach`.
        self.timeseries: Optional[TimeseriesRecorder] = None
        self.timeseries_interval_s = timeseries_interval_s
        self._timeseries_writer: Optional[TimeseriesWriter] = None
        if timeseries_path:
            self._timeseries_writer = TimeseriesWriter.open(timeseries_path)
        if trace_path:
            self._writer = JsonlTraceWriter.open(trace_path).attach(self.bus)
        if collect_metrics:
            collector = MetricsCollector().attach(self.bus)
            self.registry = collector.registry

    @classmethod
    def from_args(cls, args) -> Optional["ObsSession"]:
        """Build a session from parsed CLI args; None when no flag is set."""
        trace_path = getattr(args, "trace", None)
        chrome_path = getattr(args, "chrome_trace", None)
        profile = getattr(args, "profile", False)
        metrics = getattr(args, "metrics", False)
        timeseries_path = getattr(args, "timeseries", None)
        if not (trace_path or chrome_path or profile or metrics or timeseries_path):
            return None
        return cls(
            trace_path=trace_path,
            chrome_trace_path=chrome_path,
            profile=profile,
            collect_metrics=metrics,
            timeseries_path=timeseries_path,
            timeseries_interval_s=getattr(args, "timeseries_interval", 1.0),
        )

    # -- scenario hooks ------------------------------------------------------

    def attach(self, sim: "Simulator") -> None:
        """Bind the bus to ``sim`` and install the profiler, if any.

        When the session was built with a ``timeseries_path``, a fresh
        :class:`TimeseriesRecorder` is installed on ``sim`` and exposed
        as :attr:`timeseries` so the caller (normally ``WorldBuilder``)
        can register scenario probes before the run starts.
        """
        sim.attach_trace(self.bus)
        if self.profiler is not None:
            self.profiler.install(sim)
        if self._timeseries_writer is not None:
            self.timeseries = TimeseriesRecorder(
                self._timeseries_writer,
                interval_s=self.timeseries_interval_s,
                run=self._run_label,
            )
            self.timeseries.install(sim)

    def begin_run(self, label: str) -> None:
        """Label subsequent trace lines with the run about to start."""
        self._run_label = label
        if self._writer is not None:
            self._writer.run = label

    def end_run(self) -> None:
        """Drop the run label (trace lines are no longer attributed).

        Campaign runners call this from a ``finally`` so a raising
        scenario cannot leak its label onto the next run's events.
        Idempotent; :meth:`begin_run` re-arms it.
        """
        self._run_label = None
        if self._writer is not None:
            self._writer.run = None

    def record(self, result: "ScenarioResult") -> "ScenarioResult":
        """Note a finished scenario (its radios become chrome-trace tracks).

        The bus ring buffer is snapshotted alongside the radios — the
        chrome trace renders those events as per-component tracks (one
        per instrumented layer: mac/link/net/transport/core) — and then
        cleared, so consecutive runs in one session don't bleed events
        into each other's tracks.  Runs longer than the ring capacity
        keep only their most recent events.
        """
        self._chrome_runs.append(
            (result.label, result.duration_s, dict(result.radios),
             self.bus.events())
        )
        self.bus.clear()
        return result

    def metrics_snapshot(self) -> Optional[dict]:
        """JSON-ready registry snapshot, or None when metrics are off.

        Campaign workers (:mod:`repro.exp.runner`) ship this back with
        each run record so the aggregator can merge per-run metrics.
        """
        if self.registry is None:
            return None
        return self.registry.as_dict()

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Flush files; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()
        if self._timeseries_writer is not None:
            self._timeseries_writer.close()
        if self._chrome_trace_path and self._chrome_runs:
            write_chrome_trace(self._chrome_trace_path, self._chrome_runs)
        if self.profiler is not None:
            self.profiler.uninstall_all()

    def __enter__(self) -> "ObsSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
