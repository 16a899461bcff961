"""The simulator: event queue and run loop.

Pending events live in one binary heap of ``(time, priority, seq,
event)`` entries.  Scheduling is deterministic: ``seq`` is a kernel-wide
counter that increases with every schedule, so events due at the same
instant fire in the order they were scheduled (kernel-internal wakeups,
``URGENT``, first).  ``Timeout.__init__``, ``Event.succeed`` and the
``Condition`` fire path in ``events.py`` push onto the same heap
directly instead of calling :meth:`Simulator._schedule`.

The kernel also keeps its *dispatch point*: the heap entry being
dispatched, or a marker between dispatches (see :attr:`Simulator.point`).
Pull-based state such as :class:`repro.apps.traffic.ArrivalCursor`
reads it to decide where in an instant's order a read falls.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, List, Optional

from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (e.g. time reversal)."""


class _DisabledTrace:
    """Permanently-off stand-in for a :class:`repro.obs.bus.TraceBus`.

    Defined here (not in ``repro.obs``) so the kernel depends on nothing:
    instrumented hot paths across the stack guard with a single
    ``if sim.trace.enabled:`` check against this sentinel.
    """

    __slots__ = ()
    enabled = False

    def emit(self, layer: str, entity: str, kind: str, **fields: Any) -> None:
        """No-op; a real bus is attached via :meth:`Simulator.attach_trace`."""


_NULL_TRACE = _DisabledTrace()


class Simulator:
    """A discrete-event simulator with a deterministic run loop.

    Parameters
    ----------
    start_time:
        Initial simulation time (default ``0.0``).  Time units are
        seconds throughout this project.
    trace:
        Optional :class:`repro.obs.bus.TraceBus` to bind; without one,
        ``self.trace`` is a permanently disabled sentinel and
        instrumentation costs one attribute read + branch per site.
    """

    def __init__(self, start_time: float = 0.0, trace: Any = None) -> None:
        self._now = float(start_time)
        #: Heap of pending ``(time, priority, seq, event)`` entries.
        self._heap: List[tuple] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: The dispatch point (see :attr:`point`).
        self._point: tuple = (self._now, NORMAL, 0, None)
        self.trace: Any = _NULL_TRACE
        if trace is not None:
            self.attach_trace(trace)

    def attach_trace(self, bus: Any) -> None:
        """Bind a TraceBus: its clock becomes this simulator's clock.

        Kernel dispatch tracing is installed by shadowing ``step`` with
        :meth:`_traced_step` (an instance attribute), so an untraced
        simulator's hot loop carries no instrumentation at all.  Attach
        the trace before installing a profiler, so the profiler wraps
        the traced step.
        """
        bus.bind_clock(lambda: self._now)
        self.trace = bus
        if "step" not in self.__dict__:
            self.step = self._traced_step  # type: ignore[method-assign]

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — a cheap proxy for kernel work.

        Monotonic over a run (it is the scheduling sequence counter), so
        benchmarks can report throughput as events per wall-clock second
        without attaching a profiler.
        """
        return self._seq

    @property
    def point(self) -> tuple:
        """Where the kernel is in the ``(time, priority, seq)`` order.

        While an event is dispatched this is its heap entry
        ``(time, priority, seq, event)``; after :meth:`step` returns it
        stays the entry just dispatched.  When :meth:`run` returns, and
        before the first dispatch, it is a marker ``(now, NORMAL, seq,
        None)`` made fresh by every stop: every event that existed at
        the stop and is due by ``now`` has been dispatched, and none
        created after it has.  Identity tells two stops at one instant
        apart.
        """
        return self._point

    @property
    def queue_depth(self) -> int:
        """Events currently pending in the queue (instantaneous backlog)."""
        return len(self._heap)

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float) -> Timeout:
        """Create an event firing at exactly the absolute time ``when``.

        Unlike ``timeout(when - now)``, the fire time skips the
        ``now + (when - now)`` float round trip, so a caller that builds
        an instant by repeated addition gets that instant bit for bit.
        """
        now = self._now
        if when < now:
            raise SimulationError(f"timeout_at({when!r}) is in the past (now={now!r})")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event.delay = when - now
        event._born = now
        event._state = 1  # _TRIGGERED: fire time fixed at creation
        event._ok = True
        event._value = None
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (when, NORMAL, seq, event))
        return event

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling (kernel use) -----------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq + 1
        self._seq = seq
        event._born = self._now
        heappush(self._heap, (self._now + delay, priority, seq, event))

    # -- run loop ----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def _peek_event(self) -> Optional[Event]:
        """The next event to dispatch, without dispatching it (profilers)."""
        heap = self._heap
        return heap[0][3] if heap else None

    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        entry = heappop(self._heap)
        when, _priority, _seq, event = entry
        self._now = when
        self._point = entry
        callbacks = event.callbacks
        event.callbacks = []  # further appends would never run
        event._state = 2  # _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            # A failure nobody waited for must not pass silently.
            raise event._value

    def _traced_step(self) -> None:
        """:meth:`step` variant emitting a kernel dispatch trace event.

        Duplicates the ``step`` body rather than wrapping it: the emit
        must land after the pop (so the bus clock reads the event's
        time) but before the callbacks run (so layer events nest under
        their dispatch).  Installed over ``step`` by
        :meth:`attach_trace`.
        """
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        entry = heappop(self._heap)
        when, _priority, _seq, event = entry
        self._now = when
        self._point = entry
        trace = self.trace
        if trace.enabled:
            trace.emit(
                "sim",
                "kernel",
                "dispatch",
                event=type(event).__name__,
                queued=len(self._heap),
            )
        callbacks = event.callbacks
        event.callbacks = []
        event._state = 2  # _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulation time reaches ``until``.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if the queue drains earlier, so time-weighted statistics close
        consistently.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self._now!r})"
            )
        if "step" in self.__dict__:
            # A traced or profiled step shadows the method; preserve the
            # one-call-per-event contract those wrappers rely on.
            step = self.step
            heap = self._heap
            if until is not None:
                while heap and heap[0][0] <= until:
                    step()
                self._now = float(until)
            else:
                while heap:
                    step()
            self._point = (self._now, NORMAL, self._seq, None)
            return
        # Fast path: the step body is inlined so the per-event cost is
        # one heappop plus the callback fan-out — no method dispatch,
        # no property descriptors.  Mirrors step() exactly.
        bound = float("inf") if until is None else until
        heap = self._heap
        pop = heappop
        while heap:
            entry = pop(heap)
            when = entry[0]
            if when > bound:
                # Crossed the horizon: the entry stays pending.
                heappush(heap, entry)
                break
            event = entry[3]
            self._now = when
            self._point = entry
            callbacks = event.callbacks
            event.callbacks = []
            event._state = 2  # _PROCESSED
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
                if not callbacks and not event._ok:
                    raise event._value
        if until is not None:
            self._now = float(until)
        self._point = (self._now, NORMAL, self._seq, None)

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} queued={self.queue_depth}>"
