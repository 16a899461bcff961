"""Application traffic generators.

All sources share one shape: :meth:`arrivals` lazily yields
``(time_s, nbytes, kind)`` tuples with non-decreasing times.  The
simulator consumes them two ways, which agree arrival for arrival
because both place each arrival at the same instant, given by
:func:`fire_instant`:

- **pushed**, by :meth:`TrafficSource.start`: a pump process sleeps
  until each arrival and hands it to a sink.  Packet-level MACs need
  this, since a frame arrival must wake the MAC.
- **pulled**, by :class:`ArrivalCursor`: the arrivals due by the current
  instant are settled when someone reads them, with no event at all.
  Burst-level delivery (the Hotspot proxy, the fleet) only ever looks at
  a session's backlog at a scheduling round, so it reads a cursor.

The MP3 model matches the paper's evaluation workload ("high-quality MP3
audio"): MPEG-1 Layer III frames carry 1152 samples, so at 44.1 kHz a
frame lands every ~26.12 ms and carries ``bitrate × 0.02612 / 8`` bytes.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.sim.events import NORMAL
from repro.sim.streams import Random

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: One traffic arrival: (time in seconds, payload bytes, kind tag).
Arrival = Tuple[float, int, str]

#: Samples per MPEG-1 Layer III frame / the standard sample rate.
MP3_FRAME_INTERVAL_S = 1152 / 44_100.0


def fire_instant(previous_s: float, time_s: float) -> float:
    """The instant an arrival stamped ``time_s`` is delivered.

    ``previous_s`` is the instant of the previous delivery, or the start
    instant for the first arrival.  A future arrival is slept towards
    with a timeout of ``time_s - previous_s``, which fires at
    ``previous_s + (time_s - previous_s)``: not always exactly
    ``time_s``, and the scenario goldens pin those instants.  An arrival
    that is not in the future is delivered at ``previous_s``.
    """
    if time_s > previous_s:
        return previous_s + (time_s - previous_s)
    return previous_s


class TrafficSource:
    """Base class wiring an arrival stream into the simulator."""

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        """Yield ``(time, nbytes, kind)`` with time < until_s, ordered."""
        raise NotImplementedError

    def total_bytes(self, until_s: float) -> int:
        """Payload volume generated up to ``until_s``."""
        return sum(nbytes for _t, nbytes, _k in self.arrivals(until_s))

    def mean_rate_bps(self, until_s: float) -> float:
        """Average payload rate over ``[0, until_s)``."""
        if until_s <= 0:
            return 0.0
        return self.total_bytes(until_s) * 8.0 / until_s

    def start(
        self,
        sim: "Simulator",
        sink: Callable[[int, str], None],
        until_s: float,
    ):
        """Pump arrivals into ``sink(nbytes, kind)`` in simulated time.

        One timeout per delivery instant (:func:`fire_instant`), created
        only when the previous one has fired, so a running pump holds at
        most one pending event.  Arrivals sharing an instant are
        delivered in one go.
        """

        def pump():
            fire_s = sim._now
            for time_s, nbytes, kind in self.arrivals(until_s):
                due_s = fire_instant(fire_s, time_s)
                if due_s != fire_s:
                    yield sim.timeout_at(due_s)
                    fire_s = due_s
                sink(nbytes, kind)

        return sim.process(pump(), name=f"{type(self).__name__}-pump")

    def cursor(
        self, sim: "Simulator", until_s: float, skip: int = 0
    ) -> "ArrivalCursor":
        """The pull-based twin of :meth:`start`, from the current instant."""
        return ArrivalCursor(sim, self, until_s, skip)


class ArrivalCursor:
    """A source's arrivals as a function of simulated time.

    :meth:`settle` returns the bytes of the arrivals that the pump of
    :meth:`TrafficSource.start`, started when this cursor was made, would
    have delivered by the current point of the run, and consumes them.
    No event is scheduled: a burst-level backlog is read at scheduling
    rounds, so the pump's one timeout per arrival bought nothing.

    **Ties.**  Arrivals are delivered at :func:`fire_instant` instants
    ``f``; those with ``f < now`` are due and those with ``f > now`` are
    not.  For ``f == now`` the pump's delivering event may or may not
    have been dispatched before the event now running, under the
    kernel's ``(time, priority, seq)`` order.  The cursor answers from
    :attr:`Simulator.point <repro.sim.core.Simulator.point>`:

    - *Between dispatches* (after ``run(until)`` returns, before the
      first dispatch), every event that existed at the kernel's last
      stop and is due by ``now`` has run.  So ``f == now`` counts,
      unless the arrival is delivered by the pump's start-up event and
      the cursor was made after that stop (the point is the very marker
      it saw when it was made).
    - *During a dispatch* of an event with priority ``p``, seq ``q``,
      put on the heap at instant ``b``: the pump's events are
      ``NORMAL``, so an ``URGENT`` event always runs first and
      ``f == now`` does not count.  Otherwise the pump's event was
      created either when the cursor was made (its start-up event,
      delivering the arrivals with ``f`` equal to the start instant), so
      it runs first iff ``q`` exceeds the kernel's seq counter at that
      moment; or during its previous delivery, at the previous delivery
      instant ``g < f``, so it runs first iff ``b > g``.

    One case is left: an event put on the heap at exactly ``g`` whose
    delay lands exactly on ``f``.  Which of the two ran first then
    depends on which event *created* it and where that one stood at
    ``g``, which no state records.  The cursor does not count such an
    arrival, as if the event had been created first.

    ``skip`` drops that many arrivals unread: a migrating session
    resumes on a rebuilt source from the count it had consumed
    (:attr:`consumed`).
    """

    __slots__ = (
        "sim",
        "consumed",
        "_next",
        "_fire_s",
        "_nbytes",
        "_previous_s",
        "_start_s",
        "_origin",
        "_mark",
    )

    def __init__(
        self,
        sim: "Simulator",
        source: TrafficSource,
        until_s: float,
        skip: int = 0,
    ) -> None:
        if skip < 0:
            raise ValueError("skip must be >= 0")
        arrivals = source.arrivals(until_s)
        if skip:
            arrivals = islice(arrivals, skip, None)
        self.sim = sim
        #: Arrivals consumed so far (settled, or skipped).
        self.consumed = skip
        self._next = arrivals.__next__
        start_s = sim.now
        self._start_s = start_s
        self._origin = sim.point
        self._mark = sim.events_scheduled
        #: Delivery instant of the group before the pending arrival.
        self._previous_s = start_s
        self._fire_s = start_s
        self._nbytes = 0
        self._load()

    def _load(self) -> None:
        """Read the next arrival and place it after the last delivery."""
        try:
            time_s, self._nbytes, _kind = self._next()
        except StopIteration:
            self._fire_s = float("inf")
            return
        last_s = self._fire_s
        fire_s = fire_instant(last_s, time_s)
        if fire_s != last_s:
            self._previous_s = last_s
        self._fire_s = fire_s

    def _counts_at_now(self) -> bool:
        """Whether the pending group, due exactly now, was delivered."""
        point = self.sim.point
        event = point[3]
        start_up = self._fire_s == self._start_s
        if event is None:
            return not (start_up and point is self._origin)
        if point[1] != NORMAL:
            return False
        if start_up:
            return point[2] > self._mark
        return getattr(event, "_born", point[0]) > self._previous_s

    def settle(self) -> int:
        """Consume and return the bytes due at the current point."""
        now = self.sim._now
        total = 0
        while self._fire_s < now or (
            self._fire_s == now and self._counts_at_now()
        ):
            total += self._nbytes
            self.consumed += 1
            self._load()
        return total


class Mp3Stream(TrafficSource):
    """Constant-bitrate MP3 audio (optionally mildly VBR).

    Parameters
    ----------
    bitrate_bps:
        Encoded audio rate: 128 kb/s is "high quality" for the paper's
        2005-era evaluation; 320 kb/s is the format maximum.
    vbr_fraction:
        0 gives strict CBR; 0.2 varies frame sizes +/-20 %.
    rng:
        Required when ``vbr_fraction > 0``.
    """

    def __init__(
        self,
        bitrate_bps: float = 128_000.0,
        vbr_fraction: float = 0.0,
        rng: Optional[Random] = None,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if not 0.0 <= vbr_fraction < 1.0:
            raise ValueError("VBR fraction must be in [0, 1)")
        if vbr_fraction > 0 and rng is None:
            raise ValueError("VBR mode needs an rng")
        self.bitrate_bps = bitrate_bps
        self.vbr_fraction = vbr_fraction
        self.rng = rng

    @property
    def frame_bytes(self) -> int:
        """Nominal bytes per MP3 frame."""
        return max(int(self.bitrate_bps * MP3_FRAME_INTERVAL_S / 8.0), 1)

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        frame_bytes = self.frame_bytes
        time_s = 0.0
        while time_s < until_s:
            nbytes = frame_bytes
            if self.vbr_fraction > 0:
                scale = 1.0 + self.rng.uniform(-self.vbr_fraction, self.vbr_fraction)
                nbytes = max(int(nbytes * scale), 1)
            yield (time_s, nbytes, "audio")
            time_s += MP3_FRAME_INTERVAL_S


class PoissonTraffic(TrafficSource):
    """Memoryless packet arrivals with fixed packet size."""

    def __init__(
        self,
        mean_interarrival_s: float,
        packet_bytes: int,
        rng: Random,
        kind: str = "data",
    ) -> None:
        if mean_interarrival_s <= 0:
            raise ValueError("mean interarrival must be positive")
        if packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.mean_interarrival_s = mean_interarrival_s
        self.packet_bytes = packet_bytes
        self.rng = rng
        self.kind = kind

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        time_s = self.rng.expovariate(1.0 / self.mean_interarrival_s)
        while time_s < until_s:
            yield (time_s, self.packet_bytes, self.kind)
            time_s += self.rng.expovariate(1.0 / self.mean_interarrival_s)


class OnOffTraffic(TrafficSource):
    """Web-browsing style: bursts of downloads separated by think times.

    During an ON period, packets arrive back-to-back at
    ``packet_interval_s``; OFF periods are exponential think times.
    """

    def __init__(
        self,
        rng: Random,
        mean_on_s: float = 2.0,
        mean_off_s: float = 10.0,
        packet_bytes: int = 1460,
        packet_interval_s: float = 0.01,
    ) -> None:
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("ON/OFF means must be positive")
        if packet_bytes <= 0 or packet_interval_s <= 0:
            raise ValueError("packet parameters must be positive")
        self.rng = rng
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.packet_bytes = packet_bytes
        self.packet_interval_s = packet_interval_s

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        time_s = self.rng.expovariate(1.0 / self.mean_off_s)
        while time_s < until_s:
            on_length = self.rng.expovariate(1.0 / self.mean_on_s)
            burst_end = time_s + on_length
            while time_s < min(burst_end, until_s):
                yield (time_s, self.packet_bytes, "web")
                time_s += self.packet_interval_s
            time_s = burst_end + self.rng.expovariate(1.0 / self.mean_off_s)


class VideoStream(TrafficSource):
    """GOP-structured video: periodic large I-frames, small P-frames.

    Interleave with :class:`Mp3Stream` to feed the drop-video-keep-audio
    proxy experiment.
    """

    def __init__(
        self,
        frame_rate_fps: float = 15.0,
        i_frame_bytes: int = 12_000,
        p_frame_bytes: int = 2_500,
        gop_length: int = 15,
    ) -> None:
        if frame_rate_fps <= 0:
            raise ValueError("frame rate must be positive")
        if i_frame_bytes <= 0 or p_frame_bytes <= 0:
            raise ValueError("frame sizes must be positive")
        if gop_length < 1:
            raise ValueError("GOP length must be >= 1")
        self.frame_rate_fps = frame_rate_fps
        self.i_frame_bytes = i_frame_bytes
        self.p_frame_bytes = p_frame_bytes
        self.gop_length = gop_length

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        interval = 1.0 / self.frame_rate_fps
        index = 0
        time_s = 0.0
        while time_s < until_s:
            if index % self.gop_length == 0:
                yield (time_s, self.i_frame_bytes, "video-i")
            else:
                yield (time_s, self.p_frame_bytes, "video-p")
            index += 1
            time_s += interval


class TraceTraffic(TrafficSource):
    """Replay an explicit arrival list (for tests and captured traces)."""

    def __init__(self, trace: Iterable[Arrival]) -> None:
        self.trace: List[Arrival] = sorted(trace, key=lambda a: a[0])
        for _time, nbytes, _kind in self.trace:
            if nbytes <= 0:
                raise ValueError("trace packet sizes must be positive")
        if any(t < 0 for t, _n, _k in self.trace):
            raise ValueError("trace times must be >= 0")

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        for time_s, nbytes, kind in self.trace:
            if time_s >= until_s:
                break
            yield (time_s, nbytes, kind)


#: Registry behind :func:`build_source`: kind -> factory taking
#: ``(bitrate_bps, rng, options)``.  Register new kinds to make them
#: addressable from a :class:`repro.build.TrafficSpec`.
_SOURCE_KINDS: dict = {}


def register_traffic_kind(kind: str, factory) -> None:
    """Register ``factory(bitrate_bps, rng, options) -> TrafficSource``."""
    existing = _SOURCE_KINDS.get(kind)
    if existing is not None and existing is not factory:
        raise ValueError(f"traffic kind {kind!r} already registered")
    _SOURCE_KINDS[kind] = factory


def traffic_kinds() -> List[str]:
    """The registered source kinds, sorted."""
    return sorted(_SOURCE_KINDS)


def build_source(
    kind: str = "mp3",
    bitrate_bps: float = 128_000.0,
    rng: Optional[Random] = None,
    options: Optional[dict] = None,
) -> TrafficSource:
    """Construct a source from declarative data (kind + options).

    The composition layer (:mod:`repro.build`) calls this with each
    node's ``TrafficSpec``; ``options`` pass through to the source's
    constructor, ``rng`` is the node's seeded substream (ignored by
    deterministic sources).
    """
    factory = _SOURCE_KINDS.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown traffic kind {kind!r}; known: {traffic_kinds()}"
        )
    return factory(bitrate_bps, rng, dict(options or {}))


register_traffic_kind(
    "mp3",
    lambda bitrate_bps, rng, options: Mp3Stream(
        bitrate_bps=bitrate_bps, rng=rng, **options
    ),
)
def _poisson_from_bitrate(bitrate_bps, rng, options):
    # Default the arrival process to the requested mean bitrate so a bare
    # ``TrafficSpec(kind="poisson", bitrate_bps=...)`` is enough.
    packet_bytes = options.setdefault("packet_bytes", 1_000)
    options.setdefault("mean_interarrival_s", packet_bytes * 8.0 / bitrate_bps)
    return PoissonTraffic(rng=rng, **options)


register_traffic_kind("poisson", _poisson_from_bitrate)
register_traffic_kind(
    "onoff",
    lambda bitrate_bps, rng, options: OnOffTraffic(rng=rng, **options),
)
register_traffic_kind(
    "video",
    lambda bitrate_bps, rng, options: VideoStream(**options),
)
register_traffic_kind(
    "trace",
    lambda bitrate_bps, rng, options: TraceTraffic(**options),
)


def merge_arrivals(sources: Iterable[TrafficSource], until_s: float) -> List[Arrival]:
    """Time-merge several sources into one ordered arrival list."""
    merged: List[Arrival] = []
    for source in sources:
        merged.extend(source.arrivals(until_s))
    merged.sort(key=lambda a: a[0])
    return merged
