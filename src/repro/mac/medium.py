"""The shared wireless medium.

One 802.11 channel with carrier sensing and collisions.  An optional
relation ``audibility(source, listener) -> bool`` gives it geometry:

- ``audibility=None``: the paper's single cell.  Every station senses
  every transmission, only the addressee (everyone, for broadcast)
  receives a frame, and any overlap corrupts it.
- With a relation, each station senses and *overhears* only audible
  sources -- overheard RTS/CTS durations arm its NAV, and μNap naps on
  them -- and a frame is corrupted at a listener iff an overlapping
  transmission's source is audible there.  Stations that hear the access
  point but not each other are hidden terminals (:func:`audibility_from_groups`).

Every overlap is traced (``mac/medium/collision``), but collisions are
judged at the receiver: ``frames_collided`` counts frames no addressee
got clean because one got a corrupted copy.  The optional
error model (say :class:`repro.phy.channel.GilbertElliottChannel`) is
asked once per frame some listener got clean, never for a collided one;
a frame it rejects reaches nobody.  Stations use :meth:`Medium.transmit`
(a process occupying the channel for the frame's airtime) and the
carrier-sense events :meth:`wait_idle` / :meth:`wait_busy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Set, Tuple

from repro.mac.frames import BROADCAST, Dot11Timing, Frame
from repro.sim.events import Event
from repro.sim.events import Timeout as _Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: ``audibility(source, listener) -> bool``.
Audibility = Callable[[str, str], bool]


def all_hear(source: str, listener: str) -> bool:
    """Every station hears every other, and each overhears all frames."""
    return True


def audibility_from_groups(*groups: Set[str]) -> Audibility:
    """Stations hear each other iff they share at least one group.

    ``audibility_from_groups({"A", "B"}, {"B", "C"})`` builds the classic
    hidden-terminal triple: A-B and B-C hear each other, A-C do not.
    """
    group_sets = [set(g) for g in groups]

    def audible(source: str, listener: str) -> bool:
        if source == listener:
            return True
        return any(source in g and listener in g for g in group_sets)

    return audible


class FrameSink(Protocol):
    """Anything that can receive frames from the medium."""

    address: str

    def on_frame(self, frame: Frame) -> None:
        """Called when a frame addressed to (or overheard by) us lands."""


class _Transmission:
    """One frame on the air, and the sources of everything overlapping it."""

    __slots__ = ("frame", "overlapping")

    def __init__(self, frame: Frame) -> None:
        self.frame = frame
        self.overlapping: Optional[Set[str]] = None


class Medium:
    """Single shared radio channel with collisions and carrier sensing.

    Parameters
    ----------
    sim:
        Owning simulator.
    timing:
        PHY timing used to compute frame airtimes.
    error_model:
        Optional ``f(frame, now) -> bool`` returning whether a
        collision-free frame survives channel errors.
    audibility:
        Optional ``f(source, listener) -> bool``; ``None`` means no
        geometry (see the module docstring).
    """

    def __init__(
        self,
        sim: "Simulator",
        timing: Optional[Dot11Timing] = None,
        error_model: Optional[Callable[[Frame, float], bool]] = None,
        audibility: Optional[Audibility] = None,
    ) -> None:
        self.sim = sim
        self.timing = timing or Dot11Timing()
        self.error_model = error_model
        self.audibility = audibility
        self._stations: Dict[str, FrameSink] = {}
        self._active: List[_Transmission] = []
        # (listener address, or None for "anywhere"; event), in wait order.
        self._idle_waiters: List[Tuple[Optional[str], Event]] = []
        self._busy_waiters: List[Tuple[Optional[str], Event]] = []
        # Statistics.
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_errored = 0
        self.busy_time_s = 0.0

    # -- registration -----------------------------------------------------

    def register(self, station: FrameSink) -> None:
        """Attach a station; its ``address`` must be unique."""
        address = station.address
        if address == BROADCAST:
            raise ValueError(f"{BROADCAST!r} is reserved for broadcast")
        if address in self._stations:
            raise ValueError(f"duplicate station address {address!r}")
        self._stations[address] = station

    def unregister(self, address: str) -> None:
        """Detach a station (frames to it are then dropped silently)."""
        self._stations.pop(address, None)

    # -- carrier sense ------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        """True when nothing is on the air."""
        return not self._active

    def is_idle_for(self, address: Optional[str] = None) -> bool:
        """Carrier sense at ``address`` (``None``: anywhere)."""
        if not self._active:
            return True
        audible = self.audibility
        if audible is None or address is None:
            return False
        return not any(audible(t.frame.source, address) for t in self._active)

    def wait_idle(self, address: Optional[str] = None) -> Event:
        """Event firing when the medium is (or becomes) idle at ``address``."""
        event = Event(self.sim)
        if self.is_idle_for(address):
            event.succeed()
        else:
            self._idle_waiters.append((address, event))
        return event

    def wait_busy(self, address: Optional[str] = None) -> Event:
        """Event firing when the *next* transmission audible at
        ``address`` starts."""
        event = Event(self.sim)
        self._busy_waiters.append((address, event))
        return event

    # -- transmission ----------------------------------------------------------

    def transmit(self, frame: Frame):
        """Put ``frame`` on the air; yield the returned process to wait.

        The process completes when the frame's airtime elapses; the return
        value is ``True`` if an addressee got the frame clean.
        """
        return self.sim.process(self._transmit_body(frame), name=f"tx#{frame.seq}")

    def _transmit_body(self, frame: Frame):
        sim = self.sim
        airtime = frame.airtime_s(self.timing)
        transmission = _Transmission(frame)
        self.frames_sent += 1
        self.busy_time_s += airtime
        active = self._active
        audible = self.audibility
        source = frame.source
        if active:
            transmission.overlapping = {other.frame.source for other in active}
            for other in active:
                if other.overlapping is None:
                    other.overlapping = {source}
                else:
                    other.overlapping.add(source)
            bus = sim.trace
            if bus.enabled:
                bus.emit(
                    "mac",
                    "medium",
                    "collision",
                    source=source,
                    overlapping=len(active) + 1,
                )
        active.append(transmission)
        waiters = self._busy_waiters
        if waiters:
            keep = []
            for address, event in waiters:
                if audible is None or address is None or audible(source, address):
                    event.succeed(frame)
                else:
                    keep.append((address, event))
            self._busy_waiters = keep
        yield _Timeout(sim, airtime)
        active.remove(transmission)
        waiters = self._idle_waiters
        if waiters and (not active or audible is not None):
            keep = []
            for address, event in waiters:
                if not active or self.is_idle_for(address):
                    event.succeed()
                else:
                    keep.append((address, event))
            self._idle_waiters = keep
        return self._complete(transmission)

    def _complete(self, transmission: _Transmission) -> bool:
        frame = transmission.frame
        destination = frame.destination
        audible = self.audibility
        addressee = self._stations.get(destination)  # None for broadcast
        if audible is None and destination != BROADCAST:
            # Nobody overhears: the addressee is the only listener.
            listeners = () if addressee is None else (addressee,)
        else:
            source = frame.source
            listeners = [
                station
                for address, station in self._stations.items()
                if address != source and (audible is None or audible(source, address))
            ]
        overlapping = transmission.overlapping
        clean = listeners
        if overlapping is not None:
            clean = [
                station
                for station in listeners
                if audible is not None
                and not any(audible(other, station.address) for other in overlapping)
            ]
        if (
            clean
            and self.error_model is not None
            and not self.error_model(frame, self.sim.now)
        ):
            self.frames_errored += 1
            return False
        for station in clean:
            station.on_frame(frame)
        if destination == BROADCAST:
            delivered, heard = bool(clean), bool(listeners)
        else:
            delivered, heard = addressee in clean, addressee in listeners
        if delivered:
            self.frames_delivered += 1
        elif heard:  # ... but only a corrupted copy
            self.frames_collided += 1
        return delivered

    def utilisation(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed time the medium has been busy."""
        elapsed = (now if now is not None else self.sim.now)
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time_s / elapsed, 1.0)

    def __repr__(self) -> str:
        return (
            f"<Medium stations={len(self._stations)} "
            f"active={len(self._active)} sent={self.frames_sent}>"
        )
