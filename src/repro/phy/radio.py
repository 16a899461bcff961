"""Radio power-state machines with full energy accounting.

A wireless network interface (WNIC) is modelled as a set of named
:class:`PowerState`\\ s (e.g. ``tx``, ``rx``, ``idle``, ``doze``, ``off``
for 802.11; ``active``, ``sniff``, ``hold``, ``park`` for Bluetooth), plus
a table of :class:`Transition`\\ s carrying the latency and energy cost of
moving between states.  :class:`Radio` binds a :class:`RadioPowerModel` to
a simulator and keeps a power trace, so that average power and total
energy — the quantities behind the paper's Figure 2 — fall out of the
time-weighted statistics.

Transition costs matter: the paper's Hotspot scheduler wins precisely
because it amortises expensive wake-ups over large data bursts, and a
model without wake-up costs would overstate the benefit of naive sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.sim.events import Event, Timeout
from repro.sim.stats import TimeSeries, TimeWeightedStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Upper bounds (s) of the dwell-duration histogram buckets.  The decade
#: spacing separates μNap-scale micro-dwells (sub-millisecond) from PSM
#: beacon-scale dwells (~100 ms) in one compact table.
DWELL_BUCKETS_S: Tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)

#: Human-readable labels, one per bucket plus the open-ended tail.
DWELL_BUCKET_LABELS: Tuple[str, ...] = (
    "<100us",
    "<1ms",
    "<10ms",
    "<100ms",
    ">=100ms",
)


def dwell_bucket_index(duration_s: float) -> int:
    """Index of the histogram bucket a dwell of ``duration_s`` lands in."""
    for index, bound in enumerate(DWELL_BUCKETS_S):
        if duration_s < bound:
            return index
    return len(DWELL_BUCKETS_S)


@dataclass(frozen=True, slots=True)
class PowerState:
    """A named operating state drawing constant power.

    Attributes
    ----------
    name:
        State identifier (unique within a model).
    power_w:
        Power drawn while in the state, in watts.
    can_communicate:
        Whether the radio can send/receive user data in this state.
    """

    name: str
    power_w: float
    can_communicate: bool = False

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ValueError(f"state {self.name!r} has negative power")


@dataclass(frozen=True, slots=True)
class Transition:
    """Cost of moving between two power states.

    Attributes
    ----------
    latency_s:
        Time the transition takes; the radio is unusable meanwhile.
    energy_j:
        Extra energy consumed by the transition (on top of nothing —
        the transition's average power is ``energy_j / latency_s``).
    """

    source: str
    target: str
    latency_s: float = 0.0
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("transition latency must be >= 0")
        if self.energy_j < 0:
            raise ValueError("transition energy must be >= 0")


class RadioPowerModel:
    """An immutable catalogue of power states and transition costs.

    Parameters
    ----------
    name:
        Model name (e.g. ``"802.11b CF card"``).
    states:
        The state set; names must be unique.
    transitions:
        Explicit transition costs.  Pairs not listed fall back to a
        zero-cost transition.
    initial_state:
        Name of the state a fresh radio starts in.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[PowerState],
        transitions: Iterable[Transition] = (),
        initial_state: Optional[str] = None,
    ) -> None:
        self.name = name
        self.states: Dict[str, PowerState] = {}
        for state in states:
            if state.name in self.states:
                raise ValueError(f"duplicate state name {state.name!r}")
            self.states[state.name] = state
        if not self.states:
            raise ValueError("a radio model needs at least one state")
        self._transitions: Dict[Tuple[str, str], Transition] = {}
        for transition in transitions:
            self._require(transition.source)
            self._require(transition.target)
            self._transitions[(transition.source, transition.target)] = transition
        if initial_state is None:
            initial_state = next(iter(self.states))
        self._require(initial_state)
        self.initial_state = initial_state

    def _require(self, state_name: str) -> None:
        if state_name not in self.states:
            raise KeyError(
                f"unknown state {state_name!r} in model {self.name!r}; "
                f"known: {sorted(self.states)}"
            )

    def power(self, state_name: str) -> float:
        """Power (W) drawn in ``state_name``."""
        self._require(state_name)
        return self.states[state_name].power_w

    def transition(self, source: str, target: str) -> Transition:
        """Transition cost from ``source`` to ``target`` (zero if unlisted)."""
        self._require(source)
        self._require(target)
        found = self._transitions.get((source, target))
        if found is not None:
            return found
        return Transition(source, target, latency_s=0.0, energy_j=0.0)

    def state_names(self) -> list[str]:
        return list(self.states)

    def __repr__(self) -> str:
        return f"<RadioPowerModel {self.name!r} states={sorted(self.states)}>"


class Radio:
    """A simulator-bound radio instance with a live power trace.

    The MAC layer (or the client resource manager) drives the radio by
    yielding :meth:`transition_to`; energy and time-in-state are tracked
    automatically and queried via :meth:`energy_j`, :meth:`average_power_w`
    and :meth:`time_in_state`.

    Parameters
    ----------
    sim:
        Owning simulator.
    model:
        The power model to instantiate.
    name:
        Instance name for traces (defaults to the model name).
    """

    def __init__(
        self, sim: "Simulator", model: RadioPowerModel, name: Optional[str] = None
    ) -> None:
        self.sim = sim
        self.model = model
        self.name = name or model.name
        self._state = model.initial_state
        self._in_transition = False
        self._power_trace = TimeWeightedStat(
            initial_time=sim.now, initial_value=model.power(self._state)
        )
        #: Named state over time, for schedule timelines (paper Fig. 1).
        self.state_series = TimeSeries(name=f"{self.name}.state")
        self.state_series.append(sim.now, self._state)
        self._state_durations: Dict[str, float] = {}
        #: Per-state dwell-duration histograms: state -> bucket counts
        #: (see DWELL_BUCKETS_S).  Settled dwells only; every completed
        #: state change contributes exactly one count.
        self._dwell_histograms: Dict[str, list] = {}
        self._last_state_change = sim.now
        self._transition_energy_j = 0.0
        self._transition_count = 0

    # -- state inspection ---------------------------------------------------

    @property
    def state(self) -> str:
        """Current state name (still the *source* state while transitioning)."""
        return self._state

    @property
    def in_transition(self) -> bool:
        """True while a state change is in progress."""
        return self._in_transition

    @property
    def can_communicate(self) -> bool:
        """True when user data can flow right now."""
        return (
            not self._in_transition and self.model.states[self._state].can_communicate
        )

    @property
    def transition_count(self) -> int:
        """Number of completed state changes (excluding no-ops)."""
        return self._transition_count

    # -- state control ----------------------------------------------------------

    def transition_to(self, target: str) -> Event:
        """Start a transition; yield the returned event to wait for it.

        A transition to the current state completes immediately and costs
        nothing.  Starting a transition while another is in progress is an
        error — the caller (MAC/resource manager) owns serialisation.

        The transition starts one zero-delay hop from now (a "kick"
        event) and the returned event succeeds one hop after it ends, the
        same event sequence a process driving the transition would
        schedule, without the process.  Errors fail the returned event,
        so a failure nobody waits for still raises from ``Simulator.run``.
        """
        sim = self.sim
        done = Event(sim)
        kick = Event(sim)
        kick.callbacks.append(lambda _kick: self._begin_transition(target, done))
        kick.succeed()
        return done

    def _begin_transition(self, target: str, done: Event) -> None:
        try:
            self.model._require(target)
            if self._in_transition:
                raise RuntimeError(
                    f"radio {self.name!r}: transition to {target!r} requested "
                    f"while already transitioning to {self._state!r}"
                )
        except Exception as exc:
            done.fail(exc)
            return
        if target == self._state:
            done.succeed()
            return
        sim = self.sim
        now = sim._now
        cost = self.model.transition(self._state, target)
        bus = sim.trace
        if bus.enabled:
            bus.emit(
                "phy",
                self.name,
                "state",
                source=self._state,
                target=target,
                dwell_s=now - self._last_state_change,
                latency_s=cost.latency_s,
                energy_j=cost.energy_j,
            )
        self._account_state_time()
        self._in_transition = True
        self._transition_count += 1
        self._transition_energy_j += cost.energy_j
        if cost.latency_s > 0:
            # During the transition the radio draws the transition's
            # average power.
            transition_power = cost.energy_j / cost.latency_s
            self._power_trace.record(now, transition_power)
            self.state_series.append(now, f"->{target}")
            Timeout(sim, cost.latency_s).callbacks.append(
                lambda _timeout: self._end_transition(target, done)
            )
        else:
            # Instantaneous transition: lump the energy as an impulse.
            self._power_trace.add_impulse(cost.energy_j)
            self._end_transition(target, done)

    def _end_transition(self, target: str, done: Event) -> None:
        now = self.sim._now
        self._in_transition = False
        self._state = target
        self._last_state_change = now
        self._power_trace.record(now, self.model.power(target))
        self.state_series.append(now, target)
        done.succeed()

    def _account_state_time(self) -> None:
        held = self.sim.now - self._last_state_change
        if held > 0:
            self._state_durations[self._state] = (
                self._state_durations.get(self._state, 0.0) + held
            )
            histogram = self._dwell_histograms.get(self._state)
            if histogram is None:
                histogram = [0] * (len(DWELL_BUCKETS_S) + 1)
                self._dwell_histograms[self._state] = histogram
            histogram[dwell_bucket_index(held)] += 1
        self._last_state_change = self.sim.now

    def force_state(self, state_name: str) -> None:
        """Administratively set the state, with no transition cost.

        For checkpoint/restore (:mod:`repro.shard`): a radio rebuilt in a
        peer simulator must start in the state its twin was snapshotted
        in, without charging — or timing — a transition that never
        physically happened.  Only valid while no transition is in
        progress.
        """
        self.model._require(state_name)
        if self._in_transition:
            raise RuntimeError(
                f"radio {self.name!r}: cannot force state mid-transition"
            )
        if state_name == self._state:
            return
        self._account_state_time()
        self._state = state_name
        self._last_state_change = self.sim.now
        self._power_trace.record(self.sim.now, self.model.power(state_name))
        self.state_series.append(self.sim.now, state_name)

    # -- accounting ----------------------------------------------------------------

    def add_energy_impulse(self, energy_j: float) -> None:
        """Account an instantaneous energy cost outside the state machine.

        Used e.g. by the MAC to add the receive-vs-listen power delta for
        the exact airtime of a received frame, without micro-managing
        rx-state transitions at microsecond granularity.
        """
        if energy_j < 0:
            raise ValueError("energy impulse must be >= 0")
        self._power_trace.add_impulse(energy_j)

    def energy_j(self, now: Optional[float] = None) -> float:
        """Total energy consumed through ``now`` (default: current time)."""
        return self._power_trace.integral(now if now is not None else self.sim.now)

    def average_power_w(self, now: Optional[float] = None) -> float:
        """Time-averaged power through ``now`` (default: current time)."""
        return self._power_trace.mean(now if now is not None else self.sim.now)

    @property
    def transition_energy_j(self) -> float:
        """Energy spent purely on state changes so far."""
        return self._transition_energy_j

    def dwell_histogram(self, state_name: str) -> Tuple[int, ...]:
        """Completed-dwell counts for ``state_name``, one per bucket.

        Buckets follow :data:`DWELL_BUCKETS_S` (labels in
        :data:`DWELL_BUCKET_LABELS`).  The dwell currently in progress is
        not counted until the next state change.
        """
        self.model._require(state_name)
        histogram = self._dwell_histograms.get(state_name)
        if histogram is None:
            return (0,) * (len(DWELL_BUCKETS_S) + 1)
        return tuple(histogram)

    def dwell_histograms(self) -> Dict[str, Tuple[int, ...]]:
        """All non-empty per-state dwell histograms, keyed by state name."""
        return {
            state: tuple(histogram)
            for state, histogram in sorted(self._dwell_histograms.items())
        }

    def time_in_state(self, state_name: str) -> float:
        """Total time spent *settled* in ``state_name`` (transitions excluded)."""
        self.model._require(state_name)
        total = self._state_durations.get(state_name, 0.0)
        if not self._in_transition and state_name == self._state:
            total += self.sim.now - self._last_state_change
        return total

    def current_power_w(self) -> float:
        """Instantaneous power draw."""
        return self._power_trace.value

    def __repr__(self) -> str:
        flag = " (transitioning)" if self._in_transition else ""
        return f"<Radio {self.name!r} state={self._state!r}{flag}>"
