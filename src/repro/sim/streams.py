"""Deterministic, named random-number streams.

Every stochastic model in the simulation (traffic arrivals, channel fades,
backoff draws, ...) pulls from its own named substream, so changing one
model's consumption pattern never perturbs another model's draws.  All
substreams derive deterministically from a single experiment seed.
"""

from __future__ import annotations

import random
from typing import Dict

#: Re-export of the stdlib generator class.  Code under ``repro`` must
#: obtain randomness through :class:`RandomStreams` substreams or this
#: alias (for annotations and explicitly-seeded fallbacks) — the lint
#: rule banning ``import random`` outside this module keeps unseeded
#: draws from silently breaking the determinism contract.
Random = random.Random


def stable_seed(seed: int, name: str) -> int:
    """Seed for the stream called ``name`` under master ``seed``.

    Stable across runs, interpreters and platforms, unlike ``hash(name)``,
    which Python salts per interpreter for ``str``.
    """
    for char in name:
        seed = (seed * 1000003 + ord(char)) % (2**63 - 1)
    return seed


class RandomStreams:
    """A factory of independent, reproducible :class:`random.Random` streams.

    Parameters
    ----------
    seed:
        Master experiment seed.  The same (seed, name) pair always yields
        an identically-seeded stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the substream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(stable_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on substream ``name``."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        """One draw from U[low, high) on substream ``name``."""
        return self.stream(name).uniform(low, high)

    def bernoulli(self, name: str, probability: float) -> bool:
        """One biased coin flip on substream ``name``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.stream(name).random() < probability

    def randint(self, name: str, low: int, high: int) -> int:
        """One integer draw from [low, high] inclusive on substream ``name``."""
        return self.stream(name).randint(low, high)

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={len(self._streams)}>"
