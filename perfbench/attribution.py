"""Group a ``cProfile`` run by ``repro`` layer.

A layer is a subpackage of ``repro`` (``repro/<layer>/...``).  A
function's self time is charged to the layer of the file that defines it.
A function defined outside ``repro`` (a builtin, ``heapq``, the stdlib)
is charged to its callers instead, split along the caller edges
``cProfile`` records: each edge carries the callee's self time spent on
calls from that caller.  When that caller is itself outside ``repro``,
its share is split again by where its own calls came from, weighted by
the cumulative time of each of its caller edges.

``calls_in`` counts calls that enter a layer from code charged to another
layer.  The kernel resumes a generator through the builtin
``generator.send``, which ``cProfile`` records as a call of the generator
function, so each resumption of a layer's process counts as one call.
"""

from __future__ import annotations

import os
from collections import defaultdict

#: Repro code outside the measured layers (metrics, devices, obs, ...).
OTHER_REPRO = "repro.other"
#: Time with no repro function on its call path: the benchmark itself.
OUTSIDE = "outside"


def layer_of_files(stats, package_dir, layers):
    """Function key -> layer name, ``OTHER_REPRO``, or None if not repro."""
    prefix = os.path.join(os.path.abspath(package_dir), "")
    out = {}
    for key in stats:
        filename = key[0]
        if not filename.startswith(prefix):
            out[key] = None
            continue
        head, sep, _ = filename[len(prefix):].partition(os.sep)
        out[key] = head if sep and head in layers else OTHER_REPRO
    return out


class _Shares:
    """Where the invocations of functions outside repro come from.

    ``of(key)`` maps bucket -> fraction for a function outside repro,
    weighting each caller edge by ``edge[index]`` (0: call count,
    3: cumulative time) and falling back to call counts when every
    weight is zero.
    """

    def __init__(self, stats, layer, index):
        self.stats = stats
        self.layer = layer
        self.index = index
        self.memo = {}
        self.active = set()

    def of(self, key):
        if key in self.memo:
            return self.memo[key]
        if key in self.active:  # recursion outside repro: no new information
            return {}
        self.active.add(key)
        callers = self.stats[key][4]
        acc = self._accumulate(callers, self.index)
        if not acc and self.index != 0:
            acc = self._accumulate(callers, 0)
        self.active.discard(key)
        total = sum(acc.values())
        share = {b: w / total for b, w in acc.items()} if total > 0 else {OUTSIDE: 1.0}
        self.memo[key] = share
        return share

    def _accumulate(self, callers, index):
        acc = defaultdict(float)
        for caller, edge in callers.items():
            weight = edge[index]
            if weight <= 0:
                continue
            bucket = self.layer[caller]
            if bucket is not None:
                acc[bucket] += weight
                continue
            for b, frac in self.of(caller).items():
                acc[b] += weight * frac
        return acc


def attribute(stats, package_dir, layers):
    """Per-layer self time and inbound calls of one profile.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``key -> (primitive calls, calls, self time, cumulative time,
    {caller key: (calls, primitive calls, self time, cumulative time)})``.

    Returns ``self_s`` and ``calls_in`` keyed by layer, the leftover
    ``other_repro_s`` and ``outside_s``, the profiler's ``total_s`` (the
    sum of every function's self time), and ``sum_ok``: whether the
    buckets add up to that total.
    """
    layer = layer_of_files(stats, package_dir, layers)
    time_share = _Shares(stats, layer, 3)
    call_share = _Shares(stats, layer, 0)
    self_s = defaultdict(float)
    calls_in = defaultdict(float)
    total = 0.0
    for key, (_, _, tt, _, callers) in stats.items():
        total += tt
        bucket = layer[key]
        if bucket is not None:
            self_s[bucket] += tt
            for caller, edge in callers.items():
                source = layer[caller]
                if source is None:
                    calls_in[bucket] += edge[0] * (1.0 - call_share.of(caller).get(bucket, 0.0))
                elif source != bucket:
                    calls_in[bucket] += edge[0]
            continue
        rest = tt
        for caller, edge in callers.items():
            rest -= edge[2]
            source = layer[caller]
            if source is not None:
                self_s[source] += edge[2]
                continue
            for b, frac in time_share.of(caller).items():
                self_s[b] += edge[2] * frac
        self_s[OUTSIDE] += rest
    accounted = sum(self_s.values())
    return {
        "self_s": {name: self_s.get(name, 0.0) for name in layers},
        "calls_in": {name: int(round(calls_in.get(name, 0.0))) for name in layers},
        "other_repro_s": self_s.get(OTHER_REPRO, 0.0),
        "outside_s": self_s.get(OUTSIDE, 0.0),
        "total_s": total,
        "sum_ok": abs(accounted - total) <= 1e-6 * max(total, 1e-9),
    }


def calls_of(stats, key, excluding_callers=()):
    """Calls of one function, less those made by the given callers."""
    entry = stats.get(key)
    if entry is None:
        return 0
    callers = entry[4]
    return entry[1] - sum(callers[c][0] for c in excluding_callers if c in callers)
