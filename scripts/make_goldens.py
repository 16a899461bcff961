"""Regenerate the golden summary records behind the equivalence tests.

Runs every registered scenario at the pinned parameter sets and seeds in
``GOLDEN_CONFIGS`` and writes ``tests/build/golden/<scenario>.json``.
Each record is split in two ``dumps_strict`` strings per seed:

- ``records``: the behaviour fields of ``summary_record()`` (power,
  bytes, bursts, QoS, handoffs, ...), the contract refactors preserve;
- ``cost``: the :data:`~repro.core.outcome.COST_FIELDS` (``sim_events``),
  which count kernel work and may fall when the model needs fewer events.

Usage::

    python scripts/make_goldens.py              # rewrite everything
    python scripts/make_goldens.py --cost-only  # rewrite the cost section

``--cost-only`` first checks that every behaviour record (and the pinned
parameters) equals the file on disk; if any differs it names them,
writes nothing and exits 1.  Use it after a change that is meant to cut
events without changing behaviour.  Run the full rewrite only when a
scenario's *behaviour* is meant to change, never to paper over an
accidental determinism break.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.outcome import COST_FIELDS, VOLATILE_TIMING_FIELDS  # noqa: E402
from repro.exp import dumps_strict, get_scenario  # noqa: E402

GOLDEN_SEEDS = (0, 1)

#: scenario name -> pinned kwargs (JSON-serialisable; seeds added per run).
GOLDEN_CONFIGS = {
    "hotspot": {
        "n_clients": 2,
        "duration_s": 20.0,
        "bluetooth_quality_script": [[0.0, 1.0], [12.0, 0.2]],
    },
    "faulty-hotspot": {
        "n_clients": 2,
        "duration_s": 30.0,
        "outage_start_s": 8.0,
        "outage_duration_s": 10.0,
        "churn_clients": 1,
        "interference_rate_per_min": 2.0,
    },
    "unscheduled": {
        "interface": "wlan",
        "n_clients": 2,
        "duration_s": 15.0,
    },
    "psm-baseline": {
        "n_clients": 2,
        "duration_s": 15.0,
    },
    "psm-crossval": {
        "n_clients": 2,
        "duration_s": 10.0,
        "offered_load_bps": 96_000.0,
        "listen_interval": 2,
    },
    "unap-hotspot": {
        "n_clients": 3,
        "duration_s": 5.0,
    },
    "pamas": {
        "n_clients": 4,
        "duration_s": 60.0,
    },
    "ecmac": {
        "n_clients": 2,
        "duration_s": 10.0,
    },
    "fleet-hotspot": {
        "n_clients": 8,
        "n_aps": 3,
        "duration_s": 20.0,
    },
    "city-grid": {
        "n_clients": 12,
        "grid_rows": 2,
        "grid_cols": 2,
        "duration_s": 20.0,
    },
}


def golden_dir() -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(root, "tests", "build", "golden")


def split_record(record: dict):
    """``(behaviour, cost)`` strings of one deterministic summary record.

    The volatile wall-clock fields measure the host and are dropped.
    """
    behaviour = {
        k: v
        for k, v in record.items()
        if k not in VOLATILE_TIMING_FIELDS and k not in COST_FIELDS
    }
    cost = {k: record[k] for k in COST_FIELDS if k in record}
    return dumps_strict(behaviour), dumps_strict(cost)


def golden_payload(name: str, params: dict) -> dict:
    """Run one scenario at every golden seed; the file's JSON payload."""
    fn = get_scenario(name)
    records, cost = {}, {}
    for seed in GOLDEN_SEEDS:
        result = fn(**params, seed=seed)
        records[str(seed)], cost[str(seed)] = split_record(
            result.summary_record()
        )
    return {"scenario": name, "params": params, "records": records, "cost": cost}


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cost-only",
        action="store_true",
        help="rewrite only the cost section; exit 1 if any behaviour differs",
    )
    args = parser.parse_args(argv)
    out_dir = golden_dir()
    payloads = {
        name: golden_payload(name, params)
        for name, params in GOLDEN_CONFIGS.items()
    }
    if args.cost_only:
        drifted = []
        for name, payload in payloads.items():
            on_disk = _load(os.path.join(out_dir, f"{name}.json"))
            if on_disk is None:
                drifted.append(f"{name}: no golden on disk")
                continue
            if on_disk.get("params") != payload["params"]:
                drifted.append(f"{name}: pinned params differ")
            for seed, behaviour in payload["records"].items():
                if on_disk.get("records", {}).get(seed) != behaviour:
                    drifted.append(f"{name} seed {seed}: behaviour differs")
        if drifted:
            for line in drifted:
                print(line, file=sys.stderr)
            print("behaviour drifted; nothing written", file=sys.stderr)
            return 1
    os.makedirs(out_dir, exist_ok=True)
    for name, payload in payloads.items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
