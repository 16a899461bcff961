"""Sharded fleet scaling — wall-clock speedup and byte-identity by shard count.

The city-scale headline behind ``repro.shard``: partitioning a
``city-grid`` fleet into per-cell worlds must (a) produce **byte
identical** merged results at every shard count — ``--shards`` chooses
process placement, never behaviour — and (b) buy wall-clock speedup on
multi-core machines.  Every point runs the same ``FleetSpec`` at each
shard count, compares the ``dumps_strict`` payloads, and records the
speedup of the widest run over ``shards=1``.  Each point also times one
unsharded ``WorldBuilder(spec).run()`` of the same spec and records the
widest run's speedup over it (``speedup_vs_unsharded``), the baseline
that says whether sharding pays at all.

Results land in ``benchmarks/BENCH_shard.json``;
``scripts/check_bench.py`` gates CI on the identity bit always and on
the >=2x speedup of the gate point only when the machine actually has
>= 4 CPUs (a single-core container cannot exhibit parallel speedup).

Runs two ways:

- ``pytest benchmarks/bench_shard.py`` — the pytest-benchmark wrapper,
  like every other bench module;
- ``python benchmarks/bench_shard.py [--point NAME] [--duration S]
  [--out FILE]`` — direct invocation for ci.sh.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.build import WorldBuilder
from repro.build.presets import city_grid_world
from repro.exp.jsonio import dumps_strict
from repro.shard import run_sharded_fleet

SHARD_COUNTS = (1, 4)
#: The two headline deployments: the gated 1k point (dense enough to
#: parallelise, small enough for CI) and the 10k-walker city block.
FLEET_POINTS = (
    {
        "scenario": "city-grid-1k",
        "n_clients": 1_000,
        "grid_rows": 6,
        "grid_cols": 6,
        "duration_s": 10.0,
        "gate": True,
    },
    {
        "scenario": "city-grid-10k",
        "n_clients": 10_000,
        "grid_rows": 17,
        "grid_cols": 17,
        "duration_s": 5.0,
        "gate": False,
    },
)
RECORD_PATH = Path(__file__).resolve().parent / "BENCH_shard.json"


def run_shard_scaling(points=FLEET_POINTS, duration_s=None,
                      shard_counts=SHARD_COUNTS):
    rows = []
    for point in points:
        sim_duration = duration_s or point["duration_s"]
        spec = city_grid_world(
            n_clients=point["n_clients"],
            grid_rows=point["grid_rows"],
            grid_cols=point["grid_cols"],
            duration_s=sim_duration,
            seed=0,
        )
        started = time.perf_counter()
        WorldBuilder(spec).run()
        unsharded_s = time.perf_counter() - started
        reference = None
        runs = []
        for shards in shard_counts:
            started = time.perf_counter()
            merged = run_sharded_fleet(spec, shards=shards)
            wall_s = time.perf_counter() - started
            payload = dumps_strict(merged, sort_keys=True)
            if reference is None:
                reference = payload
            runs.append(
                {
                    "shards": shards,
                    "wall_time_s": wall_s,
                    "identical": payload == reference,
                }
            )
        base = runs[0]["wall_time_s"]
        widest = runs[-1]["wall_time_s"]
        record = merged["record"]
        rows.append(
            {
                "scenario": point["scenario"],
                "n_clients": point["n_clients"],
                "n_aps": point["grid_rows"] * point["grid_cols"],
                "sim_duration_s": sim_duration,
                "sim_events": record["sim_events"],
                "qos_maintained": record["qos_maintained"],
                "handoffs": record["handoffs"],
                "identical": all(r["identical"] for r in runs),
                "runs": runs,
                "speedup": base / widest if widest > 0 else 0.0,
                "unsharded_wall_time_s": unsharded_s,
                "speedup_vs_unsharded": (
                    unsharded_s / widest if widest > 0 else 0.0
                ),
                "gate": point["gate"],
            }
        )
    return rows


def write_record(rows, path=RECORD_PATH):
    path.write_text(
        json.dumps(
            {
                "bench": "shard",
                "cpu_count": os.cpu_count(),
                "python": sys.version.split()[0],
                "points": rows,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def render_rows(rows):
    from repro.metrics import format_table

    body = []
    for row in rows:
        walls = {r["shards"]: r["wall_time_s"] for r in row["runs"]}
        body.append(
            [
                row["scenario"],
                row["n_clients"],
                row["n_aps"],
                row["sim_events"],
                f"{row['unsharded_wall_time_s']:.1f}s",
                " / ".join(
                    f"{walls[s]:.1f}s@{s}" for s in sorted(walls)
                ),
                f"{row['speedup']:.2f}x",
                f"{row['speedup_vs_unsharded']:.2f}x",
                "yes" if row["identical"] else "NO",
            ]
        )
    return format_table(
        ["point", "clients", "APs", "events", "unsharded", "wall by shards",
         "speedup", "vs unsharded", "identical"],
        body,
        title=f"Sharded fleet scaling ({os.cpu_count()} CPUs)",
    )


def test_bench_shard_scaling(benchmark, emit):
    from conftest import run_once

    # CI-sized: the 1k gate point only, trimmed simulated stretch.  The
    # identity contract is what the suite asserts; speedup needs real
    # cores and is judged by check_bench.py against the full record.
    rows = run_once(
        benchmark, run_shard_scaling, points=FLEET_POINTS[:1], duration_s=5.0
    )
    write_record(rows)
    emit(render_rows(rows))
    for row in rows:
        assert row["identical"], f"{row['scenario']} diverged across shards"
        assert row["sim_events"] > 0
        assert row["qos_maintained"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--point",
        choices=[p["scenario"] for p in FLEET_POINTS],
        help="run a single point instead of all of them",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the simulated seconds of every point",
    )
    parser.add_argument(
        "--shards",
        type=lambda v: tuple(int(x) for x in v.split(",")),
        default=SHARD_COUNTS,
        metavar="N,M",
        help="comma-separated shard counts to compare (default: 1,4)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RECORD_PATH,
        metavar="FILE",
        help="where to write the BENCH_shard.json record",
    )
    args = parser.parse_args(argv)
    points = FLEET_POINTS
    if args.point:
        points = tuple(p for p in FLEET_POINTS if p["scenario"] == args.point)
    rows = run_shard_scaling(points, args.duration, args.shards)
    write_record(rows, args.out)
    print(render_rows(rows))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
