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

Every configuration is timed in a fresh interpreter (this script
re-invoked with ``--child``), so imports, caches and the allocator start
cold for each one and the first configuration pays nothing the others
do not.  Shard counts are capped at ``os.cpu_count()``: more workers
than cores only measures the scheduler.

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
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.build import WorldBuilder
from repro.build.presets import city_grid_world
from repro.exp.jsonio import dumps_strict
from repro.shard import run_sharded_fleet

SHARD_COUNTS = (1, 4)
#: Keys of a point that choose its ``city_grid_world`` spec.
SPEC_KEYS = ("n_clients", "grid_rows", "grid_cols", "duration_s")
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


def capped_shard_counts(shard_counts):
    """``shard_counts`` without counts above the CPU count, in order."""
    cpus = os.cpu_count() or 1
    capped = []
    for shards in shard_counts:
        shards = min(shards, cpus)
        if shards not in capped:
            capped.append(shards)
    return tuple(capped)


def time_configuration(spec_args, shards):
    """One configuration, timed in a fresh interpreter.

    ``shards=0`` is the unsharded ``WorldBuilder(spec).run()``.  Returns
    the child's wall time and a digest of its merged payload (sharded
    runs only), plus the record fields the table shows.
    """
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--child",
            json.dumps(spec_args),
            str(shards),
        ],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _child(spec_args, shards):
    spec = city_grid_world(seed=0, **spec_args)
    started = time.perf_counter()
    if shards == 0:
        WorldBuilder(spec).run()
        result = {}
    else:
        merged = run_sharded_fleet(spec, shards=shards)
        record = merged["record"]
        result = {
            "digest": hashlib.sha256(
                dumps_strict(merged, sort_keys=True).encode()
            ).hexdigest(),
            "sim_events": record["sim_events"],
            "qos_maintained": record["qos_maintained"],
            "handoffs": record["handoffs"],
        }
    result["wall_time_s"] = time.perf_counter() - started
    print(json.dumps(result))


def run_shard_scaling(points=FLEET_POINTS, duration_s=None,
                      shard_counts=SHARD_COUNTS):
    shard_counts = capped_shard_counts(shard_counts)
    rows = []
    for point in points:
        spec_args = {key: point[key] for key in SPEC_KEYS}
        if duration_s:
            spec_args["duration_s"] = duration_s
        unsharded_s = time_configuration(spec_args, 0)["wall_time_s"]
        reference = None
        runs = []
        for shards in shard_counts:
            child = time_configuration(spec_args, shards)
            if reference is None:
                reference = child
            runs.append(
                {
                    "shards": shards,
                    "wall_time_s": child["wall_time_s"],
                    "identical": child["digest"] == reference["digest"],
                }
            )
        base = runs[0]["wall_time_s"]
        widest = runs[-1]["wall_time_s"]
        rows.append(
            {
                "scenario": point["scenario"],
                "n_clients": point["n_clients"],
                "n_aps": point["grid_rows"] * point["grid_cols"],
                "sim_duration_s": spec_args["duration_s"],
                "sim_events": reference["sim_events"],
                "qos_maintained": reference["qos_maintained"],
                "handoffs": reference["handoffs"],
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
        help="comma-separated shard counts to compare, each capped at "
        "the CPU count (default: 1,4)",
    )
    parser.add_argument(
        "--child",
        nargs=2,
        metavar=("SPEC_JSON", "SHARDS"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RECORD_PATH,
        metavar="FILE",
        help="where to write the BENCH_shard.json record",
    )
    args = parser.parse_args(argv)
    if args.child:
        _child(json.loads(args.child[0]), int(args.child[1]))
        return 0
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
