"""Regenerate ``reference.json``: the behaviour records runs are checked against.

Usage: python3 perfbench/make_reference.py

Runs every workload once at each seed in ``SEEDS`` and stores its
``summary_record()`` less the cost fields.  Seed 0 is the presets'
default; seed 1 is held out from tuning.  Regenerate only when a change
is meant to alter the simulated behaviour, never to hide a difference.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import REFERENCE, run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)


def main():
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in SEEDS:
            child = run_child(workload, seed, False, 600.0)
            if child.error is not None:
                sys.exit(f"{workload} seed {seed}: {child.error}")
            reference[workload][str(seed)] = child.out["record"]
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
