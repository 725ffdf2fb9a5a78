"""Set-up probe: a fresh interpreter brought to the point of the first solve.

Imports gassolid (numpy and scipy come with it), builds the workload's
configurations from the seed and makes the one-off objects the first
solve needs: a stepper per pellet case and, for the bed, the factorized
segmented bulk solver.  Prints ``ready``; the parent times the interval
from process start to that line.  Then it times the benchmark's
reference work in this same process and prints its seconds, so that the
parent can scale the set-up time to the reference speed.

    python3 perfbench/setup_probe.py --workload packed_bed --seed 1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REFERENCE_REPEATS = 5  # after one warm-up call; the median is printed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import cases
    import numpy as np
    from gassolid import bed, config, core, steppers

    for case in cases.make_cases(args.workload, args.seed):
        cfg = config.config_from_entries(dict(case.entries))
        steppers.make_stepper(cfg.model, core.SpatialGrid(cfg.grid_n)).initial_state()
        if cfg.bed is not None:
            bed.SegmentedBulkSolver(cfg.bed, np.linspace(0.0, cfg.bed.bed_length, cfg.bed_n_eta),
                                    cfg.bed_n_segments)
    print("ready", flush=True)

    import statistics

    from run import reference_work

    reference_work()
    print(statistics.median(reference_work() for _ in range(REFERENCE_REPEATS)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
