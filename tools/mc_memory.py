"""Wall time, peak RSS and minor page faults of the Monte Carlo outage body.

One body is the shape of perfbench's ``mc_outage`` workload: one
``montecarlo.estimate_outage`` call per row, on one worker, on the default
cell at rate 1, for exact CSI and for statistical CSI with k = 1, 2, 3 at
0, 5, ..., 30 dB (28 rows). Row ``i`` uses seed ``i``. The body runs
``--bodies`` times in this process, on this checkout's ``src``. The output
is one JSON line: the median wall time of a body, the process's peak RSS
(``ru_maxrss``) in MB and the median number of minor page faults per body
(``ru_minflt``). The allocator's reuse of freed memory shows in the faults,
which perfbench does not record. Standard library and numpy only; Linux
reports ``ru_maxrss`` in KiB.

Usage: ``python tools/mc_memory.py [--bodies N] [--trials T]``
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


def measure(bodies: int, trials: int) -> dict:
    """Run ``bodies`` bodies of ``trials`` trials per row; see the module text."""
    from relaygeom import montecarlo, validation
    from relaygeom.model import RadioParams

    rows = [
        (strategy, RadioParams(snr_db=snr, target_rate=validation.DEFAULT_RATE, num_relays=k))
        for snr in SNR_DB
        for strategy, k in (("exact", 1), ("stat", 1), ("stat", 2), ("stat", 3))
    ]
    walls, faults = [], []
    for _ in range(bodies):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        for i, (strategy, radio) in enumerate(rows):
            montecarlo.estimate_outage(strategy, validation.DEFAULT_CELL, radio, trials, i, workers=1)
        walls.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {
        "bodies": bodies,
        "rows": len(rows),
        "trials": trials,
        "wall_s_median": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "minor_faults_per_body": statistics.median(faults),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bodies", type=int, default=5, help="bodies to run (default: 5)")
    parser.add_argument("--trials", type=int, default=1000, help="trials per row (default: 1000)")
    args = parser.parse_args(argv)
    if args.bodies < 1 or args.trials < 1:
        parser.error("--bodies and --trials must be >= 1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(measure(args.bodies, args.trials)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
