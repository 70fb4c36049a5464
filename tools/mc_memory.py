"""Wall time, peak RSS and minor page faults of a Monte Carlo body.

The default body, ``outage``, is the shape of perfbench's ``mc_outage``
workload: one ``montecarlo.estimate_outage`` call per row, on one worker, on
the default cell at rate 1, for exact CSI and for statistical CSI with
k = 1, 2, 3 at 0, 5, ..., 30 dB (28 rows), ``--trials`` (default 1000)
trials per row. Row ``i`` uses seed ``i``.

The ``gate_pass`` body is the Monte Carlo pass of ``validation.run_all``:
one serial ``montecarlo.run_requests`` call at seed 42 with its three
requests, the 25-row outage grid of criteria 3 and 4 at ``--trials``
(default 10000) trials, criterion 6's k-th distances at two fifths and
criterion 7's mean counts at a tenth of that (4000 and 1000 at the
default, the sizes of perfbench's ``gate``). ``rows`` counts the grid's
rows.

The ``gate`` body is perfbench's ``gate`` workload: one ``validation.run_all``
call at seed 42 on 2 workers, at ``--trials`` (default 10000) trials and the
same fractions for criteria 6 and 7 as ``gate_pass``. ``rows`` counts its
outage grid's rows.

The body runs ``--bodies`` times in this process, on this checkout's
``src``. The output is one JSON line: the median wall time of a body, the
median CPU time of a body, this process's and its reaped children's, the
process's peak RSS (``ru_maxrss``) in MB, the largest peak RSS of its reaped
children (0 when it started none) and the median number of minor page
faults per body (``ru_minflt``, this process only). The allocator's reuse
of freed memory shows in the faults, which perfbench does not record.
Standard library and numpy only; Linux reports ``ru_maxrss`` in KiB.

Usage: ``python tools/mc_memory.py [--body outage|gate_pass|gate] [--bodies N] [--trials T]``
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


def _outage_body(trials: int):
    """The rows of the ``outage`` body and the body itself."""
    from relaygeom import montecarlo, validation
    from relaygeom.model import RadioParams

    rows = [
        (strategy, RadioParams(snr_db=snr, target_rate=validation.DEFAULT_RATE, num_relays=k))
        for snr in SNR_DB
        for strategy, k in (("exact", 1), ("stat", 1), ("stat", 2), ("stat", 3))
    ]

    def body() -> None:
        for i, (strategy, radio) in enumerate(rows):
            montecarlo.estimate_outage(strategy, validation.DEFAULT_CELL, radio, trials, i, workers=1)

    return rows, body


def _gate_pass_body(trials: int):
    """The grid rows of the ``gate_pass`` body and the body itself."""
    from relaygeom import montecarlo, validation

    cell, theta = validation.DEFAULT_CELL, validation.THETA_15DB
    rows = validation._EXACT_CSI_ROWS + validation._STAT_CSI_ROWS
    requests = [
        montecarlo.OutageGridRequest(cell, rows, trials),
        montecarlo.KthDistancesRequest(cell, theta, validation.K_MAX, max(1, 2 * trials // 5)),
        montecarlo.MeanCountRequest(validation._MEAN_COUNT_RADII, cell, theta, max(1, trials // 10)),
    ]
    return rows, lambda: montecarlo.run_requests(requests, 42, workers=1)


def _gate_body(trials: int):
    """The grid rows of the ``gate`` body and the body itself."""
    from relaygeom import validation

    sizes = {"samples": max(1, 2 * trials // 5), "mean_count_trials": max(1, trials // 10)}
    rows = validation._EXACT_CSI_ROWS + validation._STAT_CSI_ROWS
    return rows, lambda: validation.run_all(trials, **sizes, seed=42, workers=2)


#: Each body's builder and its default trial count.
BODIES = {
    "outage": (_outage_body, 1000),
    "gate_pass": (_gate_pass_body, 10000),
    "gate": (_gate_body, 10000),
}


def _cpu_s() -> float:
    """CPU seconds so far of this process and its reaped children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def measure(bodies: int, trials: int, body: str = "outage") -> dict:
    """Run ``bodies`` runs of ``body`` at ``trials`` trials; see the module text."""
    rows, run = BODIES[body][0](trials)
    walls, cpus, faults = [], [], []
    for _ in range(bodies):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cpu0, t0 = _cpu_s(), time.perf_counter()
        run()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {
        "bodies": bodies,
        "rows": len(rows),
        "trials": trials,
        "wall_s_median": statistics.median(walls),
        "cpu_s_median": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "minor_faults_per_body": statistics.median(faults),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--body", choices=sorted(BODIES), default="outage", help="body to run (default: outage)")
    parser.add_argument("--bodies", type=int, default=5, help="bodies to run (default: 5)")
    parser.add_argument(
        "--trials", type=int, help="trials per row (default: 1000 for outage, 10000 for gate_pass and gate)"
    )
    args = parser.parse_args(argv)
    trials = BODIES[args.body][1] if args.trials is None else args.trials
    if args.bodies < 1 or trials < 1:
        parser.error("--bodies and --trials must be >= 1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(measure(args.bodies, trials, args.body)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
