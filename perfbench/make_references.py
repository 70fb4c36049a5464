"""Regenerate ``references.json``, the stored outputs the benchmark checks.

Run from the repository root, on the commit whose outputs become the
reference (the commit is recorded):

    python3 perfbench/make_references.py

Takes a few minutes on two cores: 21 rank-joint evaluations (~5 s each),
one cross-check Monte Carlo pass over every ``mc_outage`` row at
``CROSS_CHECK_TRIALS`` trials, and one gate run at the benchmark's sizes.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from relaybench.environment import environment  # noqa: E402
from relaybench.workloads import (  # noqa: E402
    CELL,
    RATE,
    AnalyticCurves,
    Gate,
    McOutage,
    load_program,
    ref_key,
)

CROSS_CHECK_TRIALS = 20_000
CROSS_CHECK_SEED = 20261017
OUT = Path(__file__).resolve().parent / "references.json"


def main() -> int:
    root = Path.cwd()
    prog = load_program(root)
    mc, curves = McOutage(), AnalyticCurves()

    wanted = {(f, k, s) for f, k, s in curves.ops}
    for snr, strategy, k in mc.rows:
        wanted.add(("outage_exact_csi" if strategy == "exact" else "rank_joint", k, snr))
    values = {}
    for family, k, snr in sorted(wanted):
        radio = prog.RadioParams(snr_db=snr, target_rate=RATE, num_relays=k)
        t0 = time.perf_counter()
        if family == "outage_stat":
            value = prog.analytic.outage_stat(k, prog.cell, radio)
        elif family == "outage_exact_csi":
            value = prog.analytic.outage_exact_csi(prog.cell, radio, "quadrature")
        else:
            value = prog.validation.exact_ranked_outage(k, prog.cell, radio)
        values[ref_key(family, k, snr)] = float(value)
        print(f"{ref_key(family, k, snr)} = {value!r} ({time.perf_counter() - t0:.2f}s)", flush=True)

    # Independent evidence that each MC reference is the right yardstick.
    cross = []
    for snr, strategy, k in mc.rows:
        radio = prog.RadioParams(snr_db=snr, target_rate=RATE, num_relays=k)
        est = prog.montecarlo.estimate_outage(
            strategy, prog.cell, radio, CROSS_CHECK_TRIALS, CROSS_CHECK_SEED, workers=2
        )
        p0 = values[mc.reference_key(strategy, k, snr)]
        sd = math.sqrt(max(p0 * (1.0 - p0), 0.0) / CROSS_CHECK_TRIALS)
        z = (est.p_hat - p0) / sd if sd > 0 else 0.0
        cross.append({"row": f"{strategy}|k={k}|snr={snr:g}", "mc": est.p_hat, "ref": p0, "z": z})
        print(f"cross-check {cross[-1]}", flush=True)

    gate = Gate()
    results = prog.validation.run_all(**gate.prepare(0)[0])
    for res in results:
        print(res.line(), flush=True)

    env = environment(root)
    refs = {
        "provenance": {
            "commit": env["git_commit"],
            "source_sha256": env["source_sha256"],
            "python": env["python"],
            "numpy": env["numpy"],
            "generated_by": "perfbench/make_references.py",
        },
        "cell": CELL,
        "rate": RATE,
        "methods": {
            "outage_exact_csi": "analytic.outage_exact_csi(cell, radio, 'quadrature'): finite-cell void probability, default QuadratureSpec",
            "rank_joint": "validation.exact_ranked_outage(k, cell, radio): rank-joint outage, 3001-point trapezoid grid on [0, R + r_d]",
            "outage_stat": "analytic.outage_stat(k, cell, radio): product form, exact density, default specs",
        },
        "values": values,
        "mc_cross_check": {
            "trials": CROSS_CHECK_TRIALS,
            "seed": CROSS_CHECK_SEED,
            "workers": 2,
            "max_abs_z": max(abs(c["z"]) for c in cross),
            "rows": cross,
        },
        "gate": {
            "run_all": gate.prepare(0)[0],
            "verdicts": {res.name: bool(res.passed) for res in results},
            "details": {res.name: res.detail for res in results},
        },
    }
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
