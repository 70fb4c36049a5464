"""Self-tests of the benchmark harness (not of relaygeom itself).

Small versions of the workloads keep these to a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from relaybench import speed, tracing  # noqa: E402
from relaybench.workloads import WORKLOADS, AnalyticCurves, Gate, McOutage, load_program, tally  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return load_program(ROOT)


@pytest.fixture(scope="module")
def refs():
    return json.loads(run.REFERENCES.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_match_benchmark_json(bench, refs):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    empty = tracing.per_layer_metrics(tracing.Tracer("names"), {}, sorted(refs["gate"]["verdicts"]), 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in empty.items()}
    assert bench["command"] == ["python3", "perfbench/run.py"] and bench["paths"] == ["perfbench"]
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25


def test_corrupted_reference_raises_failed_frac(prog, refs):
    mc = McOutage(snr_db=(15.0,), ks=(1,), trials=300)
    curves = AnalyticCurves(snr_db=(30.0,), ks=(1,), rank_joint_snr_db=())
    mc_results = mc.run(prog, mc.prepare(3)[0])
    curve_results = curves.run(prog, curves.prepare(3)[0])
    assert tally(mc.check(mc_results, refs))[1:] == (0, 1.0)
    assert tally(curves.check(curve_results, refs))[1:] == (0, 1.0)

    bad = copy.deepcopy(refs)
    bad["values"]["outage_exact_csi|k=1|snr=15"] = 0.9  # true value ~0.123
    bad["values"]["outage_stat|k=1|snr=30"] *= 1.001
    attempted, failed, pass_frac = tally(mc.check(mc_results, bad))
    assert failed == 1 and pass_frac < 1.0, (attempted, failed)
    attempted, failed, pass_frac = tally(curves.check(curve_results, bad))
    assert failed == 1 and pass_frac < 1.0, (attempted, failed)


def test_gate_verdict_must_match_record(prog, refs):
    CheckResult = prog.validation.CheckResult
    results = [CheckResult(name, passed, "", 0.1) for name, passed in refs["gate"]["verdicts"].items()]
    ops = Gate().check(results, refs)
    attempted, failed, pass_frac = tally(ops)
    red = [op.key for op in ops if not op.passed]
    assert failed == 0 and red == ["stat_csi_outage_mc_vs_analytic"] and pass_frac == 8 / 9
    flipped = [CheckResult(r.name, not r.passed, "", r.seconds) if r.name == "mean_count_curves" else r for r in results]
    assert tally(Gate().check(flipped, refs))[1] == 1


def _traced_counts(prog):
    curves = AnalyticCurves(snr_db=(20.0,), ks=(1,), rank_joint_snr_db=())
    tracer = tracing.Tracer("repeat")
    with tracer:
        tracing.install_program_spans(tracer, prog)
        curves.run(prog, curves.prepare(0)[0])
    layer = tracing.per_layer_metrics(tracer, {}, [], 0.0)
    return {k: layer[k][0] for k in ("quadrature.integrate_1d.calls", "quadrature.integrand_points", "specials.erfcx.elements")}


def test_traced_counts_repeat_exactly(prog):
    originals = (prog.analytic.integrate_1d, prog.analytic.erfcx, prog.montecarlo.estimate_outage, prog.cli.main)
    first, second = _traced_counts(prog), _traced_counts(prog)
    assert first == second
    assert all(v > 0 for v in first.values())
    # The wrappers are gone once the traced block ends.
    assert (prog.analytic.integrate_1d, prog.analytic.erfcx, prog.montecarlo.estimate_outage, prog.cli.main) == originals


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_outage", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_reference_clock_scales_and_disarms():
    handler = signal.getsignal(signal.SIGALRM)
    clock = speed.ReferenceClock(0.1)
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        pass
    wall, cpu, raw_wall, raw_cpu = clock.stop()
    elapsed = time.perf_counter() - t0
    assert len(clock.probes) >= 4  # start, stop and at least two alarms
    # Probe time is left out of the body's time.
    assert 0.25 < raw_wall < elapsed - 2 * min(clock.probes)
    assert raw_cpu == pytest.approx(raw_wall, rel=0.2)
    assert wall == pytest.approx(raw_wall * speed.NOMINAL_S / statistics.median(clock.probes), rel=0.5)
    assert cpu / raw_cpu == pytest.approx(wall / raw_wall)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
