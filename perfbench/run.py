"""relaygeom benchmark: run one workload (or all of them) and report metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_outage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs one traced body and reports the per-layer metrics. Timed end-to-end
metrics are scaled to a reference host speed (``relaybench/speed.py``).
Every run checks the program's outputs against ``references.json``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from relaybench import speed  # noqa: E402
from relaybench.environment import differences, environment  # noqa: E402
from relaybench.workloads import WORKLOADS, ProgramMissing, load_program, tally  # noqa: E402

REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"
#: End-to-end metrics and their units, as named in BENCHMARK.json.
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
#: Fresh-process set-ups per untraced run; setup_s is their median.
SETUP_PROBES = 7
#: Kernel runs behind the host-speed probe of each set-up process.
SETUP_PROBE_REPS = 5
PROBE_TIMEOUT_S = 120
#: Real time between host-speed probes inside a body (see relaybench.speed).
PROBE_INTERVAL_S = 0.5


def _setup(root: Path, name: str, seed: int):
    prog = load_program(root)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    workload = WORKLOADS[name]()
    inputs = workload.prepare(seed)
    return prog, refs, workload, inputs


def _probe_setup(root: Path, name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes: import, inputs and references.

    Host speed is probed here just before each process starts, and by the
    process right after its set-up; returns the set-up times scaled by the
    mean of the two, and the raw ones.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        setup_s, after = json.loads(out.stdout.strip().splitlines()[-1])
        scaled.append(setup_s * speed.NOMINAL_S / (0.5 * (before + after)))
        raw.append(setup_s)
    return scaled, raw


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"min {min(values):.4g}, q1 {q1:.4g}, q3 {q3:.4g}, max {max(values):.4g}"


def _report_ops(name: str, ops) -> None:
    for op in ops:
        if not op.ok:
            print(f"  OUTPUT CHECK FAILED {op.key}: {op.detail}")
    if name == "gate":
        red = [op.key for op in ops if not op.passed]
        print(
            f"  gate checks failed: {len(red)}/{len(ops)} (failed_frac {len(red) / max(len(ops), 1):.4f})"
            + (f": {', '.join(red)}" if red else "")
        )
        for op in ops:
            print(f"    {op.detail}")


def _save(record: dict, name: str, seed: int, trace: int) -> Path:
    path = OUT_DIR / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_untraced(root: Path, name: str, seed: int, seconds: float) -> dict:
    prog, refs, workload, inputs = _setup(root, name, seed)
    walls, cpus, raw_walls, raw_cpus, ops = [], [], [], [], []
    started = time.perf_counter()
    clock = speed.ReferenceClock(PROBE_INTERVAL_S)
    for body in range(workload.MAX_BODIES):
        clock.start()
        results = workload.run(prog, inputs[body])
        wall, cpu, raw_wall, raw_cpu = clock.stop()
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw_wall)
        raw_cpus.append(raw_cpu)
        ops.extend(workload.check(results, refs))
        # Stop before a body that would end past the budget, so a run takes
        # about max(seconds, one body) whatever the body size.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) > seconds:
            break
    measured_s = time.perf_counter() - started
    # Before the set-up probes, which are children too.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    setups, raw_setups = _probe_setup(root, name, seed)
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}
    raw = {"wall_s": raw_walls, "cpu_s": raw_cpus, "setup_s": raw_setups}
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_frac": tally(ops)[2],
    }
    counts = {"wall_s": len(walls), "cpu_s": len(cpus), "setup_s": len(setups), "peak_rss_mb": 1, "pass_frac": len(ops)}
    print(f"{name}: {len(walls)} bodies in {measured_s:.1f}s, seed {seed}")
    print(
        f"  times are at the reference speed: host-speed probes {_quartiles(clock.probes)} s"
        f" against {speed.NOMINAL_S} s nominal (n={len(clock.probes)})"
    )
    for key, value in metrics.items():
        extra = f" ({_quartiles(samples[key])})" if key in samples else ""
        label = f"median of {counts[key]}" if key in samples else f"n={counts[key]}"
        print(f"  {key} = {value:.6g} {E2E_UNITS[key]} [{label}]{extra}")
        if key in raw:
            print(f"    unscaled: median {statistics.median(raw[key]):.6g} {E2E_UNITS[key]} ({_quartiles(raw[key])})")
    _report_ops(name, ops)
    return {
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "samples": samples,
        "unscaled_samples": raw,
        "speed_probes_s": clock.probes,
        "ops": ops,
    }


def run_traced(root: Path, name: str, seed: int) -> dict:
    from relaybench.tracing import Tracer, install_program_spans, per_layer_metrics

    prog, refs, workload, inputs = _setup(root, name, seed)
    run_id = f"{name}-seed{seed}-pid{os.getpid()}"
    tracer = Tracer(run_id)
    # No probes inside the traced body, so that no span holds one: it is
    # scaled by the mean of the probes just before and after it.
    speed.kernel()
    before = speed.probe()
    with tracer:
        install_program_spans(tracer, prog)
        w0 = time.perf_counter()
        results = workload.run(prog, inputs[0])
        raw_wall = time.perf_counter() - w0
    wall = raw_wall * speed.NOMINAL_S / (0.5 * (before + speed.probe()))
    ops = workload.check(results, refs)
    check_names = sorted(refs["gate"]["verdicts"])
    check_seconds = {r.name: r.seconds for r in results} if isinstance(results, list) and name == "gate" else {}
    layer = per_layer_metrics(tracer, check_seconds, check_names, wall)
    spans_path = OUT_DIR / f"trace-{name}.npz"
    tracer.write(spans_path)
    print(f"{name} (traced): 1 body, {len(tracer.start)} spans written to {spans_path.relative_to(root)}")
    for key, (value, unit) in layer.items():
        print(f"  {key} = {value:.6g} {unit}")
    _report_ops(name, ops)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "samples": {"trace.wall_s": [wall]},
        "ops": ops,
    }


def _overhead(record: dict, name: str, seed: int) -> None:
    """Tracing overhead: traced wall_s minus the untraced wall_s of the
    same workload and seed, when that run is on record here."""
    path = OUT_DIR / "results" / f"{name}-seed{seed}-trace0.json"
    if not path.is_file():
        print(f"  tracing overhead: no untraced {name} run of seed {seed} on record")
        return
    base = json.loads(path.read_text(encoding="utf-8"))
    differ = differences(base["environment"], record["environment"])
    if differ:
        print(f"  tracing overhead: not compared, environments differ in {', '.join(differ)}")
        return
    traced = record["metrics"]["trace.wall_s"]["value"]
    untraced = base["metrics"]["wall_s"]["value"]
    print(f"  tracing overhead: {traced - untraced:+.3f} s ({traced:.3f} traced - {untraced:.3f} untraced wall_s)")
    record["tracing_overhead_s"] = traced - untraced


def run_one(root: Path, name: str, seed: int, seconds: float, trace: int) -> int:
    env = environment(root)
    print("environment: " + json.dumps(env, sort_keys=True))
    result = run_traced(root, name, seed) if trace else run_untraced(root, name, seed, seconds)
    ops = result.pop("ops")
    attempted, failed, _ = tally(ops)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops": [op.__dict__ for op in ops],
        **result,
    }
    if trace:
        _overhead(record, name, seed)
    print(f"  results saved to {_save(record, name, seed, trace).relative_to(root)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(root: Path, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{name} (trace {trace}) exited with code {out.returncode}", file=sys.stderr)
                return out.returncode
            last = json.loads(out.stdout.strip().splitlines()[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for key, metric in last["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    bench_file = HERE.parent / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text(encoding="utf-8")) if bench_file.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.setup_probe:
            _setup(root, args.workload, args.seed)
            setup_s = time.perf_counter() - T0
            # Two warm-up runs: a fresh process runs its first kernels slowly.
            speed.kernel()
            speed.kernel()
            print(json.dumps([setup_s, speed.probe(SETUP_PROBE_REPS)]))
            return 0
        if args.workload == "all":
            return run_all(root, args.seed, args.seconds)
        return run_one(root, args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
