"""Benchmark of the qudit-pair CLI, run from the repository root.

    python3 bench/run.py --workload exact-d129 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 15    # every workload, both modes
    python3 bench/run.py --self-test

Each workload runs in its own process with one BLAS thread. A closed loop
calls `quditpair.cli.main` in-process, one command after the previous one
returns, until the timed calls add up to --seconds. Rates and set-up times
are calibrated for the core's current speed (see canary.py). Every output row
is checked outside the timed region (see check.py). With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics (see spans.py). The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; a run that prints it exits 0, and `correct` says whether every
output passed its checks. `--workload all` and `--self-test` exit 1 if any
output fails. A tree without the package sources exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples slower than the reported tail value
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "rows_per_s": "1/s",
    "rows_per_s_tail": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    from spans import HOT, LAYERS

    units: dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.share": "ratio"})
    units.update({f"{hot}.self_s": "s" for hot in HOT})
    units.update({
        "evolution.bytes_computed": "B",
        "entanglement.reduced_density.flops_computed": "flop",
        "entanglement.closed.terms": "count",
        "entanglement.closed.useful_ratio": "ratio",
        "asymptotics.c2_out_of_range": "count",
        "trace_overhead": "ratio",
        "max_abs_err": "abs",
    })
    return units


def _call_main(argv: tuple[str, ...]) -> tuple[int, str, float, float]:
    """Run one command in-process; returns exit code, stdout, CPU and wall seconds."""
    from quditpair import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    return code, buf.getvalue(), cpu, wall


def _setup_seconds(argv: tuple[str, ...], probes: int) -> tuple[float, float]:
    """Median set-up time of fresh processes: calibrated, and raw CPU seconds."""
    from canary import slowness

    calibrated, raw = [], []
    for _ in range(probes):
        factor = slowness()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), *argv],
            capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        calibrated.append(raw[-1] / factor)
    return statistics.median(calibrated), statistics.median(raw)


def measure(workload, size, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """One run of a workload: metrics, gate counts and what was measured."""
    from canary import slowness
    from check import Gate
    from spans import Tracer

    passes = workload.make_passes(random.Random(seed), size)
    gate = Gate(random.Random(f"gate-{seed}"), workload.reservoir)
    tracer = Tracer()

    first = next(passes)
    setup_s, setup_raw_s = (None, None) if trace else _setup_seconds(first[0].argv, probes)

    def run_pass(commands, key, traced=False) -> tuple[float, float]:
        gc.collect()  # start from a collected heap, not from the gate's garbage
        cpu = wall = 0.0
        for i, command in enumerate(commands):
            with tracer if traced else contextlib.nullcontext():
                code, text, dt_cpu, dt_wall = _call_main(command.argv)
            cpu += dt_cpu
            wall += dt_wall
            gate.check((key, i, traced), command, code, text)
        return cpu, wall

    run_pass(first, "warm-up")  # lazy set-up inside numpy and scipy; checked, not timed
    cpu_rates, wall_rates, factors = [], [], [slowness()]
    untraced_cpu = traced_cpu = elapsed = 0.0
    n = 0
    while not cpu_rates or elapsed < seconds:
        commands = next(passes)
        rows = sum(c.rows for c in commands)
        cpu, wall = run_pass(commands, n)
        factors.append(slowness())
        cpu_rates.append(rows / cpu)
        wall_rates.append(rows / wall)
        untraced_cpu += cpu
        elapsed += wall
        if trace:
            cpu, wall = run_pass(commands, n, traced=True)
            traced_cpu += cpu
            elapsed += wall
        n += 1
    gate.finish()
    # each pass is calibrated by the kernel timed just before and just after it
    rates = [r * (a + b) / 2.0 for r, a, b in zip(cpu_rates, factors, factors[1:])]

    ordered = sorted(rates)
    tail_index = min(TAIL_BEYOND, len(ordered) - 1)
    info = {
        "passes": len(rates),
        "rows_per_pass": sum(c.rows for c in first),
        "tail": f"{tail_index} of {len(rates)} passes slower "
        f"(p{100.0 * (len(rates) - tail_index) / len(rates):.1f} of time per row)",
        "error_rate": gate.failed / gate.attempted,
        "max_abs_err": gate.max_abs_err,
        "c2_approx_out_of_range": len(gate.approx_out_of_range),
        "slowness": statistics.median(factors),
        "raw_rows_per_cpu_s": statistics.median(cpu_rates),
        "raw_rows_per_wall_s": statistics.median(wall_rates),
        "raw_setup_s": setup_raw_s,
    }
    if trace:
        metrics = tracer.metrics()
        metrics["asymptotics.c2_out_of_range"] = len(gate.approx_out_of_range)
        metrics["trace_overhead"] = traced_cpu / untraced_cpu - 1.0
        metrics["max_abs_err"] = gate.max_abs_err
    else:
        metrics = {
            "rows_per_s": statistics.median(rates),
            "rows_per_s_tail": ordered[tail_index],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "info": info,
        "tracer": tracer,
    }


def _run_meta(args) -> dict:
    import mpmath
    import numpy
    import scipy

    git_rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        git_rev = proc.stdout.strip() or git_rev
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_rev": git_rev, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
    }


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = measure(workload, workload.full, args.seed, args.seconds, bool(args.trace))
    info = result["info"]
    units = per_layer_units() if args.trace else END_TO_END
    meta = _run_meta(args)
    print(f"workload {workload.name}: {workload.why}")
    print(f"{info['passes']} passes of {info['rows_per_pass']} rows; tail = {info['tail']}")
    for name, value in result["metrics"].items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(f"{'error_rate':45s} {info['error_rate']:.6g} ({result['failed']}/{result['attempted']} rows failed)")
    print(f"{'max_abs_err (information)':45s} {info['max_abs_err']:.3g}")
    print(f"{'c2 approximation values outside [0, 1]':45s} {info['c2_approx_out_of_range']}")
    print(f"{'core slowness (median, 1 = reference)':45s} {info['slowness']:.4g}")
    print(f"{'uncalibrated rows per CPU s / per wall s':45s} "
          f"{info['raw_rows_per_cpu_s']:.6g} / {info['raw_rows_per_wall_s']:.6g}")
    if info["raw_setup_s"] is not None:
        print(f"{'uncalibrated setup_s':45s} {info['raw_setup_s']:.4g} s")
    print("meta " + json.dumps(meta, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    record = {k: result[k] for k in ("correct", "attempted", "failed", "metrics", "info")}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **record}, indent=1, sort_keys=True), encoding="utf-8")
    if args.trace:
        result["tracer"].write(OUT / f"{workload.name}-spans.json")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    from workloads import WORKLOADS

    units = {**END_TO_END, **per_layer_units()}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, check=False, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"error_rate={result['failed'] / result['attempted']:.3g} "
                  f"({result['failed']}/{result['attempted']} rows failed)")
            for line in lines[:2]:
                print("   " + line)
            for metric, entry in result["metrics"].items():
                print(f"   {metric:45s} {entry['value']:.6g} {units[metric]}")
    return 0 if ok else 1


def self_test() -> int:
    """A tiny pass of every workload in both modes, and corrupted-output checks."""
    from check import Gate
    from workloads import WORKLOADS

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from the metrics emitted")
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = measure(workload, workload.tiny, seed=1, seconds=0, trace=trace, probes=1)
            label = f"{workload.name} trace={int(trace)}"
            if not result["correct"] or result["failed"] or not result["attempted"]:
                problems.append(f"{label}: {result['failed']}/{result['attempted']} rows failed")
            expected = set(per_layer_units() if trace else END_TO_END)
            if set(result["metrics"]) != expected:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ expected)}")
            oracle_calls = result["metrics"].get("oracle.calls")
            if trace and (oracle_calls > 0) != (workload.name == "verify-d64"):
                problems.append(f"{label}: oracle.calls = {oracle_calls}")

    exact = WORKLOADS["exact-d129"]
    command = next(exact.make_passes(random.Random(1), exact.tiny))[0]
    code, text, _, _ = _call_main(command.argv)
    lines = text.splitlines()
    header = next(ln for ln in lines if not ln.startswith("#")).split(",")
    row = len(lines) - 2
    for columns, what in ((("f_closed",), "one value"), (("c2_exact", "c2_closed"), "both routes of one row")):
        fields = lines[row].split(",")
        for column in columns:
            i = header.index(column)
            fields[i] = repr(float(fields[i]) + 1e-6)
        corrupted = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:])
        gate = Gate(random.Random(0), reservoir_size=command.rows)
        gate.check("corrupt", command, code, corrupted)
        gate.finish()
        if gate.failed != 1:
            problems.append(f"corrupting {what} failed {gate.failed} rows, expected 1")

    for problem in problems:
        print("self-test: " + problem)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quditpair" / "cli.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
