"""Benchmark for besselwave: time to a verified result, set-up, memory and per-layer spans.

    python3 perfbench/run.py --workload spectral_build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
process times a fresh import of the program and the set-up of its inputs
five times each (the sum of the medians is `setup_s`), then
runs whole rounds of its workload's operations until --seconds have passed,
checking every output after the round against an independent reference.
Every time reported is scaled to a host of reference speed by fixed
kernels timed around it (see hostspeed.py), so that the drift of a shared
host does not read as a change of the program.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
alternates untraced and traced rounds and reports the per-layer metrics,
the tracing overhead among them, and writes every span to
.bench_out/spans-<workload>.npz.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread: the dense eigensolvers spread widely with two
# threads on a shared two-core machine.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# The host-speed kernels run before an operation once this much operation
# time has passed since they last ran, and after every round.
GAUGE_INTERVAL_S = 0.1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one set-up and one round, whatever --seconds says")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "besselwave" / "__init__.py").is_file():
        print(f"perfbench: no besselwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import statistics
    import json
    import resource
    import traceback

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import besselwave
    import workloads
    from hostspeed import SpeedGauge
    from tracer import Tracer, per_layer_metrics

    if Path(besselwave.__file__).resolve().parent != ROOT / "src" / "besselwave":
        print(f"perfbench: imported besselwave from {besselwave.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - PROCESS_START
    setup = workloads.WORKLOADS[args.workload]

    # Set-up is the import plus the inputs; both are repeated and the medians
    # summed, since one import is one noisy sample.
    gauge = SpeedGauge(workloads.GAUGES[args.workload])
    repeats = 1 if args.smoke else SETUP_REPEATS
    import_times, setup_times = [], []
    for _ in range(repeats):
        gauge.sample()
        seconds = _fresh_import_seconds()
        gauge.sample()
        import_times.append(seconds * gauge.factor())
    for _ in range(repeats):
        gauge.sample()
        t0 = perf_counter()
        ops = setup(args.seed)
        seconds = perf_counter() - t0
        gauge.sample()
        setup_times.append(seconds * gauge.factor())

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        setup(args.seed)  # one traced set-up: its spans are unit 0
        tracer.uninstall()

    durations, untraced_walls, traced_walls, raw_walls, factors = [], [], [], [], []
    attempted = failed = 0
    correct = True
    reported = set()
    started = perf_counter()
    round_no = 0
    while True:
        round_no += 1
        traced = bool(tracer) and round_no % 2 == 0
        if traced:
            tracer.unit = round_no
            tracer.install()
        results, round_durations = [], []
        since_gauge = GAUGE_INTERVAL_S
        for op in ops:
            if since_gauge >= GAUGE_INTERVAL_S:
                gauge.sample()
                since_gauge = 0.0
            t0 = perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed operation
                out, error = None, exc
            round_durations.append(perf_counter() - t0)
            since_gauge += round_durations[-1]
            results.append((op, out, error))
        gauge.sample()
        factor = gauge.factor()
        factors.append(factor)
        raw_walls.append(sum(round_durations))
        durations += [dt * factor for dt in round_durations]
        wall = sum(round_durations) * factor
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            untraced_walls.append(wall)
        for op, out, error in results:
            attempted += 1
            if error is not None:
                problem = "".join(traceback.format_exception_only(type(error), error)).strip()
            else:
                problem = op.check(out)
            if problem is not None:
                failed += 1
                if not op.known_fault:
                    correct = False
                if op.name not in reported:
                    reported.add(op.name)
                    tag = "known fault" if op.known_fault else "WRONG"
                    print(f"# {tag}: {op.name}: {problem}", file=sys.stderr)
        del results
        elapsed = perf_counter() - started
        if args.smoke and (not tracer or traced_walls):
            break
        if not args.smoke and elapsed >= args.seconds and (not tracer or traced_walls):
            break

    rounds = len(untraced_walls) + len(traced_walls)
    print(f"# workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} rounds={rounds} "
          f"ops_per_round={len(ops)} op_samples={len(durations)} setup_repeats={len(setup_times)} "
          f"import_s={import_s:.4f} host_factor={statistics.median(factors):.4f} "
          f"unscaled_wall_s={statistics.median(raw_walls):.4f} kernel_factors="
          + ",".join(f"{k}:{statistics.median(v):.4f}" for k, v in gauge.history.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if tracer:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in per_layer_metrics(tracer, traced_walls, untraced_walls).items()}
        out_dir = ROOT / ".bench_out"
        tracer.write(out_dir / f"spans-{args.workload}.npz")
    else:
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(untraced_walls),
            "op_p50_ms": 1e3 * statistics.median(durations),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _fresh_import_seconds() -> float:
    """Seconds for a new interpreter to start and import besselwave from this checkout."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import besselwave"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
