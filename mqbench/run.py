"""mqinfo benchmark.

    python3 mqbench/run.py --workload report-n12 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  ``--trace 0`` times the workload untraced and prints the
end-to-end metrics; ``--trace 1`` runs it untraced for half the time, replays
the same operations with every layer traced, and prints the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload in
turn.  Human-readable lines come first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when the run completed, also when outputs were wrong (see "correct"),
and 2 when the checkout or the arguments are unusable.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric names and units, as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# the names mqbench/README.md also gives some (workload, metric) pairs
ALIASES = {
    ("report-n12", "op_s_p50"): "report_s_p50",
    ("report-n12", "op_s_tail"): "report_s_tail",
    ("fuzz-n4", "items_per_s"): "fuzz_states_per_s.n4",
    ("fuzz-n8", "items_per_s"): "fuzz_states_per_s.n8",
    ("mixed-m2to5", "items_per_s"): "mixed_states_per_s",
    ("oracle-n6", "items_per_s"): "oracle_tables_per_s",
}
LAYER_NAMES = ("statekit", "reduction", "pauli", "measures", "identities", "cli")


def fail(message):
    print(f"mqbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import mqinfo from this checkout's src/, never from anywhere else."""
    if not (SRC / "mqinfo" / "__init__.py").is_file():
        fail(f"no mqinfo sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mqinfo

    if not Path(mqinfo.__file__).resolve().is_relative_to(SRC):
        fail(f"mqinfo was imported from {mqinfo.__file__}, not from {SRC}")
    return mqinfo


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(mqinfo, seed):
    import numpy as np

    kernels = sys.modules.get("mqinfo._kernels")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "mqinfo": getattr(mqinfo, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(kernels, "BACKEND", None),
        "seed": seed,
    }


def setup_seconds(workload, tally):
    """Calibrated median wall time of a fresh process that imports mqinfo and
    makes one warm-up call, over SETUP_REPEATS processes."""
    from workloads import Reference

    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import mqinfo\n"
        "from mqinfo.cli import main\n"
        f"{workload.warmup}\n"
    )
    ref = Reference()
    before = ref.seconds()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        after = ref.seconds()
        times.append(elapsed * ref.factor(before, after))
        before = after
        tally.check(proc.returncode == 0, f"set-up process exit code {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With ten samples or fewer there is none, and the maximum is returned.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(name, workload, seed, seconds, tally, workdir, lines):
    from workloads import measure

    setup = setup_seconds(workload, tally)
    results = measure(workload, seed, seconds, workdir, tally)
    raw = [t for t, _, _ in results]
    times = [calibrated for _, calibrated, _ in results]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": setup,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "items_per_s": workload.items * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_headroom_log10": tally.headroom_log10(),
    }
    notes = {
        "op_s_p50": f"median of {len(times)} operations; raw wall-clock median {statistics.median(raw):.6g} s",
        "op_s_tail": f"p{tail_pct:.0f} of {len(times)} operations; raw {tail(raw)[0]:.6g} s",
        "items_per_s": f"{workload.item}s per second, {workload.items} per operation",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "residual_headroom_log10": f"median over operations; max |residual| {tally.max_residual:.3e}",
    }
    for key, value in metrics.items():
        alias = ALIASES.get((name, key))
        note = "; ".join(filter(None, [notes.get(key), alias and f"= {alias}"]))
        lines.append(f"  {key:<26} {value:>14.6g} {END_TO_END_UNITS[key]:<8} {note}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(name, workload, seed, seconds, tally, workdir, lines):
    from spans import Tracer
    from workloads import measure

    untraced = measure(workload, seed, seconds / 2, workdir, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, seed, seconds / 2, workdir, tally, tracer=tracer, count=len(untraced))
    finally:
        tracer.uninstall()
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{name}-seed{seed}.npz")

    ops = len(traced)
    # spans of operation i (1-based) scale by that operation's calibration
    totals = tracer.layer_totals([1.0] + [calibrated / t for t, calibrated, _ in traced])
    counts = tracer.counts
    inputs = workload.items * ops  # every item is one input state
    wall = sum(calibrated for _, calibrated, _ in traced)
    untraced_wall = sum(calibrated for _, calibrated, _ in untraced[:ops])
    values = {}
    for layer in LAYER_NAMES:
        values[f"{layer}.s"] = totals[layer][0] / ops
        values[f"{layer}.calls"] = totals[layer][1] / ops
    values["statekit.states_built_per_input"] = counts["statekit.states_built"] / inputs
    values["reduction.elems_in"] = counts["reduction.elems_in"] / ops
    distinct = len(tracer.subset_keys)
    values["reduction.calls_per_subset"] = counts["reduction.subset_calls"] / distinct if distinct else 0.0
    values["measures.tables_per_state"] = counts["measures.tables"] / inputs
    values["identities.checks"] = counts["identities.checks"] / ops
    values["identities.checks_failed"] = counts["identities.checks_failed"] / ops
    values["cli.bytes_out"] = sum(sent for _, _, sent in traced) / ops
    values["bench.s"] = totals["bench"][0] / ops
    values["trace.wall_s"] = wall / ops
    values["trace.overhead_s"] = (wall - untraced_wall) / ops
    values["trace.spans"] = sum(c for _, c in totals.values()) / ops

    layer_sum = sum(values[f"{layer}.s"] for layer in LAYER_NAMES)
    for key in PER_LAYER_UNITS:
        lines.append(f"  {key:<32} {values[key]:>14.6g} {PER_LAYER_UNITS[key]}")
    lines.append(
        f"  {ops} traced ops; layer self times {layer_sum:.6g} s/op + bench.s "
        f"{values['bench.s']:.6g} s/op = {layer_sum + values['bench.s']:.6g} s/op "
        f"(trace.wall_s {values['trace.wall_s']:.6g}); untraced {untraced_wall / ops:.6g} s/op"
    )
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def run_workload(name, seed, seconds, trace, lines):
    from checks import Tally
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tally = Tally()
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines.append(f"workload {name} ({'traced, per-layer' if trace else 'untraced, end-to-end'})")
    try:
        measure_fn = per_layer if trace else end_to_end
        metrics = measure_fn(name, workload, seed, seconds, tally, str(workdir), lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"  {'check_fail_ratio':<26} {ratio:>14.6g} failed/attempted ({tally.failed}/{tally.attempted})")
    for message in tally.messages:
        lines.append(f"  CHECK FAILED: {message}")
    return tally, metrics


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="mqinfo benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    mqinfo = import_program()
    lines = [
        f"mqinfo benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env " + json.dumps(environment(mqinfo, args.seed), sort_keys=True),
    ]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, found = run_workload(name, args.seed, args.seconds, args.trace, lines)
        attempted += tally.attempted
        failed += tally.failed
        if len(names) == 1:
            metrics = found
        else:
            metrics.update({f"{name}/{k}": v for k, v in found.items()})
    print("\n".join(lines))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # BLAS is pinned to one thread before numpy loads: on a two-CPU machine
    # the default two-thread OpenBLAS made report and fuzz timings slower and
    # several times noisier.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    raise SystemExit(main())
