"""stoqbench benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

A run sets up the workload's inputs from the seed (SETUP_REPEATS times;
setup_s is the import time plus the median), then runs passes over the
workload's operations back to back until the next pass would end past
``--seconds`` (at least two passes).  Every operation's output is
checked, and every file it writes (manifests excepted, since they carry
the wall clock) must hash the same in every pass.  Times in the end-to-end
metrics are rescaled to the reference speed by harness.SpeedMeter.

With ``--trace 0`` the last line of output carries the end-to-end
metrics.  With ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics of bench/instrument.py, plus the tracing
overhead (median traced minus median untraced pass).  ``--workload all``
runs every workload both ways, each in a fresh process, and prints a
summary table.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# Pin BLAS and OpenMP before numpy is imported: on a 2-core machine an
# unpinned eigensolver measures the scheduler as much as the code.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 600

# name, unit, better, bound (the share of the parent's median by which
# the metric may worsen); BENCHMARK.json repeats these.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="workload name, or 'all' for every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine() -> dict:
    """The machine and library versions the numbers were taken on."""
    import numpy
    import scipy
    from stoqbench.ops import dense_limit

    def first(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "STOQ_DENSE_LIMIT": dense_limit(),
    }


def import_package():
    """Import stoqbench from this checkout's src/, never from elsewhere."""
    if not (SRC / "stoqbench" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'stoqbench'} not found; run the "
                         "benchmark from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import stoqbench
    if Path(stoqbench.__file__).resolve().parent != SRC / "stoqbench":
        raise SystemExit(f"error: imported stoqbench from {stoqbench.__file__}")


def setup(workload, seed: int, base: Path, import_s: float):
    """Set up SETUP_REPEATS times; return the last operations, setup_s
    (import plus median set-up, at the reference speed) and the raw
    median set-up time."""
    from harness import SpeedMeter

    raw, ref = [], []
    for r in range(SETUP_REPEATS):
        workdir = base / f"setup{r}"
        meter = SpeedMeter(workload.chunk)
        meter.start()
        if r == 0:
            import_ref_s = import_s * workload.chunk.ref_s / meter.chunks[0]
        workdir.mkdir(parents=True)
        ops = workload.setup(seed, workdir)
        meter.stop()
        raw.append(meter.work_s)
        ref.append(meter.ref_s)
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(workdir)
    return ops, import_ref_s + statistics.median(ref), statistics.median(raw)


def measure(ops, chunk, seconds: float, traced: bool):
    """Passes until the next one would end past ``seconds``.

    Returns (untraced PassResults, traced (PassResult, metrics) pairs).
    In a traced run untraced and traced passes alternate.
    """
    from harness import SpeedMeter, Tracer, run_pass
    from instrument import instrumented, layer_metrics

    plain, tracedp = [], []
    started = time.perf_counter()
    while True:
        if traced and len(plain) > len(tracedp):
            tracer = Tracer()
            with instrumented(tracer):
                res = run_pass(ops, tracer, SpeedMeter(chunk))
            tracedp.append((res, layer_metrics(tracer, res.wall_s,
                                               len(res.misses), res.audited)))
        else:
            plain.append(run_pass(ops, meter=SpeedMeter(chunk)))
        walls = [p.wall_s for p in plain] + [p.wall_s for p, _ in tracedp]
        done = len(walls) >= MIN_PASSES and (not traced or tracedp)
        if done and time.perf_counter() - started + statistics.median(walls) > seconds:
            return plain, tracedp


def run_workload(args) -> int:
    import_package()
    from workloads import WORKLOADS
    from instrument import PER_LAYER

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - STARTED
    print("machine:", json.dumps(machine()))
    print(f"workload: {workload.name} (seed {args.seed}); closed loop, one "
          f"client; dominant layer: {workload.dominant}; known defects: "
          f"{workload.known_defects}")

    base = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        ops, setup_s, setup_raw_s = setup(workload, args.seed, base, import_s)
        plain, traced = measure(ops, workload.chunk, args.seconds,
                                bool(args.trace))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    passes = plain + [p for p, _ in traced]
    correct = True
    for i, res in enumerate(passes):
        kind = "traced" if i >= len(plain) else "untraced"
        print(f"pass {i} ({kind}): {res.wall_s:.4f} s at speed "
              f"{res.speed:.3f}, {res.ref_s:.4f} s at the reference speed; "
              f"{res.attempted} operations, {res.failed} failed, "
              f"{len(res.misses)} of {res.audited} audits missed")
        for name, msg in res.failures[:10]:
            print(f"  FAILED {name}: {msg}")
        if i == 0:
            for name, msg in res.misses:
                print(f"  audit missed {name}: {msg}")
        correct = correct and not res.failures
        if res.hashes != passes[0].hashes:
            correct = False
            diff = sorted(k for k in set(res.hashes) | set(passes[0].hashes)
                          if res.hashes.get(k) != passes[0].hashes.get(k))
            print(f"  outputs differ from pass 0: {', '.join(diff)}")
    for path, digest in sorted(passes[0].hashes.items()):
        print(f"sha256 {digest} {Path(path).name}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall_s = statistics.median(p.wall_s for p in plain)
    if args.trace:
        per_pass = [m for _, m in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(p.ref_s for p, _ in traced)
            - statistics.median(p.ref_s for p in plain))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_ref_s": statistics.median(p.ref_s for p in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    summary = {"wall_s": wall_s, "setup_raw_s": setup_raw_s,
               "fail_frac": failed / attempted,
               "audit_miss_frac": (len(passes[0].misses) / passes[0].audited
                                   if passes[0].audited else 0.0)}
    print(f"{len(passes)} passes; setup {setup_raw_s:.4f} s (median of "
          f"{SETUP_REPEATS}, before import and rescaling)")
    print("summary:", json.dumps(summary))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    import_package()
    from workloads import WORKLOADS
    from instrument import LAYERS

    rows, ok = [], True
    for name, workload in WORKLOADS.items():
        results, summary = {}, {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
                if trace == 0 and line.startswith("summary: "):
                    summary = json.loads(line.partition(" ")[2])
            if proc.returncode not in (0, 1) or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"error: {name} exited {proc.returncode}")
            results[trace] = json.loads(lines[-1])
            ok = ok and results[trace]["correct"]
        e2e = {k: v["value"] for k, v in results[0]["metrics"].items()}
        layer = {k: v["value"] for k, v in results[1]["metrics"].items()}
        top = max(LAYERS, key=lambda l: layer[f"{l}.self_s"])
        rows.append((name, e2e, summary, layer, top, workload.dominant))

    print()
    print(f"{'workload':<18} {'setup_s':>9} {'wall_s':>9} {'wall_ref':>9} "
          f"{'fail_frac':>9} {'miss_frac':>9} {'peak_rss':>9} {'overhead':>9} "
          f"{'unattrib':>9}  top layer")
    print(f"{'':<18} {'s':>9} {'s':>9} {'s':>9} {'ratio':>9} {'ratio':>9} "
          f"{'MiB':>9} {'s':>9} {'s':>9}")
    for name, e2e, summary, layer, top, want in rows:
        mark = "" if top == want else f" (expected {want})"
        print(f"{name:<18} {e2e['setup_s']:9.4f} {summary['wall_s']:9.4f} "
              f"{e2e['wall_ref_s']:9.4f} {summary['fail_frac']:9.4f} "
              f"{summary['audit_miss_frac']:9.4f} {e2e['peak_rss_mib']:9.1f} "
              f"{layer['trace.overhead_s']:9.4f} "
              f"{layer['trace.unattributed_s']:9.4f}  {top}{mark}")
    print()
    print(f"{'self_s (s)':<18} " + " ".join(f"{l:>10}" for l in LAYERS))
    for name, _, _, layer, _, _ in rows:
        print(f"{name:<18} " + " ".join(f"{layer[f'{l}.self_s']:10.4f}"
                                        for l in LAYERS))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
