"""Benchmark of the paulipriv certifier: four seeded workloads, checked op by op.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify_pipeline --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process against the package source in
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics: the
timed phase runs whole rounds of ops, as many as end nearest ``--seconds``, and
set-up time is the median of several fresh processes, each timed from its
start until its first op could run.  With ``--trace 1`` the run first repeats
rounds untraced for half the time, then the same rounds with every public
package function wrapped by the span recorder, and reports per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Pin BLAS and OpenMP to one thread before numpy loads (it loads with the
# workloads, after this); child processes inherit the setting.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 5
DEFAULT_SECONDS = 28
WORKLOADS = ("certify_pipeline", "extend_subgroups", "dense_algebras", "cli_roundtrip")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

# functions whose self time is a per-layer metric "<layer>.<function>.self_s"
PER_LAYER_FUNCTIONS = (
    "groups.close", "groups.annihilator", "groups.extend_to_maximal", "groups.is_abelian",
    "constructions.encoded_qubit_generators", "algebra.span_closure",
    "algebra.simultaneous_diagonalize", "pauli.to_dense", "algebra.commutant",
    "algebra.structure_type", "algebra.conditional_expectation",
    "privacy.check_privatized_algebra", "privacy.is_quasiorthogonal",
    "privacy.quasiorth_condition_suite", "pauli.parse_pauli",
)
# counter metric -> (function, field of the aggregate, unit)
PER_LAYER_COUNTS = {
    "groups.close.elements": ("groups.close", "count", "count"),
    "groups.annihilator.calls": ("groups.annihilator", "calls", "count"),
    "algebra.span_closure.out_dim": ("algebra.span_closure", "count", "count"),
    "pauli.to_dense.calls": ("pauli.to_dense", "calls", "count"),
    "algebra.commutant.gram_bytes": ("algebra.commutant", "count", "bytes"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "commit": git_commit(),
    }


def setup(name: str, seed: int, workdir: Path, inprocess: bool):
    """Import the package, build the inputs and run one warm-up op."""
    sys.path.insert(0, str(SRC))
    import workloads

    import paulipriv

    if not Path(paulipriv.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: paulipriv was imported from {paulipriv.__file__}, not {SRC}")
    wl = workloads.make(name, workdir, child_env(), inprocess)
    rounds = wl.rounds(seed)
    warm = workloads.run_case(wl, wl.warmup(seed))
    if not warm.passed:
        raise SystemExit(f"perfbench: warm-up op failed: {warm.error}")
    return wl, rounds


def timed_phase(wl, rounds, seconds=None, max_rounds=None, tracer=None):
    """Run whole rounds, ``max_rounds`` of them or as many as end nearest ``seconds``."""
    import workloads

    outcomes = []
    done = 0
    t0 = perf_counter()
    while True:
        for case in rounds[done % len(rounds)]:
            if tracer is None:
                outcomes.append(workloads.run_case(wl, case))
            else:
                tracer.labels = case.labels
                with tracer.span("bench", "op"):
                    outcomes.append(workloads.run_case(wl, case))
        done += 1
        if max_rounds is not None:
            if done >= max_rounds:
                break
            continue
        # stop at the round boundary nearest to `seconds`
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / done >= seconds:
            break
    return outcomes, perf_counter() - t0, done


def setup_samples(args) -> list[float]:
    """Seconds from process start until the first op could run, in fresh processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            line = p.stdout.readline()
            elapsed = perf_counter() - t0
            p.stdout.read()
        finally:
            p.stdout.close()
            code = p.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up process failed (exit {code})")
        times.append(elapsed)
    return times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND samples above."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, rounds) -> tuple[dict, dict, list]:
    outcomes, wall, done = timed_phase(wl, rounds, seconds=args.seconds)
    if args.workload == "cli_roundtrip":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = setup_samples(args)
    passed = [o for o in outcomes if o.passed]
    tail_value, tail_pct, tail_n = tail([o.latency for o in passed] or [math.inf])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(passed) / wall, "1/s"),
        "latency_p50_s": metric(statistics.median(o.latency for o in outcomes), "s"),
        "latency_tail_s": metric(tail_value, "s"),
        "pass_share": metric(len(passed) / len(outcomes), "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }
    detail = {
        "rounds": done,
        "timed_wall_s": wall,
        "fail_share": 1 - len(passed) / len(outcomes),
        "latency_tail": {"percentile": tail_pct, "samples": tail_n,
                         "over": "ops that passed"},
        "setup_samples_s": setups,
    }
    return metrics, detail, outcomes


def per_layer(args, wl, rounds) -> tuple[dict, dict, list]:
    import tracing

    half = args.seconds / 2
    plain, plain_wall, done = timed_phase(wl, rounds, seconds=half)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced, traced_wall, _ = timed_phase(wl, rounds, max_rounds=done, tracer=tracer)
    finally:
        tracing.uninstall(patches)
    agg = tracing.aggregate(tracer.spans)
    fn, layers = agg["fn"], agg["layer"]
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0.0}
    metrics = {}
    for key in PER_LAYER_FUNCTIONS:
        metrics[f"{key}.self_s"] = metric(fn.get(key, empty)["self_s"], "s")
    for name, (key, field, unit) in PER_LAYER_COUNTS.items():
        metrics[name] = metric(fn.get(key, empty)[field], unit)
    for layer in (*tracing.LAYERS, "bench"):
        stats = layers.get(layer, {"self_s": 0.0, "errors": 0})
        metrics[f"{layer}.self_s"] = metric(stats["self_s"], "s")
        metrics[f"{layer}.errors"] = metric(stats["errors"], "count")
    metrics["cli.main.total_s"] = metric(fn.get("cli.main", empty)["total_s"], "s")
    overhead = sum(o.extra.get("subprocess_s", 0.0) - o.extra.get("inprocess_s", 0.0)
                   for o in plain if "inprocess_s" in o.extra)
    metrics["cli.process_overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_share"] = metric(traced_wall / plain_wall - 1.0, "ratio")
    metrics["trace.accounted_share"] = metric(agg["root_s"] / traced_wall, "ratio")
    detail = {"rounds": done, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "verdicts_identical": [o.verdict for o in plain] == [o.verdict for o in traced],
              "rows": agg["rows"]}
    return metrics, detail, traced


def run_all(args) -> int:
    """Run every workload in its own process and print a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        if p.returncode != 0 or not p.stdout.strip():
            print(f"perfbench: workload {name} exited {p.returncode}", file=sys.stderr)
            return 1
        result = json.loads(p.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paulipriv" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'paulipriv'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl, rounds = setup(args.workload, args.seed, workdir, inprocess=bool(args.trace))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, detail, outcomes = measure(args, wl, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = [o for o in outcomes if not o.passed]
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:42s} {m['value']:.6g} {m['unit']}")
    errors = sorted({o.error for o in failed})
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail,
                      "errors": errors, "env": environment()}))
    result = {
        "correct": detail.get("verdicts_identical", True) and not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
