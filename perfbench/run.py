"""End-to-end benchmark of the paper's flows, with a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload perm_compile --seed 1 --seconds 20 --trace 0

Load shape: one client, closed loop, one process, jobs back to back
(``CompilerSession(max_workers=1)``).  A run builds a fixed corpus from
``--seed``, sets up (import, corpus, untimed warm-up job, cache
pre-fill), then repeats passes over the corpus until
``--seconds`` have elapsed.  Timings are per-job medians over the
passes, summed over the corpus.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (self times
of spans recorded around each layer's entry point, see ``spans.py``)
plus the tracing overhead, and writes a Chrome trace-event file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``host {...}``) records the host's state during the run.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Extra set-up repeats, each in a fresh sequential child process, so
#: ``setup_s`` (import included) is a median of three.
SETUP_CHILDREN = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every corpus (the benchmark's own tests)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {'setup_s': ...} and exit (internal)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# host state, so a noisy run can be blamed on the host, not the code
# ----------------------------------------------------------------------
def steal_ticks() -> int:
    """Return the host's cumulative steal ticks (``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def load_average() -> float:
    """Return the 1-minute load average."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def thread_environment() -> dict:
    """Return the BLAS/thread settings the numeric layers run under."""
    import numpy as np

    env = {
        key: os.environ.get(key)
        for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMBA_NUM_THREADS", "REPRO_NUM_THREADS", "REPRO_ARRAY_BACKEND",
        )
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["nproc"] = os.cpu_count()
    env["affinity"] = len(os.sched_getaffinity(0))
    env["numpy"] = np.__version__
    return env


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def import_program():
    """Import the checkout's ``repro`` (never an installed copy)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return repro


def set_up(args):
    """Import, build the corpus, pre-fill, run the warm-up job."""
    import_program()
    from spans import NullTracer
    from workloads import WORKLOADS, Meter

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.prepare()
    workload.before_pass()
    fresh_caches()
    workload.run(workload.warmup, -1, Meter(NullTracer()))
    return workload


def fresh_caches() -> None:
    """Empty the process-wide pass cache and collect garbage."""
    from repro.pipeline.cache import shared_cache

    shared_cache().clear()
    gc.collect()


def child_setup_seconds(args) -> float:
    """Time one complete set-up in a fresh child process."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class PassLog:
    """Per-job samples of the passes of one kind (timed or traced)."""

    def __init__(self, jobs: int) -> None:
        self.run_s = [[] for _ in range(jobs)]
        self.compile_s = [[] for _ in range(jobs)]
        self.simulate_s = [[] for _ in range(jobs)]
        self.pass_s = []
        self.outputs = []  # (gates, t_count) per pass
        self.attempted = 0
        self.failed = 0


def corpus_median(samples) -> float:
    """Sum over the corpus of each job's median over the passes."""
    return sum(statistics.median(job) for job in samples)


def run_pass(workload, log: PassLog, tracer, stop_at=None) -> None:
    """Run the corpus once, timing each job.

    With ``stop_at``, the pass ends early once that time has passed;
    only complete passes count towards ``pass_s`` and ``outputs``.
    """
    from workloads import Meter

    gates = t_count = 0
    total = 0.0
    for index, job in enumerate(workload.jobs):
        if stop_at is not None and time.perf_counter() >= stop_at:
            return
        fresh_caches()
        meter = Meter(tracer)
        started = time.perf_counter()
        try:
            with tracer.span(f"job.{workload.name}"):
                outcome = workload.run(job, index, meter)
        except Exception as error:  # a failed job counts, and so does its time
            print(f"perfbench: job {index} failed: {error!r}", file=sys.stderr)
            outcome = None
        seconds = time.perf_counter() - started
        total += seconds
        log.attempted += 1
        if outcome is None or not outcome.ok:
            log.failed += 1
        else:
            gates += outcome.gates
            t_count += outcome.t_count
        log.run_s[index].append(seconds)
        log.compile_s[index].append(meter.compile_s)
        log.simulate_s[index].append(meter.simulate_s)
    log.pass_s.append(total)
    log.outputs.append((gates, t_count))


def measure(workload, seconds: float, traced: bool):
    """Run passes for ``seconds``; return (plain, traced, tracer) logs.

    The untimed run stops mid-pass at the deadline once one pass is
    complete (per-job medians need no whole passes).  The traced run
    alternates complete untraced and traced passes, so both sides of
    ``trace.overhead_frac`` see the same corpus.
    """
    from spans import NullTracer, Tracer, instrument

    plain = PassLog(len(workload.jobs))
    traced_log = PassLog(len(workload.jobs))
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not plain.pass_s:
        workload.before_pass()
        if not traced:
            run_pass(
                workload, plain, NullTracer(),
                stop_at=deadline if plain.pass_s else None,
            )
            continue
        run_pass(workload, plain, NullTracer())
        workload.before_pass()
        with instrument(tracer):
            run_pass(workload, traced_log, tracer)
    return plain, traced_log, tracer


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plain: PassLog, setup_s: float) -> dict:
    gates, t_count = plain.outputs[0]
    return {
        "run_s": metric(corpus_median(plain.run_s), "s"),
        "compile_s": metric(corpus_median(plain.compile_s), "s"),
        "simulate_s": metric(corpus_median(plain.simulate_s), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "gates_out": metric(gates, "count"),
        "t_count_out": metric(t_count, "count"),
        "ok_rate": metric(
            (plain.attempted - plain.failed) / plain.attempted, "fraction"
        ),
    }


def per_layer(plain: PassLog, traced: PassLog, tracer):
    """Return (the per-layer metrics BENCHMARK.json names, every layer value).

    Values are means per traced pass; a layer a workload never enters
    reports 0.
    """
    from spans import layer_metrics

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        wanted = json.load(handle)["per_layer"]
    passes = len(traced.pass_s)
    layers = layer_metrics(tracer, passes)
    traced_run_s = sum(traced.pass_s) / passes
    layers["trace.run_s"] = traced_run_s
    layers["trace.overhead_frac"] = (
        traced_run_s / (sum(plain.pass_s) / len(plain.pass_s)) - 1
    )
    return {
        entry["name"]: metric(layers.get(entry["name"], 0.0), entry["unit"])
        for entry in wanted
    }, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = set_up(args)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    host = {
        "load_1min_start": load_average(),
        "threads": thread_environment(),
    }
    steal_before = steal_ticks()
    plain, traced, tracer = measure(workload, args.seconds, bool(args.trace))
    host["steal_ticks"] = steal_ticks() - steal_before
    host["load_1min_end"] = load_average()

    logs = [plain, traced] if args.trace else [plain]
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    # counts must repeat exactly across passes (deterministic compiler)
    deterministic = all(
        outputs == plain.outputs[0] for log in logs for outputs in log.outputs
    )

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain.pass_s),
        "jobs": len(workload.jobs),
        "run_s_per_job": plain.run_s,
        "compile_s_per_job": plain.compile_s,
        "simulate_s_per_job": plain.simulate_s,
        "pass_s": plain.pass_s,
        "outputs": plain.outputs,
        "host": host,
    }
    if args.trace:
        metrics, layers = per_layer(plain, traced, tracer)
        tracer.write_chrome_trace(stem + ".trace.json")
        raw["layers"] = layers
        raw["traced_pass_s"] = traced.pass_s
    else:
        setups = [setup_s] + [
            child_setup_seconds(args) for _ in range(SETUP_CHILDREN)
        ]
        raw["setup_s_samples"] = setups
        metrics = end_to_end(plain, statistics.median(setups))
    raw["metrics"] = metrics
    with open(stem + ".json", "w") as handle:
        json.dump(raw, handle, indent=1)

    print("host " + json.dumps(host))
    print(
        json.dumps(
            {
                "correct": failed == 0 and deterministic,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
