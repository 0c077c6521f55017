"""medli benchmark: one workload per call, closed loop, one op at a time.

Usage, from the root of a medli checkout:

    python3 medbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's op cycle runs round(S / its nominal
seconds) times, at least once, so a run's op count is fixed, and the
end-to-end metrics are printed. With ``--trace 1`` a fixed prefix of the
repeated cycle runs untraced, then again under the boundary tracer, and the
per-layer metrics are printed; the spans go to ``.medbench-out/``. Either way
the last line of stdout is one JSON object: correct, attempted, failed and
metrics. Times are wall times scaled to the reference speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".medbench-out"
WORKLOADS = ("qubit-pairs", "solve-dense", "closed-form", "cli")
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = BLAS_THREAD_VARS + (
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_PLACES",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# --- set-up ---


def probe_setup(workload: str, seed: int, workdir: Path) -> int:
    """Child-process mode: time importing medli and building the inputs, from cold."""
    started = time.perf_counter()
    import medli  # noqa: F401

    imported = time.perf_counter()
    from workloads import BUILDERS

    BUILDERS[workload](seed, workdir)
    built = time.perf_counter()
    import medli.cli  # noqa: F401

    cli_imported = time.perf_counter()
    print(json.dumps({"setup_s": built - started, "import_s": (imported - started) + (cli_imported - built)}))
    return 0


def measure_setup(args, workdir: Path, speed) -> tuple[float, float]:
    """Median set-up time (at the reference speed) and medli.cli import time over fresh interpreters."""
    setups, imports = [], []
    started = time.perf_counter()
    for k in range(SETUP_PROBES):
        speed.sample()
        probe_dir = workdir / f"probe-{k}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup", str(probe_dir)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    speed.sample()
    slowdown = speed.slowdown(started, time.perf_counter())
    return statistics.median(setups) / slowdown, statistics.median(imports)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
    }


# --- the closed loop ---


class Tally:
    """Outcome counts over every op the run attempted."""

    def __init__(self):
        from workloads import UNCERTIFIED

        self.uncertified = UNCERTIFIED
        self.attempted = 0
        self.ok = 0
        self.wrong = 0
        self.reasons: dict[str, str] = {}

    def run(self, op) -> None:
        try:
            reason = op.run()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            reason = f"raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is None:
            self.ok += 1
            return
        if reason != self.uncertified:
            self.wrong += 1
        if op.key not in self.reasons:
            self.reasons[op.key] = reason
            print(f"medbench: op {op.key}: {reason}", file=sys.stderr)


def run_ops(ops, tally: Tally, speed, tracer=None) -> tuple[list[float], float]:
    """Run ``ops`` one at a time, sampling the machine's speed between them.

    Returns each op's time at the reference speed, and the wall seconds.
    """
    clock = time.perf_counter
    bounds = []
    for op in ops:
        speed.sample_if_stale()
        span = tracer.open("bench.op") if tracer is not None else None
        started = clock()
        tally.run(op)
        bounds.append((started, clock()))
        if span is not None:
            tracer.close(span)
    speed.sample()
    times = [(end - start) / speed.slowdown(start, end) for start, end in bounds]
    return times, sum(end - start for start, end in bounds)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


# --- per-layer metrics from the traced run ---

LAYER_FUNCTIONS = (
    "pgm.pgm",
    "belavkin.inverse_map",
    "belavkin.forward_map",
    "belavkin.dual_operator",
    "belavkin.stationarity_residual",
    "certify.certify_simplified",
    "certify.certify_full",
    "certify.fixpoint_check",
    "ensembles.validate_ensemble",
    "ensembles.validate_projective",
    "ensembles.success_probability",
    "linalg.psd_sqrt",
    "linalg.psd_inv_sqrt",
    "linalg.block_decompose",
    "linalg.expi_herm",
    "linalg.haar_unitary",
)
PARSE_FUNCTIONS = ("serialize.load_json", "serialize.ensemble_from_doc", "serialize.povm_from_doc")


def layer_metrics(tracer, import_s: float, overhead_ratio: float) -> dict:
    spans = tracer.span_table()
    edges, counts = tracer.edges, tracer.counts

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    restarts = edges["solver->certify.certify_simplified"]
    random_starts = edges["solver->linalg.haar_unitary"]
    starts_built = random_starts + edges["solver->pgm.pgm"]
    out = {
        "solver.solve.calls": (stat("solver.solve", "calls"), "count"),
        "solver.solve.self_s": (stat("solver.solve", "self_s"), "s"),
        "solver.unitary_exps": (edges["solver->linalg.expi_herm"], "count"),
        "solver.ascent_steps": (counts["ascent.steps"], "count"),
        "solver.ascent_capped": (counts["ascent.capped"], "count"),
        "solver.restarts": (restarts, "count"),
        "solver.random_starts": (random_starts, "count"),
        "solver.start_use_ratio": (restarts / starts_built if starts_built else 0.0, "ratio"),
        "kernel.eigh.calls": (stat("numpy.linalg.eigh", "calls"), "count"),
        "kernel.eigh.n3": (counts["eigh.n3"], "count"),
        "kernel.linalg_s": (sum(v["total_s"] for k, v in spans.items() if k.startswith("numpy.linalg.")), "s"),
    }
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    out["serialize.dumps.calls"] = (stat("serialize.dumps", "calls"), "count")
    out["serialize.dumps.self_s"] = (stat("serialize.dumps", "self_s"), "s")
    out["serialize.dumps.bytes"] = (counts["dumps.bytes"], "bytes")
    out["serialize.parse.calls"] = (sum(stat(n, "calls") for n in PARSE_FUNCTIONS), "count")
    out["serialize.parse.self_s"] = (sum(stat(n, "self_s") for n in PARSE_FUNCTIONS), "s")
    out["cli.import_s"] = (import_s, "s")
    out["cli.main.self_s"] = (stat("cli.main", "self_s"), "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


# --- main ---


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "medli" / "__init__.py").is_file():
        print(f"medbench: no medli package under {SRC}; run from the root of a medli checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: the run is single-threaded, and idle BLAS threads that
    # spin on a 2-core box make op times swing far more than the code does.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    # Child processes (set-up probes, cli ops) import medli from this checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args.workload, args.seed, Path(args.probe_setup))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    from speed import Speed

    setup_s, import_s = measure_setup(args, workdir, Speed(process=True))
    import workloads

    stamp = environment()
    print(f"# env {json.dumps(stamp, sort_keys=True)}")
    main_dir = workdir / "main"
    main_dir.mkdir()
    cycle = workloads.BUILDERS[args.workload](args.seed, main_dir)
    speed = Speed(process=cycle.cli is not None)
    tally = Tally()
    # Warm-up: one op, untimed and uncounted, so lazy set-up is not timed.
    Tally().run(cycle.ops[0])

    if args.trace == 0:
        cycles = max(1, round(args.seconds / cycle.nominal_s))
        samples, wall = run_ops(cycle.ops * cycles, tally, speed)
        value, pct, n = tail(samples)
        rss_kb = cycle.cli.peak_rss_kb if cycle.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / sum(samples), "1/s"),
            "op_ms.p50": (1000.0 * statistics.median(samples), "ms"),
            "op_ms.tail": (1000.0 * value, "ms"),
            "ok_frac": (tally.ok / tally.attempted, "fraction"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        print(f"# {args.workload}: {cycles} cycles of {len(cycle.ops)} ops, {wall:.2f} s wall; median "
              f"slowdown {speed.slowdown():.3f} over {len(speed.values)} speed samples")
        print(f"# op_ms.tail is p{pct:.1f} of {n} samples ({min(n - 1, 10)} beyond it)")
        print(f"# fail_frac {1.0 - tally.ok / tally.attempted:.4f} "
              f"({tally.attempted - tally.ok} of {tally.attempted}; {tally.wrong} wrong)")
    else:
        from tracer import Tracer

        count = cycle.trace_ops or len(cycle.ops)
        replay = (cycle.ops * math.ceil(count / len(cycle.ops)))[:count]
        untraced, _ = run_ops(replay, tally, speed)
        tracer = Tracer()
        child_imports = []
        if cycle.cli:
            trace_dir = workdir / "trace"
            trace_dir.mkdir()
            cycle.cli.trace_dir = trace_dir

            def absorb(doc):
                child_imports.append(doc["import_s"])
                tracer.absorb(doc, tracer.current)

            cycle.cli.on_trace = absorb
        tracer.install()
        try:
            traced, _ = run_ops(replay, tally, speed, tracer)
        finally:
            tracer.uninstall()
        overhead = sum(untraced) / sum(traced)
        cli_import = statistics.median(child_imports) if child_imports else import_s
        metrics = layer_metrics(tracer, cli_import, overhead)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(trace_path, json.dumps({"workload": args.workload, "seed": args.seed, "env": stamp}))
        print(f"# {args.workload}: {len(traced)} ops traced in {sum(traced):.2f} s "
              f"({sum(untraced):.2f} s untraced); spans in {trace_path.relative_to(ROOT)}")
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
