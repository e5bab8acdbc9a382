"""mvphe benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload toy-mult --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs a fixed plan
twice, untraced and then traced, and prints the per-layer metrics. The last
stdout line is the result object; the line before it is a JSON report with
machine facts, sample counts, tail percentiles and failures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy-mult", "scaled-q31")
SETUP_REPEATS = 5
FLOOR_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> int:
    """Cap BLAS threads at nproc before numpy loads; children inherit it."""
    threads = nproc
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def machine_facts(np, threads: int, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def startup_s(env: dict) -> float:
    """Wall time of a fresh interpreter that imports what this script does."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, mvphe, spans, workloads"],
                   cwd=ROOT, env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def run_untraced(session, setup_s: float):
    session.reset()
    session.run_timed()
    metrics, details = session.end_to_end()
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, details


def run_traced(session, spans, workloads, trace_file: Path):
    session.reset()
    plain_s = session.run_plan()
    tracer = spans.Tracer()
    session.reset()
    session.tracer = tracer
    saved = spans.install(tracer)
    try:
        traced_s = session.run_plan()
    finally:
        spans.uninstall(saved)
        session.tracer = None
    overhead_pct = 100.0 * (traced_s / plain_s - 1.0)
    floors = session.floors(FLOOR_REPEATS)
    tracer.write(trace_file)
    metrics, details = workloads.per_layer(tracer, overhead_pct, floors)
    details.update(plain_s=plain_s, traced_s=traced_s, trace_file=str(trace_file.relative_to(ROOT)))
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "mvphe" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src / 'mvphe'}; run from a checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_blas_threads(nproc)
    sys.path[:0] = [str(src), str(HERE)]

    import numpy as np
    import mvphe

    if Path(mvphe.__file__).resolve().parent != (src / "mvphe").resolve():
        print(f"perfbench: imported mvphe from {mvphe.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    import_s = time.perf_counter() - T0
    build = ROOT / ".bench_build" / "perfbench"
    workdir = build / f"{args.workload}-{os.getpid()}"
    session = workloads.Session(ROOT, args.workload, args.seed, args.seconds, workdir)
    try:
        # set-up is interpreter start and imports (timed in fresh interpreters,
        # since this one imports only once) plus the session's prepare()
        env = dict(session.env, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
        start_s, prepare_s = [], []
        for _ in range(SETUP_REPEATS):
            start_s.append(startup_s(env))
            t0 = time.perf_counter()
            session.prepare()
            prepare_s.append(time.perf_counter() - t0)
        setup_s = statistics.median(start_s) + statistics.median(prepare_s)
        if args.trace:
            trace_file = build / f"trace-{args.workload}-seed{args.seed}.csv"
            metrics, details = run_traced(session, spans, workloads, trace_file)
        else:
            metrics, details = run_untraced(session, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(np, threads, nproc),
        "regime": workloads.regime(session.params, session.sk),
        "setup": {"import_s": import_s, "startup_s": start_s, "prepare_s": prepare_s},
        "failed_ratio": session.failed / max(1, session.attempted),
        "product_decrypt_errors": session.product_errors,
        "failures": session.failures,
        **details,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
