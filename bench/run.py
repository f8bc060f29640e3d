"""ncglab benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ncglab is imported from its
``src`` directory. With ``--trace 0`` the repetitions run untraced and the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and the object
holds the per-layer metrics derived from the spans. Lines above it are
the human-readable report. The full record (environment, samples, failed
checks and, for a traced run, every span) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``. See bench/README.md.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("mc_scalar", "subspace_ascent", "subspace_large", "cli_pipeline")

# BLAS threads, pinned before numpy loads. subspace_basis at V=300, n=8
# takes about 4-5 s with 2 OpenBLAS threads and 6-6.5 s with 1 on a 2-core
# VM, so an inherited count would move subspace_large by itself.
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "lower_bound": "1"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def load_package() -> None:
    """Put the checkout's src first on sys.path and import ncglab from it."""
    if not (SRC / "ncglab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ncglab sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ncglab

    if Path(ncglab.__file__).resolve().parent != (SRC / "ncglab").resolve():
        raise SystemExit(f"error: imported ncglab from {ncglab.__file__}, not {SRC}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ncglab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": threads,
            "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
            "nproc": nproc(), "seed": seed, "commit": git_commit(),
            "source_sha256": source_digest()}


def setup_once(workload: str, seed: int) -> float:
    """Child-process body: import ncglab, build the inputs, report the time."""
    from workloads import WORKLOADS

    setup, _ = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup(seed, workdir)
        return time.perf_counter() - _PROCESS_START


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing ncglab and building
    the inputs, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if child.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{child.stderr}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def no_span(_name):
    return nullcontext()


def measure(run, workload: str, inputs, seconds: float, checks, tracer=None) -> dict:
    """Closed loop of ``run(inputs, checks, span)`` repetitions for
    ``seconds``; the repetition in progress at the deadline finishes. With
    a tracer, untraced and traced repetitions alternate, and the loop runs
    until it has at least one of each."""
    if tracer is not None:
        import layers
    untraced, traced, values, notes = [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        tracing = tracer is not None and rep % 2 == 1
        if tracing:
            tracer.run = len(traced) + 1
            layers.install(tracer)
        start = time.perf_counter()
        try:
            out = run(inputs, checks, tracer.span if tracing else no_span)
        except Exception as exc:  # a failed repetition is counted, not fatal
            checks.raised(f"{workload} repetition {rep}", exc)
            out = {}
        elapsed = time.perf_counter() - start
        if tracing:
            tracer.unpatch()
            traced.append(elapsed)
            notes.append(out)
        else:
            untraced.append(elapsed)
        if "lower_bound" in out:
            values.append(out["lower_bound"])
        rep += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    if values:
        spread = max(values) - min(values)
        checks.check("lower_bound repeats across repetitions",
                     spread <= 1e-9 * max(1.0, abs(values[0])), f"spread {spread}")
    return {"untraced": untraced, "traced": traced, "values": values, "notes": notes}


def trace_metrics(tracer, result: dict) -> dict:
    import layers
    from stats import median
    from tracing import split_runs

    by_run = split_runs(tracer.spans)
    setup_values = layers.unit_metrics(by_run.get(0, []), {})
    rep_values = [layers.unit_metrics(by_run.get(i + 1, []), result["notes"][i])
                  for i in range(len(result["traced"]))]
    metrics = layers.aggregate(rep_values, setup_values)
    metrics["trace.overhead_s"] = median(result["traced"]) - median(result["untraced"])
    return metrics


def wall_summary(samples) -> str:
    from stats import median, tail_percentile

    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]:g} {tail[1]:.6f} s" if tail
                 else "no tail: fewer than 20 samples, so no percentile has 10 beyond it")
    return f"median {median(samples):.6f} s, {tail_text}, n={len(samples)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    load_package()
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed)}))
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    import layers
    from stats import Checks, median
    from tracing import Tracer
    from workloads import WORKLOADS

    setup, run = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if tracer:  # the set-up is traced as run 0
            layers.install(tracer)
            try:
                inputs = setup(args.seed, workdir)
            finally:
                tracer.unpatch()
        else:
            inputs = setup(args.seed, workdir)
        result = measure(run, args.workload, inputs, args.seconds, checks, tracer)

    env = environment(args.seed, threads)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "wall_s_samples": result["untraced"],
              "lower_bound_values": result["values"], "checks_attempted": checks.attempted,
              "failures": checks.failures}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"wall_s       {wall_summary(result['untraced'])}")
    if args.trace:
        record["traced_wall_s_samples"] = result["traced"]
        record["spans"] = tracer.to_records()
        print(f"traced wall  {wall_summary(result['traced'])}")
        found = trace_metrics(tracer, result)
        for name, unit, _ in layers.PER_LAYER:
            text = f"{found[name]:.9g} {unit}" if name in found else "absent"
            print(f"  {name:34s} {text}")
        # The result line carries every listed metric; an absent one reads 0 there.
        metrics = {name: {"value": found.get(name, 0.0), "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        values = {
            "wall_s": median(result["untraced"]),
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "lower_bound": median(result["values"]) if result["values"] else 0.0,
        }
        record["setup_s_samples"] = setup_times
        print(f"setup_s      median {values['setup_s']:.6f} s of {len(setup_times)} processes")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MiB")
        print(f"lower_bound  {values['lower_bound']:.12g} (unit 1)")
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    print(f"failed_frac  {checks.failed_frac:g} ({checks.failed}/{checks.attempted} checks)")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    record["metrics"] = metrics
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
