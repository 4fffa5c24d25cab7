"""winvit benchmark.

    python3 perfbench/run.py --workload <train-desk|eval-manifest|check-f64>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. winvit is imported from that checkout's
``src``; without it the run fails before printing a result. ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` measures the
per-layer metrics with spans around every public winvit function and
reports the tracing overhead. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record, with
the environment and (traced) the spans, goes to perfbench/out/.
"""

import argparse
import os

# One BLAS thread per process, set before numpy loads: the benchmark never
# runs more threads than cores, and single-thread timings are the steadiest.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import recipe  # noqa: E402


def blas_threads(np):
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(np),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def check_declared(out_metrics, trace):
    """The metrics must be exactly those BENCHMARK.json declares, in its units."""
    with open(os.path.join(recipe.ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    expected = [(m["name"], m["unit"]) for m in declared]
    measured = [(name, m["unit"]) for name, m in out_metrics.items()]
    if measured != expected:
        raise SystemExit(f"metrics {measured} do not match BENCHMARK.json {expected}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        winvit = recipe.import_winvit()
        for layer in tracing.LAYERS:
            importlib.import_module(f"winvit.{layer}")
    except ImportError as exc:
        print(f"cannot import winvit from {recipe.SRC}: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    env = environment(np)
    os.makedirs(recipe.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=recipe.OUT)
    try:
        out = workloads.WORKLOADS[args.workload](winvit, args.seed, args.seconds,
                                                 bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_declared(out.metrics, args.trace)

    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": out.problems,
              "samples": out.samples, "result": result}
    if out.tracer is not None:
        record["spans"] = {"fields": ["id", "parent", "unit", "name", "start_ns", "end_ns"],
                           "kept": out.tracer.spans, "dropped": out.tracer.dropped}
    path = os.path.join(recipe.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}")
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'error_rate':<22}{error_rate:>14.6g} {'ratio':<8}"
          f"{out.failed} failed of {out.attempted}")
    for name, value, unit, note in out.report:
        print(f"  {name:<22}{value:>14.6g} {unit:<8}{note}")
    for line in out.tables:
        print(line)
    for problem in out.problems:
        print(f"  FAILED CHECK: {problem}")
    print("# metrics:")
    for name, m in out.metrics.items():
        print(f"  {name:<34}{m['value']:>16.6g} {m['unit']}")
    print(f"# record: {os.path.relpath(path, recipe.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
