"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from that
checkout's ``src/``. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced cycles and prints the
per-layer metrics and the tracing overhead. End-to-end times are scaled to
the nominal speed of ``hostref``'s kernel; the unscaled ones are printed
above the result line and kept in the result file. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes a result file (and, when traced, its spans) under
``--out``. ``--corrupt`` shifts every evaluated prediction by 1e-6 m to
show that the correctness checks count a wrong program as failed.
"""

import os

# BLAS is pinned before numpy loads: one caller, one thread
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import json
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ``sralstm`` from this checkout only; exit 2 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import sralstm
    except ImportError as e:
        sys.exit(f"run.py: cannot import sralstm from {SRC}: {e}")
    if not os.path.abspath(sralstm.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: sralstm resolved to {sralstm.__file__}, outside {SRC}")


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": int(PINNED_THREADS),
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench_out",
                    help="directory for result files, spans and scratch inputs")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import harness
    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(options: {', '.join(harness.WORKLOADS)})")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(args.out, "work", f"{tag}-{os.getpid()}")
    results = os.path.join(args.out, "results")
    os.makedirs(results, exist_ok=True)
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(args.out, "spans"), exist_ok=True)
        spans_path = os.path.join(args.out, "spans", f"{tag}.jsonl")
    try:
        res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          workdir, corrupt=args.corrupt, spans_path=spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "corrupt": args.corrupt, "environment": env, **res,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={res['cycles']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']}")
    if "samples" in res:
        print("# samples: " + ", ".join(f"{k}={v}" for k, v in res["samples"].items()))
    host = res["host"]
    print(f"# host kernel: median {host['kernel_ms_median']:.3f} ms over "
          f"{host['kernel_timings']} timings, nominal {host['kernel_ms_nominal']:.3f} ms")
    if "unscaled" in res:
        print("# unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in res["unscaled"].items()))
    for reason in res["reasons"]:
        print(f"# FAILED: {reason}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
