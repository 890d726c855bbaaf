"""slipctl benchmark: one closed-loop client per workload process.

    python3 perfbench/run.py --workload grad-16x32 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  --trace 0 measures the end-to-end metrics
with the program untouched; --trace 1 runs the same workload with every
other operation traced and prints the per-layer table.  The last line of
standard output is the JSON result; the result, the environment and (when
traced) the spans are also written under perfbench/out/.  --workload all
runs every workload, each in its own process.  The exit code is 0 only
when every check passed.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median

BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _tail(samples):
    """Highest whole percentile with at least ten samples above it.

    With fewer than eleven samples that is the maximum (percentile 100).
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100, n
    return s[n - 11], (100 * (n - 10)) // n, n


def _environment(args):
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workers": 1,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def run_one(args):
    import workloads
    from spans import Tracer, layer_metrics

    kind, n, nt = workloads.WORKLOADS[args.workload]
    if args.size:
        n, nt = (int(v) for v in args.size.split("x"))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT, "work-" + tag)
    os.makedirs(work, exist_ok=True)
    inputs = workloads.generate(kind, n, nt, args.seed, work)

    tracer = Tracer() if args.trace else None
    kw = {"tracer": tracer, "trace_every": 2}
    if args.trace:
        kw["min_ops"] = 2
    if kind == "grad":
        setups, ops = workloads.run_grad(inputs, args.seconds, **kw)
    else:
        setups, ops = workloads.run_cli(inputs, args.seconds,
                                        corrupt_adjoint=args.corrupt_adjoint, **kw)

    failed = [op for op in ops if op["errors"]]
    good = [op for op in ops if not op["errors"]]
    for op in failed:
        print("op %d failed: %s" % (op["op"], "; ".join(op["errors"])))
    plain = [op["seconds"] for op in good if not op["traced"]]
    record = {"environment": _environment(args), "setups": setups,
              "ops": ops, "failed_ratio": len(failed) / len(ops)}

    if not args.trace:
        print("uncorrected wall medians: setup %.4f s, operation %s s" % (
            median(s["wall"] for s in setups),
            "%.4f" % median(op["wall"] for op in good) if good else "-"))
        metrics = {"setup_s": {"value": median(s["seconds"] for s in setups), "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}}
        if plain:
            metrics["op_p50_s"] = {"value": median(plain), "unit": "s"}
            tail, pct, count = _tail(plain)
            record["op_tail"] = {"value": tail, "percentile": pct, "samples": count}
            print("operation tail: p%d of %d samples = %.4f s" % (pct, count, tail))
        if kind == "cli" and good:
            for part in ("solve_s", "optimize_s", "grad_check_s"):
                value = median(op["parts"][part] for op in good)
                record.setdefault("cli_parts", {})[part] = value
                print("cli %-13s %.4f s (median of %d passes)" % (part, value, len(good)))
    else:
        traced_ids = [op["op"] for op in ops if op["traced"]]
        setup_ids = {"setup%d" % i for i in range(len(setups))}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   layer_metrics(tracer, traced_ids, setup_ids).items()}
        traced = [op["seconds"] for op in good if op["traced"]]
        if traced and plain:
            overhead = median(traced) - median(plain)
            record["trace_overhead_s"] = overhead
            print("tracing overhead %.4f s per operation (traced %.4f - untraced %.4f)"
                  % (overhead, median(traced), median(plain)))
        tracer.write(os.path.join(OUT, tag + "-spans.jsonl"))
        print("%-42s %14s  %s" % ("per operation", "value", "unit"))
        for name, m in metrics.items():
            print("%-42s %14.6g  %s" % (name, m["value"], m["unit"]))

    record["metrics"] = metrics
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("failed_ratio %d/%d" % (len(failed), len(ops)))
    correct = not failed and bool(good)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, one after another."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        print("%s %s" % (name, last[0]))
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smoke-test hooks: a smaller grid ("8x4") and a broken adjoint pairing
    parser.add_argument("--size", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-adjoint", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "slipctl")):
        print("slipctl sources not found under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
