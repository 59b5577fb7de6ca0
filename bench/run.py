"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

Builds nothing: the program is imported from src/ of the checkout this
file sits in, and the run fails if it is not there.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  A failed output check prints its reason on
standard error and exits 1; `all` runs each workload in a child process
and exits 1 if any of them failed.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the program's own pool is the parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("mc_n16_additive", "pressure_n32_multiplicative", "wiener_refinement")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    status = 0
    summary = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "pstokeslab", "__init__.py")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    import checks
    import workloads

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(out_dir)
    measure = workloads.trace if args.trace else workloads.measure
    try:
        result = measure(args.workload, args.seed, args.seconds, out_dir)
    except checks.CheckFailed as exc:
        print(f"{args.workload}: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # spawning rounds started multiprocessing's resource tracker;
        # end it and wait for it before exiting
        resource_tracker._resource_tracker._stop()
    if not os.listdir(out_dir):
        os.rmdir(out_dir)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
