"""The k3pencils benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ directory and nothing is installed.  Workloads:
verify, query, witness, lattice (see README.md beside this file).
With --trace 0 the last line of stdout is the end-to-end result, with
--trace 1 the per-layer result of one traced pass.  The line before it
holds host and run information for the record only.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from k3bench import metrics, workloads

ROOT = Path(__file__).resolve().parent.parent


def calibrate():
    """Seconds for a fixed pure-Python loop: a gauge of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1000000):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def host_info():
    try:
        with open("/proc/loadavg") as fh:
            load = fh.read().split()[:3]
    except OSError:
        load = None
    return {"calibration_s": round(calibrate(), 4), "nproc": os.cpu_count(),
            "loadavg": load}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "k3pencils" / "__init__.py").is_file():
        print("error: no program to measure: %s is missing"
              % (ROOT / "src" / "k3pencils"), file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # same set iteration order, and so the same op counts, every run
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, str(ROOT / "src"))

    info = host_info()
    ctx = workloads.Context(ROOT, args.seed, args.seconds)
    try:
        if args.trace:
            tally, values, extra = workloads.run_traced(ctx)
        else:
            tally, values, extra = workloads.WORKLOADS[args.workload](ctx)
    except workloads.BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    info.update(extra, workload=args.workload, seed=args.seed,
                run_s=round(time.perf_counter() - ctx.started, 2))
    units = metrics.units(args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
