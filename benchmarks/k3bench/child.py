"""Entry points run in fresh interpreters by the benchmark.

    python -m k3bench.child trace OUT ARGV...   one traced CLI command
    python -m k3bench.child witness-setup       time one cold witness setup

Both write one JSON document: the trace to OUT, the setup time to
stdout.  The program's own output and exit code pass through.
"""

import json
import os
import sys
import time


def traced_cli(out_path, argv):
    start = time.perf_counter()
    from k3pencils import cli
    import_s = time.perf_counter() - start
    from .trace import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    # renamed into place, so a reader never sees half a file
    with open(out_path + ".part", "w") as fh:
        json.dump(snap, fh, separators=(",", ":"))
    os.replace(out_path + ".part", out_path)
    return code


def main(argv):
    if argv[:1] == ["trace"] and len(argv) >= 3:
        return traced_cli(argv[1], argv[2:])
    if argv == ["witness-setup"]:
        from .workloads import witness_setup
        setup_s, _ = witness_setup()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print("usage: python -m k3bench.child trace OUT ARGV... | witness-setup",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
