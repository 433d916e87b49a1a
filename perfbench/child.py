"""One measured process: set up, run one workload, report as JSON.

    python3 perfbench/child.py --workload NAME --seed N --out FILE
        [--emit-dir DIR] [--trace-dump FILE] [--setup-only]

Set-up is timed here: ``import wresidue.cli``, ``reference.build_model()``
and ``report.load_waivers()``.  The workload then runs in this process;
its outputs are hashed and written to ``--out`` with the set-up time.
With ``--trace-dump`` every layer is wrapped for the workload only, the
spans are written to that file and the per-layer metrics go into the
result.  ``run.py`` starts this file once per sample; it is not meant to be
timed on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--emit-dir")
    parser.add_argument("--trace-dump")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import wresidue.cli  # noqa: F401  (the import is part of set-up)
    from wresidue import reference, report
    reference.build_model()
    report.load_waivers()
    result = {"setup_s": time.perf_counter() - start}

    package = os.path.dirname(os.path.abspath(wresidue.cli.__file__))
    if package != os.path.join(SRC, "wresidue"):
        print(f"child: wresidue imported from {package}, not from {SRC}", file=sys.stderr)
        return 3

    if not args.setup_only:
        if args.trace_dump:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                result.update(tracer.run_root(workloads.run, args.workload, args.seed,
                                              args.emit_dir))
            finally:
                tracer.uninstall()
            layers = tracer.metrics()
            layers["cli.emit_files"], layers["cli.emit_bytes"] = workloads.emitted(args.emit_dir)
            result["layers"] = layers
            tracer.dump(args.trace_dump)
        else:
            result.update(workloads.run(args.workload, args.seed, args.emit_dir))

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
