"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Each sample is a fresh child process (``child.py``), one at a time: a closed
loop with a single client.  With ``--trace 0`` the run first starts a few
set-up-only children, then runs the workload back to back while the next
child is predicted to end within ``--seconds``, and reports the end-to-end
metrics as medians over the children.  With ``--trace 1`` it runs the
workload twice with every layer wrapped, under PYTHONHASHSEED 1 and 2,
requires every count to agree, checks each per-layer metric against its
predicted zero or non-zero, and reports the per-layer metrics plus the
tracing overhead against untraced children of the same run.

Every child's output is checked against the pinned digests in
``workloads.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give quartiles, sample counts, the failure ratio and the provenance.
``--workload all`` runs each workload untraced and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (no wresidue import at load time)
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 10
UNTRACED_HASHSEED = "0"
TRACED_HASHSEEDS = ("1", "2")
DEADLINE_S = 170.0  # the whole run must end within 180 s


@dataclass
class Sample:
    """One child process: its wall time, peak RSS, result and any problems."""

    wall_s: float
    rss_mb: float
    result: dict | None
    problems: list[str]


class Run:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, hashseed: str, setup_only=False, trace=False) -> Sample:
        self.count += 1
        out = os.path.join(self.tmp, f"child-{self.count}.json")
        argv = [sys.executable, CHILD, "--workload", self.workload,
                "--seed", str(self.seed), "--out", out]
        emit_dir = None
        if setup_only:
            argv.append("--setup-only")
        elif self.workload == "d2d2-emit":
            emit_dir = tempfile.mkdtemp(prefix="emit-", dir=self.tmp)
            argv += ["--emit-dir", emit_dir]
        if trace:
            os.makedirs(os.path.join(WORK_DIR, "trace"), exist_ok=True)
            argv += ["--trace-dump", os.path.join(
                WORK_DIR, "trace", f"{self.workload}-hashseed{hashseed}.json")]
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env.pop(workloads.WAIVER_ENV, None)

        done = []
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=sys.stderr.fileno())
        waiter = threading.Thread(
            target=lambda: done.append((os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        waiter.join(max(self.remaining(), 1.0))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        (_, status, usage), end = done[0]
        proc.returncode = os.waitstatus_to_exitcode(status)

        result, problems = None, []
        if proc.returncode != 0:
            problems.append(f"child exited with {proc.returncode}")
        else:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            if not setup_only:
                problems = workloads.check(self.workload, result)
        if emit_dir:
            shutil.rmtree(emit_dir)
        return Sample(end - begin, usage.ru_maxrss / 1024.0, result, problems)

    def loop(self, seconds: float) -> list[Sample]:
        """Untraced children back to back while the next one is predicted
        to end within ``seconds`` (and well before the deadline); at least
        one."""
        samples: list[Sample] = []
        begin = time.perf_counter()
        while True:
            samples.append(self.child(UNTRACED_HASHSEED))
            if samples[-1].result is None:
                break
            elapsed = time.perf_counter() - begin
            predicted = statistics.median(s.wall_s for s in samples)
            if elapsed + predicted > seconds or predicted * 1.5 > self.remaining():
                break
        return samples

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# statistics and accounting


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def operations(workload: str, samples: list[Sample]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations: a CLI run, or one property check."""
    attempted = failed = 0
    problems = []
    for s in samples:
        if workload == "property-sweep" and s.result is not None:
            attempted += s.result["attempted"]
            failed += s.result["failed"]
        else:
            attempted += 1
            failed += bool(s.problems)
        problems += s.problems
    return attempted, failed, problems


def timed(samples: list[Sample]) -> list[Sample]:
    """A child that failed is never timed as if it were correct."""
    ok = [s for s in samples if not s.problems]
    return ok or samples


# ---------------------------------------------------------------------------
# provenance


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    """Read HEAD from the checkout's own .git directory, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "wresidue")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int, children: dict, hashseeds) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "children": children,
        "PYTHONHASHSEED": list(hashseeds),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _benchmark_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def untraced(run: Run, seconds: float):
    probes = [run.child(UNTRACED_HASHSEED, setup_only=True) for _ in range(SETUP_PROBES)]
    samples = run.loop(seconds)
    attempted, failed, problems = operations(run.workload, samples)
    problems += [p for s in probes for p in s.problems]
    ok = timed(samples)
    values = {
        "wall_s": [s.wall_s for s in ok],
        "peak_rss_mb": [s.rss_mb for s in ok],
    }
    setup = [s.result["setup_s"] for s in probes + samples if s.result is not None]
    if setup:
        values["setup_s"] = setup
    children = {"workload": len(samples), "setup_probes": len(probes)}
    return values, attempted, failed, problems, children


def traced(run: Run, seconds: float, names):
    begin = time.perf_counter()
    runs = [run.child(h, trace=True) for h in TRACED_HASHSEEDS]
    plain = run.loop(seconds - (time.perf_counter() - begin))
    attempted, failed, problems = operations(run.workload, runs + plain)
    layers = [s.result["layers"] for s in runs if s.result is not None and "layers" in s.result]
    values = {}
    if len(layers) == len(runs):
        for metric in tracer.COUNT_METRICS + ("trace.spans",):
            if len({lay[metric] for lay in layers}) != 1:
                problems.append(f"{metric} differs across PYTHONHASHSEED "
                                f"{TRACED_HASHSEEDS}: {[lay[metric] for lay in layers]}")
        values = {metric: [lay[metric] for lay in layers] for metric in layers[0]}
        for metric in names:
            if metric.startswith("trace.") or metric not in values:
                continue
            zero = workloads.predicted_zero(run.workload, metric)
            got = statistics.median(values[metric])
            if zero != (got == 0):
                problems.append(f"{metric} = {got} on {run.workload}, predicted "
                                f"{'zero' if zero else 'non-zero'}")
        traced_wall = [s.wall_s for s in runs]
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = [statistics.median(traced_wall)
                                      - statistics.median(s.wall_s for s in timed(plain))]
    else:
        problems.append("a traced child produced no layer metrics")
    children = {"traced": len(runs), "untraced": len(plain)}
    return values, attempted, failed, problems, children


def measure(workload: str, seed: int, seconds: float, trace: bool, units: dict,
            started: float) -> tuple[dict, list[str]]:
    run = Run(workload, seed, started)
    try:
        if trace:
            values, attempted, failed, problems, children = traced(run, seconds, units)
            hashseeds = TRACED_HASHSEEDS + (UNTRACED_HASHSEED,)
        else:
            values, attempted, failed, problems, children = untraced(run, seconds)
            hashseeds = (UNTRACED_HASHSEED,)
    finally:
        run.close()

    lines = [f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            problems.append(f"metric {name} was not measured")
            continue
        q1, med, q3 = quartiles(values[name])
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"  {name:34s} {med:>16.6f} {unit:5s} q1 {q1:.6f}  q3 {q3:.6f}  "
                     f"n={len(values[name])}")
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"  {'fail_ratio':34s} {ratio:>16.6f} {'':5s} {failed} failed of "
                 f"{attempted} attempted")
    for p in problems:
        lines.append(f"  FAILED: {p}")
    lines.append("provenance " + json.dumps(provenance(seed, children, hashseeds), sort_keys=True))
    summary = {"correct": not problems and failed == 0, "attempted": max(attempted, 1),
               "failed": failed if attempted else 1, "metrics": metrics}
    return summary, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wresidue benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "wresidue", "__init__.py")):
        print(f"perfbench: no wresidue sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    end_to_end, per_layer = _benchmark_metrics()
    os.makedirs(WORK_DIR, exist_ok=True)

    if args.workload == "all":
        table = {}
        for name in workloads.WORKLOADS:
            summary, lines = measure(name, args.seed, args.seconds, False, end_to_end,
                                     time.perf_counter())
            print("\n".join(lines), flush=True)
            table[name] = summary
        print(json.dumps(table, sort_keys=True))
        return 0 if all(s["correct"] for s in table.values()) else 1

    units = per_layer if args.trace else end_to_end
    summary, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             units, started)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
