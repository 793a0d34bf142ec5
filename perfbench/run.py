"""The repository benchmark: end-to-end and per-layer metrics per workload.

::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``BENCHMARK.json`` there names the
workloads and metrics.  Each run:

1. starts the workload (``workload.py``) in a fresh Python process a few
   times with ``--setup-only`` and once for real, timing spawn to its
   ``READY`` line each time (``setup_s`` is the median);
2. samples the resident memory of the workload process and all its
   descendants while it runs (``peak_rss_mb``);
3. turns the workload's operation latencies into ``ops_per_s``,
   ``latency_p50_s`` and ``latency_tail_s`` and its correctness checks
   into ``success_frac``;
4. prints one ``{"info": ...}`` line (host, seed, tail percentile and
   sample count, traffic properties, trace overhead, failures) and, as
   the last line, the result object.  The same record is written under
   ``.perfbench-out/``; a traced run also writes its spans there.

The exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")

#: Extra set-up-only starts per run; with the real start, four samples.
SETUP_PROBES = 3
#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
#: A run that has not finished by then is killed and reported failed.
RUN_DEADLINE_S = 170.0
RSS_SAMPLE_S = 0.1
OUT_DIR = ".perfbench-out"
WORK_DIR = ".perfbench-work"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ascending samples lie strictly above the
    position :func:`quantile` interpolates ``q`` at."""
    return n - 1 - math.floor(q * (n - 1) + 1e-9)


def tail_percentile(n: int, cap: float) -> float:
    """The highest ladder percentile, at most ``cap``, with >= 10 samples
    beyond it (the median when even that has fewer)."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if q <= cap + 1e-12 and samples_beyond(n, q) >= 10:
            best = q
    return best


def tree_rss_bytes(pgid: int) -> int:
    """Summed resident memory of every process in process group ``pgid``."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
            # Fields after the parenthesized command name; pgrp is the 3rd.
            if int(stat.rsplit(")", 1)[1].split()[2]) != pgid:
                continue
            with open(f"/proc/{entry}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, ValueError, IndexError):
            continue
    return total


class Child:
    """One workload process and its descendants (one process group)."""

    def __init__(self, argv: List[str], env: Dict[str, str]) -> None:
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.peak_rss = 0
        self._stop = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _sample(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak_rss = max(self.peak_rss, tree_rss_bytes(self.proc.pid))

    def expect(self, prefix: str, deadline: float) -> Optional[str]:
        """The next stdout line starting with ``prefix`` (None on EOF or
        timeout); other lines are passed through to stderr."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                return None
            if line is None:
                return None
            if line.startswith(prefix):
                return line
            print(line, file=sys.stderr)

    def finish(self, deadline: float) -> int:
        """Wait for the process, then stop whatever of its group is left."""
        try:
            code = self.proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            code = -9
        self._stop.set()
        self._sampler.join()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        return code


def import_probe(env: Dict[str, str]) -> Dict[str, float]:
    """``import repro.cli`` in fresh processes: median seconds, and
    whether scipy came with it."""
    code = (
        "import sys, time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t, int('scipy' in sys.modules))"
    )
    times, scipy_loaded = [], 0.0
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout.split()
        times.append(float(out[0]))
        scipy_loaded = float(out[1])
    return {"import.repro_s": statistics.median(times), "import.scipy_loaded": scipy_loaded}


def host_info() -> Dict[str, Any]:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail("no src/repro here: run from the root of a checkout")

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(root, WORK_DIR, f"{run_id}-{os.getpid()}")
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spans_out = os.path.join(out_dir, f"spans-{run_id}.json")

    def argv_for(tag: str, setup_only: bool) -> List[str]:
        argv = [
            sys.executable, WORKLOAD, args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--work", os.path.join(work, tag),
        ]
        if setup_only:
            argv.append("--setup-only")
        else:
            argv += ["--spans-out", spans_out]
        return argv

    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup_samples: List[float] = []
    try:
        for i in range(SETUP_PROBES):
            child = Child(argv_for(f"probe{i}", True), env)
            ready = child.expect("READY", deadline)
            t_ready = time.perf_counter()
            if child.finish(deadline) != 0 or ready is None:
                return fail("set-up probe failed")
            setup_samples.append(t_ready - child.t_spawn)
        child = Child(argv_for("run", False), env)
        if child.expect("READY", deadline) is None:
            child.finish(deadline)
            return fail("workload never became ready")
        setup_samples.append(time.perf_counter() - child.t_spawn)
        line = child.expect("RESULT ", deadline)
        code = child.finish(deadline)
        if line is None or code != 0:
            return fail(f"workload failed (exit {code})")
        result = json.loads(line[len("RESULT "):])
        peak_rss = child.peak_rss
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = sorted(result["latencies"])
    if not latencies:
        return fail("workload completed no operation")
    attempted, failed = result["attempted"], result["failed"]
    tail_q = tail_percentile(len(latencies), result["tail_cap"])
    values: Dict[str, float] = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / result["active_s"],
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_tail_s": quantile(latencies, tail_q),
        "peak_rss_mb": peak_rss / 2**20,
        "success_frac": 1.0 - failed / attempted,
    }
    wanted = bench["end_to_end"]
    if args.trace:
        values = dict(result["per_layer"])
        values.update(import_probe(env))
        wanted = bench["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "latency_tail": {
            "percentile": tail_q,
            "samples": len(latencies),
            "beyond": samples_beyond(len(latencies), tail_q),
        },
        "setup_samples_s": setup_samples,
        "traffic": result["traffic"],
        "trace.overhead_frac": result.get("per_layer", {}).get("trace.overhead_frac"),
        "spans": os.path.relpath(spans_out, root) if args.trace else None,
        "failures": result["failures"],
    }
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": final}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
