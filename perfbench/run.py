"""Benchmark for superthick: end-to-end metrics per workload, or layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 55 --trace 0

runs one workload in this interpreter, against the package under ``src/``
next to this directory, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` it runs operations for ``--seconds`` and the metrics are the
end-to-end ones, with times in seconds of a reference host: a fixed loop
timed all through the run measures how much slower this host is (see
``hostspeed.py``).  With ``--trace 1`` it runs the workload's fixed number of
operations, ``trace_ops``, so that the counters do not grow with the
program's speed, and the metrics are every traced layer function's counters
(see ``layers.py``).  The line before the result, starting with ``record``,
holds the seed, the generated inputs, the interpreter and machine, and every
operation's latency.

Without ``--workload`` it runs every workload in a fresh interpreter, once
untraced and once traced with the same seed, and prints every metric by name
and unit, the failure ratio and the tracing overhead.

The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# An untraced run sets up again between operations whenever this many seconds
# have passed since the last set-up, and once after the loop, and reports the
# median: the host's speed drifts over tens of seconds, and set-up samples
# spread over the whole run average that drift as the operations do.
SETUP_EVERY_S = 5.0

# An untraced run runs a chunk of the host-speed loop (see ``hostspeed.py``)
# this often, about 10 % of its time, and reports its times, which exclude the
# chunks, divided by the host's slowdown over them.
HOST_SPEED_INTERVAL_S = 0.25

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def load_program() -> SimpleNamespace:
    """Import ``superthick`` afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "superthick" or n.startswith("superthick.")]:
        del sys.modules[name]
    pkg = importlib.import_module("superthick")
    if Path(pkg.__file__).resolve().parent != SRC / "superthick":
        raise ImportError(f"superthick imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"superthick.{m}")
                              for m in ("bott", "cech", "cli", "supermap")})


class SetUp:
    """Import plus input generation, timed; every repeat must give the same inputs."""

    def __init__(self, cls, seed: int, clock):
        self.cls, self.seed, self.clock = cls, seed, clock
        self.times: list[float] = []
        self.last = 0.0
        self.inputs = None
        self.workload = self()

    def __call__(self):
        start = self.clock()
        workload = self.cls(load_program(), self.seed)
        self.last = self.clock()
        self.times.append(self.last - start)
        inputs = workload.inputs()
        if self.inputs is None:
            self.inputs = inputs
        elif inputs != self.inputs:
            raise RuntimeError("input generation is not deterministic in the seed")
        return workload

    def between_ops(self):
        if self.clock() - self.last >= SETUP_EVERY_S:
            self()


def measure(workload, seconds: float | None, count: int | None = None, between=None,
            clock=time.perf_counter):
    """Closed loop: run operations back to back until ``seconds`` of wall
    clock have passed, or, when ``count`` is given, exactly ``count``
    operations.  ``between`` is called before each operation but the first,
    outside its timing; ``clock`` times the operations."""
    latencies, errors = [], []
    attempted = 0
    ops = workload.ops()
    gc.collect()
    start = time.perf_counter()
    while ((attempted < count) if count is not None else
           (attempted < workload.min_ops or time.perf_counter() - start < seconds)):
        if attempted and between is not None:
            between()
        run, check = next(ops)
        attempted += 1
        t0 = clock()
        try:
            result = run()
        except Exception as err:  # a raise is a failed operation, not a crash
            latencies.append(clock() - t0)
            errors.append(f"op {attempted}: {type(err).__name__}: {err}")
            continue
        latencies.append(clock() - t0)
        try:
            check(result)
        except Exception as err:
            errors.append(f"op {attempted}: wrong output: {type(err).__name__}: {err}")
    return latencies, errors, time.perf_counter() - start


def run_workload(args) -> int:
    os.environ.pop("SUPERTHICK_WINDOW", None)  # users' default window
    if not (SRC / "superthick" / "__init__.py").is_file():
        print(f"no superthick sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    if args.trace:
        setup = SetUp(cls, args.seed, time.perf_counter)
        tracer = layers.Tracer()
        uninstall = layers.install(tracer)
        try:
            latencies, errors, elapsed = measure(setup.workload, None, cls.trace_ops)
        finally:
            uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup()
    else:
        with hostspeed.Meter(HOST_SPEED_INTERVAL_S) as meter:
            setup = SetUp(cls, args.seed, meter.clock)
            latencies, errors, elapsed = measure(setup.workload, args.seconds,
                                                 between=setup.between_ops, clock=meter.clock)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup()

    for line in errors[:20]:
        print(line, file=sys.stderr)
    attempted, failed = len(latencies), len(errors)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": setup.inputs,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "setup_s_samples": setup.times, "elapsed_s": elapsed,
        "op_ms": [round(x * 1e3, 4) for x in latencies],
    }
    if not args.trace:
        slowdown = meter.slowdown()
        record.update(host_chunks=meter.chunks, host_slowdown=slowdown,
                      raw_ops_per_s=(attempted - failed) / sum(latencies))
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = tracer.metrics()
    else:
        # in seconds of the reference host, so that the host's drift cancels
        values = {
            "setup_s": statistics.median(setup.times) / slowdown,
            "ops_per_s": (attempted - failed) / (sum(latencies) / slowdown),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def child(name: str, seed: int, seconds: int, traced: int):
    """One workload in a fresh interpreter; returns (exit code, record, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("record "):
        raise RuntimeError(f"{name}: benchmark run failed with exit code {proc.returncode}")
    return proc.returncode, json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def summary(args) -> int:
    worst = 0
    for name in WORKLOADS:
        code, rec, res = child(name, args.seed, args.seconds, 0)
        tcode, trec, tres = child(name, args.seed, args.seconds, 1)
        worst = max(worst, code, tcode)
        n = len(rec["op_ms"])
        print(f"== {name}  seed {rec['seed']}  {n} operations in {rec['elapsed_s']:.1f} s  "
              f"python {rec['python']}  nproc {rec['nproc']}  {rec['platform']}")
        print(f"   inputs {json.dumps(rec['inputs'])}")
        slowdown = rec["host_slowdown"]
        print(f"   host slowdown {slowdown:.4g} over the reference host ({rec['host_chunks']} chunks); "
              f"times below are in its seconds, raw ops_per_s {rec['raw_ops_per_s']:.6g}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:<14} {m['value']:>14.6g} {m['unit']}")
        # latency percentiles are printed here but not gated (see README.md);
        # p90 only where at least ten samples lie beyond it
        ms = sorted(x / slowdown for x in rec["op_ms"])
        print(f"   {'op_p50_ms':<14} {statistics.median(ms):>14.6g} ms   (over {n} samples)")
        if n >= 100:
            p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
            print(f"   {'op_p90_ms':<14} {p90:>14.6g} ms   (over {n} samples)")
        print(f"   {'fail_ratio':<14} {res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']}/{res['attempted']})")
        common = min(n, len(trec["op_ms"]))
        overhead = sum(trec["op_ms"][:common]) / sum(rec["op_ms"][:common])
        print(f"-- {name} layers (traced run, {len(trec['op_ms'])} operations; "
              f"tracing overhead {overhead:.2f}x over the first {common} operations)")
        op_s = sum(trec["op_ms"]) / 1e3
        for metric, m in tres["metrics"].items():
            share = f"  {m['value'] / op_s:7.2%} of operation time" if m["unit"] == "s" else ""
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}{share}")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload here; without it, run all and summarise")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return summary(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
