"""Self-test of the tracing wrappers: traced call counts equal cProfile's.

    python3 perfbench/selftest.py

Runs one small input that reaches every layer twice, each time on a fresh
import of the program: once under cProfile with no wrappers installed, once
traced.  For every traced function the wrapper's call count must equal
cProfile's count for the original function, which shows that every binding of
it was wrapped, and must be at least one, which shows the input reaches it.
The traced run's metric names and units must also be the ``per_layer`` list
of ``BENCHMARK.json``, in order.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys

import layers
import run
from workloads import Gluing, run_cli


def small_input(prog) -> list:
    """A certificate with a one-unit window, one gluing case, and the CLI commands
    that call traced functions through the ``cli`` module's own bindings."""
    commands = [
        ["pushforward", "--degrees", "4,-1,-7", "--window", "1"],
        ["pushforward", "--degrees", "0,0,0"],
        ["pushforward", "--degrees", "3,0,-6", "--space", "P1"],
        ["bott", "--n", "2", "--p", "0", "--q", "2", "--k", "-5"],
        ["check-lemma71", "--degrees", "4,-1,-7"],
    ]
    ops = [lambda argv=argv: run_cli(prog, argv + ["--json"]) for argv in commands]
    gluing = Gluing(prog, 1)
    ops.append(lambda: gluing.run(*gluing.pool[0]))
    return ops


def profiled_counts() -> dict:
    ops = small_input(run.load_program())
    originals = layers.originals()
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:
        op()
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    counts = {}
    for prefix, fn in originals.items():
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        counts[prefix] = entry[1] if entry else 0
    return counts


def traced_run() -> layers.Tracer:
    ops = small_input(run.load_program())
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        for op in ops:
            op()
    finally:
        uninstall()
    return tracer


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected = profiled_counts()
    tracer = traced_run()
    got = {prefix: tracer.stats.get(prefix, [0])[0] for prefix in expected}
    bad = 0
    for prefix, want in expected.items():
        ok = want == got[prefix] and want > 0
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {prefix:<36} cProfile {want:>8}  traced {got[prefix]:>8}")
    print(f"{len(expected) - bad}/{len(expected)} traced functions match cProfile")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    reported = [(name, m["unit"]) for name, m in tracer.metrics().items()]
    if reported != [(m["name"], m["unit"]) for m in spec]:
        bad += 1
        print("FAIL traced metrics differ from the per_layer list of BENCHMARK.json")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
