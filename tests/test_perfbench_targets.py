"""The traced benchmark looks up each of its targets by name in the package.

``perfbench/layers.py`` resolves every ``TARGETS`` entry with
``owner.__dict__[attr]``, so deleting or renaming a traced function breaks
``perfbench/run.py --trace 1``.  This test loads that file without changing it
and resolves every name against the package, each to a plain function.  Its
tracer must also see the work under each name: every check of a gluing case
composes through ``supermap.compose``.  ``perfbench/selftest.py``, which
compares the traced counts with cProfile's, must run to its known state.
"""

import importlib
import subprocess
import sys
import types
from pathlib import Path

import superthick
from test_int_kernel import run_gluing_case

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
SELFTEST = LAYERS.with_name("selftest.py")


def load_layers():
    """The module from its source, writing no bytecode next to it."""
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    layers = load_layers()
    for _, module, _, _ in layers.TARGETS:
        importlib.import_module(f"{superthick.__name__}.{module}")
    found = layers.originals()
    assert list(found) == [prefix for prefix, _, _, _ in layers.TARGETS]
    assert all(callable(fn) for fn in found.values())


def test_every_traced_target_is_a_plain_function():
    # perfbench/selftest.py finds each target in cProfile's table by its
    # code object; a memo wrapper (functools.cache) has none, and the
    # self-test would stop with an AttributeError instead of a FAIL line
    for prefix, fn in load_layers().originals().items():
        assert isinstance(getattr(fn, "__code__", None), types.CodeType), prefix


def test_traced_gluing_case_sees_every_composition():
    # each check of a gluing case composes through the module's ``compose``,
    # so the traced layer counts all 20 compositions of a case; a check that
    # composed by another path would leave ``supermap.compose`` short
    layers = load_layers()
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        run_gluing_case(1, (4, -1, -7))
    finally:
        uninstall()
    metrics = tracer.metrics()
    assert metrics["supermap.compose.calls"]["value"] == 20
    assert metrics["supermap.invert.calls"]["value"] == 0


def test_tracing_selftest_reports_its_known_state():
    # the self-test finds each target in cProfile's table by its code
    # object, so a memo wrapper on a traced name stops it with a traceback;
    # five targets that its small input no longer reaches are its known FAIL
    # lines.  -B writes no bytecode next to the benchmark's files
    run = subprocess.run([sys.executable, "-B", str(SELFTEST)], capture_output=True,
                         text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "Traceback" not in out, out
    assert "23/28 traced functions match cProfile" in run.stdout, out
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAIL")]
    assert failed == ["laurent.compose", "laurent.mul", "exterior.substitute_nilpotent",
                      "exterior.wedge", "supermap.invert"], out
    assert run.returncode == 1
