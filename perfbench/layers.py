"""Per-layer tracing from outside the program.

Every traced function is replaced, in every ``superthick`` module that binds
it, by a wrapper that counts calls and accumulates inclusive and self time.
Methods of ``LaurentPoly`` and ``GrassmannElement`` are replaced on the class.
Self time is the call's duration minus the time spent in traced callees, so
summing self time over all targets never counts an interval twice.  Inclusive
time of a recursive function is counted at its outermost activation only.

A few counters are derived from arguments and return values (characters
visited by the H^1 window scan, block sizes, rank-computation sizes).
``Tracer.metrics`` reports exactly the ``per_layer`` metrics of
``BENCHMARK.json``, in its order; ``selftest.py`` checks that.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute path, stats reported)
TARGETS = [
    ("laurent.compose", "laurent", "LaurentPoly.compose", ("calls", "s", "self_s")),
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", ("calls", "self_s")),
    ("exterior.substitute_nilpotent", "exterior", "substitute_nilpotent",
     ("calls", "s", "self_s")),
    ("exterior.wedge", "exterior", "GrassmannElement.wedge", ("calls", "self_s")),
    ("cech.represent", "cech", "represent", ("calls", "s", "self_s")),
    ("cech.coboundary", "cech", "coboundary", ("calls", "s", "self_s")),
    ("cech.delta_block_matrix", "cech", "delta_block_matrix", ("calls", "s", "self_s")),
    ("cech.h1_representatives", "cech", "h1_representatives", ("calls", "s", "self_s")),
    ("cech.solve_coboundary", "cech", "solve_coboundary", ("calls", "s", "self_s")),
    ("cech.enumerate_chars", "cech", "enumerate_chars", ()),
    ("linalg.rref", "linalg", "rref", ("calls", "s", "self_s")),
    ("bott.bott_dim", "bott", "bott_dim", ("calls", "s")),
    ("supermap.compose", "supermap", "compose", ("calls", "s", "self_s")),
] + [
    (f"supermap.{name}", "supermap", name, ("calls", "s"))
    for name in (
        "invert", "normalize_inverses", "build_trivialization", "obstruction_cocycle",
        "verify_gamma_cocycle", "pushforward_partial", "conjugate", "act_torsor",
        "equivalence_witness", "cocycle_residual",
    )
] + [
    ("obstruct.check_split_conditions", "obstruct", "check_split_conditions", ("calls", "s")),
    ("pipeline.pipeline_obstructed_cp2", "pipeline", "pipeline_obstructed_cp2",
     ("calls", "s", "self_s")),
    ("pipeline.class_coordinates", "pipeline", "class_coordinates", ("calls", "s")),
    ("cli.main", "cli", "main", ("calls", "s", "self_s")),
    ("cli.build_parser", "cli", "build_parser", ("calls", "s")),
]

UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# derived metrics: name -> unit
DERIVED = {
    "cech.chars_visited": "count",
    "cech.blocks_nonempty": "count",
    "cech.block_max_cells": "cells",
    "cech.h1_useful_ratio": "ratio",
    "linalg.rref.max_cells": "cells",
}


class Tracer:
    """Call counts, inclusive and self time per traced function."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # prefix -> [calls, incl, self, depth]
        self.frames = [0.0]  # traced-callee time of each active call
        self.counters = {"chars": 0, "blocks": 0, "block_cells": 0, "classes": 0,
                         "rref_cells": 0}

    def wrap(self, prefix: str, fn, observe=None):
        st = self.stats.setdefault(prefix, [0, 0.0, 0.0, 0])
        frames = self.frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st[0] += 1
            st[3] += 1
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                children = frames.pop()
                frames[-1] += dur
                st[2] += dur - children
                st[3] -= 1
                if st[3] == 0:
                    st[1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # observers for the derived counters

    def _chars(self, args, result):
        self.counters["chars"] += len(result)

    def _block(self, args, result):
        dom, cod, _ = result
        if dom:
            self.counters["blocks"] += 1
        self.counters["block_cells"] = max(self.counters["block_cells"], len(dom) * len(cod))

    def _h1(self, args, result):
        self.counters["classes"] += result.dims[1]

    def _rref(self, args, result):
        mat = args[0]
        cells = len(mat) * (len(mat[0]) if mat else 0)
        self.counters["rref_cells"] = max(self.counters["rref_cells"], cells)

    def observer(self, prefix: str):
        return {
            "cech.enumerate_chars": self._chars,
            "cech.delta_block_matrix": self._block,
            "cech.h1_representatives": self._h1,
            "linalg.rref": self._rref,
        }.get(prefix)

    def metrics(self) -> dict:
        out = {}
        for prefix, _, _, stats in TARGETS:
            calls, incl, self_s, _ = self.stats.get(prefix, [0, 0.0, 0.0, 0])
            values = {"calls": calls, "s": incl, "self_s": self_s}
            for stat in stats:
                out[f"{prefix}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
        c = self.counters
        derived = {
            "cech.chars_visited": c["chars"],
            "cech.blocks_nonempty": c["blocks"],
            "cech.block_max_cells": c["block_cells"],
            "cech.h1_useful_ratio": c["classes"] / c["chars"] if c["chars"] else 0.0,
            "linalg.rref.max_cells": c["rref_cells"],
        }
        for name, value in derived.items():
            out[name] = {"value": value, "unit": DERIVED[name]}
        return out


def _target(module: str, path: str):
    """(owner, attribute, function) for a dotted path inside ``superthick.<module>``."""
    owner = sys.modules[f"superthick.{module}"]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def originals() -> dict:
    """prefix -> the untraced function object, from the imported package."""
    return {prefix: _target(module, path)[2] for prefix, module, path, _ in TARGETS}


def install(tracer: Tracer):
    """Wrap every target at every binding; returns a function that undoes it."""
    undo = []
    package = [m for name, m in sys.modules.items()
               if name == "superthick" or name.startswith("superthick.")]
    for prefix, module, path, _ in TARGETS:
        owner, attr, fn = _target(module, path)
        traced = tracer.wrap(prefix, fn, tracer.observer(prefix))
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [(m, name) for m in package
                        for name, value in list(vars(m).items()) if value is fn]
        for obj, name in bindings:
            setattr(obj, name, traced)
            undo.append((obj, name, fn))

    def uninstall():
        for obj, name, fn in reversed(undo):
            setattr(obj, name, fn)

    return uninstall
