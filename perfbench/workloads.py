"""The benchmark's workloads: seeded inputs, one operation, and its oracle.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished.  A workload is built from the
imported program and a seed; ``ops()`` yields ``(run, check)`` pairs, where
``run`` calls the program and is timed, and ``check`` raises ``WrongOutput``
when the result is wrong.  Only public functions of ``superthick`` are
called, always through their module, so that tracing wrappers apply.

Why these two (see ``perfbench/README.md`` for the layer table):

- ``certify`` is the paper's headline computation, dominated by the ``cech``
  H^1 window scan;
- ``gluing`` is the randomized order-2 gluing calculus, bound by
  ``supermap.compose`` and never touching the window scan.

A workload's ``trace_ops`` is the fixed number of operations a traced run
makes, so that layer counters measure work, not how much work fits in the
time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random

# Frozen verdicts: status, exit code, nonzero coordinates, (h1, h2).  The
# acceptance suite freezes all of (3,0,-6) and the verdict of (4,-1,-7); the
# dimensions of (4,-1,-7) are written out from the closed formulas, so that a
# change to those formulas cannot move the oracle along with the program.
HEADLINE = {
    (3, 0, -6): ("unobstructed", 1, [], (1, 11)),
    (4, -1, -7): ("obstructed-exhibited", 0, ["-1"], (1, 22)),
}

# Every triple in [-8, 8] meeting the constraint system and all three exact
# existence conditions; the headline pair is among them.
ADMISSIBLE = [
    (3, 0, -6), (3, 1, -6), (4, -1, -7), (4, 0, -7), (4, 1, -7), (4, 2, -7),
    (5, -2, -8), (5, -1, -8), (5, 0, -8), (5, 1, -8), (5, 2, -8), (5, 3, -8),
]

# The acceptance suite's pool for randomized gluing cases.
DEGREE_POOL = [(3, 0, -6), (4, -1, -7), (2, 1, -5), (1, -2, 3), (2, 2, -3), (0, 0, 0), (-1, 0, 2)]


class WrongOutput(Exception):
    """The program returned a result the oracle rejects."""


def expect(ok: bool, what: str):
    if not ok:
        raise WrongOutput(what)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def run_cli(prog, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = prog.cli.main(argv)
        except SystemExit as exit_:  # argparse and usage errors exit; that is an exit code
            code = exit_.code
    return code, out.getvalue()


class Certify:
    """One end-to-end certificate per operation: ``pushforward --json``."""

    name = "certify"
    min_ops = len(HEADLINE)
    trace_ops = len(HEADLINE) + 1  # both headline triples and the first draw

    def __init__(self, prog, seed: int):
        self.prog = prog
        self.rng = random.Random(seed)
        self.others = [k for k in ADMISSIBLE if k not in HEADLINE]
        self.draws = self.rng.sample(self.others, len(self.others))
        # closed formulas, independent of the window scan under test
        self.expected = {}
        for k in ADMISSIBLE:
            degrees = prog.bott.SplitBundleDegrees(k)
            h1, _ = prog.bott.split_sheaf_dims(degrees, "tangent_wedge", 1, m=2)
            h2, _ = prog.bott.split_sheaf_dims(degrees, "wedge_dual", 2, m=3)
            self.expected[k] = (h1, h2)
        self.seen: dict = {}

    def inputs(self) -> dict:
        return {"headline": [list(k) for k in HEADLINE],
                "draws": [list(k) for k in self.draws]}

    def ops(self):
        # Both headline triples, then one seeded draw, over and over: from the
        # fourth operation on a headline triple repeats, so the byte-identity
        # check runs, and fewer of a run's operations hinge on the seed.
        draws = self.draws
        while True:
            for draw in draws:
                for k in (*HEADLINE, draw):
                    argv = ["pushforward", "--degrees", ",".join(map(str, k)), "--json"]
                    yield (lambda argv=argv: run_cli(self.prog, argv)), \
                        (lambda res, k=k: self.check(k, res))
            draws = self.rng.sample(self.others, len(self.others))

    def check(self, k, res):
        code, out = res
        payload = json.loads(out)
        rep = payload["outputs"]
        h1, h2 = self.expected[k]
        expect(payload["exact"] is True and rep["exact"] is True, f"{k}: not exact")
        expect(rep["h1_dim"] == h1 and rep["h2_dim"] == h2,
               f"{k}: dims {rep.get('h1_dim')}, {rep.get('h2_dim')} != {h1}, {h2}")
        status = rep["status"]
        coords = [c["class_coordinates"] for c in rep["classes"]]
        expect(len(coords) == h1 and all(len(c) == h2 for c in coords),
               f"{k}: coordinate shape")
        nonzero = [x for c in coords for x in c if x != "0"]
        expect(status == ("obstructed-exhibited" if nonzero else "unobstructed"),
               f"{k}: status {status!r} disagrees with the coordinates")
        expect(code == (0 if status == "obstructed-exhibited" else 1), f"{k}: exit code {code}")
        if k in HEADLINE:
            expect((status, code, nonzero, (rep["h1_dim"], rep["h2_dim"])) == HEADLINE[k],
                   f"{k}: verdict {status!r}, exit {code}, nonzero {nonzero}, "
                   f"dims {rep['h1_dim']}, {rep['h2_dim']}")
        # canonical JSON must be byte-identical across repeats within a run
        expect(self.seen.setdefault(k, out) == out, f"{k}: output changed between repeats")


class Gluing:
    """One randomized order-2 gluing case on P^2 per operation."""

    name = "gluing"
    min_ops = 1
    cases = 8 * len(DEGREE_POOL)
    trace_ops = cases  # every generated case once

    def __init__(self, prog, seed: int):
        self.prog = prog
        rng = random.Random(seed)
        self.cover = prog.cech.standard_cover(2)
        self.pool = []
        for i in range(self.cases):
            degrees = prog.bott.SplitBundleDegrees(DEGREE_POOL[i % len(DEGREE_POOL)])
            spec = prog.supermap.slot_sheaf(self.cover, degrees, 2)
            omega = prog.cech.random_closed_cochain(spec, rng)
            nu = prog.cech.random_cochain(spec, 0, rng, terms=2)
            self.pool.append((degrees, omega, nu))

    def inputs(self) -> dict:
        return {
            "cases": len(self.pool),
            "degrees": [list(d.degrees) for d, _, _ in self.pool[: len(DEGREE_POOL)]],
            "digest": digest([[list(d.degrees), o.to_json(), n.to_json()]
                              for d, o, n in self.pool]),
        }

    def ops(self):
        for case in itertools.cycle(self.pool):
            yield (lambda case=case: self.run(*case)), self.check

    def run(self, degrees, omega, nu) -> dict:
        sm, cech, cover = self.prog.supermap, self.prog.cech, self.cover
        t = sm.build_trivialization(cover, degrees, 2, {2: omega})
        gamma = sm.obstruction_cocycle(t)
        checks = {
            "gamma_verified": bool(sm.verify_gamma_cocycle(gamma, t)["pass"]),
            "pushforward_agrees": (sm.pushforward_partial(omega, t) - gamma).is_zero(),
        }
        lam = sm.automorphism_from_increment(cover, degrees, 2, nu, 2)
        conj = sm.conjugate(t, lam)
        checks["conjugate_glues"] = sm.residuals_all_zero(sm.cocycle_residual(conj))
        checks["conjugate_keeps_gamma"] = (sm.obstruction_cocycle(conj) - gamma).is_zero()
        shifted = sm.act_torsor(t, cech.coboundary(nu))
        checks["exact_shift_equivalent"] = sm.equivalence_witness(t, shifted) is not None
        return checks

    @staticmethod
    def check(checks: dict):
        failed = [name for name, ok in checks.items() if not ok]
        expect(not failed, f"gluing checks failed: {failed}")


WORKLOADS = {w.name: w for w in (Certify, Gluing)}
