"""Byte-identity of the canonical JSON: frozen digests of CLI and cochain output.

Refactors of the cochain layer must leave every serialised answer unchanged,
so these digests are frozen, not recomputed.  They do not depend on
PYTHONHASHSEED.
"""

import contextlib
import hashlib
import io
import json
import random

from superthick import cech, cli, supermap
from superthick.bott import SplitBundleDegrees
from test_acceptance import DEGREE_POOL

# Every triple in [-8, 8] meeting the constraint system and all three exact
# existence conditions, in the order of perfbench/workloads.py's ADMISSIBLE.
ADMISSIBLE = [
    (3, 0, -6), (3, 1, -6), (4, -1, -7), (4, 0, -7), (4, 1, -7), (4, 2, -7),
    (5, -2, -8), (5, -1, -8), (5, 0, -8), (5, 1, -8), (5, 2, -8), (5, 3, -8),
]

PUSHFORWARD_SHA256 = "73270b1d7f05220b99b0f60c8cb15e8975983b723932ca8d8a3b5333ab76e70d"
GLUING_ROWS_SHA256 = "a560190be7c3f3de8f7b24aebcde7a11c97be26aec28dc162bcabaa5d36889cb"
CLI_SWEEP_SHA256 = "ebe666668ef14abe16d88b34b85aa63d762b0725cd0882caec8aebcbf1865399"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pushforward_json_is_byte_identical():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for k in ADMISSIBLE:
            cli.main(["pushforward", "--degrees", ",".join(map(str, k)), "--json"])
    assert sha256(out.getvalue()) == PUSHFORWARD_SHA256


def test_seeded_cochain_and_gluing_json_is_byte_identical():
    rng = random.Random(2026)
    cover = cech.standard_cover(2)
    rows = []
    for degrees in DEGREE_POOL:
        degrees = SplitBundleDegrees(degrees)
        spec = supermap.slot_sheaf(cover, degrees, 2)
        omega = cech.random_closed_cochain(spec, rng)
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
        gamma = supermap.obstruction_cocycle(t)
        rows.append([omega.to_json(), nu.to_json(), cech.coboundary(nu).to_json(),
                     gamma.to_json(), supermap.trivialization_to_json(t)])
    assert sha256(json.dumps(rows, sort_keys=True)) == GLUING_ROWS_SHA256


def cli_sweep_calls(file: str) -> list[list[str]]:
    """Every subcommand over a fixed grid, each call plain and with ``--json``."""
    calls = [["cohomology", "--n", str(n), "--k", str(k), "--q", str(q)]
             for n in (1, 2) for k in range(-9, 10, 3) for q in range(-1, 4)]
    for k in ((3, 0, -6), (4, -1, -7), (0, 0, 0), (8, -1, -2)):
        calls += [[command, "--degrees", ",".join(map(str, k))]
                  for command in ("check-lemma71", "pushforward")]
    calls += [["search", "--lo", "-8", "--hi", "8"],
              ["sufficient-l", "--k-prime", "-3"], ["sufficient-l", "--k-prime", "0"]]
    calls += [["bott", "--n", "2", "--p", str(p), "--q", str(q), "--k", str(k)]
              for p in range(3) for q in range(3) for k in (-4, -1, 0, 2)]
    calls += [[command, "--file", file] for command in ("verify", "gamma")]
    return [argv + flag for argv in calls for flag in ([], ["--json"])]


def test_cli_sweep_stdout_and_exit_codes_are_byte_identical(tmp_path):
    """The stdout and exit code of every call in the sweep, with the thickening
    file's path replaced by a placeholder; stderr carries timings and is not
    part of the digest."""
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees((4, -1, -7))
    gen = cech.h1_representatives(supermap.slot_sheaf(cover, degrees, 2)).representatives[1][0]
    t = supermap.build_trivialization(cover, degrees, 2, {2: gen})
    path = tmp_path / "gen.json"
    path.write_text(cli.canonical_json(supermap.trivialization_to_json(t)) + "\n")
    transcript = []
    for argv in cli_sweep_calls(str(path)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        transcript.append(f"{' '.join(argv)}\n{code}\n{out.getvalue()}")
    transcript = "\n".join(transcript).replace(str(path), "<file>")
    assert sha256(transcript) == CLI_SWEEP_SHA256
