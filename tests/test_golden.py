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
