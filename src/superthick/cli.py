"""Command-line surface with canonical JSON output and a small exit-code
contract: 0 for success (including a positive certificate), 1 for a valid
negative mathematical certificate, 2 for usage errors or malformed input,
3 when an internal self-check fails (an ``AssertionError``, reported as one
line on stderr).  Timing goes to stderr so the JSON on stdout is byte-stable
across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__, cech, supermap
from .bott import SplitBundleDegrees, bott_dim
from .obstruct import check_split_conditions, search_split_triples, sufficient_l_nonsplit
from .pipeline import DEFAULT_WINDOW, pipeline_obstructed_cp2

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_SELF_CHECK = 3


_escape = json.encoder.encode_basestring_ascii


def canonical_json(obj) -> str:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=1)``.

    ``json.dumps`` with an indent runs the pure-Python encoder; this writer
    builds the same text with the C string escaper.  It takes str-keyed
    dicts, lists, tuples, str, int, bool and None, and raises ``TypeError``
    on anything else, floats included: the engine is exact.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list) -> None:
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + " "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _escape(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit(args, payload: dict, human: str):
    """Print the human text, or with ``--json`` the canonical JSON of the
    payload, tagged with the tool and its version (see ``canonical_json``)."""
    if args.json:
        payload = {"tool": "superthick", "version": __version__, **payload}
        print(canonical_json(payload))
    else:
        print(human)


def parse_degrees(text: str) -> SplitBundleDegrees:
    try:
        return SplitBundleDegrees(tuple(int(x) for x in text.split(",")))
    except ValueError as err:
        raise ValueError(f"bad degrees {text!r}: {err}") from err


def cmd_bott(args) -> int:
    d = bott_dim(args.n, args.p, args.q, args.k)
    emit(args, {"command": "bott", "inputs": vars_of(args, "n", "p", "q", "k"),
                "outputs": {"dim": d}, "exact": True}, str(d))
    return EXIT_OK


def cmd_cohomology(args) -> int:
    spec = cech.line_sum(cech.standard_cover(args.n), [args.k])
    d = sum(len(classes) for _, _, classes in cech.class_blocks(spec, args.q))
    emit(args, {"command": "cohomology", "inputs": vars_of(args, "n", "k", "q"),
                "outputs": {"dim": d, "method": cech.LINE_BUNDLE_METHOD}, "exact": True}, str(d))
    return EXIT_OK


def cmd_check(args) -> int:
    degrees = parse_degrees(args.degrees)
    report = check_split_conditions(degrees)
    human = [f"degrees {degrees.degrees}  eq74={report.constraint_eq74}"]
    for i in range(3):
        holds, witness = report.direct_conditions[i]
        human.append(
            f"  condition {i + 1}: naive={report.naive_conditions[i]} "
            f"exact={holds} witness={witness}"
        )
    for flag in report.discrepancy_flags:
        human.append(f"  flag: {flag}")
    emit(args, {"command": "check-lemma71", "inputs": {"degrees": list(degrees.degrees)},
                "outputs": report.to_json(), "exact": True}, "\n".join(human))
    return EXIT_OK


def cmd_search(args) -> int:
    hits = search_split_triples(args.lo, args.hi)
    lines = []
    for h in hits:
        mark = "all-exact" if h.direct_all else "flagged"
        lines.append(f"{h.degrees.degrees}  witnesses={h.witnesses}  {mark}")
    emit(args, {"command": "search", "inputs": {"lo": args.lo, "hi": args.hi},
                "outputs": {"count": len(hits), "reports": [h.to_json() for h in hits]},
                "exact": True}, "\n".join(lines) if lines else "no triples")
    return EXIT_OK


def cmd_verify(args) -> int:
    t = supermap.read_trivialization(args.file)
    res = supermap.cocycle_residual(t)
    inv = supermap.inverse_residual(t)
    clean = supermap.residuals_all_zero(res) and all(
        supermap.difference_is_zero(d) for d in inv.values()
    )
    bad = sorted(k for k, d in res.items() if not supermap.difference_is_zero(d))
    payload = {
        "command": "verify",
        "inputs": {"file": args.file},
        "outputs": {"valid": clean, "order": t.order,
                    "failing_triples": [list(k) for k in bad]},
        "exact": True,
    }
    emit(args, payload, "valid trivialisation" if clean else f"cocycle fails at {bad}")
    return EXIT_OK if clean else EXIT_NEGATIVE


def cmd_gamma(args) -> int:
    t = supermap.read_trivialization(args.file)
    try:
        gamma, check = supermap.obstruction_with_check(t)
    except supermap.CocycleViolation as err:
        emit(args, {"command": "gamma", "inputs": {"file": args.file},
                    "outputs": {"error": str(err)}, "exact": True}, str(err))
        return EXIT_NEGATIVE
    payload = {
        "command": "gamma",
        "inputs": {"file": args.file},
        "outputs": {"gamma": gamma.to_json(), "is_zero": gamma.is_zero(),
                    "cocycle_check": bool(check["pass"])},
        "exact": True,
    }
    emit(args, payload, f"gamma zero: {gamma.is_zero()}, cocycle check: {check['pass']}")
    return EXIT_OK if check["pass"] else EXIT_NEGATIVE


def cmd_pushforward(args) -> int:
    degrees = parse_degrees(args.degrees)
    if args.window < 0:
        raise ValueError(f"--window must be nonnegative, got {args.window}")
    report = pipeline_obstructed_cp2(degrees.degrees, window=args.window, space=args.space)
    payload = {"command": "pushforward", "inputs": {"degrees": list(degrees.degrees),
               "window": args.window, "space": args.space}, "outputs": report,
               "exact": report.get("exact", True)}
    human = [f"status: {report['status']}"]
    if "classes" in report:
        for c in report["classes"]:
            human.append(f"  class coordinates: {c['class_coordinates']} nonzero={c['nonzero']}")
        human.append(f"  prediction nonzero, agrees: {report['agrees_with_prediction']}")
    emit(args, payload, "\n".join(human))
    return EXIT_OK if report["status"] == "obstructed-exhibited" else EXIT_NEGATIVE


def cmd_sufficient_l(args) -> int:
    cert = sufficient_l_nonsplit(args.k_prime)
    human = [f"threshold l0 = {cert.threshold}"]
    for part in cert.parts:
        human.append(f"  condition {part['condition']}: {part['bound']}")
    emit(args, {"command": "sufficient-l", "inputs": {"k_prime": args.k_prime},
                "outputs": cert.to_json(), "exact": True}, "\n".join(human))
    return EXIT_OK


def vars_of(args, *names) -> dict:
    return {n: getattr(args, n) for n in names}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superthick",
        description="exact computations with super-geometric thickenings of P^1 and P^2",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true", help="canonical JSON on stdout")
        p.set_defaults(fn=fn)
        return p

    p = add("bott", cmd_bott, help="closed-form h^q(P^n, Omega^p(k))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("cohomology", cmd_cohomology, help="sign-type linear-algebra h^q(P^n, O(k))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("check-lemma71", cmd_check,
            help="three existence conditions for a split rank-3 bundle")
    p.add_argument("--degrees", required=True, help="k1,k2,k3")

    p = add("search", cmd_search, help="degree triples meeting the constraint system")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = add("verify", cmd_verify, help="check a thickening file's cocycle condition")
    p.add_argument("--file", required=True)

    p = add("gamma", cmd_gamma, help="obstruction 2-cocycle of a thickening file")
    p.add_argument("--file", required=True)

    p = add("pushforward", cmd_pushforward,
            help="end-to-end obstructedness certificate for split degrees")
    p.add_argument("--degrees", required=True, help="k1,k2,k3")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help=f"cap on the H^1 characters used (default {DEFAULT_WINDOW})")
    p.add_argument("--space", choices=("P1", "P2"), default="P2")

    p = add("sufficient-l", cmd_sufficient_l,
            help="provable twist threshold for the decomposable non-split case")
    p.add_argument("--k-prime", type=int, required=True)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, which every ``main`` call reuses:
    parsing leaves an argparse parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except OSError as err:
        print(f"cannot read file: {err.filename}: {err.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"bad input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as err:
        message = " ".join(str(err).split())
        print(f"internal self-check failed: {message}", file=sys.stderr)
        return EXIT_SELF_CHECK
    finally:
        print(f"[{time.monotonic() - start:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
