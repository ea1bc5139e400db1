import copy
import json
from fractions import Fraction
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superthick import cech, cli, supermap
from superthick.bott import SplitBundleDegrees
from superthick.cli import main
from test_golden import ADMISSIBLE
from test_supermap import write_thickening


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bott_command(capsys):
    code, out, _ = run(capsys, "bott", "--n", "2", "--p", "1", "--q", "1", "--k", "0")
    assert code == 0
    assert out.strip() == "1"


def test_cohomology_command_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "2", "--k", "-4", "--q", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["dim"] == 3
    assert data["outputs"]["method"] == "monomial-oracle"


def test_cohomology_command_counts_without_building_cochains(monkeypatch, capsys):
    # the command counts the classes of the sign-type table; the library's
    # line_bundle_cohomology builds their representatives and agrees
    expected = {}
    for n, k, q in [(1, -2, 1), (2, -4, 2), (2, 0, 0), (2, 5, 0), (2, -1, 1), (1, 3, 2)]:
        rep = cech.line_bundle_cohomology(n, k, q)
        expected[n, k, q] = {"dim": rep.dims[q], "method": rep.method}

    def refused(*args):
        raise AssertionError("the cohomology command builds no cochain")

    monkeypatch.setattr(cech, "cochain_from_slots", refused)
    for (n, k, q), outputs in expected.items():
        code, out, _ = run(capsys, "cohomology", "--n", str(n), "--k", str(k), "--q", str(q),
                           "--json")
        assert code == 0 and json.loads(out)["outputs"] == outputs
    assert run(capsys, "cohomology", "--n", "3", "--k", "0", "--q", "0")[0] == 2


def test_check_command_json(capsys):
    code, out, _ = run(capsys, "check-lemma71", "--degrees", "3,0,-6", "--json")
    assert code == 0
    data = json.loads(out)
    direct = data["outputs"]["direct"]
    assert all(direct[c]["holds"] for c in ("c1", "c2", "c3"))


def test_search_command(capsys):
    code, out, _ = run(capsys, "search", "--lo", "-8", "--hi", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["count"] == 16


def test_verify_split_model(tmp_path, capsys):
    t = supermap.split_trivialization(cech.standard_cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    path = tmp_path / "split_model_p2.json"
    write_thickening(t, path)
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert "valid" in out


def test_verify_detects_corruption(tmp_path, capsys):
    t = supermap.split_trivialization(cech.standard_cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    data = supermap.trivialization_to_json(t)
    data["maps"]["0,1"]["even"][0].append({"indices": [1, 2], "coef": [{"exps": [0, 0], "coef": "1"}]})
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--file", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["outputs"]["valid"] is False
    assert payload["outputs"]["failing_triples"]


def test_gamma_command(tmp_path, capsys):
    cov = cech.standard_cover(2)
    deg = SplitBundleDegrees((4, -1, -7))
    spec = supermap.slot_sheaf(cov, deg, 2)
    gen = cech.h1_representatives(spec).representatives[1][0]
    t = supermap.build_trivialization(cov, deg, 2, {2: gen})
    path = tmp_path / "gen.json"
    write_thickening(t, path)
    code, out, _ = run(capsys, "gamma", "--file", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["cocycle_check"] is True
    assert data["outputs"]["is_zero"] is False


def test_gamma_exits_one_when_its_cocycle_check_fails(tmp_path, capsys):
    # without its "1,0" map the generator file falls back to the split map
    # there: the sorted triple still gives a gamma, but the defect on the
    # three triples through 1 -> 0 has low-degree parts, so the check fails
    data = generator_json()
    del data["maps"]["1,0"]
    path = tmp_path / "no_10.json"
    path.write_text(cli.canonical_json(data) + "\n")
    code, out, _ = run(capsys, "verify", "--file", str(path), "--json")
    assert code == 1
    assert json.loads(out)["outputs"]["failing_triples"] == [[1, 0, 2], [1, 2, 0], [2, 1, 0]]
    code, out, _ = run(capsys, "gamma", "--file", str(path), "--json")
    assert code == 1
    outputs = json.loads(out)["outputs"]
    assert outputs["cocycle_check"] is False and "gamma" in outputs
    code, out, _ = run(capsys, "gamma", "--file", str(path))
    assert code == 1
    assert out == "gamma zero: False, cocycle check: False\n"


def test_gamma_rejects_invalid_gluing(tmp_path, capsys):
    t = supermap.split_trivialization(cech.standard_cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    data = supermap.trivialization_to_json(t)
    data["maps"]["0,1"]["even"][0].append(
        {"indices": [1, 2], "coef": [{"exps": [0, 0], "coef": "1"}]}
    )
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "gamma", "--file", str(path), "--json")
    assert code == 1
    assert "error" in json.loads(out)["outputs"]


def test_pushforward_exit_codes(capsys):
    code, out, _ = run(capsys, "pushforward", "--degrees", "4,-1,-7", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["status"] == "obstructed-exhibited"
    code, out, _ = run(capsys, "pushforward", "--degrees", "3,0,-6", "--json")
    assert code == 1
    assert json.loads(out)["outputs"]["status"] == "unobstructed"
    code, out, _ = run(capsys, "pushforward", "--degrees", "0,0,0", "--json")
    assert code == 1
    code, out, _ = run(capsys, "pushforward", "--degrees", "3,0,-6", "--space", "P1", "--json")
    assert code == 1
    assert json.loads(out)["outputs"]["status"] == "vacuously-unobstructed"


def test_sufficient_l_command(capsys):
    code, out, _ = run(capsys, "sufficient-l", "--k-prime", "-3", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["threshold"] == -2


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bott", "--n", "2"])
    assert err.value.code == 2
    code, _, _ = run(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "verify", "--file", str(bad))
    assert code == 2
    code, out, err = run(capsys, "sufficient-l", "--k-prime", "0")
    assert code == 2 and out == ""
    assert err.splitlines()[0] == ("bad input: unsupported k_prime: "
                                   "the threshold construction needs -3")
    # a directory and JSON nested past the parser's recursion limit are
    # unreadable input, not a negative certificate (exit 1) or a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for path, message in ((tmp_path, "cannot read file"), (deep, "bad input")):
        for command in ("verify", "gamma"):
            code, out, err = run(capsys, command, "--file", str(path))
            assert code == 2 and out == "" and message in err, (command, path)
            assert "Traceback" not in err


def test_window_flag_sets_pushforward_input(capsys):
    argv = ["pushforward", "--degrees", "3,0,-6", "--space", "P1", "--json"]
    code, out, _ = run(capsys, *argv, "--window", "3")
    assert code == 1 and json.loads(out)["inputs"]["window"] == 3
    code, out, _ = run(capsys, *argv)
    assert code == 1 and json.loads(out)["inputs"]["window"] == 10


def test_json_output_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "check-lemma71", "--degrees", "3,0,-6", "--json")
    _, out2, _ = run(capsys, "check-lemma71", "--degrees", "3,0,-6", "--json")
    assert out1 == out2
    _, out1, _ = run(capsys, "pushforward", "--degrees", "4,-1,-7", "--json")
    _, out2, _ = run(capsys, "pushforward", "--degrees", "4,-1,-7", "--json")
    assert out1 == out2


def test_malformed_degrees_exit_two(capsys):
    for command in ("pushforward", "check-lemma71"):
        code, out, err = run(capsys, command, "--degrees", "abc", "--json")
        assert code == 2 and out == "" and "bad degrees" in err


def test_bad_window_values_exit_two(capsys):
    argv = ["pushforward", "--degrees", "4,-1,-7", "--json"]
    code, out, err = run(capsys, *argv, "--window", "-3")
    assert code == 2 and out == "" and "--window" in err


def test_reused_parser_matches_fresh_parser(monkeypatch, capsys):
    # main parses every call with one parser per process; a call mixed among
    # others must print and exit exactly as a call through a freshly built one
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        return code, capsys.readouterr().out

    def fresh(argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            return outcome(argv)

    assert cli._parser() is cli._parser()
    p1 = ["pushforward", "--degrees", "3,0,-6", "--space", "P1", "--json"]
    bott = ["bott", "--n", "2", "--p", "1", "--q", "1", "--k", "0"]
    calls = [
        ["pushforward", "--degrees", "4,-1,-7", "--window", "3", "--json"],
        ["pushforward", "--degrees", "4,-1,-7", "--json"],
        bott + ["--json"],
        bott,
        ["bott", "--n", "2"],
        bott,
        p1 + ["--window", "4"],
        p1,
    ]
    seen = []
    for argv in calls:
        reused = outcome(argv)
        assert reused == fresh(argv), argv
        seen.append(reused)
    windows = [json.loads(out)["inputs"]["window"] for _, out in seen[:2] + seen[-2:]]
    assert windows == [3, 10, 4, 10]
    assert json.loads(seen[2][1])["outputs"] == {"dim": 1} and seen[3][1] == "1\n"
    assert seen[4] == (2, "") and seen[5] == (0, "1\n")


def test_subprocess_matches_in_process_bytes(capsys):
    argv = ["pushforward", "--degrees", "4,-1,-7", "--json"]
    run(capsys, "bott", "--n", "2", "--p", "1", "--q", "1", "--k", "0")  # a warm parser
    code, out, _ = run(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    assert code == 0 and json.loads(out)["outputs"]["status"] == "obstructed-exhibited"
    # -O strips assert statements; the certificate must not depend on them
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "superthick.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout) == (code, out), flags


def split_model_json():
    t = supermap.split_trivialization(cech.standard_cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    return supermap.trivialization_to_json(t)


def malformed_thickenings():
    yield [1, 2]
    for key, value in (("space", "P3"), ("degrees", "3,0,-6"), ("degrees", [3, "0", -6]),
                       ("order", 0), ("order", "2"), ("order", True), ("maps", [])):
        data = split_model_json()
        data[key] = value
        yield data
    for key in ("0,3", "0,0", "01", "1,0,2"):
        data = split_model_json()
        data["maps"][key] = data["maps"]["0,1"]
        yield data
    for part, value in (("even", 5), ("odd", None), ("even", [5, []]),
                        ("even", [[{"indices": "x", "coef": []}]]),
                        ("odd", [[{"indices": [1], "coef": [{"exps": [0, 0], "coef": 1.5}]}]])):
        data = split_model_json()
        data["maps"]["0,1"][part] = value
        yield data
    data = split_model_json()
    data["maps"]["1,2"] = 7
    yield data
    # P^2 with a rank-3 bundle: 2 even and 3 odd components, nothing else
    for n_even, n_odd in ((0, 3), (2, 2), (3, 3), (0, 0)):
        data = split_model_json()
        payload = data["maps"]["0,1"]
        payload["even"] = (payload["even"] * 2)[:n_even]
        payload["odd"] = payload["odd"][:n_odd]
        yield data
    # a word listed twice in one component, or exponents listed twice within
    # one word, would lose a term on reading
    for terms in ([{"indices": [1, 2], "coef": [{"exps": [0, 0], "coef": "5"}]},
                   {"indices": [1, 2], "coef": [{"exps": [1, 0], "coef": "7"}]}],
                  [{"indices": [1, 2], "coef": [{"exps": [0, 0], "coef": "5"},
                                                {"exps": [0, 0], "coef": "7"}]}]):
        data = split_model_json()
        data["maps"]["0,1"]["even"][0].extend(terms)
        yield data
    # an even body must be the chart transition, here 1/x: x + 1 is not a
    # monomial, and 2/x is a monomial but another one
    for body in ([{"exps": [1, 0], "coef": "1"}, {"exps": [0, 0], "coef": "1"}],
                 [{"exps": [-1, 0], "coef": "2"}]):
        data = split_model_json()
        data["maps"]["0,1"]["even"][0] = [{"indices": [], "coef": body}]
        yield data


# the reader's message for each case of ``malformed_thickenings``, in order
MALFORMED_MESSAGES = [
    "a thickening file is a JSON object",
    "unknown space 'P3'",
    "degrees must be a list of integers",
    "degrees must be a list of integers",
    "order must be an integer of at least 1, got 0",
    "order must be an integer of at least 1, got '2'",
    "order must be an integer of at least 1, got True",
    "maps must be an object keyed by chart pairs",
    "map key '0,3' is not a pair 'i,j' of distinct charts",
    "map key '0,0' is not a pair 'i,j' of distinct charts",
    "map key '01' is not a pair 'i,j' of distinct charts",
    "map key '1,0,2' is not a pair 'i,j' of distinct charts",
    "map 0,1 'even' must be a list of 2 components",
    "map 0,1 'odd' must be a list of 3 components",
    "map 0,1 'even' has a malformed term",
    "map 0,1 'even' must be a list of 2 components",
    "map 0,1 'odd' must be a list of 3 components",
    "map 1,2 must be an object with 'even' and 'odd'",
    "map 0,1 'even' must be a list of 2 components",
    "map 0,1 'odd' must be a list of 3 components",
    "map 0,1 'even' must be a list of 2 components",
    "map 0,1 'even' must be a list of 2 components",
    "a component lists an odd word twice, or an exponent vector twice within one word",
    "a component lists an odd word twice, or an exponent vector twice within one word",
    "map 0,1 even component 0: the body is not one monomial",
    "map 0,1 even component 0: the body is not the chart transition x^(-1, 0)",
]


def test_malformed_thickening_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    cases = list(malformed_thickenings())
    assert len(cases) == len(MALFORMED_MESSAGES) == 26
    for data, message in zip(cases, MALFORMED_MESSAGES):
        with pytest.raises(ValueError) as err:
            supermap.trivialization_from_json(data)
        assert str(err.value) == message
        path.write_text(json.dumps(data))
        for command in ("verify", "gamma"):
            code, out, err = run(capsys, command, "--file", str(path))
            assert code == 2 and out == "" and "bad input" in err, (command, data)
            assert err.splitlines()[0] == f"bad input: {message}", command
    path.write_text(json.dumps(split_model_json()))
    assert run(capsys, "verify", "--file", str(path))[0] == 0


def test_bad_coefficient_values_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for value in ("1/0", "0/0", True, False):
        data = split_model_json()
        data["maps"]["0,1"]["odd"][0][0]["coef"][0]["coef"] = value
        path.write_text(json.dumps(data))
        for command in ("verify", "gamma"):
            code, out, err = run(capsys, command, "--file", str(path))
            assert code == 2 and out == "" and "malformed term" in err, (command, value)
            assert "Traceback" not in err
    # a well-formed non-integral coefficient still reads
    data = split_model_json()
    data["maps"]["0,1"]["odd"][0][0]["coef"][0]["coef"] = "-3/2"
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", "--file", str(path))[0] == 1


def test_failed_self_check_exits_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("coboundary image is not\na codomain slot")

    monkeypatch.setattr("superthick.cli.pipeline_obstructed_cp2", broken)
    code, out, err = run(capsys, "pushforward", "--degrees", "4,-1,-7", "--json")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert lines[0] == "internal self-check failed: coboundary image is not a codomain slot"
    assert len(lines) == 2 and lines[1].startswith("[")  # the timing line


def test_pushforward_off_the_composition_defect_exits_three(monkeypatch, capsys):
    # the pipeline certifies the closed-form gamma against the defect that
    # only compose computes; one coefficient off fails that certificate
    pushforward = supermap.pushforward_partial

    def off_by_one(omega, t):
        gamma = pushforward(omega, t)
        key = min(gamma.terms)
        return cech.Cochain(gamma.sheaf, 2, {**gamma.terms, key: gamma.terms[key] + 1})

    monkeypatch.setattr(supermap, "pushforward_partial", off_by_one)
    code, out, err = run(capsys, "pushforward", "--degrees", "4,-1,-7", "--json")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert lines[0] == ("internal self-check failed: pushforward failed verification "
                        "against the composition defect")
    assert len(lines) == 2 and lines[1].startswith("[")  # the timing line


def test_warm_certificate_composes_six_times(monkeypatch, capsys):
    # one generator: its gamma is checked on the 6 ordered triples, one
    # compose each; the closed-form pushforward and the build compose nothing
    argv = ["pushforward", "--degrees", "4,-1,-7", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls = []
    kernel = supermap.compose

    def counting(g, f, order):
        calls.append(order)
        return kernel(g, f, order)

    def refused(t):
        raise AssertionError("the certificate takes gamma from the pushforward")

    monkeypatch.setattr(supermap, "compose", counting)
    monkeypatch.setattr(supermap, "obstruction_cocycle", refused)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert calls == [3] * 6


# Fuzzing the thickening-file readers: any JSON value, and the split models
# with one subtree replaced by any JSON value, gives 0, 1 or 2, never a crash.

RATIONAL_TEXT = st.sampled_from(["1/0", "0/0", "-3/2", "4/-2", "x", "1.5", " 2 ", "", "7"])
FILE_KEYS = st.sampled_from(["space", "order", "degrees", "maps", "0,1", "1,0", "even", "odd",
                             "indices", "coef", "exps"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, width=16)
    | st.text(max_size=4) | RATIONAL_TEXT,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4) | FILE_KEYS, kids, max_size=3),
    max_leaves=10,
)


def json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def split_models():
    for n, degrees in ((1, (2, -1)), (2, (3, 0, -6))):
        t = supermap.split_trivialization(cech.standard_cover(n), SplitBundleDegrees(degrees), 2)
        yield supermap.trivialization_to_json(t)


SPLIT_MODELS = list(split_models())


def check_readers(tmp_path, capsys, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "gamma"):
        code, _, err = run(capsys, command, "--file", str(path))
        assert code in (0, 1, 2) and "Traceback" not in err, (command, data)


FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=JSON_VALUES)
def test_fuzz_any_json_value(tmp_path, capsys, data):
    check_readers(tmp_path, capsys, data)


@FUZZ
@given(data=st.data())
def test_fuzz_split_model_with_one_subtree_replaced(tmp_path, capsys, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(SPLIT_MODELS)))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not path:
        doc = value
    else:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    check_readers(tmp_path, capsys, doc)


def generator_json():
    """A built order-2 thickening of P^2 with degrees (4,-1,-7) and a nonzero gamma."""
    cov = cech.standard_cover(2)
    deg = SplitBundleDegrees((4, -1, -7))
    gen = cech.h1_representatives(supermap.slot_sheaf(cov, deg, 2)).representatives[1][0]
    return supermap.trivialization_to_json(supermap.build_trivialization(cov, deg, 2, {2: gen}))


def mutant_value(rng, depth=0):
    """None, a bool, a float, a string, an int (large ones too), or a short
    list or object of such values."""
    kind = rng.randrange(8 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0.5, -2.0, 0.0, 1e300])
    if kind == 3:
        return rng.choice(["", "x", "1/0", "0/0", "-3/2", "P2", "0,1", " 2", "1e30000000"])
    if kind == 4:
        return rng.choice([2 ** 63 - 1, 2 ** 64, -(2 ** 64), 10 ** 30])
    if kind == 5:
        return rng.randint(-3, 3)
    if kind == 6:
        return [mutant_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    keys = ["indices", "coef", "exps", "even", "odd", "order", "x"]
    return {rng.choice(keys): mutant_value(rng, depth + 1) for _ in range(rng.randrange(3))}


def test_single_node_mutations_exit_zero_one_or_two(tmp_path, capsys):
    # each mutant replaces or deletes one node of a built generator file or of
    # the split model; the reader refuses it, or the commands certify it
    rng = random.Random(19)
    bases = [generator_json(), split_model_json()]
    path = tmp_path / "mutant.json"
    codes = set()
    for _ in range(600):
        doc = copy.deepcopy(rng.choice(bases))
        *parents, last = rng.choice(list(json_paths(doc))[1:])
        node = doc
        for key in parents:
            node = node[key]
        if rng.random() < 0.2:
            del node[last]
        else:
            node[last] = mutant_value(rng)
        path.write_text(json.dumps(doc))
        for command in ("verify", "gamma"):
            code, _, err = run(capsys, command, "--file", str(path))
            assert code in (0, 1, 2) and "Traceback" not in err, (command, doc)
            codes.add(code)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("order", [3, 4, 2 ** 63 - 1, 2 ** 64])
def test_order_above_the_rank_has_a_zero_gamma(tmp_path, capsys, order):
    # Lambda^(m+1) E vanishes for m at or above the rank 3, so gamma is zero;
    # an order past 2^63 used to overflow the wedge-power enumeration
    data = split_model_json()
    data["order"] = order
    path = tmp_path / "high.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", "--file", str(path))[0] == 0
    code, out, _ = run(capsys, "gamma", "--file", str(path), "--json")
    outputs = json.loads(out)["outputs"]
    assert code == 0 and outputs["is_zero"] is True and outputs["cocycle_check"] is True


def test_exponent_notation_coefficient_exits_two_quickly(tmp_path):
    # "1e30000000" is valid Fraction syntax for a 30-million-digit integer; a
    # reader that accepted it kept verify busy for minutes
    data = copy.deepcopy(SPLIT_MODELS[0])
    assert data["space"] == "P1"
    data["maps"]["0,1"]["odd"][0][0]["coef"][0]["coef"] = "1e30000000"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    for command in ("verify", "gamma"):
        proc = subprocess.run([sys.executable, "-m", "superthick.cli", command, "--file", str(path)],
                              capture_output=True, text=True, timeout=10, env=env)
        assert proc.returncode == 2 and proc.stdout == "", (command, proc.stderr)
        assert "malformed term" in proc.stderr and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# the canonical JSON writer against json.dumps(obj, sort_keys=True, indent=1)


def reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def gluing_files(tmp_path):
    """A valid thickening with a nonzero gamma, the split model, and a map
    edited off the cocycle condition (gamma reports a CocycleViolation)."""
    built = tmp_path / "gen.json"
    built.write_text(cli.canonical_json(generator_json()) + "\n")
    split = tmp_path / "split.json"
    split.write_text(json.dumps(split_model_json()))
    data = split_model_json()
    data["maps"]["0,1"]["even"][0].append(
        {"indices": [1, 2], "coef": [{"exps": [0, 0], "coef": "1"}]}
    )
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(data))
    return [str(built), str(split), str(corrupt)]


def test_writer_matches_json_dumps_on_every_command_payload(tmp_path, monkeypatch, capsys):
    files = gluing_files(tmp_path)
    calls = [
        ["bott", "--n", "2", "--p", "1", "--q", "1", "--k", "-3"],
        ["cohomology", "--n", "2", "--k", "-5", "--q", "2"],
        ["check-lemma71", "--degrees", "4,-1,-7"],
        ["check-lemma71", "--degrees", "1,1,1"],
        ["search", "--lo", "-8", "--hi", "8"],
        ["search", "--lo", "0", "--hi", "1"],
        ["sufficient-l", "--k-prime", "-3"],
        ["pushforward", "--degrees", "1,1,1"],
        ["pushforward", "--degrees", "4,-1,-7", "--space", "P1"],
        ["pushforward", "--degrees", "4,-1,-7", "--window", "0"],
    ] + [["pushforward", "--degrees", ",".join(map(str, k))] for k in ADMISSIBLE]
    calls += [[command, "--file", path] for command in ("verify", "gamma") for path in files]
    written = []
    write = cli.canonical_json

    def recording(obj):
        text = write(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(cli, "canonical_json", recording)
    for argv in calls:
        main(argv + ["--json"])
        obj, text = written[-1]
        assert capsys.readouterr().out == text + "\n", argv
        assert text == reference_json(obj), argv
    assert len(written) == len(calls)
    commands = {obj["command"] for obj, _ in written}
    assert commands == {"bott", "cohomology", "check-lemma71", "search", "verify", "gamma",
                        "pushforward", "sufficient-l"}
    assert any("error" in obj["outputs"] for obj, _ in written if obj["command"] == "gamma")
    statuses = {obj["outputs"]["status"] for obj, _ in written if obj["command"] == "pushforward"}
    assert statuses == {"refused-preconditions", "vacuously-unobstructed", "inconclusive-window",
                        "obstructed-exhibited", "unobstructed"}


def test_writer_matches_json_dumps_on_trivializations(tmp_path):
    models = SPLIT_MODELS + [json.loads(Path(gluing_files(tmp_path)[0]).read_text())]
    for data in models:
        assert cli.canonical_json(data) == reference_json(data)


JSON_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", "\"", "\\", "\x00", "\x1f\x7f", "\n\t\r\b\f", "\u00e9\u2028", "\U0001f600", "a\"b\\c"])
WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 200), 2 ** 200)
    | st.sampled_from([0, -1, 2 ** 63, -(2 ** 64)]) | JSON_TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(obj=WRITER_VALUES)
def test_writer_matches_json_dumps_on_random_trees(obj):
    assert cli.canonical_json(obj) == reference_json(obj)


@pytest.mark.parametrize("obj", [
    1.5, 0.0, Fraction(1, 2), {1, 2}, {1: "a"}, {None: 1},
    {"a": [1, 2.0]}, [{"b": Fraction(3)}], (frozenset(),), b"bytes",
])
def test_writer_refuses_values_outside_exact_json(obj):
    with pytest.raises(TypeError):
        cli.canonical_json(obj)
