import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superthick import cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.cli import main


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
    supermap.write_trivialization(t, str(path))
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
    gen = cech.h1_representatives(spec, window=6).representatives[1][0]
    t = supermap.build_trivialization(cov, deg, 2, {2: gen})
    path = tmp_path / "gen.json"
    supermap.write_trivialization(t, str(path))
    code, out, _ = run(capsys, "gamma", "--file", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["cocycle_check"] is True
    assert data["outputs"]["is_zero"] is False


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
    code, _, _ = run(capsys, "sufficient-l", "--k-prime", "0")
    assert code == 2


def test_window_env_override(monkeypatch):
    from superthick.cli import default_window

    monkeypatch.setenv("SUPERTHICK_WINDOW", "-4,4")
    assert default_window() == 4
    monkeypatch.setenv("SUPERTHICK_WINDOW", "7")
    assert default_window() == 7
    monkeypatch.delenv("SUPERTHICK_WINDOW")
    assert default_window() == 10


def test_window_env_read_only_by_pushforward(monkeypatch, capsys):
    monkeypatch.setenv("SUPERTHICK_WINDOW", "abc")
    code, out, _ = run(capsys, "bott", "--n", "2", "--p", "1", "--q", "1", "--k", "0")
    assert code == 0 and out.strip() == "1"
    code, out, err = run(capsys, "pushforward", "--degrees", "4,-1,-7", "--json")
    assert code == 2 and out == ""
    assert "SUPERTHICK_WINDOW" in err
    argv = ["pushforward", "--degrees", "3,0,-6", "--space", "P1", "--json"]
    code, out, _ = run(capsys, *argv, "--window", "3")
    assert code == 1 and json.loads(out)["inputs"]["window"] == 3
    monkeypatch.setenv("SUPERTHICK_WINDOW", "-5,5")
    code, out, _ = run(capsys, *argv)
    assert code == 1 and json.loads(out)["inputs"]["window"] == 5


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


def test_bad_window_values_exit_two(monkeypatch, capsys):
    from superthick.cli import default_window

    argv = ["pushforward", "--degrees", "4,-1,-7", "--json"]
    code, out, err = run(capsys, *argv, "--window", "-3")
    assert code == 2 and out == "" and "--window" in err
    for raw in ("-2,8", "8,-8", "-3", "1,2,3", ""):
        monkeypatch.setenv("SUPERTHICK_WINDOW", raw)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "SUPERTHICK_WINDOW" in err, raw
    for raw, window in (("-4,4", 4), ("-5,5", 5), ("7", 7), ("0", 0)):
        monkeypatch.setenv("SUPERTHICK_WINDOW", raw)
        assert default_window() == window


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
    # an even body must be the chart transition, here 1/x: x + 1 is not a
    # monomial, and 2/x is a monomial but another one
    for body in ([{"exps": [1, 0], "coef": "1"}, {"exps": [0, 0], "coef": "1"}],
                 [{"exps": [-1, 0], "coef": "2"}]):
        data = split_model_json()
        data["maps"]["0,1"]["even"][0] = [{"indices": [], "coef": body}]
        yield data


def test_malformed_thickening_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data in malformed_thickenings():
        path.write_text(json.dumps(data))
        for command in ("verify", "gamma"):
            code, out, err = run(capsys, command, "--file", str(path))
            assert code == 2 and out == "" and "bad input" in err, (command, data)
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
