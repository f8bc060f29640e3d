"""Every command that reads a file turns a malformed one into a failing
report: exit 1, "pass": false, an error naming the file kind, and no
traceback. Files are taken from a valid set and broken one field at a time."""

import functools
import json
import math
import operator

import numpy as np
import pytest

from ncglab import fileio
from ncglab.config import DENSE_DIM_CAP
from ncglab.cli import main
from ncglab.solvers import NcgTensor


@pytest.fixture(autouse=True)
def valid_files(tmp_path, monkeypatch):
    """instance.json, assignment.json, field.json and tensor.json, all valid."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen-labelcover", "--vertices", "8", "--degree", "3", "--n", "6",
                 "--k", "3", "--t", "2", "--seed", "7", "--out", "instance.json",
                 "--planted-out", "assignment.json"]) == 0
    fileio.save_field(np.full((8, 6), 0.5 + 0.5j), "field.json")
    fileio.save_tensor(NcgTensor(d=2, indices=[[0, 0, 0, 0], [0, 1, 1, 0]],
                                 coeffs=[1.0, 0.5j]), "tensor.json")


# command -> its arguments; the files it reads are named after their kind
COMMANDS = {
    "check-instance": ["--instance", "instance.json", "--assignment", "assignment.json"],
    "reduce": ["--instance", "instance.json", "--assignment", "assignment.json",
               "--backend", "comm_real"],
    "decode": ["--instance", "instance.json", "--field", "field.json", "--seed", "5"],
    "solve-ncg": ["--tensor", "tensor.json", "--seed", "0", "--restarts", "1",
                  "--iters", "2"],
}
READERS = {"instance": ["check-instance", "reduce", "decode"],
           "assignment": ["check-instance", "reduce"],
           "field": ["decode"],
           "tensor": ["solve-ncg"]}


def replaced(path, value):
    """doc with the entry at ``path`` set to value, or to value(old) for a callable."""
    def mutate(doc):
        *head, last = path
        parent = functools.reduce(operator.getitem, head, doc)
        parent[last] = value(parent[last]) if callable(value) else value
        return doc
    return mutate


def dropped(path):
    def mutate(doc):
        *head, last = path
        del functools.reduce(operator.getitem, head, doc)[last]
        return doc
    return mutate


def not_an_object(doc):
    return [doc]


COMMON = [("not-an-object", not_an_object), ("no-version", dropped(["version"])),
          ("version-9", replaced(["version"], 9))]

CASES = {
    "instance": COMMON + [
        *((f"missing-{name}", dropped([name]))
          for name in ("vertices", "n", "k", "t", "gamma", "zeta", "ends", "pis")),
        ("null-n", replaced(["n"], None)),
        ("string-gamma", replaced(["gamma"], "0.5")),
        ("null-end", replaced(["ends", 0, 0], None)),
        ("string-end", replaced(["ends", 1, 1], "2")),
        ("null-projection", replaced(["pis", 0, 0, 0], None)),
        ("string-projection", replaced(["pis", 1, 1, 2], "1")),
        ("ends-not-a-list", replaced(["ends"], {"u": 1})),
        ("pis-not-a-list", replaced(["pis"], 3)),
        ("end-row-not-a-list", replaced(["ends", 0], 1)),
        ("wide-end-row", replaced(["ends", 0], lambda row: row + [3])),
        ("short-projection", replaced(["pis", 0, 1], lambda pi: pi[:-1])),
        ("long-projection", replaced(["pis", 0, 1], lambda pi: pi + [1])),
        ("ragged-projection", replaced(["pis", 0, 1, 0], [1, 2])),
        ("fractional-n", replaced(["n"], 6.5)),
        ("fractional-vertex", replaced(["ends", 0, 0], 1.5)),
        ("fractional-projection", replaced(["pis", 0, 0, 0], 1.7)),
        ("boolean-projection", replaced(["pis", 0, 0, 0], True)),
        ("boolean-vertex", replaced(["ends", 0, 0], True)),
        ("false-vertex", replaced(["ends", 3, 1], False)),
        # json reads NaN and Infinity; every numeric field must be finite
        ("nan-gamma", replaced(["gamma"], math.nan)),
        ("infinite-zeta", replaced(["zeta"], math.inf)),
    ],
    "assignment": COMMON + [
        ("missing-labels", dropped(["labels"])),
        ("null-label", replaced(["labels", 0], None)),
        ("string-label", replaced(["labels", 0], "1")),
        ("labels-not-a-list", replaced(["labels"], None)),
        ("nested-labels", replaced(["labels"], lambda labels: [labels])),
        ("ragged-labels", replaced(["labels", 0], [1, 2])),
        ("fractional-label", replaced(["labels", 0], 1.7)),
        ("boolean-label", replaced(["labels", 0], True)),
        ("false-label", replaced(["labels", 1], False)),
    ],
    "field": COMMON + [
        *((f"missing-{name}", dropped([name])) for name in ("vertices", "n", "values")),
        ("null-value", replaced(["values", 0, 0, 1], None)),
        ("string-value", replaced(["values", 0, 0, 0], "0.5")),
        ("null-vertices", replaced(["vertices"], None)),
        ("missing-row", replaced(["values"], lambda rows: rows[:-1])),
        ("triple-not-pair", replaced(["values", 0, 0], [0.5, 0.5, 0.0])),
        ("fractional-n", replaced(["n"], 6.5)),
        ("boolean-value", replaced(["values", 0, 0, 0], True)),
        ("false-value", replaced(["values", 3, 2, 1], False)),
        *((f"{name}-values", replaced(["values"], lambda rows, x=x: np.full_like(rows, x).tolist()))
          for name, x in (("nan", math.nan), ("infinite", math.inf))),
    ],
    "tensor": COMMON + [
        *((f"missing-{name}", dropped([name])) for name in ("d", "entries")),
        ("null-entry-value", replaced(["entries", 0, 4], None)),
        ("string-index", replaced(["entries", 0, 0], "1")),
        ("null-d", replaced(["d"], None)),
        ("short-entry", replaced(["entries", 0], lambda entry: entry[:5])),
        ("entries-not-a-list", replaced(["entries"], "none")),
        ("fractional-index", replaced(["entries", 1, 1], 1.9)),
        ("fractional-d", replaced(["d"], 2.5)),
        # d outside [1, DENSE_DIM_CAP] is refused before the (d^2 x d^2) matrix exists
        ("zero-d", replaced(["d"], 0)),
        ("negative-d", replaced(["d"], -2)),
        ("d-over-cap", replaced(["d"], DENSE_DIM_CAP + 1)),
        ("boolean-index", replaced(["entries", 0, 0], True)),
        ("boolean-entry-value", replaced(["entries", 1, 5], False)),
        ("nan-entry-value", replaced(["entries", 0, 4], math.nan)),
    ],
}

MATRIX = [pytest.param(command, kind, mutate, id=f"{command}-{kind}-{case}")
          for kind, cases in CASES.items() for case, mutate in cases
          for command in READERS[kind]]


@pytest.mark.parametrize("command,kind,mutate", MATRIX)
def test_malformed_file_fails_with_report(tmp_path, capsys, command, kind, mutate):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    assert main([command, *COMMANDS[command]]) == 1
    report = json.loads((tmp_path / f"{command}.report.json").read_text())
    assert report["pass"] is False
    assert kind in report["error"]
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", READERS["instance"])
def test_edge_count_mismatch_names_pis_and_both_shapes(tmp_path, command):
    """ends and pis each read as a table; an instance with one more row of
    ends than of pis is refused with both shapes."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(replaced(["pis"], lambda rows: rows[:-1])(
        json.loads(path.read_text()))))
    assert main([command, *COMMANDS[command]]) == 1
    report = json.loads((tmp_path / f"{command}.report.json").read_text())
    assert report["pass"] is False
    assert report["error"] == "pis must have shape (E, 2, n) = (12, 2, 6), not (11, 2, 6)"


def test_tensor_at_the_side_cap_loads(tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(replaced(["d"], DENSE_DIM_CAP)(json.loads(path.read_text()))))
    assert fileio.load_tensor(path).d == DENSE_DIM_CAP


@pytest.mark.parametrize("kind", ["instance", "assignment", "field", "tensor"])
def test_invalid_json_names_the_kind(tmp_path, kind):
    (tmp_path / f"{kind}.json").write_text('{"version": 1,')
    command = READERS[kind][0]
    assert main([command, *COMMANDS[command]]) == 1
    report = json.loads((tmp_path / f"{command}.report.json").read_text())
    assert report["pass"] is False and kind in report["error"]


@pytest.mark.parametrize("text, command", [
    pytest.param(json.dumps([{"command": "reduce", "pass": True}]), "?", id="list"),
    pytest.param(json.dumps("PASS"), "?", id="string"),
    pytest.param(json.dumps(None), "?", id="null"),
    pytest.param(json.dumps({"command": "reduce"}), "reduce", id="no-pass"),
    pytest.param(json.dumps({"command": "reduce", "pass": None}), "reduce", id="null-pass"),
    pytest.param(json.dumps({"command": "reduce", "pass": "false"}), "reduce",
                 id="string-pass"),
    pytest.param(json.dumps({"command": "reduce", "pass": 1}), "reduce", id="integer-pass"),
    pytest.param("not json", "?", id="not-json"),
    pytest.param(None, "?", id="unreadable"),
])
def test_report_input_that_is_not_a_passing_report_is_a_fail_row(tmp_path, text, command):
    """report reads any file; only a JSON object whose "pass" is true passes,
    and every other input, unreadable (here a directory) or not JSON among
    them, is a FAIL row that does not stop the aggregation."""
    if text is None:
        (tmp_path / "bad.json").mkdir()
    else:
        (tmp_path / "bad.json").write_text(text)
    code = main(["report", "--inputs", "bad.json", "gen-labelcover.report.json"])
    assert code == 1
    report = json.loads((tmp_path / "report.report.json").read_text())
    assert report["pass"] is False
    assert report["rows"] == [["bad.json", command, "False"],
                              ["gen-labelcover.report.json", "gen-labelcover", "True"]]
