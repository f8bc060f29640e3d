"""The numeric table writer against json's own indent-2 output, every writer
against the plain json.dumps writer it replaced, and the writers' refusals."""

import functools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncglab import fileio, labelcover, reduction, solvers
from ncglab.cli import main
from ncglab.fileio import _table_text
from ncglab.solvers import NcgTensor


@pytest.fixture(autouse=True)
def run_in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def nested(table):
    """Reference: indent-2 json of the table's lists, one level deep in a document."""
    return json.dumps(table.tolist(), indent=2).replace("\n", "\n  ")


def reference_text(doc):
    """Reference: the writer every file went through before numeric tables."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def pair_lists(values):
    """Reference: complex entries as nested [re, im] lists, one entry at a time."""
    values = np.asarray(values)
    if values.ndim == 0:
        return [float(values.real), float(values.imag)]
    return [pair_lists(row) for row in values]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, 0.1, 1e16, 1e-7,
               math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)


class TestTableText:
    @settings(max_examples=150, deadline=None)
    @given(table=hnp.arrays(np.float64, SHAPES, elements=FLOATS))
    def test_float_tables(self, table):
        assert _table_text(table) == nested(table)

    @settings(max_examples=100, deadline=None)
    @given(table=hnp.arrays(np.int64, SHAPES))
    def test_int64_tables(self, table):
        assert _table_text(table) == nested(table)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(0, 6), data=st.data())
    def test_mixed_tensor_layout(self, rows, data):
        ints = data.draw(hnp.arrays(np.int64, (rows, 4)))
        floats = data.draw(hnp.arrays(np.float64, (rows, 2), elements=FLOATS))
        table = np.concatenate([ints.astype(object), floats.astype(object)], axis=1)
        assert _table_text(table) == nested(table)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2), (2, 3, 0), (2, 0, 2), (1, 1, 1)])
    def test_empty_and_single_axes(self, shape):
        table = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
        assert _table_text(table) == nested(table)


class TestWritersMatchReference:
    """Each save_* writes byte for byte what json.dumps of its lists writes."""

    def signed_zero_field(self, rows=5, cols=3):
        rng = np.random.default_rng(31)
        shape = (max(rows, 2), max(cols, 3))
        fld = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        fld[0, 0] = complex(-0.0, -0.0)
        fld[0, 1] = complex(5e-324, 1e308)
        fld[1, 2] = complex(-0.0, 2.5)
        return fld[:rows, :cols]

    def test_instance(self, tmp_path):
        inst, _ = labelcover.generate_planted(12, 3, 4, 2, 2, seed=3)
        fileio.save_instance(inst, "i.json")
        edges = [{"u": int(u) + 1, "v": int(v) + 1, "pi_u": [int(x) + 1 for x in pu],
                  "pi_v": [int(x) + 1 for x in pv]}
                 for (u, v), (pu, pv) in zip(inst.ends, inst.pis)]
        doc = {"version": 1, "n": inst.n, "k": inst.k, "t": inst.t, "gamma": inst.gamma,
               "zeta": inst.zeta, "vertices": inst.num_vertices, "edges": edges}
        assert (tmp_path / "i.json").read_text() == reference_text(doc)

    @pytest.mark.parametrize("labels", [[0, 4, 2, 1], [], np.array([3.0, 0.0])])
    def test_assignment(self, tmp_path, labels):
        fileio.save_assignment(labels, "a.json")
        doc = {"version": 1, "labels": [int(x) + 1 for x in labels]}
        assert (tmp_path / "a.json").read_text() == reference_text(doc)

    @pytest.mark.parametrize("shape", [(5, 3), (1, 1), (3, 0), (0, 2)])
    def test_field(self, tmp_path, shape):
        fld = self.signed_zero_field()[:shape[0], :shape[1]] if all(shape) else np.zeros(shape)
        fileio.save_field(fld, "f.json")
        doc = {"version": 1, "vertices": shape[0], "n": shape[1], "values": pair_lists(fld)}
        assert (tmp_path / "f.json").read_text() == reference_text(doc)

    @pytest.mark.parametrize("make", [
        lambda self: solvers.lift_little_to_big(
            reduction.BACKEND_BUILDERS["comm_complex"](2).little_op()),
        lambda self: NcgTensor(d=2, indices=np.argwhere(np.ones((2, 2, 2, 2)))[:15],
                               coeffs=self.signed_zero_field().reshape(-1)),
        lambda self: NcgTensor(d=3, indices=np.zeros((0, 4), dtype=int), coeffs=[]),
    ], ids=["lift", "signed-zeros", "nnz0"])
    def test_tensor(self, tmp_path, make):
        tensor = make(self)
        fileio.save_tensor(tensor, "t.json")
        entries = [[int(i) + 1, int(j) + 1, int(k) + 1, int(l) + 1, *pair_lists(c)]
                   for (i, j, k, l), c in zip(tensor.indices, tensor.coeffs)]
        doc = {"version": 1, "d": tensor.d, "entries": entries}
        assert (tmp_path / "t.json").read_text() == reference_text(doc)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_solution(self, tmp_path, d):
        rng = np.random.default_rng(d)
        a_mat = self.signed_zero_field(d, d)
        b_mat = rng.normal(size=(d, d))  # real: imaginary parts are written as 0.0
        fileio.save_solution(0.1 + 0.2, a_mat, b_mat, "s.json")
        doc = {"version": 1, "value": 0.1 + 0.2, "a": pair_lists(a_mat),
               "b": pair_lists(b_mat.astype(complex))}
        assert (tmp_path / "s.json").read_text() == reference_text(doc)

    def test_report(self, tmp_path):
        report = {"command": "x", "pass": False, "error": "line one\nline two é \"q\"",
                  "params": {"z": [1, 2.5, None], "a": {}, "m": []},
                  "rows": [["f.json", "cmd", True]], "value": -0.0, "big": 1e308}
        fileio.save_report(report, "r.json")
        assert (tmp_path / "r.json").read_text() == reference_text({"version": 1, **report})

    def test_empty_document(self, tmp_path):
        fileio.dump_json({}, "e.json")
        assert (tmp_path / "e.json").read_text() == reference_text({})


class TestTensorRoundTrip:
    """Every tensor NcgTensor accepts is written as a file load_tensor reads back."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), data=st.data())
    def test_save_then_load(self, d, data):
        quads = data.draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * 4),
                                   unique=True, max_size=8))
        finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]),
                           st.floats(allow_nan=False, allow_infinity=False))
        parts = data.draw(st.lists(st.tuples(finite, finite), min_size=len(quads),
                                   max_size=len(quads)))
        coeffs = np.empty(len(quads), dtype=np.complex128)
        coeffs.real, coeffs.imag = [p[0] for p in parts], [p[1] for p in parts]
        tensor = NcgTensor(d=d, indices=np.array(quads, dtype=int).reshape(-1, 4),
                           coeffs=coeffs)
        fileio.save_tensor(tensor, "t.json")
        back = fileio.load_tensor("t.json")
        np.testing.assert_array_equal(back.indices, tensor.indices)
        assert back.coeffs.tobytes() == tensor.coeffs.tobytes()  # signed zeros too


class TestWriterRefusals:
    """A writer refuses, before any file exists, what its reader would refuse."""

    @pytest.mark.parametrize("labels, match", [([0.5, 2.7], "labels must hold integers, not 0.5"),
                                               ([1, np.nan], "labels must hold integers, not nan")])
    def test_assignment_labels_must_be_integers(self, tmp_path, labels, match):
        with pytest.raises(ValueError, match=match):
            fileio.save_assignment(labels, "a.json")
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), -np.inf])
    def test_field_values_must_be_finite(self, tmp_path, bad):
        fld = np.zeros((2, 3), dtype=complex)
        fld[1, 2] = bad
        with pytest.raises(ValueError, match="field file values must be finite"):
            fileio.save_field(fld, "f.json")
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("which", ["value", "a", "b"])
    def test_solution_must_be_finite(self, tmp_path, which):
        args = {"value": 1.0, "a": np.eye(2, dtype=complex), "b": np.eye(2, dtype=complex)}
        args[which] = np.nan if which == "value" else np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match=f"solution file {which} must be finite"):
            fileio.save_solution(args["value"], args["a"], args["b"], "s.json")
        assert not (tmp_path / "s.json").exists()

    def test_non_finite_solution_fails_with_report(self, tmp_path, monkeypatch):
        fileio.save_tensor(NcgTensor(d=2, indices=[[0, 0, 0, 0]], coeffs=[1.0]), "t.json")
        solve = solvers.ncg_opt_lower_bound

        def nan_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.a = np.full_like(result.a, np.nan)
            return result

        monkeypatch.setattr(solvers, "ncg_opt_lower_bound", nan_solve)
        code = main(["solve-ncg", "--tensor", "t.json", "--seed", "0", "--restarts", "1",
                     "--iters", "2", "--out", "s.json"])
        assert code == 1
        report = json.loads((tmp_path / "solve-ncg.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == "solution file a must be finite numbers"
        assert not (tmp_path / "s.json").exists()


class TestReaderRefusals:
    """Whole-number fields go through the one int64 conversion check, so a
    float at or beyond 2^63 in magnitude is refused as not a whole number,
    not cast to INT64_MIN and blamed on a range check downstream."""

    @pytest.fixture
    def files(self):
        inst, planted = labelcover.generate_planted(8, 3, 6, 3, 2, seed=7)
        fileio.save_instance(inst, "instance.json")
        fileio.save_assignment(planted, "assignment.json")
        fileio.save_tensor(NcgTensor(d=2, indices=[[0, 0, 0, 0], [0, 1, 1, 0]],
                                     coeffs=[1.0, 0.5j]), "tensor.json")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("huge", [2.0**63, 1e19, -1e19, 1e300])
    @pytest.mark.parametrize("kind, path, message", [
        ("assignment", ["labels", 0], "assignment file labels must be finite whole numbers "
                                      "of shape (*)"),
        ("instance", ["t"], "instance file t must be finite whole numbers of shape ()"),
        ("instance", ["edges", 0, "u"], "instance file u must be finite whole numbers "
                                        "of shape (12)"),
        ("instance", ["edges", 2, "v"], "instance file v must be finite whole numbers "
                                        "of shape (12)"),
        ("tensor", ["entries", 1, 2], "tensor file entry indices must be finite whole numbers "
                                      "of shape (*, 4)"),
        ("tensor", ["d"], "tensor file d must be finite whole numbers of shape ()"),
    ])
    def test_whole_numbers_beyond_int64(self, tmp_path, files, huge, kind, path, message):
        file = tmp_path / f"{kind}.json"
        doc = json.loads(file.read_text())
        *head, last = path
        functools.reduce(operator.getitem, head, doc)[last] = huge
        file.write_text(json.dumps(doc))
        loader = {"assignment": fileio.load_assignment, "instance": fileio.load_instance,
                  "tensor": fileio.load_tensor}[kind]
        with pytest.raises(ValueError) as info:
            loader(file)
        assert str(info.value) == message
