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
        assert _table_text(ints, floats) == nested(table)

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
        ends = [[int(u) + 1, int(v) + 1] for u, v in inst.ends]
        pis = [[[int(x) + 1 for x in pu], [int(x) + 1 for x in pv]] for pu, pv in inst.pis]
        doc = {"version": 1, "n": inst.n, "k": inst.k, "t": inst.t, "gamma": inst.gamma,
               "vertices": inst.num_vertices, "ends": ends, "pis": pis}
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


def assert_instance_round_trip(inst):
    """save -> load -> save writes the same bytes twice and loads equal arrays."""
    fileio.save_instance(inst, "first.json")
    back = fileio.load_instance("first.json")
    for name in ("num_vertices", "n", "k", "t", "gamma"):
        assert getattr(back, name) == getattr(inst, name)
    for name in ("ends", "pis"):
        got, want = getattr(back, name), getattr(inst, name)
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    fileio.save_instance(back, "second.json")
    assert open("second.json", "rb").read() == open("first.json", "rb").read()


class TestInstanceRoundTrip:
    """Every instance LabelCoverInstance accepts, any edge count, is written
    as a file load_instance reads back and save_instance writes again unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(vertices=st.integers(2, 9), edges=st.integers(0, 7), n=st.integers(1, 5),
           k=st.integers(1, 4), data=st.data())
    def test_save_load_save(self, vertices, edges, n, k, data):
        # any multigraph without self-loops: v = u + step (mod V), step != 0
        u = data.draw(hnp.arrays(np.int64, edges, elements=st.integers(0, vertices - 1)))
        step = data.draw(hnp.arrays(np.int64, edges, elements=st.integers(1, vertices - 1)))
        ends = np.stack([u, (u + step) % vertices], axis=1)
        pis = data.draw(hnp.arrays(np.int64, (edges, 2, n), elements=st.integers(0, k - 1)))
        finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, 0.1]),
                           st.floats(allow_nan=False, allow_infinity=False))
        inst = labelcover.LabelCoverInstance(
            num_vertices=vertices, n=n, k=k, t=data.draw(st.integers(1, 4)),
            gamma=data.draw(finite), ends=ends, pis=pis)
        assert_instance_round_trip(inst)

    def test_no_edges(self, tmp_path):
        inst = labelcover.LabelCoverInstance(num_vertices=3, n=2, k=2, t=1, gamma=0.0,
                                             ends=np.zeros((0, 2), dtype=int),
                                             pis=np.zeros((0, 2, 2), dtype=int))
        assert_instance_round_trip(inst)
        doc = json.loads((tmp_path / "first.json").read_text())
        assert doc["ends"] == [] and doc["pis"] == []

    @pytest.mark.parametrize("zeta", [0.1, math.inf, "recorded only"],
                             ids=["number", "infinite", "string"])
    def test_file_carrying_zeta_loads(self, tmp_path, zeta):
        # earlier versions wrote a zeta key; the reader ignores keys it does not list
        inst, _ = labelcover.generate_planted(8, 3, 6, 3, 2, seed=7)
        fileio.save_instance(inst, "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        fileio.dump_json({**doc, "zeta": zeta}, "old.json")
        back = fileio.load_instance("old.json")
        assert back.gamma == inst.gamma and not hasattr(back, "zeta")
        np.testing.assert_array_equal(back.ends, inst.ends)
        np.testing.assert_array_equal(back.pis, inst.pis)
        fileio.save_instance(back, "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "new.json").read_bytes()


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


# few distinct values, so tables repeat them; a subnormal, -0.0 beside 0.0, +-1e308
REPEATED_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
                                   1.5, 0.1, 1.0, -1.0])
NEAR_2_62 = st.one_of(st.integers(2**62 - 4, 2**62 + 4), st.integers(-2**62 - 4, -2**62 + 4),
                      st.sampled_from([0, -1, 2**63 - 1, -2**63]))
TABLE_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)


def table_list(blocks):
    """Reference: the nested lists of the table blocks make side by side."""
    return np.concatenate([block.astype(object) for block in blocks], axis=-1).tolist()


class TestDumpJsonMatchesReference:
    """dump_json writes json.dumps(doc, sort_keys=True, indent=2) and a
    newline for every numeric table and tuple of table blocks it is given."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_tables(self, data):
        doc = {
            "floats": data.draw(hnp.arrays(np.float64, TABLE_SHAPES, elements=REPEATED_FLOATS)),
            "any_floats": data.draw(hnp.arrays(np.float64, TABLE_SHAPES, elements=FLOATS)),
            "ints": data.draw(hnp.arrays(np.int64, TABLE_SHAPES, elements=NEAR_2_62)),
            "bools": data.draw(hnp.arrays(np.bool_, TABLE_SHAPES)),
            "scalar": data.draw(REPEATED_FLOATS),
        }
        fileio.dump_json(doc, "d.json")
        reference = {key: value.tolist() if isinstance(value, np.ndarray) else value
                     for key, value in doc.items()}
        assert open("d.json").read() == reference_text(reference)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(0, 6), widths=st.lists(st.integers(0, 3), min_size=1, max_size=3),
           data=st.data())
    def test_side_by_side_blocks(self, rows, widths, data):
        kinds = [data.draw(st.sampled_from(["int", "float", "bool"])) for _ in widths]
        blocks = tuple(
            data.draw(hnp.arrays(np.int64, (rows, w), elements=NEAR_2_62)) if kind == "int"
            else data.draw(hnp.arrays(np.float64, (rows, w), elements=REPEATED_FLOATS))
            if kind == "float" else data.draw(hnp.arrays(np.bool_, (rows, w)))
            for kind, w in zip(kinds, widths))
        fileio.dump_json({"version": 1, "entries": blocks}, "d.json")
        reference = {"version": 1, "entries": table_list(blocks)}
        assert open("d.json").read() == reference_text(reference)

    @pytest.mark.parametrize("backend,n", [*(("clifford", n) for n in (2, 3, 4)),
                                           *(("comm_real", n) for n in (2, 3, 4, 5)),
                                           *(("comm_complex", n) for n in (1, 2, 3))])
    def test_backend_tensors(self, tmp_path, backend, n):
        tensor = solvers.lift_little_to_big(reduction.BACKEND_BUILDERS[backend](n).little_op())
        fileio.save_tensor(tensor, "t.json")
        entries = [[int(i) + 1, int(j) + 1, int(k) + 1, int(l) + 1, *pair_lists(c)]
                   for (i, j, k, l), c in zip(tensor.indices, tensor.coeffs)]
        doc = {"version": 1, "d": tensor.d, "entries": entries}
        assert (tmp_path / "t.json").read_text() == reference_text(doc)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["gamma"])
    def test_instance_scalars_must_be_finite(self, tmp_path, which, bad):
        inst, _ = labelcover.generate_planted(8, 3, 6, 3, 2, seed=7)
        setattr(inst, which, bad)
        with pytest.raises(ValueError, match=f"instance file {which} must be finite"):
            fileio.save_instance(inst, "i.json")
        assert not (tmp_path / "i.json").exists()

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
        ("instance", ["ends", 0, 0], "instance file ends must be finite whole numbers "
                                    "of shape (*, 2)"),
        ("instance", ["pis", 2, 1, 3], "instance file pis must be finite whole numbers "
                                       "of shape (*, 2, 6)"),
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

    def test_record_layout_is_refused_by_name(self, tmp_path, files):
        """A file of per-edge {u, v, pi_u, pi_v} records is not read."""
        file = tmp_path / "instance.json"
        doc = json.loads(file.read_text())
        ends, pis = doc.pop("ends"), doc.pop("pis")
        doc["edges"] = [{"u": u, "v": v, "pi_u": pu, "pi_v": pv}
                        for (u, v), (pu, pv) in zip(ends, pis)]
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            fileio.load_instance(file)
        assert str(info.value) == "instance file has no field 'ends'"
