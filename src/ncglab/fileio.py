"""Versioned JSON file formats (label cover instances, assignments, vertex
fields, bilinear-form tensors, reports) and CSV tables.

Serialization is canonical: every file is what json.dumps(doc, sort_keys=True,
indent=2) writes, plus a newline. Writing what was read reproduces the file
byte for byte, and a fixed seed reproduces identical outputs. Vertices and
labels are 1-based on disk and 0-based in memory; complex scalars are stored
as [re, im] pairs. Writers refuse what their readers would refuse (labels
that are not integers, non-finite numbers) before any file exists.

Tables (numpy arrays, blocks side by side, an instance's ends and pis) are
rendered in one pass: one call of json's C encoder over a table's distinct
values, told apart by their bits, gives each cell's indent-2 text, and the
text between cells depends only on its position. json.dumps writes only the
scalars and reports; a reader scans tables for bools only if the file holds one.
An instance file of per-edge {u, v, pi_u, pi_v} records, the layout before
the edge tables, is refused as having no field 'ends'.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .config import FORMAT_VERSION
from .labelcover import LabelCoverInstance
from .linalg import _from_pairs, _int64, _pairs
from .solvers import NcgTensor


def dump_json(obj: dict, path) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) and a newline, where a
    numpy array among obj's values stands for its ``tolist()`` and a tuple of
    arrays for the table they make side by side."""
    items = [f"\n  {json.dumps(key)}: {_value_text(obj[key])}" for key in sorted(obj)]
    Path(path).write_text("{" + ",".join(items) + "\n}\n" if items else "{}\n")


def _value_text(value) -> str:
    """A top-level value as indent 2 writes it one level deep."""
    if isinstance(value, np.ndarray):
        value = (value,)
    if isinstance(value, tuple) and value and all(type(v) is np.ndarray for v in value):
        return _table_text(*value)
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _cells(table: np.ndarray) -> np.ndarray:
    """Each entry's json text, from one C-encoder call over the distinct
    entries, told apart by their bits (so -0.0 is not 0.0)."""
    distinct, inverse = np.unique(table.reshape(-1).view(f"u{table.itemsize}"),
                                  return_inverse=True)
    texts = json.dumps(distinct.view(table.dtype).tolist(), separators=(",", ":"))[1:-1]
    return np.array(texts.split(","), dtype=object)[inverse].reshape(table.shape)


def _table_text(*blocks: np.ndarray) -> str:
    """json.dumps(table.tolist(), indent=2) one level deep, for the table the
    blocks make side by side along their last axis, in one pass: the cells from
    _cells, each gap's separator picked by how many trailing axes roll over."""
    shape = (*blocks[0].shape[:-1], sum(block.shape[-1] for block in blocks))
    if 0 in shape:  # every list around the first empty axis is []
        shape = shape[:shape.index(0)]
        cells = ["[]"] * math.prod(shape)
    else:
        cells = np.concatenate([_cells(block) for block in blocks], axis=-1).reshape(-1)
    if not shape:
        return "[]"
    depth = len(shape)
    # a list at depth m opens with "[" and its first item's indent, 2 + m
    # levels, and closes on a line of its own at 1 + m levels
    opens = ["[\n" + "  " * (2 + m) for m in range(depth)]
    closes = ["\n" + "  " * (1 + m) + "]" for m in reversed(range(depth))]
    gaps = np.array(["".join(closes[:r]) + ",\n" + "  " * (1 + depth - r)
                     + "".join(opens[depth - r:]) for r in range(depth)], dtype=object)
    rolls = np.zeros(len(cells) - 1, dtype=np.intp)
    for m in range(1, depth):  # the gap after every block of shape[m:] rolls axis m over
        block = math.prod(shape[m:])
        rolls[block - 1::block] += 1
    pieces = np.empty(2 * len(cells) - 1, dtype=object)
    pieces[0::2], pieces[1::2] = cells, gaps[rolls]
    return "".join(opens) + "".join(pieces.tolist()) + "".join(closes)


def load_json(path):
    return json.loads(Path(path).read_text())


def _read(path, kind: str, fields: dict, integers=()) -> dict:
    """The checked fields of a ``kind`` file; the one place an outside file is
    checked, and every rejection is a ValueError naming kind. ``fields`` maps
    a name to its shape: lengths, None for any length, or the name of an
    integer read before. Tables come back float64 and scalars as written;
    ``integers`` come back as ints."""
    try:
        doc = json.loads(text := Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{kind} file is not JSON: {exc}") from None
    if _field(doc, kind, "version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format version {doc['version']!r}")
    # a bool can only be read from a literal true or false
    bools = "true" in text or "false" in text
    out = {}
    for name, shape in fields.items():
        dims = tuple(out[dim] if isinstance(dim, str) else dim for dim in shape)
        out[name] = _table(_field(doc, kind, name), kind, name, dims, name in integers, bools)
    return out


def _field(doc, kind: str, name: str):
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"{kind} file has no field {name!r}")
    return doc[name]


def _table(value, kind: str, name: str, shape: tuple, integral: bool, bools: bool = False):
    """Nested JSON lists of numbers -> array of ``shape``; see _read. Only
    when ``bools`` are the leaves scanned for a bool."""
    try:
        table = np.asarray(value)  # ragged nesting raises here
        if table.size and table.dtype.kind not in "iuf":  # nulls and strings
            raise ValueError
        # numpy reads a true or false among listed numbers as 1 or 0, so the
        # leaves, table.ndim levels down, are checked for a bool
        if bools and isinstance(value, list):
            leaves = value
            for _ in range(table.ndim - 1):
                leaves = itertools.chain.from_iterable(leaves)
            if bool in set(map(type, leaves)):
                raise ValueError
        table = table.astype(np.float64)
        if not table.size:  # [] has no shape of its own
            table = table.reshape([dim or 0 for dim in shape])
        if table.ndim != len(shape) or any(dim not in (None, got)
                                           for dim, got in zip(shape, table.shape)):
            raise ValueError
        if not np.all(np.isfinite(table)):  # json reads NaN and Infinity as floats
            raise ValueError
        table = _int64(table, name) if integral else table
    except ValueError:
        dims = ", ".join("*" if dim is None else str(dim) for dim in shape)
        raise ValueError(f"{kind} file {name} must be finite {'whole ' if integral else ''}"
                         f"numbers of shape ({dims})") from None
    return table if shape else table.item() if integral else value


def _finite(table, kind: str, name: str):
    """table, refused with a ValueError naming kind if any entry is not finite."""
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{kind} file {name} must be finite numbers")
    return table


# ---------------------------------------------------------------------------
# Label cover instances and assignments


def save_instance(inst: LabelCoverInstance, path) -> None:
    dump_json({"version": FORMAT_VERSION, "n": inst.n, "k": inst.k, "t": inst.t,
               "gamma": _finite(inst.gamma, "instance", "gamma"),
               "vertices": inst.num_vertices, "ends": inst.ends + 1, "pis": inst.pis + 1}, path)


def load_instance(path) -> LabelCoverInstance:
    doc = _read(path, "instance", {"vertices": (), "n": (), "k": (), "t": (), "gamma": (),
                                   "ends": (None, 2), "pis": (None, 2, "n")},
                integers=("vertices", "n", "k", "t", "ends", "pis"))
    return LabelCoverInstance(num_vertices=doc["vertices"], n=doc["n"], k=doc["k"], t=doc["t"],
                              gamma=doc["gamma"], ends=doc["ends"] - 1, pis=doc["pis"] - 1)


def save_assignment(labels, path) -> None:
    labels = _int64(labels, "labels").reshape(-1)
    dump_json({"version": FORMAT_VERSION, "labels": labels + 1}, path)


def load_assignment(path) -> np.ndarray:
    return _read(path, "assignment", {"labels": (None,)}, integers=("labels",))["labels"] - 1


# ---------------------------------------------------------------------------
# Vertex vector fields


def save_field(fld, path) -> None:
    fld = np.asarray(fld, dtype=np.complex128)
    if fld.ndim != 2:
        raise ValueError("field must be a (vertices, n) array")
    dump_json({"version": FORMAT_VERSION, "vertices": fld.shape[0], "n": fld.shape[1],
               "values": _finite(_pairs(fld), "field", "values")}, path)


def load_field(path) -> np.ndarray:
    doc = _read(path, "field", {"vertices": (), "n": (), "values": ("vertices", "n", 2)},
                integers=("vertices", "n"))
    return _from_pairs(doc["values"])


# ---------------------------------------------------------------------------
# Bilinear-form tensors


def save_tensor(tensor: NcgTensor, path) -> None:
    # int indices beside float pairs: one (nnz, 6) table
    entries = (tensor.indices + 1, _pairs(tensor.coeffs))
    dump_json({"version": FORMAT_VERSION, "d": tensor.d, "entries": entries}, path)


def load_tensor(path) -> NcgTensor:
    doc = _read(path, "tensor", {"d": (), "entries": (None, 6)}, integers=("d",))
    entries = doc["entries"]
    indices = _table(entries[:, :4], "tensor", "entry indices", (None, 4), True) - 1
    return NcgTensor(d=doc["d"], indices=indices, coeffs=_from_pairs(entries[:, 4:]))


def save_solution(value: float, a_mat, b_mat, path) -> None:
    """The value and the unitary pair (A, B) of a bilinear-form solve."""
    dump_json({"version": FORMAT_VERSION, "value": _finite(value, "solution", "value"),
               "a": _finite(_pairs(a_mat), "solution", "a"),
               "b": _finite(_pairs(b_mat), "solution", "b")}, path)


# ---------------------------------------------------------------------------
# Tables and reports


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_report(report: dict, path) -> None:
    dump_json({"version": FORMAT_VERSION, **report}, path)
