"""Versioned JSON file formats (label cover instances, assignments, vertex
fields, bilinear-form tensors, reports) and CSV tables.

Serialization is canonical: every file is what json.dumps(doc, sort_keys=True,
indent=2) writes, plus a newline. Writing what was read reproduces the file
byte for byte, and a fixed seed reproduces identical outputs. Vertices and
labels are 1-based on disk and 0-based in memory; complex scalars are stored
as [re, im] pairs. Writers refuse what their readers would refuse (labels
that are not integers, non-finite numbers) before any file exists.

Numeric tables reach dump_json as numpy arrays and are rendered in one pass
rather than number by number: one call of json's C encoder gives every
number's text exactly as indent 2 would, and each gap between neighbours gets
the separator indent 2 puts there, which depends only on how many trailing
axes roll over at that gap. Every other value goes through json.dumps.
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
from .linalg import _int64
from .solvers import NcgTensor


def dump_json(obj: dict, path) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) and a newline, where a
    numpy array among obj's values stands for its ``tolist()``."""
    items = [f"\n  {json.dumps(key)}: {_value_text(obj[key])}" for key in sorted(obj)]
    Path(path).write_text("{" + ",".join(items) + "\n}\n" if items else "{}\n")


def _value_text(value) -> str:
    """A top-level value as indent 2 writes it one level deep."""
    if isinstance(value, np.ndarray):
        return _table_text(value)
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _table_text(table: np.ndarray) -> str:
    """json.dumps(table.tolist(), indent=2), shifted one level deep, built
    in one pass: the numbers from one C-encoder call, the separators picked
    by the number of trailing axes that roll over at each gap."""
    shape = table.shape
    if 0 in shape:  # every list around the first empty axis is []
        shape = shape[:shape.index(0)]
        cells = ["[]"] * math.prod(shape)
    else:
        cells = json.dumps(table.ravel().tolist(), separators=(",", ":"))[1:-1].split(",")
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
    a name to its shape (lengths, None for any length, or the name of an
    integer read before) or, for a list of objects, to their fields' shapes.
    Tables come back float64 and scalars as written; ``integers`` come back as ints."""
    try:
        doc = load_json(path)
    except ValueError as exc:
        raise ValueError(f"{kind} file is not JSON: {exc}") from None
    if _field(doc, kind, "version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format version {doc['version']!r}")
    out = {}
    for name, shape in fields.items():
        value = _field(doc, kind, name)
        columns = [(name, value, shape)]
        if isinstance(shape, dict):  # a list of objects, read column by column
            if not isinstance(value, list):
                raise ValueError(f"{kind} file {name} must be a list")
            columns = [(key, [_field(row, kind, key) for row in value], (len(value), *dims))
                       for key, dims in shape.items()]
        for key, column, dims in columns:
            dims = tuple(out[dim] if isinstance(dim, str) else dim for dim in dims)
            out[key] = _table(column, kind, key, dims, key in integers)
    return out


def _field(doc, kind: str, name: str):
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"{kind} file has no field {name!r}")
    return doc[name]


def _table(value, kind: str, name: str, shape: tuple, integral: bool):
    """Nested JSON lists of numbers -> array of ``shape``; see _read."""
    try:
        table = np.asarray(value)  # ragged nesting raises here
        if table.size and table.dtype.kind not in "iuf":  # nulls and strings
            raise ValueError
        # numpy reads a true or false among listed numbers as 1 or 0, so the
        # leaves, table.ndim levels down, are checked for a bool
        if isinstance(value, list):
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
        # json reads NaN and Infinity as floats
        if not np.all(np.isfinite(table)) or integral and np.any(table != np.trunc(table)):
            raise ValueError
    except ValueError:
        dims = ", ".join("*" if dim is None else str(dim) for dim in shape)
        raise ValueError(f"{kind} file {name} must be finite {'whole ' if integral else ''}"
                         f"numbers of shape ({dims})") from None
    table = table.astype(np.int64) if integral else table
    return table if shape else table.item() if integral else value


def _finite(table, kind: str, name: str):
    """table, refused with a ValueError naming kind if any entry is not finite."""
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{kind} file {name} must be finite numbers")
    return table


def _pairs(values: np.ndarray) -> np.ndarray:
    """Complex array -> float array with a trailing [re, im] axis."""
    return np.stack([values.real, values.imag], axis=-1)


def _from_pairs(pairs: np.ndarray) -> np.ndarray:
    """Inverse of _pairs; keeps signed zeros, which re + 1j*im would not."""
    out = np.empty(pairs.shape[:-1], dtype=np.complex128)
    out.real, out.imag = pairs[..., 0], pairs[..., 1]
    return out


# ---------------------------------------------------------------------------
# Label cover instances and assignments


def save_instance(inst: LabelCoverInstance, path) -> None:
    edges = [{"u": u, "v": v, "pi_u": pi_u, "pi_v": pi_v}
             for (u, v), (pi_u, pi_v) in zip((inst.ends + 1).tolist(), (inst.pis + 1).tolist())]
    dump_json({"version": FORMAT_VERSION, "n": inst.n, "k": inst.k, "t": inst.t,
               "gamma": inst.gamma, "zeta": inst.zeta, "vertices": inst.num_vertices,
               "edges": edges}, path)


def load_instance(path) -> LabelCoverInstance:
    edge = {"u": (), "v": (), "pi_u": ("n",), "pi_v": ("n",)}
    doc = _read(path, "instance", {"vertices": (), "n": (), "k": (), "t": (), "gamma": (),
                                   "zeta": (), "edges": edge},
                integers=("vertices", "n", "k", "t", *edge))
    return LabelCoverInstance(num_vertices=doc["vertices"], n=doc["n"], k=doc["k"],
                              t=doc["t"], gamma=doc["gamma"], zeta=doc["zeta"],
                              ends=np.stack([doc["u"], doc["v"]], axis=1) - 1,
                              pis=np.stack([doc["pi_u"], doc["pi_v"]], axis=1) - 1)


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
    # one (nnz, 6) table of Python ints and floats, so indices print as ints
    entries = np.concatenate([(tensor.indices + 1).astype(object),
                              _pairs(tensor.coeffs).astype(object)], axis=1)
    dump_json({"version": FORMAT_VERSION, "d": tensor.d, "entries": entries}, path)


def load_tensor(path) -> NcgTensor:
    doc = _read(path, "tensor", {"d": (), "entries": (None, 6)}, integers=("d",))
    entries = doc["entries"]
    indices = _table(entries[:, :4], "tensor", "entry indices", (None, 4), True) - 1
    return NcgTensor(d=doc["d"], indices=indices, coeffs=_from_pairs(entries[:, 4:]))


def save_solution(value: float, a_mat, b_mat, path) -> None:
    """The value and the unitary pair (A, B) of a bilinear-form solve."""
    dump_json({"version": FORMAT_VERSION, "value": _finite(value, "solution", "value"),
               "a": _finite(_pairs(np.asarray(a_mat)), "solution", "a"),
               "b": _finite(_pairs(np.asarray(b_mat)), "solution", "b")}, path)


# ---------------------------------------------------------------------------
# Tables and reports


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_report(report: dict, path) -> None:
    dump_json({"version": FORMAT_VERSION, **report}, path)
