"""Versioned JSON file formats (label cover instances, assignments, vertex
fields, bilinear-form tensors, reports) and CSV tables.

Serialization is canonical: sorted keys, fixed separators, newline at end.
Writing what was read reproduces the file byte for byte, and a fixed seed
reproduces identical outputs. Vertices and labels are 1-based on disk and
0-based in memory; complex scalars are stored as [re, im] pairs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .config import FORMAT_VERSION
from .labelcover import Edge, LabelCoverInstance
from .solvers import NcgTensor


def dump_json(obj, path) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def _require_version(doc, kind: str):
    if not isinstance(doc, dict) or "version" not in doc:
        raise ValueError(f"{kind} file is missing its version field")
    if doc["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format version {doc['version']!r}")


def _pairs(values: np.ndarray) -> np.ndarray:
    """Complex array -> float array with a trailing [re, im] axis."""
    return np.stack([values.real, values.imag], axis=-1)


def _number_table(values, what: str) -> np.ndarray:
    """Nested JSON lists of numbers -> float64 array. Nulls and strings are a
    ValueError here; numpy raises one for ragged nesting."""
    table = np.asarray(values)
    if table.size and table.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be lists of numbers")
    return table.astype(np.float64)


def _from_pairs(pairs: np.ndarray) -> np.ndarray:
    """Inverse of _pairs; keeps signed zeros, which re + 1j*im would not."""
    out = np.empty(pairs.shape[:-1], dtype=np.complex128)
    out.real, out.imag = pairs[..., 0], pairs[..., 1]
    return out


# ---------------------------------------------------------------------------
# Label cover instances and assignments


def save_instance(inst: LabelCoverInstance, path) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "n": inst.n,
        "k": inst.k,
        "t": inst.t,
        "gamma": inst.gamma,
        "zeta": inst.zeta,
        "vertices": inst.num_vertices,
        "edges": [
            {
                "u": e.u + 1,
                "v": e.v + 1,
                "pi_u": (e.pi_u + 1).tolist(),
                "pi_v": (e.pi_v + 1).tolist(),
            }
            for e in inst.edges
        ],
    }
    dump_json(doc, path)


def load_instance(path) -> LabelCoverInstance:
    doc = load_json(path)
    _require_version(doc, "instance")
    try:
        edges = [
            Edge(u=entry["u"] - 1, v=entry["v"] - 1,
                 pi_u=np.asarray(entry["pi_u"], dtype=int) - 1,
                 pi_v=np.asarray(entry["pi_v"], dtype=int) - 1)
            for entry in doc["edges"]
        ]
        return LabelCoverInstance(num_vertices=doc["vertices"], n=doc["n"], k=doc["k"],
                                  t=doc["t"], gamma=doc["gamma"], zeta=doc["zeta"],
                                  edges=edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file: {exc}") from exc


def save_assignment(labels, path) -> None:
    labels = np.asarray(labels, dtype=int).reshape(-1)
    dump_json({"version": FORMAT_VERSION, "labels": (labels + 1).tolist()}, path)


def load_assignment(path) -> np.ndarray:
    doc = load_json(path)
    _require_version(doc, "assignment")
    return np.asarray(doc["labels"], dtype=int) - 1


# ---------------------------------------------------------------------------
# Vertex vector fields


def save_field(fld, path) -> None:
    fld = np.asarray(fld, dtype=np.complex128)
    if fld.ndim != 2:
        raise ValueError("field must be a (vertices, n) array")
    dump_json({"version": FORMAT_VERSION, "vertices": fld.shape[0], "n": fld.shape[1],
               "values": _pairs(fld).tolist()}, path)


def load_field(path) -> np.ndarray:
    doc = load_json(path)
    _require_version(doc, "field")
    values, num_vertices, n = doc["values"], doc["vertices"], doc["n"]
    if len(values) != num_vertices:
        raise ValueError("field file vertex count does not match values")
    if any(len(row) != n for row in values):
        raise ValueError("field file row length does not match n")
    table = _number_table(values, "field file values")
    if num_vertices * n and table.shape != (num_vertices, n, 2):
        raise ValueError("field file values must be [re, im] pairs")
    table = table.reshape(num_vertices, n, 2)
    return _from_pairs(table)


# ---------------------------------------------------------------------------
# Bilinear-form tensors


def save_tensor(tensor: NcgTensor, path) -> None:
    columns = [*(tensor.indices + 1).T.tolist(), *_pairs(tensor.coeffs).T.tolist()]
    entries = list(map(list, zip(*columns)))
    dump_json({"version": FORMAT_VERSION, "d": tensor.d, "entries": entries}, path)


def load_tensor(path) -> NcgTensor:
    doc = load_json(path)
    _require_version(doc, "tensor")
    entries = doc["entries"]
    for row_num, entry in enumerate(entries):
        if len(entry) != 6:
            raise ValueError(f"tensor entry {row_num} must have 6 values [i,j,k,l,re,im]")
    table = _number_table(entries, "tensor entries").reshape(len(entries), 6)
    indices = table[:, :4].astype(np.int64) - 1
    coeffs = _from_pairs(table[:, 4:])
    return NcgTensor(d=doc["d"], indices=indices, coeffs=coeffs)


def save_solution(value: float, a_mat, b_mat, path) -> None:
    """The value and the unitary pair (A, B) of a bilinear-form solve."""
    dump_json({"version": FORMAT_VERSION, "value": value,
               "a": _pairs(np.asarray(a_mat)).tolist(),
               "b": _pairs(np.asarray(b_mat)).tolist()}, path)


# ---------------------------------------------------------------------------
# Tables and reports


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_report(report: dict, path) -> None:
    doc = dict(report)
    doc.setdefault("version", FORMAT_VERSION)
    dump_json(doc, path)
