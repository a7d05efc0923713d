"""Serialization: grid functions as JSON (bit-exact for finite values,
"+inf"/"-inf" sentinels) and CSV (9 significant digits, plot-oriented);
operator graphs and result reports as JSON.  Files are written atomically
(temp file + rename).

Encoding and decoding work on whole columns: an array becomes Python
numbers through one `tolist()`, after which only its ±inf entries are
replaced by the sentinels, and a column is read back with one
`np.asarray(..., dtype=float)`, which parses the sentinels too.  The bytes
written are pinned to the plain per-element encoders kept as oracles in
tests/conftest.py.  A file that does not hold the expected numbers is
refused with a `ValueError` naming it."""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .errors import ParameterError
from .grids import Grid, GridFn
from .monotone import OperatorGraph

__all__ = [
    "write_gridfn_json",
    "read_gridfn_json",
    "write_gridfn_csv",
    "write_graph_json",
    "read_graph_json",
    "write_json_report",
]

SCHEMA_VERSION = 1

# what a malformed document raises while it is turned into arrays
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)

_SENTINELS = frozenset(("+inf", "-inf"))  # the only strings a number may be


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file beside it, in raw writes of
    its bytes on the temp file's descriptor (the text is ASCII JSON or
    CSV, so the bytes are those of a text-mode write); an OSError names
    path, not the temp file, and the temp file is removed on any failure."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            data = memoryview(text.encode())
            while data:  # a write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _encode_array(a: np.ndarray) -> list:
    """An array as (nested) lists of Python numbers: one `tolist()` per row,
    then only the ±inf entries become "+inf"/"-inf"; bools become 0/1."""
    if a.ndim > 1:
        return [_encode_array(row) for row in a]
    if a.dtype == bool:
        a = a.astype(np.int64)
    out = a.tolist()
    if a.dtype.kind == "f":
        for k in np.flatnonzero(np.isinf(a)).tolist():
            out[k] = "+inf" if out[k] > 0 else "-inf"
    return out


def _read_doc(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema {schema!r}")
    return doc


def _refuse_non_numbers(path: str, col: list, a: np.ndarray, what: str) -> None:
    """Refuse null and NaN in the column `col` read as `a`, and booleans and
    non-sentinel strings, which `np.asarray` reads as numbers (true as 1.0,
    "1e3" as 1000.0); strings are looked at only if `col` holds some."""
    bad = np.argwhere(np.isnan(a))
    if bad.size:
        raise ValueError(f"{path}: {what} at index {bad[0].tolist()} is null or NaN")
    kinds = set(map(type, col))
    if bool in kinds or (str in kinds and not {v for v in col if type(v) is str} <= _SENTINELS):
        k = next(k for k, v in enumerate(col)
                 if type(v) is bool or (type(v) is str and v not in _SENTINELS))
        index = np.array(np.unravel_index(k, a.shape)).tolist()
        raise ValueError(f"{path}: {what} at index {index} is {json.dumps(col[k])}, not a number")


def _gridfn_doc(f: GridFn) -> dict:
    """The grid-function JSON layout: dim, axes and the values as one flat
    row-major array (encoded when the document is written)."""
    return {
        "dim": f.grid.dim,
        "axes": [{"lo": lo, "hi": hi, "n": n} for lo, hi, n in f.grid.axes],
        "values": f.values.ravel(),
    }


def _doc_text(doc: dict) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **_jsonable(doc)}, sort_keys=True)


def write_gridfn_json(f: GridFn, path: str) -> None:
    _atomic_write(path, _doc_text(_gridfn_doc(f)))


def read_gridfn_json(path: str) -> GridFn:
    doc = _read_doc(path)
    try:
        grid = Grid(tuple((ax["lo"], ax["hi"], ax["n"]) for ax in doc["axes"]))
        vals = np.asarray(doc["values"], dtype=float)
    except _MALFORMED as exc:
        raise ValueError(f"{path}: malformed grid function ({type(exc).__name__}: {exc})") from None
    if vals.shape != (grid.node_count,):
        raise ValueError(
            f"{path}: values must be a flat list of {grid.node_count} numbers, "
            f"got shape {vals.shape}"
        )
    _refuse_non_numbers(path, doc["values"], vals, "value")
    bounds = [v for ax in doc["axes"] for v in (ax["lo"], ax["hi"])]
    _refuse_non_numbers(path, bounds, np.asarray(bounds, dtype=float).reshape(-1, 2), "axis lo/hi")
    if any(type(ax["n"]) is not int for ax in doc["axes"]):
        raise ValueError(f"{path}: axis node counts n must be integers: {json.dumps(doc['axes'])}")
    return GridFn(grid, vals.reshape(grid.shape))


def write_gridfn_csv(f: GridFn, path: str) -> None:
    head = ",".join(("x", "y")[: f.grid.dim] + ("value",))
    cols = [*f.grid.nodes().T, f.values.ravel()]
    row = ",".join(["{:.9g}"] * len(cols)).format  # prints inf, -inf and nan as such
    lines = [head, *map(row, *(c.tolist() for c in cols))]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_graph_json(G: OperatorGraph, path: str) -> None:
    _atomic_write(path, _doc_text({"dim": G.dim, "pairs": np.stack([G.xs, G.xstars], axis=1)}))


def read_graph_json(path: str) -> OperatorGraph:
    doc = _read_doc(path)
    try:
        pairs = np.asarray(doc["pairs"], dtype=float)
    except _MALFORMED as exc:
        raise ValueError(f"{path}: malformed operator graph ({type(exc).__name__}: {exc})") from None
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ValueError(
            f"{path}: pairs must be a nonempty list of [x, x*] coordinate-list pairs, "
            f"got shape {pairs.shape}"
        )
    coords = np.asarray(doc["pairs"], dtype=object).ravel().tolist()
    _refuse_non_numbers(path, coords, pairs, "coordinate")
    return OperatorGraph(pairs[:, 0], pairs[:, 1])


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _encode_array(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return ("+inf" if v > 0 else "-inf") if math.isinf(v) else v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json_report(doc: dict, path: str) -> None:
    _atomic_write(path, _doc_text(doc))
