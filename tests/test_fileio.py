"""The whole-column writers and readers of convexdesk.fileio give the same
bytes as the per-element oracles in conftest, on adversarial columns."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    encode_value,
    gridfn_csv_text,
    gridfn_json_text,
    gridfn_json_values,
    graph_json_text,
    jsonable,
    report_text,
)
from convexdesk.cli import _emit, main, parse_grid_spec
from convexdesk.fenchel import conjugate
from convexdesk.fileio import (
    read_graph_json,
    read_gridfn_json,
    write_graph_json,
    write_gridfn_csv,
    write_gridfn_json,
    write_json_report,
)
from convexdesk.grids import Grid, GridFn
from convexdesk.monotone import OperatorGraph

SPECIAL = [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e308, -1e308,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, 1e16, -7.0]


def _floats(nan: bool):
    return st.one_of(st.sampled_from(SPECIAL + ([np.nan] if nan else [])),
                     st.floats(allow_nan=nan))


@st.composite
def columns(draw, size: int, nan: bool = False) -> np.ndarray:
    """`size` floats made of runs: ±inf, -0.0, subnormals, ±1e308 and others."""
    runs = draw(st.lists(st.tuples(_floats(nan), st.integers(1, 8)), min_size=1, max_size=8))
    col = np.concatenate([np.full(k, v) for v, k in runs])
    return np.resize(col, size)


@st.composite
def gridfns(draw, finite_node: bool = False) -> GridFn:
    shape = draw(st.sampled_from([(n,) for n in (2, 3, 7, 40)] + [(2, 2), (3, 5), (6, 4)]))
    axes = []
    for n in shape:
        lo = draw(st.floats(-100, 100))
        axes.append((lo, lo + draw(st.floats(1e-3, 100)), n))
    vals = draw(columns(int(np.prod(shape))))
    if finite_node:
        vals[draw(st.integers(0, vals.size - 1))] = draw(st.floats(-1e6, 1e6))
        vals[vals == -np.inf] = np.inf
    return GridFn(Grid(tuple(axes)), vals.reshape(shape))


@st.composite
def arrays(draw) -> np.ndarray:
    """Float, int and bool arrays, empty and 2-D ones included."""
    shape = draw(st.sampled_from([(0,), (1,), (5,), (17,), (0, 3), (3, 0), (2, 3), (4, 1)]))
    kind = draw(st.sampled_from(["f", "f", "i", "u", "b"]))
    size = int(np.prod(shape))
    if kind == "f":
        return draw(columns(size, nan=True)).reshape(shape)
    if kind == "b":
        return draw(hnp.arrays(bool, shape))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.int8] if kind == "i" else [np.uint64, np.uint8]))
    return draw(hnp.arrays(dtype, shape))


scalars = st.one_of(_floats(nan=True), _floats(nan=True).map(np.float64), st.integers(-2**70, 2**70),
                    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(), st.text(max_size=5),
                    st.none())

reports = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(arrays(), scalars, st.lists(scalars, max_size=4),
              st.dictionaries(st.text(max_size=3), st.one_of(arrays(), scalars), max_size=3)),
    max_size=6,
)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


@settings(max_examples=100, deadline=None)
@given(f=gridfns())
def test_gridfn_json_bytes_and_roundtrip_match_oracle(f):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "f.json")
        write_gridfn_json(f, p)
        assert _read(p) == gridfn_json_text(f)
        back = read_gridfn_json(p)
        assert back.grid == f.grid
        assert back.values.tobytes() == f.values.tobytes()  # -0.0 and ±inf included
        with open(p) as fh:
            oracle = gridfn_json_values(json.load(fh))
        assert back.values.ravel().tobytes() == oracle.tobytes()


@settings(max_examples=100, deadline=None)
@given(f=gridfns())
def test_gridfn_csv_bytes_match_oracle(f):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "f.csv")
        write_gridfn_csv(f, p)
        assert _read(p) == gridfn_csv_text(f)


@settings(max_examples=150, deadline=None)
@given(doc=reports)
def test_json_report_and_stdout_bytes_match_oracle(doc):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "r.json")
        write_json_report(doc, p)
        assert _read(p) == report_text(doc)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(doc, None)
    assert buf.getvalue() == json.dumps(jsonable(doc), sort_keys=True) + "\n"


def test_report_encodes_bools_as_ints_and_inf_as_sentinels():
    doc = {"swapped": False, "flags": np.array([True, False]), "v": np.array([np.inf, -0.0, -np.inf])}
    assert report_text(doc) == ('{"flags": [1, 0], "schema": 1, "swapped": 0, '
                                '"v": ["+inf", -0.0, "-inf"]}')
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "r.json")
        write_json_report(doc, p)
        assert _read(p) == report_text(doc)


@settings(max_examples=40, deadline=None)
@given(f=gridfns(finite_node=True), m=st.integers(2, 9))
def test_conjugate_report_bytes_match_oracle(f, m):
    dual = "x".join([f"-3:2:{m}"] * f.grid.dim)
    with tempfile.TemporaryDirectory() as d:
        src, out = os.path.join(d, "f.json"), os.path.join(d, "c.json")
        write_gridfn_json(f, src)
        assert main(["conjugate", "--in", src, "--dual", dual, "--out", out]) == 0
        res = conjugate(f, parse_grid_spec(dual))
        g = res.dual.grid
        expect = report_text({
            "dim": g.dim,
            "axes": [{"lo": lo, "hi": hi, "n": n} for lo, hi, n in g.axes],
            "values": [encode_value(v) for v in res.dual.values.ravel()],
            "argmax": [int(a) for a in res.argmax.ravel()],
        })
        assert _read(out) == expect


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def test_graph_json_with_infinite_coordinates_is_strict_json(tmp_path):
    # ±inf coordinates are the "+inf"/"-inf" sentinels, as in every other
    # writer: a strict parser refuses Infinity
    G = OperatorGraph([[0.0], [np.inf]], [[1.0], [-np.inf]])
    p = str(tmp_path / "g.json")
    write_graph_json(G, p)
    doc = json.loads(_read(p), parse_constant=_no_constants)
    assert doc["pairs"] == [[[0.0], [1.0]], [["+inf"], ["-inf"]]]
    back = read_graph_json(p)
    assert back.xs.tobytes() == G.xs.tobytes() and back.xstars.tobytes() == G.xstars.tobytes()


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 12), d=st.integers(1, 2), data=st.data())
def test_graph_json_bytes_and_roundtrip_match_oracle(k, d, data):
    xs = data.draw(columns(k * d)).reshape(k, d)
    xst = data.draw(columns(k * d)).reshape(k, d)
    G = OperatorGraph(xs, xst)
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "g.json")
        write_graph_json(G, p)
        assert _read(p) == graph_json_text(G)
        back = read_graph_json(p)
        assert back.xs.tobytes() == G.xs.tobytes()
        assert back.xstars.tobytes() == G.xstars.tobytes()
