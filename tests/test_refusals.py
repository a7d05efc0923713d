"""Refusals and edge branches that no other test reaches, one table row
each: the call, and the exception it raises (type and message) or the
value it returns."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest

from convexdesk import fenchel, fileio, moreau, renorm, special
from convexdesk.atoms import FnAtom, sample
from convexdesk.errors import (AccuracyError, GridMismatchError, ImproperFunctionError,
                               ParameterError)
from convexdesk.grids import Grid, GridFn, interp_gridfn
from convexdesk.monotone import OperatorGraph

LINE = Grid.line(-1, 1, 5)
SQ = GridFn(LINE, np.linspace(-1, 1, 5) ** 2)
BOX = Grid.box((-1, 1, 3), (-1, 1, 3))
# finite only on the x axis: every node pair is collinear with the origin
X_AXIS = GridFn(BOX, np.where(np.arange(3) == 1, [[1.0], [0.0], [1.0]], np.inf))
LINE3 = Grid.line(-1, 1, 3)
L1 = sample(FnAtom("l1norm"), Grid.box((-2, 2, 5), (-2, 2, 5)))
# -1.7e308 on a wide line: every conjugate on a positive dual grid overflows
HUGE = Grid.line(-1e300, 1e300, 3)


def _rename_onto_a_directory() -> list:
    """A write whose final rename fails: the error propagates and the temp
    file is removed; returns what is left in the directory."""
    with tempfile.TemporaryDirectory() as d:
        os.mkdir(os.path.join(d, "sub"))
        with pytest.raises(IsADirectoryError):
            fileio.write_json_report({}, os.path.join(d, "sub"))
        return sorted(os.listdir(d))


def _rename_raises_a_non_os_error() -> list:
    """A write whose final rename raises RuntimeError: the same exception
    propagates, not an OSError naming the path, and the temp file is
    removed; returns what is left in the directory."""
    err = RuntimeError("interrupted")
    with tempfile.TemporaryDirectory() as d:
        with mock.patch.object(fileio.os, "replace", side_effect=err), pytest.raises(RuntimeError) as exc:
            fileio.write_json_report({}, os.path.join(d, "out.json"))
        assert exc.value is err
        return sorted(os.listdir(d))


# (id: the module and the branch, the call, an exception type with its
# message, or the value returned)
REFUSALS = [
    ("atoms-parameter-count", lambda: sample(FnAtom("abs", (1.0,)), LINE),
     (ParameterError, "atom expects 0 parameter(s), got 1")),
    ("fenchel-oracle-dimension", lambda: fenchel.conjugate_oracle(SQ, BOX),
     (GridMismatchError, "dual grid dimension must match the function's")),
    ("fenchel-dual-grid-without-a-finite-quotient",
     lambda: fenchel.default_dual_grid(GridFn(Grid.line(-1, 1, 3), [0.0, np.inf, np.inf])),
     Grid.line(-1.0, 1.0, 3)),
    ("fenchel-infconv-dual-check-without-a-finite-pair",
     lambda: fenchel.infconv_dual_check(GridFn(HUGE, [-1.7e308] * 3), GridFn(HUGE, [0.0] * 3),
                                        Grid.line(1e8, 2e8, 3)),
     np.inf),
    ("fenchel-minkowski-non-finite",
     lambda: fenchel.minkowski_infconv_convex(np.array([0.0, np.inf]), np.zeros(3)),
     (ImproperFunctionError, "minkowski fast path requires finite arrays")),
    ("fenchel-max-formula-at-an-edge-node", lambda: fenchel.max_formula_check(SQ, 0, [1.0]),
     (GridMismatchError, "x must be an interior node")),
    ("fenchel-max-formula-next-to-inf",
     lambda: fenchel.max_formula_check(GridFn(LINE, [0, 0, 0, np.inf, 0]), 2, [1.0]),
     (ImproperFunctionError, "requires finite values at x and x + h d")),
    ("fenchel-max-formula-index-too-short", lambda: fenchel.max_formula_check(L1, (1,), (1.0, 0.0)),
     (GridMismatchError, "node index (1,) does not name a node of a grid of shape (5, 5)")),
    ("fenchel-max-formula-index-not-integer", lambda: fenchel.max_formula_check(L1, (1.5, 2), (1.0, 0.0)),
     (GridMismatchError, "node index (1.5, 2) does not name a node of a grid of shape (5, 5)")),
    ("fenchel-max-formula-index-too-long", lambda: fenchel.max_formula_check(L1, (2, 2, 2), (1.0, 0.0)),
     (GridMismatchError, "node index (2, 2, 2) does not name a node of a grid of shape (5, 5)")),
    ("fenchel-subdifferential-index-past-the-grid", lambda: fenchel.subdifferential(L1, (7, 0)),
     (GridMismatchError, "node index (7, 0) does not name a node of a grid of shape (5, 5)")),
    ("fenchel-subdifferential-negative-index", lambda: fenchel.subdifferential(L1, (-1, 0)),
     (GridMismatchError, "node index (-1, 0) does not name a node of a grid of shape (5, 5)")),
    ("fenchel-max-formula-with-an-empty-subdifferential",
     lambda: fenchel.max_formula_check(SQ, 2, [1.0], epsilon=1e-3, dual_grid=Grid.line(10, 20, 3)),
     (0.5, -np.inf)),
    ("grids-three-axes", lambda: Grid(((0, 1, 2),) * 3),
     (ParameterError, "grid dimension must be 1 or 2, got 3")),
    ("grids-contains-dimension", lambda: LINE.contains((0.0, 0.0)),
     (GridMismatchError, "point has dim 2, grid has dim 1")),
    ("grids-zero-index-off-grid", lambda: Grid.line(1, 2, 3).zero_index(),
     (GridMismatchError, "grid axis does not contain 0 as a node")),
    ("grids-values-shape", lambda: GridFn(LINE, [1.0, 2.0]),
     (GridMismatchError, "values shape (2,) does not match grid shape (5,)")),
    ("grids-eq-with-a-non-gridfn", lambda: GridFn.__eq__(SQ, 1), NotImplemented),
    ("grids-interp-dimension", lambda: interp_gridfn(SQ, [[0.0, 0.0]]),
     (GridMismatchError, "points dimension does not match grid")),
    ("monotone-graph-shapes", lambda: OperatorGraph(np.zeros((2, 1)), np.zeros((3, 1))),
     (ParameterError, "xs and xstars must be (k, d) arrays of equal shape")),
    ("moreau-prox-query-dimension", lambda: moreau.prox(SQ, 1.0, [0.0, 0.0]),
     (GridMismatchError, "query dimension does not match the grid")),
    ("moreau-project-box-shape", lambda: moreau.project([(0, 1, 2)], [0.0]),
     (ParameterError, "box must be (a, b) pairs")),
    ("moreau-project-point-dimension", lambda: moreau.project((0, 1), [0.0, 0.0]),
     (GridMismatchError, "point dimension does not match the box")),
    ("moreau-distance-set-outside-the-grid",
     lambda: moreau.distance_via_infconv_check((-5.0, 0.0), LINE),
     (ParameterError, "C must sit inside the grid box")),
    ("special-lambert-w-no-convergence", lambda: special.lambert_w(2.0, tol=0.0),
     (AccuracyError, "lambert_w did not converge for y=2.0")),
    ("special-ball-volume-dimension", lambda: special.ball_volume(0, 2.0),
     (ParameterError, "ball_volume requires n >= 1")),
    ("special-log-concavity-alpha", lambda: special.log_concavity_check(1.0, 2.0, 3.0, 0.5),
     (ParameterError, "requires alpha > 1")),
    ("special-log-concavity-p", lambda: special.log_concavity_check(2.0, 1.0, 3.0, 0.5),
     (ParameterError, "requires p, q > 1")),
    ("special-log-concavity-lambda", lambda: special.log_concavity_check(2.0, 2.0, 3.0, 1.0),
     (ParameterError, "requires lambda in (0, 1)")),
    ("special-probe-dimension", lambda: special.coupon_convexity_probe(1, 1, 0),
     (ParameterError, "probe supports 2 <= N <= 10")),
    ("renorm-probe-gives-up-on-collinear-pairs",
     lambda: renorm.strict_convexity_probe(X_AXIS, samples=2),
     renorm.StrictConvexityReport(np.inf, ((), ()), 0, 0, 201)),
    ("renorm-probe-skips-an-infinite-midpoint",
     lambda: renorm.strict_convexity_probe(GridFn(Grid.line(0, 3, 4), [0.0, np.inf, 0.0, 0.0]),
                                           samples=2),
     renorm.StrictConvexityReport(0.0, ((2.0,), (3.0,)), 2, 2, 2)),
    ("renorm-probe-gives-up-on-infinite-midpoints",
     lambda: renorm.strict_convexity_probe(GridFn(LINE3, [0.0, np.inf, 0.0]), samples=5),
     renorm.StrictConvexityReport(np.inf, ((), ()), 0, 0, 501)),
    ("renorm-probe-one-finite-node",
     lambda: renorm.strict_convexity_probe(GridFn(LINE3, [0.0, np.inf, np.inf]), samples=5),
     (ParameterError, "strict convexity probe needs two finite nodes, f has 1")),
    ("fileio-failed-rename-removes-the-temp-file", _rename_onto_a_directory, ["sub"]),
    ("fileio-non-os-error-propagates-unchanged", _rename_raises_a_non_os_error, []),
]


@pytest.mark.parametrize("call, expect", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_or_edge_branch(call, expect):
    if isinstance(expect, tuple) and isinstance(expect[0], type):
        with pytest.raises(expect[0]) as exc:
            call()
        assert type(exc.value) is expect[0] and str(exc.value) == expect[1]
    else:
        assert call() == expect
