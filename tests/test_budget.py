"""The work budget: every exhaustive pass counts its work before any of it
and is refused past fenchel.MAX_DIRECT_PAIRS, read when the pass runs."""

import warnings

import numpy as np
import pytest

from convexdesk import fenchel
from convexdesk.cli import main
from convexdesk.errors import ParameterError
from convexdesk.fenchel import conjugate, conjugate_oracle, inf_convolution, minkowski_infconv_convex
from convexdesk.grids import Grid, GridFn
from convexdesk.monotone import OperatorGraph, is_monotone, surjectivity_probe
from convexdesk.moreau import moreau_envelope
from convexdesk.special import coupon_convexity_probe

LINE5 = Grid.line(-1, 1, 5)
# values near the float limit take the envelope off the kernel: the
# exhaustive node minimum over 5 x 5 node pairs
HUGE5 = GridFn(LINE5, [8e307, 1.7e308, 0.0, 1.7e308, 8e307])

# (pass, its call, its work count, the inner work that must not start past
# the cap, and a CLI job that reaches it with its work
# count, or None)
CASES = [
    ("rounding windows",
     lambda: conjugate(GridFn(Grid.line(-1, 1, 50), np.zeros(50)), Grid.line(-1e-13, 1e-13, 50)),
     2500, None,
     (["conjugate", "--atom", "const", "--params", "0", "--grid=-1:1:50",
       "--dual=-1e-13:1e-13:50"], 2500)),
    ("conjugate_oracle", lambda: conjugate_oracle(HUGE5, Grid.line(-1, 1, 7)),
     35, "convexdesk.fenchel._conjugate_scan",
     (["conjugate", "--atom", "const", "--params", "1e308", "--grid=-1:1:5", "--dual=-1:1:7"], 35)),
    ("direct inf-convolution", lambda: inf_convolution(HUGE5, HUGE5),
     19, "convexdesk.fenchel.sliding_window_view",
     (["infconv", "--atom", "abs", "--grid=-1:1:5", "--atom2", "abs"], 19)),
    ("Minkowski merge", lambda: minkowski_infconv_convex(np.zeros((3, 4)), np.zeros((2, 5))),
     42, "convexdesk.fenchel._row_minkowski",
     # the first step merges 221 row pairs of 40 increments
     (["renorm", "--grid=-2:2:21x-2:2:21", "--steps", "1"], 8840)),
    ("exhaustive envelope", lambda: moreau_envelope(HUGE5, 1.0, check_convexity=False),
     25, "convexdesk.moreau._node_minimum",
     (["envelope", "--atom", "const", "--params", "8e307", "--grid=-1:1:5"], 25)),
    ("is_monotone", lambda: is_monotone(OperatorGraph(np.arange(4.0)[:, None], np.arange(4.0)[:, None])),
     16, "convexdesk.monotone._dots", None),
    ("surjectivity_probe", lambda: surjectivity_probe(GridFn(LINE5, np.abs(LINE5.coords(0))), [0.0, 0.5]),
     2 * (5 + 2 ** 14), "convexdesk.monotone.resolvent", None),
    ("coupon_convexity_probe", lambda: coupon_convexity_probe(2, 3, 0),
     3 * (2 * 2 ** 2 + 2 ** 10), "convexdesk.special._coupon_derivatives",
     (["coupon", "--x", "1,2", "--forms", "perm", "--probe-trials", "3"], 3096)),
]


def _no_work(*args, **kwargs):
    raise AssertionError("work started past the cap")


@pytest.mark.parametrize("run, work, inner", [c[1:4] for c in CASES], ids=[c[0] for c in CASES])
def test_each_pass_is_refused_one_past_its_cap_and_runs_at_it(run, work, inner, monkeypatch):
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", work - 1)
    with monkeypatch.context() as mp:
        if inner is not None:
            mp.setattr(inner, _no_work)
        with pytest.raises(ParameterError, match=f" needs? {work} .*, cap is {work - 1}$"):
            run()
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", work)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run()


@pytest.mark.parametrize("argv, work", [c[4] for c in CASES if c[4] is not None],
                         ids=[c[0] for c in CASES if c[4] is not None])
def test_each_cli_job_past_the_cap_exits_1_without_a_traceback(argv, work, monkeypatch, capsys):
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", work - 1)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.endswith(f", cap is {work - 1}\n")
    assert f" {work} " in err and "Traceback" not in err
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", work)
    assert main(argv) == 0
