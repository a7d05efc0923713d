import math

import numpy as np
import pytest

from convexdesk.atoms import (
    FnAtom,
    analytic_conjugate,
    atom_eval,
    catalog_tags,
    sample,
)
from convexdesk.errors import CatalogError, GridMismatchError, ParameterError
from convexdesk.grids import Grid, discrete_convexity_check


def test_power_eval():
    assert float(atom_eval(FnAtom("power", (2.0,)), 3.0)) == 4.5


def test_indicator_outside_is_inf():
    assert float(atom_eval(FnAtom("indicator", (-1.0, 1.0)), 2.0)) == math.inf
    assert float(atom_eval(FnAtom("indicator", (-1.0, 1.0)), 0.5)) == 0.0


def test_negsqrt_circle_value():
    # sqrt(1 - 0.36) = 0.8
    assert float(atom_eval(FnAtom("negsqrt_circle"), 0.6)) == pytest.approx(-0.8, abs=1e-15)
    assert float(atom_eval(FnAtom("negsqrt_circle"), 1.5)) == math.inf


def test_unknown_tag_and_bad_params():
    with pytest.raises(CatalogError):
        FnAtom("nosuch")
    with pytest.raises(ParameterError):
        FnAtom("power", (1.0,))  # needs p > 1
    with pytest.raises(ParameterError):
        FnAtom("indicator", (2.0, -2.0))
    with pytest.raises(ParameterError):
        FnAtom("quad", (-1.0, 0.0))


def test_arity_mismatch():
    with pytest.raises(GridMismatchError):
        atom_eval(FnAtom("l1norm"), 1.0)
    with pytest.raises(GridMismatchError):
        sample(FnAtom("abs"), Grid.box((-1, 1, 3), (-1, 1, 3)))


def test_sample_examples():
    f = sample(FnAtom("abs"), Grid.line(-1, 1, 3))
    assert f.values.tolist() == [1.0, 0.0, 1.0]
    e = sample(FnAtom("exp"), Grid.line(0, 1, 2))
    assert e.values.tolist() == [1.0, math.e]
    i = sample(FnAtom("indicator", (0.0, 1.0)), Grid.line(-1, 1, 3))
    assert i.values.tolist() == [math.inf, 0.0, 0.0]  # boundary node 0 is inside


def test_xlogx_values():
    a = FnAtom("xlogx")
    assert float(atom_eval(a, 0.0)) == 0.0
    assert float(atom_eval(a, -0.5)) == math.inf
    assert float(atom_eval(a, 1.0)) == -1.0


def test_expexp_conj_values():
    a = FnAtom("expexp_conj")
    assert float(atom_eval(a, 0.0)) == -1.0
    assert float(atom_eval(a, -1.0)) == math.inf
    from convexdesk.special import lambert_w

    w = lambert_w(2.0)
    assert float(atom_eval(a, 2.0)) == pytest.approx(2 * (math.log(2) - w - 1 / w), rel=1e-12)


def test_negsqrt_subdifferential_domain():
    a = FnAtom("negsqrt")
    assert float(atom_eval(a, 4.0)) == -2.0
    assert float(atom_eval(a, -1.0)) == math.inf


_SAMPLE_PARAMS = {
    "power": (1.5,),
    "indicator": (-1.0, 1.0),
    "support": (-1.0, 1.0),
    "distance": (-1.0, 1.0),
    "dist_conj": (-1.0, 1.0),
    "point": (0.0,),
    "linear": (0.5,),
    "const": (1.0,),
    "quad": (1.5, 0.25),
    "quad_conj": (1.5, 0.25),
}


def _one_of_each():
    return [FnAtom(tag, _SAMPLE_PARAMS.get(tag, ())) for tag in catalog_tags()]


def test_fenchel_young_holds_for_every_conjugate_pair():
    """For every atom with an analytic conjugate, f(x) + f*(y) >= x y on a
    grid sample (the equality case is exercised by the transform tests)."""
    grid = Grid.line(-2.0, 2.0, 81)
    xs = grid.coords(0)
    checked = 0
    for atom in _one_of_each():
        conj = analytic_conjugate(atom)
        if conj is None or atom.arity != 1:
            continue
        fv = sample(atom, grid).values
        gv = sample(conj, grid).values
        with np.errstate(invalid="ignore"):
            resid = fv[:, None] + gv[None, :] - xs[:, None] * xs[None, :]
        resid = np.where(np.isnan(resid), np.inf, resid)
        assert resid.min() >= -1e-9, atom.tag
        checked += 1
    assert checked >= 10


def test_documented_convex_atoms_flagged_convex():
    """Every catalog atom is convex: sampled on [-2, 2] (81 nodes, 41^2 in
    2-D) it passes the discrete convexity check."""
    line, box = Grid.line(-2.0, 2.0, 81), Grid.box((-2.0, 2.0, 41), (-2.0, 2.0, 41))
    atoms = _one_of_each()
    for atom in atoms:
        rep = discrete_convexity_check(sample(atom, line if atom.arity == 1 else box))
        assert rep, (atom.tag, rep.violation_index)
    assert len(atoms) == 23


def test_atom_eval_is_a_float_and_refuses_nan():
    v = atom_eval(FnAtom("indicator", (-1.0, 1.0)), 2.0)
    assert type(v) is float and v == math.inf
    with pytest.raises(ParameterError, match="'power'.* is NaN at"):
        atom_eval(FnAtom("power", (math.nan,)), 1.0)
