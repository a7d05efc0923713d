"""One read-only rule: every array a value in src/ holds is a grids._frozen
copy, and grids._Frozen.__reduce__ sends copies and unpickled values
through the constructor again.  A new result type that holds an array
without the rule, a second __reduce__ or a second place that sets an
array's write flag fails here."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

from convexdesk import grids, moreau, special

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convexdesk"
FILES = sorted(SRC.glob("*.py"))
# methods that would give a class its own copy or pickle path
COPY_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__", "__copy__", "__deepcopy__"}
# a field annotation that holds an array, optional or not
ARRAY_FIELD = re.compile(r"(Optional\[)?(np\.|numpy\.)?ndarray(\]| \| None)?")


def _array_dataclasses() -> list[type]:
    """The dataclasses defined in src/ with a field annotated as an array."""
    out = []
    for path in FILES:
        mod = importlib.import_module(f"convexdesk.{path.stem}" if path.stem != "__init__" else "convexdesk")
        for obj in vars(mod).values():
            if (inspect.isclass(obj) and obj.__module__ == mod.__name__ and dataclasses.is_dataclass(obj)
                    and any(ARRAY_FIELD.fullmatch(str(f.type)) for f in dataclasses.fields(obj))):
                out.append(obj)
    return out


def rule_sites(text: str) -> list[tuple[str, str]]:
    """(enclosing class or function, what) of every copy hook defined and
    every write-flag site: a setflags call, a .writeable attribute or a
    writeable= keyword."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else where
            if isinstance(child, ast.FunctionDef) and child.name in COPY_HOOKS:
                out.append((where, child.name))
            elif isinstance(child, ast.Attribute) and child.attr in ("setflags", "writeable"):
                out.append((where, child.attr))
            elif isinstance(child, ast.keyword) and child.arg == "writeable":
                out.append((where, "writeable="))
            visit(child, inner)

    visit(ast.parse(text), "<module>")
    return out


def test_the_checker_finds_each_kind_of_site():
    text = ("class A:\n    def __reduce__(self):\n        pass\n"
            "    def __deepcopy__(self, memo):\n        pass\n"
            "def f(a):\n    a.setflags(write=False)\n    a.flags.writeable = False\n"
            "    return sliding_window_view(a, 2, writeable=True)\n")
    assert rule_sites(text) == [("A", "__reduce__"), ("A", "__deepcopy__"), ("f", "setflags"),
                                ("f", "writeable"), ("f", "writeable=")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_one_reduce_and_one_write_flag_site_in_src(path):
    allowed = [("_frozen", "setflags"), ("_Frozen", "__reduce__")] if path.name == "grids.py" else []
    assert rule_sites(path.read_text()) == allowed


def test_every_dataclass_holding_an_array_derives_from_frozen():
    found = {cls.__name__: issubclass(cls, grids._Frozen) for cls in _array_dataclasses()}
    assert [name for name, ok in found.items() if not ok] == []
    assert {"GridFn", "ConjugateResult", "InfConvResult", "SubdifferentialSet", "OperatorGraph"} <= set(found)
    assert issubclass(grids.Grid, grids._Frozen)  # its coords are not a field


def test_the_shared_tables_refuse_to_become_writable():
    masks, sign = special._subset_table(3)
    tables = [special._perm_table(3), masks, sign, *moreau._STEPS.values(),
              *(a for level in special._de_nodes("exp-sinh") for a in level)]
    for a in tables:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="WRITEABLE"):
            a.setflags(write=True)


def test_frozen_is_a_read_only_view_of_a_copy():
    src = np.arange(4)
    a = grids._frozen(src, np.int64)
    src[0] = 9  # the input stays the caller's
    assert a.tolist() == [0, 1, 2, 3] and a.dtype == np.int64 and a.base is not None
    assert grids._frozen([1, 2]).dtype == np.float64
