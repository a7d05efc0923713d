"""One inner product: every <., .> and norm over the grid axes in src/ is
grids._dots, the axes' products added elementwise in axis order, so no
report byte depends on the BLAS build or on the kernel it selects.  The
only matrix products left are the five lines listed below, each with its
reason."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convexdesk"

# per file, the stripped source lines that may hold a BLAS product
ALLOWED = {
    "special.py": {
        # _subset_sums: sums of the exact parts are exact in any order, the
        # remainder's to about 2^-100 relative
        "a, b, r = (masks @ v for v in _exact_parts(x))",
        # _coupon_derivatives: the Hessians go to LAPACK's eigvalsh, which
        # depends on BLAS anyway
        "r = 1.0 / (X @ masks.T)",
        "p = r @ sign",
        "g = -(sign * r * r) @ masks",
        "H = (masks.T * (2.0 * sign * r ** 3)[:, None, :]) @ masks",
    },
}


def _name(node) -> str:
    """The dotted name of an attribute chain, such as np.linalg.norm."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "?")
    return ".".join(reversed(parts))


def blas_sites(text: str) -> list[tuple[int, str]]:
    """(line, what) of every matrix product in the source: the @ operator
    (ast.MatMult, so a decorator is not one) and a call of np.dot,
    np.matmul (or the .dot and .matmul of any name) or np.linalg.norm."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = _name(node.func)
            if node.func.attr in ("dot", "matmul") or name.endswith("linalg.norm"):
                out.append((node.lineno, name))
    return sorted(out)


def test_the_checker_finds_each_kind_of_product_and_skips_decorators():
    text = ("@dataclass\nclass A:\n    pass\n"
            "a = x @ y\nb @= y\nc = np.dot(x, y)\nd = np.matmul(x, y)\n"
            "e = np.linalg.norm(x)\nf = x.dot(y)\ng = np.sqrt(_dots(x, x))\n")
    assert blas_sites(text) == [(4, "@"), (5, "@"), (6, "np.dot"), (7, "np.matmul"),
                                (8, "np.linalg.norm"), (9, "x.dot")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_product_outside_the_listed_lines(path):
    text = path.read_text()
    lines = text.splitlines()
    allowed = ALLOWED.get(path.name, set())
    found = [lines[k - 1].strip() for k, _ in blas_sites(text)]
    assert [line for line in found if line not in allowed] == []
    assert sorted(found) == sorted(allowed)  # each listed line holds one product and is still there
