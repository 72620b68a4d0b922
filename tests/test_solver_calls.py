"""Every solve on the inertia goes through ``linsolve``.

The package's sources are read with ``ast``, never imported or run. A call
to ``np.linalg.inv``, ``np.linalg.cond`` or ``np.linalg.solve``, or an ``@``
product with an ``.inverse`` operand, would bring a LAPACK or BLAS rounding
back where ``linsolve.solve_rows`` picks the pivots and ``linsolve.matvec``
sums left to right, and the golden hashes would then depend on the build.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dqdyn"
BANNED_CALLS = {("linalg", "inv"), ("linalg", "cond"), ("linalg", "solve")}


def _dotted(node) -> tuple:
    """The names of an ``a.b.c`` expression, outermost first; () for any other."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) else ()


def offences(source: str, filename: str) -> list:
    """(line, what) of each banned call or ``@ .inverse`` product in source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and _dotted(node.func)[-2:] in BANNED_CALLS:
            found.append((node.lineno, ".".join(_dotted(node.func))))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if any(isinstance(o, ast.Attribute) and o.attr == "inverse" for o in operands):
                found.append((node.lineno, "@ with an .inverse operand"))
    return found


def test_the_check_sees_each_banned_form():
    source = "np.linalg.inv(A)\nnumpy.linalg.cond(A)\nnp.linalg.solve(A, b)\nM.inverse @ x\nx @= M.inverse\n"
    assert sorted(line for line, _ in offences(source, "<example>")) == [1, 2, 3, 4, 5]
    assert not offences("np.linalg.norm(x)\nA @ x\nlinsolve.matvec(M.inverse.tolist(), x)\n", "<example>")


def test_src_solves_with_linsolve_only():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in offences(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, "src/dqdyn solves outside linsolve:\n" + "\n".join(found)
