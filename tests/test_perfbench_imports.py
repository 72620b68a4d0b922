"""Every name the benchmark harness imports from dqdyn exists.

The harness is read with ``ast``, never imported or run, so a deletion that
would break the benchmark fails here in seconds.
"""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def dqdyn_imports() -> list:
    """(where, module, name) of each ``from dqdyn... import name`` in
    perfbench/*.py, and (where, module, None) of each ``import dqdyn...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dqdyn":
                found += [(where, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(where, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "dqdyn"]
    return found


def resolves(module: str, name) -> bool:
    """``from module import name`` (or ``import module`` for no name) would succeed."""
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def test_perfbench_imports_from_dqdyn_resolve():
    imports = dqdyn_imports()
    assert any(name is not None for _, _, name in imports), "no `from dqdyn import` found in perfbench"
    missing = [
        f"{where}: {module}" + ("" if name is None else f" has no {name}")
        for where, module, name in imports
        if not resolves(module, name)
    ]
    assert not missing, "perfbench imports what dqdyn no longer has:\n" + "\n".join(missing)
