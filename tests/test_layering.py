"""The package's layers: each module imports only the layers below it, at module level."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gptlab"
# each module may import, from gptlab, only the modules before it
LAYERS = ("scalars", "linprog", "cones", "model", "symmetry", "ideal", "measures", "compat",
          "harness", "cli")


def _gptlab_modules(node) -> list:
    """The gptlab modules that the import statement ``node`` names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:  # a relative import is one from gptlab itself
        module = ".".join(filter(None, ("gptlab" if node.level else "", node.module)))
        names = [f"{module}.{a.name}" for a in node.names] if module == "gptlab" else [module]
    return [n.split(".")[1] for n in names if n.startswith("gptlab.")]


def _is_type_checking(node) -> bool:
    """Is ``node`` an ``if TYPE_CHECKING:`` (or ``typing.TYPE_CHECKING``) block?"""
    if not isinstance(node, ast.If):
        return False
    return "TYPE_CHECKING" in (getattr(node.test, "id", None), getattr(node.test, "attr", None))


def layering_violations(src=SRC) -> list:
    """``"file:line: reason"`` for every import that breaks a rule: an import
    inside a function body, or, from gptlab, one of a module that is not below
    the importing one.  Imports under ``if TYPE_CHECKING:`` are exempt."""
    out = []
    for path in sorted(Path(src).glob("*.py")):
        module = path.stem

        def visit(node, in_function: bool) -> None:
            if _is_type_checking(node):
                return
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if in_function:
                    out.append(f"{path.name}:{node.lineno}: import inside a function")
                elif module in LAYERS:
                    below = LAYERS[:LAYERS.index(module)]
                    out.extend(f"{path.name}:{node.lineno}: imports {name}, not below {module}"
                               for name in _gptlab_modules(node) if name not in below)
            inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.Lambda))
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(ast.parse(path.read_text(), filename=str(path)), False)
    return out


def test_every_module_is_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS + ("__init__",))


def test_imports_follow_the_layers():
    assert layering_violations() == []


def test_the_scan_sees_both_rules(tmp_path):
    (tmp_path / "model.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "from .scalars import dot\n"
        "from . import cones\n"
        "import gptlab.compat\n"
        "from gptlab import linprog, harness\n"
        "from .measures import distribution\n"
        "if TYPE_CHECKING:\n"
        "    from .symmetry import SymmetryGroup\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "class A:\n"
        "    def g(self):\n"
        "        from .ideal import psi_transform\n")
    assert layering_violations(tmp_path) == [
        "model.py:4: imports compat, not below model",
        "model.py:5: imports harness, not below model",
        "model.py:6: imports measures, not below model",
        "model.py:10: import inside a function",
        "model.py:14: import inside a function",
    ]
