"""Lint guards: every name a module of the package imports is used there,
and every import sits at module level.

No linter is a dependency of the project, so the check walks the syntax
tree with the standard library.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curveseq"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        # a quoted annotation names what it annotates with
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.parse(ann.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def function_local_imports(source: str) -> list[str]:
    found = {}  # line -> outermost enclosing function
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.setdefault(node.lineno, func.name)
    return [f"{name} (line {line})" for line, name in sorted(found.items())]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .a import b, c\n"
        "__all__ = ['c']\n"
        "def f(x: 'np.ndarray') -> int:\n"
        "    return 1\n"
    )
    assert unused_imports(source) == ["math (line 2)", "b (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_import(path):
    assert function_local_imports(path.read_text()) == []


def test_guard_flags_a_function_local_import():
    source = (
        "import math\n"
        "def f():\n"
        "    from .a import b\n"
        "    return math.pi + b\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            import random\n"
    )
    assert function_local_imports(source) == ["f (line 3)", "g (line 8)"]
