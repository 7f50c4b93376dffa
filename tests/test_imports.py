"""Lint guards: every name a module of the package imports is used there,
every import sits at module level, only the operator translator builds a
Recurrence, every public function, class, method,
property or UPPER_CASE module constant is called (a constant: read) by the
package or the benchmark, or is listed in TEST_ONLY with the route or claim
it serves, every defaulted parameter of a public function or method is
passed by some call, and every call the benchmark makes into the package
binds to the current signature.

No linter is a dependency of the project, so the check walks the syntax
tree with the standard library.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curveseq"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((PACKAGE.parents[1] / "perfbench").rglob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

#: The public names (functions, classes, methods or properties as
#: ``Class.name``, and UPPER_CASE module constants) that no module of the
#: package and no benchmark file calls or reads, each with the route or
#: claim it serves; the tests use them.
TEST_ONLY = {
    # independent oracles and routes
    "vp_bruteforce_literal": "V_p oracle: plain enumeration against vp_bruteforce_mask",
    "extend_modp_exhaustive": "V_p oracle: every combination of free choices",
    "dieudonne_exponents_peeling": "Dieudonne exponents: factor peeling against the Moebius formula",
    "xi_obstruction_matrix": "V_p: the series route through the xi forms",
    "cartier_series": "the Cartier operator on F_p[[x]]: the series reference route",
    # routes of the acceptance criteria
    "dieudonne_exponents": "criterion 14: Dieudonne exponents round trip",
    "xi_quadrature": "criterion 06: the ODE solved by quadrature",
    "polynomial_solution_search": "criterion 13: the degree-2p polynomial solution",
    "solution_space_dimension": "criterion 13: a one-dimensional solution space",
    # claims and references only the tests check
    "pole_bound_check": "pole bounds of the Cartier image",
    "residue_check": "residues of the xi forms",
    "reduce_form": "reference for the F_p reading of xi_form",
    "x_shift_form": "C(2x^(-i) t omega) reads c_(pn+i)",
    "expand_at_origin": "Taylor expansion of s at (0, 2) against the recurrence",
    "p_decompose": "p-basis decomposition over F_p(x)",
    "clear_denominator": "descent with a declared denominator",
    "generalized_binomial": "reference for the binomials of _mul_one_minus_xm_power",
    "FOOTNOTE_RECURRENCE": "contrast fixture: a second recurrence for the recurrence kernels",
    # methods and properties only the tests call
    "PBasisDecomposition.recombine": "p-basis decomposition: sum u_i^p x^i gives back u",
    "ModPSolution.free_choices": "extend_modp: the value taken at each free index",
    "RhsForms.r_is_multiple_of_b": "R is a multiple of B(x) exactly for special data",
    "TruncatedSeries.agrees_with": "Dieudonne exponents: reconstruction against the series",
    "DieudonneExponents.reconstruct": "criterion 14: Dieudonne exponents round trip",
}


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


def recurrences_built_outside_the_translator(source: str) -> list[str]:
    """Calls of Recurrence(...) (a Name or an attribute) outside the body of
    a function named operator_recurrence: every recurrence of the package
    is derived from an operator through that one translator."""
    tree = ast.parse(source)
    allowed = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name == "operator_recurrence":
            allowed.update(id(node) for node in ast.walk(func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "Recurrence":
                found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_translator_builds_a_recurrence(path):
    assert recurrences_built_outside_the_translator(path.read_text()) == []


def test_guard_flags_a_recurrence_built_by_hand():
    source = (
        "from . import recurrence as rec\n"
        "from .recurrence import Recurrence\n"
        "def operator_recurrence(a1, a0, start=0):\n"
        "    return Recurrence(((0, a0), (1, a1)))\n"
        "PLANTED = Recurrence(((0, (1,)), (1, (1,))))\n"
        "def helper():\n"
        "    return rec.Recurrence(((0, (2,)), (1, (1,))))\n"
        "class Holder:\n"
        "    def operator_recurrence_like(self):\n"
        "        return Recurrence(((0, (3,)), (1, (1,))))\n"
        "isinstance(PLANTED, Recurrence)\n"
    )
    assert recurrences_built_outside_the_translator(source) == ["line 5", "line 7", "line 10"]


def local_names(func: ast.AST) -> set[str]:
    """The names a function or lambda binds: its arguments and every
    assignment target inside it."""
    args = func.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    stored = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {a.arg for a in every if a is not None} | stored


def _is_constant(name: str) -> bool:
    return name.isupper() and not name.startswith("_")


def uncalled_public_names(defining: list[str], calling: list[str]) -> set[str]:
    """Public module-level functions and classes of the ``defining`` sources,
    the public methods and properties of their classes (as ``Class.name``),
    and their UPPER_CASE module constants, that no ``calling`` source names.
    A function or class is named as a Name or an attribute, a method or
    property as an attribute, and a constant only where a Name or an
    attribute loads it: the assignment that defines it does not read it.  A
    Name that an enclosing function binds is a local variable, not a
    caller."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}  # reported name -> the name a caller writes
    constants = set()
    for source in defining:
        for node in ast.parse(source).body:
            if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not item.name.startswith("_"):
                        defined[f"{node.name}.{item.name}"] = item.name
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_constant(name.id):
                        constants.add(name.id)
    names, attributes, loaded = set(), set(), set()
    for source in calling:
        stack = [(ast.parse(source), frozenset())]
        while stack:
            node, bound = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                bound = bound | local_names(node)
            if isinstance(node, ast.Name) and node.id not in bound:
                names.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            stack.extend((child, bound) for child in ast.iter_child_nodes(node))
    uncalled = {
        name
        for name, written in defined.items()
        if written not in attributes and ("." in name or written not in names)
    }
    return uncalled | (constants - loaded)


def test_every_public_name_has_a_caller():
    package = [path.read_text() for path in MODULES]
    benchmark = [path.read_text() for path in BENCHMARK]
    assert benchmark
    # exact: a name that gained a caller or was deleted leaves the table too
    assert uncalled_public_names(package, package + benchmark) == set(TEST_ONLY)


def test_guard_flags_an_uncalled_public_name():
    package = (
        "def used():\n"
        "    return _private()\n"
        "def planted():\n"
        "    return 1\n"
        "def _private():\n"
        "    return 2\n"
        "class Shape:\n"
        "    def method(self):\n"
        "        return used()\n"
    )
    benchmark = "import m\nm.Shape().method()\n"
    assert uncalled_public_names([package], [package, benchmark]) == {"planted"}
    assert uncalled_public_names([package], [package]) == {"planted", "Shape", "Shape.method"}


def test_guard_flags_an_uncalled_public_method():
    # a method or property is called only through an attribute: a function
    # of the same name called as a Name does not call it
    package = (
        "class Shape:\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self._side() ** 2\n"
        "    def _side(self):\n"
        "        return 1\n"
        "    def planted(self):\n"
        "        return 2\n"
        "    def scaled(self):\n"
        "        return 3\n"
        "def scaled():\n"
        "    return Shape().area\n"
        "x = scaled()\n"
    )
    assert uncalled_public_names([package], [package]) == {"Shape.planted", "Shape.scaled"}


def test_guard_flags_a_public_name_shadowed_by_a_local():
    # an argument or an assignment target of the same name is no caller
    package = (
        "def planted():\n"
        "    return 1\n"
        "def takes(planted):\n"
        "    return planted + 1\n"
        "def assigns():\n"
        "    planted = 2\n"
        "    return [planted for _ in range(planted)]\n"
        "def called():\n"
        "    return 3\n"
        "def caller(planted):\n"
        "    return lambda: called() + planted\n"
    )
    assert uncalled_public_names([package], [package]) == {"planted", "caller", "takes", "assigns"}


def test_guard_flags_an_unread_public_constant():
    # a constant is read where it is loaded: its own assignment, a rebinding
    # and a store through an attribute do not read it
    package = (
        "PLANTED = (1, 2)\n"
        "READ = 3\n"
        "USED_BY_BENCHMARK: int = 4\n"
        "PAIR_A, PAIR_B = 5, 6\n"
        "_PRIVATE = 7\n"
        "def f():\n"
        "    return READ + PAIR_A\n"
        "lower = f()\n"
    )
    benchmark = "import m\nm.PLANTED = (3,)\nprint(m.USED_BY_BENCHMARK)\n"
    assert uncalled_public_names([package], [package, benchmark]) == {"PLANTED", "PAIR_B"}
    assert uncalled_public_names([package], [package]) == {"PLANTED", "PAIR_B", "USED_BY_BENCHMARK"}


def defaulted_parameters(defining: list[str]) -> dict[str, list[tuple[str, str, int | None]]]:
    """The defaulted parameters of the public module-level functions and of
    the public methods (``__init__`` included) of public classes in the
    ``defining`` sources, by the name a call writes (the class name for
    ``__init__``): (reported name, parameter, position or None for a
    keyword-only one), positions counted after self or cls."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}

    def add(written, reported, func, skip):
        args = func.args
        positional = (args.posonlyargs + args.args)[skip:]
        first_default = len(positional) - len(args.defaults)
        for i, a in enumerate(positional):
            if i >= first_default:
                out.setdefault(written, []).append((f"{reported}.{a.arg}", a.arg, i))
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.setdefault(written, []).append((f"{reported}.{a.arg}", a.arg, None))

    for source in defining:
        for node in ast.parse(source).body:
            if isinstance(node, functions) and not node.name.startswith("_"):
                add(node.name, node.name, node, 0)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, functions) or (item.name.startswith("_") and item.name != "__init__"):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    written = node.name if item.name == "__init__" else item.name
                    add(written, f"{node.name}.{item.name}", item, 0 if static else 1)
    return out


def unpassed_defaults(defining: list[str], calling: list[str]) -> set[str]:
    """The defaulted parameters (``function.param``, ``Class.method.param``)
    of the ``defining`` sources that no call in ``calling`` passes, by
    keyword or by position: a knob no caller turns.  A call is matched by
    the name it writes (a Name or an attribute; ``partial(f, ...)`` calls
    f), and one that unpacks ``*args`` or ``**kwargs`` passes every
    parameter it could reach."""
    params = defaulted_parameters(defining)
    passed = set()
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            written = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            n_positional = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
            keywords = {k.arg for k in node.keywords}
            for reported, name, position in params.get(written, ()):
                if None in keywords or name in keywords or (position is not None and position < n_positional):
                    passed.add(reported)
    return {reported for entries in params.values() for reported, _, _ in entries} - passed


def test_every_default_is_passed_by_a_caller():
    package = [path.read_text() for path in MODULES]
    callers = package + [path.read_text() for path in BENCHMARK + TESTS]
    assert unpassed_defaults(package, callers) == set()


def test_guard_flags_a_default_no_caller_passes():
    package = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def _private(knob=1):\n"
        "    return knob\n"
        "def g(x, knob=None):\n"
        "    return x\n"
        "def h(*args, knob=0):\n"
        "    return args\n"
        "class Shape:\n"
        "    def __init__(self, side, scale=1):\n"
        "        self.side = side\n"
        "    def area(self, unit=1):\n"
        "        return unit\n"
        "    @staticmethod\n"
        "    def build(kind=0):\n"
        "        return kind\n"
    )
    calls = (
        "import m\n"
        "m.f(0, 1, d=2)\n"
        "f(0, *rest)\n"
        "partial(g, 1, 2)\n"
        "h(1, 2, 3)\n"
        "m.Shape(1, 2).area()\n"
        "Shape.build(3)\n"
    )
    assert unpassed_defaults([package], [package, calls]) == {"f.e", "h.knob", "Shape.area.unit"}
    assert unpassed_defaults([package], [package]) == {
        "f.b", "f.c", "f.d", "f.e", "g.knob", "h.knob", "Shape.__init__.scale", "Shape.area.unit", "Shape.build.kind",
    }


def package_calls(source: str):
    """(line, dotted name, callee or None, call node) for every call in
    ``source`` of the form <curveseq module>.<name>(...), the module imported
    with ``from curveseq import <module>`` anywhere in the source."""
    tree = ast.parse(source)
    modules = {}  # local name -> curveseq module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "curveseq":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(f"curveseq.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
        ):
            module = modules[node.func.value.id]
            yield node.lineno, f"{module.__name__}.{node.func.attr}", getattr(module, node.func.attr, None), node


def unbindable_calls(source: str) -> list[str]:
    """The package calls in ``source`` that do not bind to the callee's
    current signature, with one placeholder per argument written out."""
    bad = []
    for line, name, obj, call in package_calls(source):
        if not callable(obj):
            bad.append(f"{name} (line {line}): no such callable")
            continue
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            bad.append(f"{name} (line {line}): {exc}")
    return bad


def test_benchmark_calls_bind_to_the_package():
    # tier 1 never runs perfbench/tests, so a signature change that breaks
    # the benchmark must show here
    checked = []
    for path in BENCHMARK:
        source = path.read_text()
        checked += [name for _, name, _, _ in package_calls(source)]
        assert unbindable_calls(source) == [], path.name
    assert "curveseq.recurrence.extend_modp" in checked
    assert "curveseq.modpspace.vp_bruteforce_mask" in checked


def test_guard_flags_a_call_that_does_not_bind():
    source = (
        "from curveseq import modpspace\n"
        "def f():\n"
        "    from curveseq import recurrence as rec\n"
        "    rec.extend_modp(rec.MAIN_RECURRENCE, (0, 1, 2, 3, 4), 7, 8)\n"
        "    rec.extend_modp(rec.MAIN_RECURRENCE, (0, 1, 2, 3, 4), 7, 8, choice_policy=None)\n"
        "    rec.extend_modp(rec.MAIN_RECURRENCE, (0, 1, 2, 3, 4), 7)\n"
        "    modpspace.union_check(41, seed=5)\n"
        "    modpspace.union_check(41, sede=5)\n"
        "    modpspace.retired_helper(7)\n"
    )
    bad = [entry.split(":")[0] for entry in unbindable_calls(source)]
    assert bad == [
        "curveseq.recurrence.extend_modp (line 5)",
        "curveseq.recurrence.extend_modp (line 6)",
        "curveseq.modpspace.union_check (line 8)",
        "curveseq.modpspace.retired_helper (line 9)",
    ]
