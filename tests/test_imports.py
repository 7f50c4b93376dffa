"""Lint guards: every name a module of the package imports is used there,
every import sits at module level, no check is an assert statement, only the operator translator builds a
Recurrence, every public class and UPPER_CASE module constant is named (a
constant: read) by the package or the benchmark, every function and method
of the package is reached at run time, every defaulted parameter of a public
function or method is passed by some call, and every call the benchmark
makes into the package binds to the current signature.

"Reached" is decided by running the program in one child process with
``sys.setprofile`` set before the package is imported: every README CLI
example, one small pass of each benchmark workload, and the one call that
each TEST_ONLY entry gives.  A function or method counts as reached when that
run enters its code object, named by module and ``co_qualname``, so two
classes' methods of the same name are told apart; what no run enters must be
listed as a test reference or a failure path, with its reason.

No linter is a dependency of the project, so the checks walk the syntax
tree and the code objects with the standard library.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curveseq"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

#: The UPPER_CASE module constants that no module of the package and no
#: benchmark file reads, each with the claim it serves; the tests read them.
UNREAD_CONSTANTS = {
    "FOOTNOTE_RECURRENCE": "contrast fixture: a second recurrence for the recurrence kernels",
}

#: The functions and methods (module.co_qualname) that neither a README
#: example nor a benchmark pass enters, each with the route or claim it
#: serves and the smallest call, a Python expression over the package's
#: modules, that enters it.
TEST_ONLY = {
    # independent oracles and routes
    "modpspace.vp_bruteforce_literal": (
        "V_p oracle: plain enumeration against vp_bruteforce_mask",
        "modpspace.vp_bruteforce_literal(3, 1)",
    ),
    "recurrence.extend_modp_exhaustive": (
        "V_p oracle: every combination of free choices",
        "recurrence.extend_modp_exhaustive(recurrence.MAIN_RECURRENCE, (0, 1, 2, 0, 3), 7, 10)",
    ),
    "series.dieudonne_exponents_peeling": (
        "Dieudonne exponents: factor peeling against the Moebius formula",
        "series.dieudonne_exponents_peeling(series.TruncatedSeries([1, 1], 2), 1)",
    ),
    "modpspace.xi_obstruction_matrix": (
        "V_p: the series route through the xi forms",
        "modpspace.xi_obstruction_matrix(7)",
    ),
    # routes of the acceptance criteria
    "series.dieudonne_exponents": (
        "criterion 14: Dieudonne exponents by the Moebius formula",
        "series.dieudonne_exponents(series.TruncatedSeries([1, 1], 2), 1)",
    ),
    "series.DieudonneExponents.reconstruct": (
        "criterion 14: Dieudonne exponents round trip",
        "series.dieudonne_exponents(series.TruncatedSeries([1, 1], 2), 1).reconstruct()",
    ),
    "curve.xi_quadrature": (
        "criterion 06: the ODE solved by quadrature",
        "curve.xi_quadrature(recurrence.MAIN_INITIAL_DATA, 4)",
    ),
    "descent.polynomial_solution_search": (
        "criterion 13: the degree-2p polynomial solution",
        "descent.polynomial_solution_search(7, 14)",
    ),
    "descent.solution_space_dimension": (
        "criterion 13: a one-dimensional solution space",
        "descent.solution_space_dimension(7, 14)",
    ),
    # claims only the tests check
    "cartier.pole_bound_check": (
        "pole bounds of the Cartier image, at places over F_p(sqrt 65) too",
        "cartier.pole_bound_check(curve.omega(7), 7)",
    ),
    "cartier.residue_check": (
        "residues of the xi forms",
        "cartier.residue_check(curve.omega(7), 7)",
    ),
    "cartier.x_shift_form": (
        "C(2x^(-i) t omega) reads c_(pn+i)",
        "cartier.x_shift_form(1, 7)",
    ),
    "curve.expand_at_origin": (
        "Taylor expansion of s at (0, 2) against the recurrence",
        "curve.expand_at_origin(curve.fn_s(), 4)",
    ),
    "cli.Report.skip": (
        "a check the arguments leave out or that examines nothing reports skip, not pass",
        "cli.Report('seq', {}).skip('golden-c5')",
    ),
    "recurrence.RhsForms.r_is_multiple_of_b": (
        "R is a multiple of B(x) exactly for special data",
        "recurrence.rhs_forms(recurrence.MAIN_INITIAL_DATA).r_is_multiple_of_b()",
    ),
    "recurrence.ModPSolution.ok": (
        "extend_modp: a run holds iff no residual is nonzero",
        "recurrence.extend_modp(recurrence.MAIN_RECURRENCE, (0, 1, 2, 0, 3), 7, 10).ok",
    ),
    "recurrence.ModPSolution.free_choices": (
        "extend_modp: the value taken at each free index",
        "recurrence.extend_modp(recurrence.MAIN_RECURRENCE, (0, 1, 2, 0, 3), 7, 10).free_choices",
    ),
    "series.TruncatedSeries.agrees_with": (
        "Dieudonne exponents: reconstruction against the series",
        "series.TruncatedSeries([1], 1).agrees_with(series.TruncatedSeries([1], 1), 1)",
    ),
    "series.DieudonneExponents.__getitem__": (
        "Dieudonne exponents: a_m read by its index",
        "series.dieudonne_exponents(series.TruncatedSeries([1, 1], 2), 1)[1]",
    ),
}

#: The functions and methods no run enters, kept as the reference a test
#: checks another behaviour against, each with that use.
REFERENCES = {
    "cartier.reduce_form": "test_cartier: the F_p reading of xi_form against the reduced Q form",
    "polyring.Polynomial.reduce_mod": "reduce_form's reduction of a numerator or denominator",
    "polyring.RationalFunction.reduce_mod": "reduce_form's reduction of a component",
    "exactnum.generalized_binomial": "test_series: the binomials of _mul_one_minus_xm_power",
    # the Laurent arithmetic test_curve, test_frobenius and test_cartier check expansions with
    "series.LaurentSeries.__mul__": "products of chart and origin expansions",
    "series.LaurentSeries.__neg__": "differences of expansions",
    "series.LaurentSeries.__sub__": "differences of expansions",
    "series.LaurentSeries.derivative": "x'(w) of a chart against the expansion of omega",
    "series.LaurentSeries.normalized": "equality of expansions",
    "series.LaurentSeries.is_zero": "equality of expansions",
}

#: The functions and methods entered only when a check fails, is skipped or
#: refuses its input, each with that path.
FAILURE_PATHS = {
    "cli._add_refutation": "a kernel self-check refutes a claim: one failed check in the report",
    "curve.PoleAtPlaceError.__init__": "expand_at_origin of a function with a pole at (0, 2)",
    "series.CongruenceReport.first_failure": "curveseq congruence: the witness of a refuted congruence",
}

#: Value-type dunders: they are no claim's route, so no run must enter them.
EXEMPT = ("__eq__", "__hash__", "__repr__", "__setattr__", "__bool__")


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


def test_no_assert_statement():
    # python -O strips an assert: a check of the package raises explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
    """Public module-level classes of the ``defining`` sources, and their
    UPPER_CASE module constants, that no ``calling`` source names.  A class
    is named as a Name or an attribute, a constant only where a Name or an
    attribute loads it: the assignment that defines it does not read it.  A
    Name that an enclosing function binds is a local variable, not a caller.
    Functions and methods are left to the reach guard below."""
    defined, constants = set(), set()
    for source in defining:
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined.add(node.name)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_constant(name.id):
                        constants.add(name.id)
    named, loaded = set(), set()
    for source in calling:
        stack = [(ast.parse(source), frozenset())]
        while stack:
            node, bound = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                bound = bound | local_names(node)
            if isinstance(node, ast.Name) and node.id not in bound:
                named.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            stack.extend((child, bound) for child in ast.iter_child_nodes(node))
    return (defined - named) | (constants - loaded)


def test_every_public_name_has_a_caller():
    package = [path.read_text() for path in MODULES]
    benchmark = [path.read_text() for path in BENCHMARK]
    assert benchmark
    # exact: a constant that gained a reader or was deleted leaves the table too
    assert uncalled_public_names(package, package + benchmark) == set(UNREAD_CONSTANTS)


def test_guard_flags_an_uncalled_public_name():
    package = (
        "def used():\n"
        "    return Shape()\n"
        "class Shape:\n"
        "    def method(self):\n"
        "        return 1\n"
        "class Planted:\n"
        "    pass\n"
        "class _Private:\n"
        "    pass\n"
        "class Benchmarked:\n"
        "    pass\n"
    )
    benchmark = "import m\nm.Benchmarked()\n"
    assert uncalled_public_names([package], [package, benchmark]) == {"Planted"}
    assert uncalled_public_names([package], [package]) == {"Planted", "Benchmarked"}


def test_guard_flags_a_public_name_shadowed_by_a_local():
    # an argument or an assignment target of the same name is no caller
    package = (
        "class Planted:\n"
        "    pass\n"
        "def takes(Planted):\n"
        "    return Planted\n"
        "def assigns():\n"
        "    Planted = 2\n"
        "    return [Planted for _ in range(Planted)]\n"
        "class Called:\n"
        "    pass\n"
        "def caller(Planted):\n"
        "    return lambda: (Called(), Planted)\n"
    )
    assert uncalled_public_names([package], [package]) == {"Planted"}


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


_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def package_functions(sources: dict[str, str]) -> set[str]:
    """module.co_qualname of every function, method, lambda and nested
    function that ``sources`` (module name -> source) define.  A
    comprehension is part of the function it sits in; a class body or a
    module body is no function."""
    found = set()
    stack = [(module, compile(source, module, "exec")) for module, source in sources.items()]
    while stack:
        module, code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in _COMPREHENSIONS:
                    found.add(f"{module}.{const.co_qualname}")
                stack.append((module, const))
    return found


def reach_findings(functions: set[str], entered: set[str], routes: dict[str, set[str]], listed: set[str]) -> list[str]:
    """The reach guard's decision: one line per fault, sorted.

    ``functions`` are the package's functions (package_functions),
    ``entered`` those the program's run entered, ``routes`` what each
    TEST_ONLY call entered, by entry, and ``listed`` the names kept as test
    references or failure paths.  A function is reached when the program or
    a route's call enters it.  The faults: a function neither reached nor
    listed (the EXEMPT dunders aside), a route whose call does not enter its
    own function, an entry that names no function, and an entry for a
    function that is reached without it."""
    reached = entered.union(*routes.values())
    table = set(routes) | listed
    out = [
        f"{name}: never entered and not listed"
        for name in functions - reached - table
        if name.rsplit(".", 1)[-1] not in EXEMPT
    ]
    out += [f"{name}: its call does not enter it" for name in set(routes) & functions if name not in routes[name]]
    out += [f"{name}: stale entry, no such function" for name in table - functions]
    out += [f"{name}: reached, needs no entry" for name in (set(routes) & entered) | (listed & reached)]
    return sorted(out)


def readme_examples() -> list[list[str]]:
    """The arguments of every CLI example in the README, less any --json."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        words = shlex.split(line.split("#")[0])
        if words[:1] == ["curveseq"]:
            if "--json" in words:
                i = words.index("--json")
                del words[i : i + 2]
            examples.append(words[1:])
    return examples


def reach_run(out: Path):
    """The guard's child process: with the profile set before the package
    is imported, run every README example (with --json), one small pass of
    each benchmark workload and every TEST_ONLY call, and write to ``out``
    the package functions each entered; reports go next to ``out``."""
    seen = [set()]

    def record(frame, event, arg):
        if event == "call":
            seen[-1].add(frame.f_code)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.setprofile(record)
    cli = importlib.import_module("curveseq.cli")
    assert Path(cli.__file__).parent == PACKAGE, cli.__file__
    workloads = importlib.import_module("workloads")
    tmp = out.parent
    examples = readme_examples()
    assert ["all", "--seed", "7"] in examples, examples
    for argv in examples:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--json", str(tmp / "report.json")]) == 0, argv
    checks = workloads.Checks()
    small = (
        workloads.Suite(0, tmp),
        workloads.Sporadic(0, tmp, ladder_top=50),
        workloads.Modp(0, tmp, vp_primes=(7,), supersingular_pmax=20, asd_primes=(5,),
                       extend_primes=(7,), descent_primes=(7,)),
    )
    for wl in small:
        wl.run_pass(checks)
    assert checks.attempted and not checks.failed, checks.failures
    modules = {path.stem: importlib.import_module(f"curveseq.{path.stem}") for path in MODULES if path.stem != "__init__"}
    for _, call in TEST_ONLY.values():
        seen.append(set())
        eval(call, dict(modules))
    sys.setprofile(None)

    def names(codes):
        return sorted({f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes if Path(c.co_filename).parent == PACKAGE})

    routes = {name: names(codes) for name, codes in zip(TEST_ONLY, seen[1:])}
    out.write_text(json.dumps({"entered": names(seen[0]), "routes": routes}))


def test_every_function_is_reached(tmp_path):
    out = tmp_path / "reach.json"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, str(out)], cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    print(f"reach guard child: {time.perf_counter() - start:.2f} s")
    run = json.loads(out.read_text())
    functions = package_functions({path.stem: path.read_text() for path in MODULES})
    routes = {name: set(entered) for name, entered in run["routes"].items()}
    # exact: an entry whose function gained a caller or was deleted leaves the table too
    assert reach_findings(functions, set(run["entered"]), routes, set(REFERENCES) | set(FAILURE_PATHS)) == []


def test_reach_guard_names_every_function_by_its_qualified_name():
    source = (
        "def f():\n"
        "    def inner():\n"
        "        return [x for x in ()]\n"
        "    return inner, lambda: 0\n"
        "class C:\n"
        "    @property\n"
        "    def area(self):\n"
        "        return sum(x for x in ())\n"
    )
    assert package_functions({"m": source}) == {"m.f", "m.f.<locals>.inner", "m.f.<locals>.<lambda>", "m.C.area"}


def test_guard_flags_an_uncalled_public_method():
    # two classes with a method of the same name: entering one does not reach the other
    source = (
        "class A:\n"
        "    def area(self):\n"
        "        return 1\n"
        "class B:\n"
        "    def area(self):\n"
        "        return 2\n"
        "    def __repr__(self):\n"
        "        return 'B'\n"
    )
    functions = package_functions({"m": source})
    assert reach_findings(functions, {"m.A.area"}, {}, set()) == ["m.B.area: never entered and not listed"]
    assert reach_findings(functions, {"m.A.area"}, {}, {"m.B.area"}) == []
    assert reach_findings(functions, {"m.A.area"}, {"m.B.area": {"m.B.area"}}, set()) == []


def test_reach_guard_flags_a_stale_entry():
    functions = {"m.f"}
    assert reach_findings(functions, {"m.f"}, {"m.retired": set()}, set()) == ["m.retired: stale entry, no such function"]
    assert reach_findings(functions, {"m.f"}, {}, {"m.retired"}) == ["m.retired: stale entry, no such function"]


def test_reach_guard_flags_a_route_that_misses_its_function():
    functions = {"m.f", "m.g"}
    # f's call enters g only: f is in the table, so only the route is at fault
    assert reach_findings(functions, set(), {"m.f": {"m.g"}, "m.g": {"m.g"}}, set()) == ["m.f: its call does not enter it"]


def test_reach_guard_flags_an_entry_that_needs_none():
    functions = {"m.f", "m.g", "m.h"}
    routes = {"m.f": {"m.f", "m.h"}}
    # f is entered by the program, h by f's call: neither needs its entry
    assert reach_findings(functions, {"m.f", "m.g"}, routes, {"m.h"}) == [
        "m.f: reached, needs no entry",
        "m.h: reached, needs no entry",
    ]


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


if __name__ == "__main__":
    reach_run(Path(sys.argv[1]))
