"""Source hygiene of ``src/jperron``, checked with the standard ``ast``
module: no module imports a name it never uses, and no module-level
private function or class is left without a reference.  A second copy
of a decision tends to leave exactly these behind when the first copy
takes over.  The package is also kept exact: no float literal, no
inexact ``math`` function, and ``float(...)`` only where a vector's
recurrence box rounds an enclosure outward and as the infinite sentinel.
The boxes live on the vectors, never in lists beside a run.  Field
decisions read integer enclosure bounds, never the Fraction wrapper
``evaluate_interval``, only ``scalars`` works on raw field numerators,
every image run of ``build_representation`` joins the base run, a
certified decision (a Sturm chain, a state check) has one place, and
four refiners alone bisect a root enclosure."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jperron"
MODULES = {
    path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))
}


def _bound_names(node):
    """Names an import statement binds, with the alias the module uses."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _used_names(tree, skip=None):
    """Every name ``tree`` reads, as a bare name, an attribute or an
    imported name, leaving out the subtree ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return used


USED = {module: _used_names(tree) for module, tree in MODULES.items()}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_imports(module):
    tree = MODULES[module]
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - read) == []


def _private_definitions():
    for module, tree in MODULES.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                yield module, node


@pytest.mark.parametrize(
    "module, node",
    list(_private_definitions()),
    ids=["%s.%s" % (m, n.name) for m, n in _private_definitions()],
)
def test_private_definitions_are_referenced(module, node):
    elsewhere = any(node.name in USED[other] for other in MODULES if other != module)
    assert elsewhere or node.name in _used_names(MODULES[module], skip=node)


def test_the_scan_sees_the_package():
    expected = {"cf", "bratteli", "lattices", "representation", "scalars", "cli"}
    assert expected <= set(MODULES)
    assert len(list(_private_definitions())) > 20


def _inexact_math(name):
    return name.startswith("log") or name in ("exp", "sqrt", "pow")


def _float_uses(tree):
    """(enclosing module-level definition, line, what) for every float
    literal, inexact ``math`` function and ``float(...)`` call in ``tree``;
    ``float("inf")`` is exact and left out."""
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    sentinel = ast.dump(ast.Constant("inf"))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                yield owner, node.lineno, "float literal"
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                if any(_inexact_math(alias.name) for alias in node.names):
                    yield owner, node.lineno, "inexact math import"
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id in math_names
                    and _inexact_math(f.attr)
                ):
                    yield owner, node.lineno, "math.%s call" % f.attr
                elif isinstance(f, ast.Name) and f.id == "float":
                    if [ast.dump(a) for a in node.args] != [sentinel]:
                        yield owner, node.lineno, "float() call"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_inexact_arithmetic(module):
    found = [
        use
        for use in _float_uses(MODULES[module])
        if (module, use[0], use[2]) != ("scalars", "_outward", "float() call")
    ]
    assert found == []


def test_the_exactness_scan_sees_floats():
    tree = ast.parse(
        "import math as m\nfrom math import log2\n"
        "def f(x):\n    return m.sqrt(x) + 0.5 + float(x) + float('inf')\n"
    )
    assert sorted(what for _, _, what in _float_uses(tree)) == [
        "float literal",
        "float() call",
        "inexact math import",
        "math.sqrt call",
    ]
    assert {what for _, _, what in _float_uses(MODULES["scalars"])} == {"float() call"}


def _is_call(node, name):
    """Is ``node`` a call of ``name``, bare or as an attribute?"""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _call_nodes(tree, name):
    """The calls of ``name`` in ``tree``."""
    return [node for node in ast.walk(tree) if _is_call(node, name)]


def _calls_to(tree, name):
    """Lines of ``tree`` that call ``name``, bare or as an attribute."""
    return [node.lineno for node in _call_nodes(tree, name)]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"polynomials"}))
def test_decisions_read_integer_enclosure_bounds(module):
    # signs, zero tests, floors and boxes read ``_interval_bounds``;
    # ``evaluate_interval`` is its Fraction wrapper for callers outside
    # the package
    assert _calls_to(MODULES[module], "evaluate_interval") == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"scalars"}))
def test_only_scalars_works_on_raw_field_numerators(module):
    # dividing by a field element goes through ``ScalarVector.normalized``
    # or the scalar operators, never through the kernel's own helpers
    for name in ("_elem_inverse", "_reduced", "_split"):
        assert _calls_to(MODULES[module], name) == [], name


def test_the_call_scan_sees_calls():
    tree = ast.parse("import p\np.evaluate_interval(1, 2, 3)\nevaluate_interval()\n")
    assert _calls_to(tree, "evaluate_interval") == [2, 3]
    assert _calls_to(MODULES["scalars"], "_interval_bounds") != []
    for name in ("_elem_inverse", "_reduced", "_split"):
        assert _calls_to(MODULES["scalars"], name) != []


def _callers(name, modules=MODULES):
    """The definitions in ``modules`` that call ``name``, bare or as an
    attribute, as "module.function" or "module.Class.method" (calls
    outside every definition count under the module's name)."""
    found = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = path + "." + child.name
            elif _is_call(child, name):
                found.add(path)
            visit(child, inner)

    for module, tree in modules.items():
        visit(tree, module)
    return found


def test_each_certified_decision_has_one_place():
    # a field builds its Sturm chain once, to check its isolating
    # interval; a zero test or same_root reads a factor's signs at the
    # enclosure's ends, and only compare certifies equality across fields
    assert _callers("sturm_chain") == {"scalars.NumberField.__init__", "scalars.compare"}
    # a run's input state is checked where it enters, and no state the
    # loop built is checked again
    assert _callers("_check_state") == {"cf.jpa_step", "cf._period_verdict"}


def test_only_the_four_refiners_bisect_a_root():
    # a sign, an enclosure of given width, a floor and a race across fields
    # refine a root enclosure; a comparison with an interval reads end
    # signs, and no enclosure is ever a point that other code must test for
    assert _callers("refine_once") == {
        "scalars._elem_sign",
        "scalars.AlgebraicScalar.enclosure",
        "scalars.floor_exact",
        "scalars.compare",
    }
    for module, tree in MODULES.items():
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        assert "_exact_root" not in USED[module] | strings, module


def test_recurrence_boxes_live_on_the_vector():
    # a coordinate box is read by the vector that holds it and kept there,
    # so every run that meets the vector shares it; no run keeps boxes of
    # its own beside its states
    assert _callers("_outward") == {"scalars.ScalarVector.box"}
    assert _callers("_find_state") == {"cf._expand"}
    for module, tree in MODULES.items():
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        assert "_boxes" not in USED[module] | strings, module


def test_the_caller_scan_sees_nested_calls():
    tree = ast.parse("class C:\n    def m(self):\n        f(g())\n\ng()\n")
    assert _callers("g", {"probe": tree}) == {"probe.C.m", "probe"}


def test_image_runs_join_the_base_run():
    # an image run without ``join`` is stepped 2 * depth_budget times
    # instead of until it meets a state of the base run
    calls = _call_nodes(MODULES["representation"], "_certified_run")
    base = [c for c in calls if ast.unparse(c.args[0]) == "base"]
    images = [c for c in calls if c not in base]
    assert len(base) == 1 and images
    for call in images:
        joins = [ast.unparse(k.value) for k in call.keywords if k.arg == "join"]
        assert joins == ["base_run"], "line %d" % call.lineno
