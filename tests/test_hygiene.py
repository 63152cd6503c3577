"""Source hygiene of ``src/jperron``, checked with the standard ``ast``
module: no module imports a name it never uses, and no module-level
private function or class is left without a reference.  A second copy
of a decision tends to leave exactly these behind when the first copy
takes over."""

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
