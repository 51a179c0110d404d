"""Source hygiene of the package, read with ``ast``: no module imports a name
it never uses, and no private function, class or method goes unreferenced."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twinbeams"
MODULES = sorted(SRC.rglob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree):
    """The string entries of a literal ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def imported_names(tree):
    """(bound name, line) of every import but ``__future__`` and star imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name).split(".")[0], node.lineno


def references(tree):
    """Every name read or bound as a variable, and every attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def private_definitions(tree):
    """(name, line) of each private top-level function or class and of each
    private method of a top-level class; dunder names are not private."""
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    yield name, node.lineno


def label(path):
    return str(path.relative_to(SRC.parent))


@pytest.mark.parametrize("path", MODULES, ids=label)
def test_every_import_is_used(path):
    tree = parse(path)
    used = set(references(tree)) | exported(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{label(path)} imports names it never uses"


def test_every_private_helper_is_referenced():
    """A private helper is read somewhere in the package: imported by another
    module, called, or named as an attribute.  Its definition does not count."""
    trees = {path: parse(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        read.update(references(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [
        f"{label(path)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in read
    ]
    assert unread == []


def test_scans_the_package():
    """The scan sees every layer, and both checks see a planted fault."""
    assert {p.stem for p in MODULES} >= {"takagi", "twinbeam", "symplectic", "pipeline"}
    tree = ast.parse("from x import _used, _spare\n\ndef _orphan():\n    return _used\n")
    assert [name for name, _ in imported_names(tree) if name not in set(references(tree))] == [
        "_spare"
    ]
    assert [name for name, _ in private_definitions(tree) if name not in set(references(tree))] == [
        "_orphan"
    ]
