"""The promised Python API: ``rollsim.__all__``, spelled in one place."""

import ast
import types
from pathlib import Path

import rollsim
import rollsim.cli  # loaded too, so its attribute on the package is a submodule like the rest

PACKAGE = Path(rollsim.__file__).parent


def test_every_promised_name_resolves():
    assert len(set(rollsim.__all__)) == len(rollsim.__all__)
    assert all(hasattr(rollsim, name) for name in rollsim.__all__)
    namespace: dict = {}
    exec("from rollsim import *", namespace)
    assert set(rollsim.__all__) <= set(namespace)


def test_the_public_names_are_all_submodules_and_version():
    submodules = {
        name for name, value in vars(rollsim).items()
        if isinstance(value, types.ModuleType) and value.__name__ == f"rollsim.{name}"
    }
    assert {"cli", "lti", "loops"} <= submodules
    public = {name for name in vars(rollsim) if not name.startswith("_")}
    assert public == set(rollsim.__all__) | submodules
    assert isinstance(rollsim.__version__, str)


def test_no_module_but_the_package_assigns_all():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        targets = [
            target.id for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        ]
        assert ("__all__" in targets) == (path.name == "__init__.py"), path.name


def test_every_definition_in_the_package_has_a_use_in_it():
    # A function or class that only tests reach is not part of the program:
    # its name must be used somewhere in the package, as a name, an
    # attribute or an import.  Dunders and promised names are exempt.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    used = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = {
        node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    unused = {name for name in defined - used - set(rollsim.__all__) if not name.startswith("__")}
    assert not unused, sorted(unused)
