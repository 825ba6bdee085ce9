import ast
import importlib
from pathlib import Path

import pytest

import wastefactor

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_resolves_and_prints_help(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    # The installed `wastefactor` command calls this target; nothing else runs it.
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, attr = scripts["wastefactor"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wastefactor")


def _definitions(body, prefix=""):
    """(qualified name, name) of every function, class, method and property
    defined in ``body``, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node.body, f"{prefix}{node.name}.")
        else:
            for child in ast.iter_child_nodes(node):
                yield from _definitions([child], prefix)


def test_every_definition_is_reached():
    # A definition is public when the package exports it and in use when
    # some module of the package names it; one that is neither is code
    # only tests reach. Names match by spelling, so a definition that
    # shares its name with anything the package names passes unseen.
    modules = sorted(Path(wastefactor.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name.rpartition(".")[2] for alias in node.names)
    unreached = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name in _definitions(tree.body)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in referenced
        and name not in wastefactor.__all__
    ]
    assert not unreached, f"neither exported nor used in src/: {', '.join(unreached)}"
