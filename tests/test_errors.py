"""The error hierarchy: stable codes, exit codes, and no dead classes."""

import ast
import inspect
from pathlib import Path

import benchtop
from benchtop import errors
from benchtop.errors import BenchtopError, UsageError

SOURCE = Path(benchtop.__file__).parent


def _error_classes():
    return [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BenchtopError)
    ]


def _raised_names():
    """Names of the classes that some ``raise`` statement constructs or names."""
    names = set()
    for path in SOURCE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_codes_are_unique():
    codes = [cls.code for cls in _error_classes()]
    assert len(codes) == len(set(codes))


def test_exit_code_two_means_a_usage_error():
    for cls in _error_classes():
        assert (cls.exit_code == 2) == issubclass(cls, UsageError), cls.__name__


def test_every_leaf_error_is_raised_somewhere():
    classes = _error_classes()
    leaves = {
        cls.__name__
        for cls in classes
        if not any(other is not cls and issubclass(other, cls) for other in classes)
    }
    assert leaves - _raised_names() == set()


def _handled_names(function) -> set[str]:
    """Names of the exception classes that the ``except`` clauses of
    ``function`` catch; a bare ``except`` catches ``BaseException``."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            names.update(ast.unparse(t) if t else "BaseException" for t in types)
    return names


def test_only_typed_errors_reach_the_cli():
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    main = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    assert _handled_names(main) == {"SystemExit", "BenchtopError", "OSError"}


_JSON_CODECS = {"JSONDecoder", "load", "loads", "JSONEncoder", "dump", "dumps"}


def _json_uses(tree) -> set[str]:
    """The readers and writers of the ``json`` module that ``tree`` names,
    and every name it imports from a ``json.`` submodule."""
    found = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            found.update({node.attr} & _JSON_CODECS)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "json":
                found.update({a.name for a in node.names} & _JSON_CODECS)
            elif node.module.startswith("json."):
                found.update(f"{node.module}.{a.name}" for a in node.names)
    return found


def test_only_jsonio_uses_json():
    uses = {
        path.name: _json_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in SOURCE.rglob("*.py")
        if path.name != "jsonio.py"
    }
    assert {name: found for name, found in uses.items() if found} == {}


def _unused_names(tree) -> set[str]:
    """The names that ``tree`` imports (bar ``__future__``) or defines as a
    private top-level function, class or constant, and never reads."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            defined.update(
                (alias.asname or alias.name).partition(".")[0] for alias in node.names
            )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update(
            name for name in names if name.startswith("_") and not name.endswith("__")
        )
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return defined - read


def test_every_import_and_private_definition_is_used():
    unused = {
        path.name: _unused_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in SOURCE.rglob("*.py")
    }
    assert {name: found for name, found in unused.items() if found} == {}
