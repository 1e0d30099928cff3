"""The error vocabulary: each exception type the library defines is raised
(or, for the base class, caught) somewhere in the package and named in the
README, and no module but ``errors`` defines one."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import metric_action_lab
from metric_action_lab import errors

PACKAGE = Path(metric_action_lab.__file__).parent
README = PACKAGE.parents[1] / "README.md"
ERROR_TYPES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, BaseException) and c.__module__ == errors.__name__]


def _named(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else None


def _sites():
    """The exception names each ``raise`` and each ``except`` in the package uses."""
    raised, caught = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_named(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_named(t) for t in types)
    return raised, caught


def test_library_errors_are_caught_in_three_places_only():
    # one handler per policy: a failing index keeps its own row, the CLI
    # exits 2 with one line, and a flow step prefixes its index
    sites = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    if "MetricActionError" in map(_named, types):
                        sites.add(f"{path.stem}.{top.name}")
    assert sites == {"harness.index_rows", "cli.main", "flow.flow_times"}


def test_each_error_type_is_raised_documented_and_defined_in_errors():
    # a type with no raise site, or one the README does not name, is vocabulary nobody can use
    raised, caught = _sites()
    readme = README.read_text()
    for cls in ERROR_TYPES:
        base = any(other is not cls and issubclass(other, cls) for other in ERROR_TYPES)
        assert cls.__name__ in (caught if base else raised), cls.__name__
        assert f"`{cls.__name__}`" in readme, cls.__name__
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"metric_action_lab.{info.name}")
        defined = [c.__name__ for _, c in inspect.getmembers(module, inspect.isclass)
                   if issubclass(c, BaseException) and c.__module__ == module.__name__]
        assert defined == [] or module is errors, (info.name, defined)
