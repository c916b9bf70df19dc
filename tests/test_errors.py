"""The error contract: every failure the library raises on purpose is a MergeError."""

import ast
import builtins
import inspect
from pathlib import Path

import lewis
import lewis.errors
from lewis.errors import CalibrationError, MergeError

SOURCES = sorted(Path(lewis.__file__).parent.glob("*.py"))
BUILTIN_ERRORS = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}


def builtin_raises(source: str) -> list[str]:
    """`raise X` and `raise X(...)` statements in `source` whose X is a builtin exception class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                found.append((node.lineno, f"line {node.lineno}: raise {exc.id}"))
    return [line for _, line in sorted(found)]


def test_the_guard_sees_a_builtin_raise():
    source = "def f(x):\n    if x:\n        raise ValueError('x')\n    raise KeyError\n"
    assert builtin_raises(source) == ["line 3: raise ValueError", "line 4: raise KeyError"]
    assert builtin_raises("raise MergeError('x')\nraise error('x')\nraise\n") == []


def test_library_raises_no_builtin_exception():
    """A check that raises ValueError, TypeError, ... instead of a MergeError bypasses the root, and
    the CLI, which catches only MergeError and OSError, would show it as a traceback."""
    found = {path.name: builtin_raises(path.read_text()) for path in SOURCES}
    assert {name: raises for name, raises in found.items() if raises} == {}


def test_one_json_reader():
    """Checkpoint headers, documents and calibration records all go through checkpoint._json_object."""
    callers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "loads" and getattr(node.value, "id", None) == "json"
    ]
    assert callers == ["checkpoint.py"]


def test_merge_error_is_the_one_root():
    classes = [obj for _, obj in inspect.getmembers(lewis.errors, inspect.isclass)]
    assert classes and all(issubclass(cls, MergeError) for cls in classes)
    assert MergeError.__bases__ == (ValueError,)
    assert CalibrationError.__bases__ == (MergeError,)
