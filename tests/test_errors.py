import ast
import inspect
import pathlib

import gonalift
from gonalift import errors


def _raised_names():
    """Names of the exception classes in every ``raise`` of the package."""
    names = set()
    for path in pathlib.Path(gonalift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.GonaliftError)
               and obj is not errors.GonaliftError}
    assert classes, "no error classes found"
    assert classes - _raised_names() == set()
