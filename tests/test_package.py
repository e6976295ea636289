"""The package's public names, and the code-line counter in tools/."""

import importlib.util
import types
from pathlib import Path

import gdm

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from gdm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gdm.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert all(value.__module__.startswith("gdm.") for value in namespace.values())


def _code_lines_tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Counted: import, class, def, the bare string and each of the three
# lines of the return statement. Not counted: the three docstrings,
# blank lines and comment-only lines.
SAMPLE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        # An indented comment.
        "a bare string, not a docstring"
        return os.path.join(
            "a",
            "b")
'''


def test_code_lines_counts_only_code():
    assert len(SAMPLE.splitlines()) == 17
    assert _code_lines_tool().code_lines(SAMPLE) == 7
