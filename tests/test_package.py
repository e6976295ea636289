"""The package's public names, and the code-line counter and stage
profile in tools/."""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

import gdm

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from gdm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gdm.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert all(value.__module__.startswith("gdm.") for value in namespace.values())


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
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
    assert _tool("code_lines").code_lines(SAMPLE) == 7


def test_stage_profile_changes_no_result_and_counts_refine_work(monkeypatch):
    # The profile's wrappers must leave every label as it is, and its
    # counts must agree: each screened row decomposes K Grams, and a
    # refine move needs a try, which needs a screened row.
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    tool = _tool("stage_profile")
    for name in ("twoview_small", "mixture_outliers"):
        prof, results = tool.profile(name, 11, "tiny")
        scenes = tool.WORKLOADS[name].scenes(11, "tiny", None)
        assert len(results) == len(scenes)
        for scene, result in zip(scenes, results):
            np.testing.assert_array_equal(result.labels, tool.pipeline(name)(scene).labels)
        assert prof.work["rows"] >= prof.work["tries"] >= prof.work["moves"] > 0
        assert prof.eigvalsh["merge", 9] > 0 and "screen" in prof.cpu
    # Every mixture scene has K = 2.
    assert prof.eigvalsh["refine", 9] == 2 * prof.work["rows"]
    assert len(tool.report(name, prof)) == 5
