"""Build script: compiles the package's C library (``_mamdani.c``).

The library is built by the same rule that the package applies on first
import (``src/generank/_cbuild.py``). The package works without it (its
Python code is selected at import time), so a missing compiler or a
failed build only warns.
"""

import importlib.util
import os

from setuptools import setup
from setuptools.command.build_py import build_py

_spec = importlib.util.spec_from_file_location(
    "_cbuild", os.path.join(os.path.dirname(__file__), "src", "generank", "_cbuild.py")
)
_cbuild = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_cbuild)


class BuildPyWithKernel(build_py):
    """``build_py`` that also compiles the C library into the package."""

    def run(self):
        super().run()
        if not _cbuild.compiler_present():
            self.warn("no C compiler on PATH; the Python fallbacks will run")
            return
        if self.editable_mode:
            directory = os.path.dirname(_cbuild.SOURCE)
        else:
            directory = os.path.join(self.build_lib, "generank")
        try:
            _cbuild.build(directory)
        except (_cbuild.BuildError, OSError) as exc:
            self.warn(f"C library not built; the Python fallbacks will run: {exc}")


setup(cmdclass={"build_py": BuildPyWithKernel})
