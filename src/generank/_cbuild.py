"""Build rule for the plain-C code in ``_mamdani.c``: the fuzzy kernel,
the pass over sorted rows that gives the rank-sum statistics, the SVM's
grid of fits with its SMO loop, the perceptron's grid of fits with its
SCG training loop, the inner search of nested LOOCV for each of the two,
the expression-matrix reader and writer, and the port of NumPy's
``SeedSequence`` and ``PCG64`` that draws the perceptron's seeds and
starting weights. The port's 128-bit arithmetic is done in 64-bit
halves, so the source needs no compiler extension.

The source is compiled into a shared library whose file name carries a
hash of the source, the compile command and the platform, so an edit to
any of them names a new file and a stale build is never loaded. A build
deletes the other ``_mamdani_*.so`` files in its directory, so checkouts
with different sources that share the per-user cache directory rebuild
in turn (about 0.2 s each). This module uses the standard library only,
so that ``setup.py`` can load it before the package's dependencies are
installed.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_mamdani.c")
COMMAND = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


class BuildError(RuntimeError):
    """The library could not be compiled; the message holds the reason."""


def library_name() -> str:
    """File name of the library built from the current source."""
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as fh:
        digest.update(fh.read())
    machine = os.uname().machine if hasattr(os, "uname") else ""
    digest.update("\0".join((*COMMAND, sys.platform, machine)).encode())
    return f"_mamdani_{digest.hexdigest()[:16]}.so"


def library_dirs() -> tuple:
    """Where the library is looked for and built, in order: the package
    directory, then a per-user cache directory."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.dirname(SOURCE), os.path.join(cache, "generank")


def find_library():
    """Path of an existing build of the current source, or None."""
    name = library_name()
    for directory in library_dirs():
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            return path
    return None


def compiler_present() -> bool:
    return shutil.which(COMMAND[0]) is not None


def build(directory) -> str:
    """Compile the source into ``directory`` and return the library's path.

    The compiler writes to a unique temporary file that is then renamed
    into place, so a concurrent importer never loads a half-written
    library; then every other ``_mamdani_*.so`` in ``directory`` is
    deleted. Raises ``OSError`` if ``directory`` cannot be written and
    ``BuildError``, holding the compiler's stderr, if compilation fails.
    """
    target = os.path.join(directory, library_name())
    fd, tmp = tempfile.mkstemp(prefix=".mamdani-", suffix=".so.tmp", dir=directory)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*COMMAND, "-o", tmp, SOURCE], capture_output=True, text=True
            )
        except OSError as exc:
            raise BuildError(f"could not run {COMMAND[0]}: {exc}") from exc
        if proc.returncode != 0:
            raise BuildError(
                f"{' '.join(COMMAND)} failed with status {proc.returncode}:\n"
                f"{proc.stderr.strip()}"
            )
        os.chmod(tmp, 0o755)  # mkstemp creates the file readable by its owner only
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Older builds go; a concurrent build may have deleted one already.
    for name in glob.glob("_mamdani_*.so", root_dir=directory):
        if name != os.path.basename(target):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, name))
    return target


def build_library() -> str:
    """Compile into the first writable directory of :func:`library_dirs`."""
    failures = []
    for directory in library_dirs():
        try:
            os.makedirs(directory, exist_ok=True)
            return build(directory)
        except OSError as exc:
            failures.append(f"{directory}: {exc}")
    raise BuildError("no writable directory for the library:\n" + "\n".join(failures))
