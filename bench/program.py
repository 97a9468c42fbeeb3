"""Loading the program under test from the checkout and running one op."""

from __future__ import annotations

import contextlib
import io
import os
import sys
from typing import Tuple

#: BLAS and OpenMP pools pinned to one thread; set before numpy loads
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


#: results, spans and per-run scratch directories
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def scratch_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


class ProgramMissing(RuntimeError):
    """The checkout holds no importable opspectra under src/."""


def pin_threads() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"
    # the benchmark chooses every output directory itself
    os.environ.pop("OPSPECTRA_OUTDIR", None)


def load_cli(root: str):
    """Import ``opspectra.cli`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "opspectra", "cli.py")):
        raise ProgramMissing(f"no opspectra sources under {src}")
    sys.path.insert(0, src)
    from opspectra import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"opspectra imported from {cli.__file__}, "
                             f"not from {src}")
    return cli


def run_op(cli, config_path: str) -> Tuple[int, str]:
    """One `opspectra run <config>` in-process.

    Returns the exit code and what the CLI printed.  An exception raised
    by the program propagates.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["run", config_path])
    return code, buf.getvalue()
