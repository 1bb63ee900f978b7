"""Fixtures shared by the test modules."""
import os
import subprocess
import sys

import pytest

import heisurf


@pytest.fixture
def without_dispatch():
    """Run ``python -W error -c script *args`` in a fresh interpreter with
    every dispatched numpy kernel this CPU runs switched off.

    A test compares what the script writes with what this process computes,
    or runs an oracle in the script, to show that a result does not depend
    on which kernels numpy dispatches to (nor on how they handle array
    tails).  Skips where this CPU runs no dispatched kernel.
    """
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    disabled = [name for name in umath.__cpu_dispatch__
                if umath.__cpu_features__.get(name)]
    if not disabled:
        pytest.skip("this CPU runs no dispatched numpy kernel")
    src = os.path.dirname(os.path.dirname(os.path.abspath(heisurf.__file__)))

    def run(script, *args):
        subprocess.run([sys.executable, "-W", "error", "-c", script,
                        *map(str, args)], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": src,
                            "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)})
    return run
