"""Observed outputs pinned per OpenBLAS core type.

A matrix product's last bits depend on the kernel numpy's OpenBLAS runs,
which it picks for the CPU (its core type): ``SkylakeX``, the AVX-512
kernel, and ``Haswell``, the AVX2 one that AMD machines get, sum in
another order, so a pinned run digest holds for one of them only.  Each
pinned output carries the exact values of both, captured by forcing
``OPENBLAS_CORETYPE`` on one machine; the live core type picks them.  On
any other core the test fails, naming it: nothing is pinned there.
"""

import pytest

from tosqap.cli import _blas_core


def on_core(**values):
    """``values[core]`` for the live OpenBLAS core type; fails the calling
    test when no value is pinned for it."""
    core = _blas_core()
    if core not in values:
        pytest.fail(f"no output pinned for OpenBLAS core type {core!r} (pinned for "
                    f"{', '.join(values)}); set OPENBLAS_CORETYPE to one of those")
    return values[core]
