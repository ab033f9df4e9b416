"""Observed outputs pinned per OpenBLAS core type.

A matrix product's last bits depend on the kernel numpy's OpenBLAS runs,
which it picks for the CPU (its core type).  The x86-64 kernels sum in four
orders: ``SkylakeX`` (AVX-512), ``Haswell`` (AVX2; AMD's ``Zen`` runs it),
``Sandybridge`` (AVX) and ``Nehalem`` (SSE4; ``Atom`` runs it).  So a
pinned run digest holds for one of them only.  Each pinned output carries
the exact values of all four, captured by forcing ``OPENBLAS_CORETYPE`` on
one machine; the live core type picks them.  ``Core2`` and ``Prescott``
report ``Katmai`` and gave the ``Nehalem`` value of every pinned output.
Non-OpenBLAS builds and aarch64 kernels are unpinned: there the test
fails, naming the core.
"""

import pytest

from tosqap.cli import environment

#: Core types whose kernels gave another's value of every pinned output.
SAME_AS = {"Katmai": "Nehalem"}


def on_core(**values):
    """``values[core]`` for the live OpenBLAS core type; fails the calling
    test when no value is pinned for it."""
    core = environment()["blas_core"]
    if SAME_AS.get(core, core) not in values:
        pytest.fail(f"no output pinned for OpenBLAS core type {core!r} (pinned for "
                    f"{', '.join(values)}, and Katmai as Nehalem; non-OpenBLAS builds and "
                    f"aarch64 kernels are unpinned); set OPENBLAS_CORETYPE to a pinned one")
    return values[SAME_AS.get(core, core)]
