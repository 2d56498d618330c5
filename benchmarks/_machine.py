"""Shared machine/environment metadata for the ``BENCH_*.json`` reports.

Benchmark numbers are only comparable when the machine, python and backend
that produced them are recorded next to them; every benchmark script embeds
this block under the ``"metadata"`` key.
"""

from __future__ import annotations

import platform
import sys

import numpy as np

from repro.bench.harness import execution_metadata


def machine_metadata(
    backend_name: str,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache_state: str | None = None,
) -> dict:
    """Environment facts that make cross-machine trajectory comparisons sane.

    The ``execution`` block (worker count, cache directory and
    temperature) comes from
    :func:`repro.bench.harness.execution_metadata`; scripts that phase
    through several configurations pass the run-level default here and
    stamp per-phase values next to the numbers themselves.
    """
    return {
        "backend": backend_name,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy_version": np.__version__,
        "argv": sys.argv[1:],
        "native": native_metadata(),
        "execution": execution_metadata(
            jobs=jobs, cache_dir=cache_dir, cache_state=cache_state
        ),
    }


def native_metadata() -> dict:
    """Native-backend runtime facts (the C compiler, and whether disabled).

    Stamped into every report — even numpy/python runs record whether the
    native kernels were *available*, so a regression hunt can tell "native
    was slower" apart from "native silently fell back to numpy".
    """
    from repro.kernels.native_backend import native_runtime_metadata

    return native_runtime_metadata()
