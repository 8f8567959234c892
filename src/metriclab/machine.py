"""The numerics platform: what sets the last bits of the floats a run writes.

Reruns are byte-identical on one platform. numpy's dispatched SIMD targets
and the OpenBLAS kernel each change rounding, so `runs/PLATFORM` records
the platform that made `runs/`, and a failed byte comparison prints it next
to this machine's.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

__all__ = ["platform_record"]


def _openblas_core():
    """The kernel name OpenBLAS picked at load, or None if it is unreadable."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def platform_record() -> str:
    """`key value` lines: the numpy version, numpy's dispatched SIMD targets
    above its baseline, and the OpenBLAS kernel when it can be read."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    lines = [f"numpy {np.__version__}", f"simd {' '.join(simd)}"]
    core = _openblas_core()
    if core is not None:
        lines.append(f"openblas {core}")
    return "\n".join(lines) + "\n"
