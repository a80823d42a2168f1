"""Keep the tape's large numpy temporaries on glibc's heap.

glibc serves a block over its mmap threshold (128 KiB at start, rising
only as such blocks are freed) with a fresh ``mmap``, and hands free heap
above its trim threshold back to the kernel. Either way the next large
array page-faults in again on its first write. A pretraining step makes
thousands of such arrays, so both thresholds are raised once, when
``chemfuse.nn`` is imported.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameter numbers, from glibc's ``malloc.h``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 64 << 20
TRIM_THRESHOLD = 128 << 20


def raise_malloc_thresholds() -> None:
    """Set glibc's mmap threshold to 64 MiB and its trim threshold to
    128 MiB; a C library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
