"""Cost-aware human-motion forecasting and sampling-based MPC for
collaborative manipulation.

On import, on glibc, the package tells the C allocator to keep the memory
it frees (``_keep_freed_heap``).  Each MPPI iteration frees 1-2 MB of
scoring temporaries at once.  Under glibc's default dynamic thresholds that
is more than the heap may keep, so the top of the heap went back to the
kernel and was faulted in again twice per control tick: 300-450 minor page
faults and 0.5-0.8 ms of system time per tick, and about 1,400 faults per
``train`` command.  With the freed memory kept, a warmed-up tick takes no
page faults, and the median playback tick is 11-17% faster.  Other C
libraries keep their default behaviour.  costcast sets no environment
variable.
"""

import ctypes

from .motion import Context, Episode, Trajectory
from .robot import ArmModel

__all__ = [
    "ArmModel",
    "Context",
    "Episode",
    "Trajectory",
]

__version__ = "0.1.0"

# mallopt parameter numbers, from glibc's malloc.h.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Allocations of this size or more get their own mapping.  32 MiB is the
# ceiling at which glibc's own dynamic rule stops on 64-bit, and mallopt
# refuses anything larger.
MMAP_THRESHOLD = 32 << 20
# Free memory at the top of the heap past this size goes back to the kernel.
# Twice the mmap threshold is the ratio glibc's dynamic rule uses.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _keep_freed_heap(libc) -> None:
    """Fix glibc's mmap and trim thresholds so that freed scoring
    temporaries stay mapped for the next tick.  Setting either parameter
    switches off glibc's dynamic rule, so both are set: a fixed trim
    threshold alone would leave the 128 KB default mmap threshold, and the
    FK blocks would be mapped and unmapped on every call.  A C library
    without ``mallopt`` is left as it is."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


try:
    _keep_freed_heap(ctypes.CDLL(None))
except (OSError, TypeError):  # no C library to load (Windows refuses None): nothing to set
    pass
