"""A fixed reference computation that measures the host's current speed.

On a shared virtual machine the same code can run 1.5 times slower for
minutes at a time, when other tenants load the host.  Timing this kernel
between the steps of a run, and dividing the run's pass time by the
kernel's median time, removes most of that drift.  The kernel is
benchmark code, so its cost changes with the host, never with the
program under test.

Of the candidates tried on a 2-vCPU VM (a scalar Python loop, uint64
hashing, many small numpy calls, float sorts of 2^17 and 2^20 entries),
the 2^17-entry sort tracked the pass times of all three workloads best:
over 12 runs per workload, the run-to-run spread of the pass time fell
from 0.19-0.34 of the median to 0.13-0.14.
"""

import time

import numpy as np

_VALUES = (np.arange(1 << 17, dtype=np.uint64)
           * np.uint64(0xBF58476D1CE4E5B9)).astype(np.float64)


def reference_seconds() -> float:
    """Seconds taken by one sort of a fixed 2^17-entry array (about 1 ms)."""
    t0 = time.perf_counter()
    np.sort(_VALUES)
    return time.perf_counter() - t0
