"""Time and size units used throughout the simulator.

The simulation kernel keeps time as a float number of *nanoseconds*.
All latency parameters in the code are expressed through these
constants so that a reader can compare them directly against the values
quoted in the paper (50 us flash reads, 100 ns thread switches, ...).

Sizes are plain integer byte counts.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Time units (simulation time is in nanoseconds).
# --------------------------------------------------------------------------

NANOSECOND = 1.0
MICROSECOND = 1_000.0
MILLISECOND = 1_000_000.0
SECOND = 1_000_000_000.0

NS = NANOSECOND
US = MICROSECOND
MS = MILLISECOND
S = SECOND


# --------------------------------------------------------------------------
# Size units (bytes).
# --------------------------------------------------------------------------

BYTE = 1
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

CACHE_BLOCK_SIZE = 64          # bytes, on-chip cache block (paper Sec. II-A)
PAGE_SIZE = 4 * KIB            # bytes, DRAM-cache page / flash page
