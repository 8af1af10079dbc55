"""Write-path subsystem: DRAM→flash admission policies, write
amplification, and device lifetime (DESIGN.md §4j).

Disabled by default (``WritesConfig.enabled=False``): nothing here is
constructed and the DRAM-cache/flash hot paths take their original
branches, keeping the golden fixtures bit-identical.  When enabled,
:func:`make_admission` builds the configured
:class:`~repro.writes.admission.AdmissionPolicy` and the machine
threads it through both DRAM-cache controllers; the driver in
:mod:`repro.writes.bench` sweeps policies and write ratios behind
``repro writes``.
"""

from repro.writes.admission import (
    AdmissionPolicy,
    ReadinessAdmission,
    ReadinessSketch,
    WriteBackAdmission,
    WriteThroughAdmission,
    make_admission,
)
from repro.writes.bench import run_writes, writes_overrides

__all__ = [
    "AdmissionPolicy",
    "ReadinessAdmission",
    "ReadinessSketch",
    "WriteBackAdmission",
    "WriteThroughAdmission",
    "make_admission",
    "run_writes",
    "writes_overrides",
]
