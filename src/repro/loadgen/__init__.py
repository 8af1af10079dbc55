"""Load generation: QPS sweeps and SLO knee curves.

The arrival processes themselves live in
:mod:`repro.workloads.arrival` (they are workload plumbing); this
package owns the sweep driver (:func:`repro.loadgen.sweep.run_loadgen`)
and its sustained-QPS-under-SLO knee solver
(:func:`repro.loadgen.sweep.solve_knee`).
"""
