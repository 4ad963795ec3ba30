"""Synthetic workload substrate.

The paper's inputs — GPU memory dumps and SASS traces of SpecAccel,
DOE FastForward and Caffe DL training runs — are proprietary.  This
package provides the synthetic equivalents described in DESIGN.md:

* :mod:`repro.workloads.catalog` — Table 1 benchmark metadata plus the
  memory-access character each benchmark exhibits.
* :mod:`repro.workloads.valuemodels` — data-pattern primitives with
  analytically known Bit-Plane-Compression behaviour.
* :mod:`repro.workloads.calibration` — per-benchmark allocation specs
  calibrated so the measured BPC statistics match Fig. 3 / Fig. 6 /
  Fig. 8 of the paper.
* :mod:`repro.workloads.snapshots` — the memory-dump generator (ten
  snapshots per run, profile and reference roles).
* :mod:`repro.workloads.traces` — warp-instruction trace generator for
  the GPU performance simulator.
"""
