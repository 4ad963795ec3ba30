"""Dependency-driven GPU performance simulator.

A Python reimplementation of the class of simulator the paper uses
(Section 4.1): in-order SMs with greedy-then-oldest warp scheduling, a
sectored two-level cache hierarchy, HBM2 channels, and NVLink bricks,
driven by warp-instruction traces.  Compression hooks implement the
three memory-system modes of Fig. 11:

* ``ideal`` — no compression, unlimited-capacity baseline;
* ``bandwidth`` — link compression between L2 and DRAM only;
* ``buddy`` — full Buddy Compression: metadata cache, buddy-memory
  overflow sectors over the interconnect, decompression latency.

The simulator ships three engines behind one front door
(:class:`DependencyDrivenSimulator`): the default ``"vectorized"``
batched-event core (:mod:`repro.gpusim.vector_sim`), the
``"relaxed"`` frozen-order tape engine
(:class:`~repro.gpusim.vector_sim.RelaxedSimulator`, with its
``verify=`` oracle cross-check), and the ``"legacy"`` per-access
oracle both are pinned against.  The three-way contract is documented
in ``docs/engines.md``.  :mod:`repro.gpusim.reference` provides a
cycle-stepped reference machine used as the silicon proxy for the
Fig. 10 correlation study.
"""

from repro.gpusim.config import GPUConfig, LinkConfig, scaled_config
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.engine_spec import EngineSpec
from repro.gpusim.simulator import ENGINES, DependencyDrivenSimulator, SimResult
from repro.gpusim.trace import ColumnarTrace, KernelTrace, WarpTrace
from repro.gpusim.vector_sim import (
    REFERENCE_LINK_GBPS,
    RELAXED_COUNTER_TOLERANCE,
    RELAXED_CYCLE_TOLERANCE,
    RelaxedSimulator,
    RelaxedVerificationError,
    VectorizedSimulator,
    check_relaxed_contract,
)

__all__ = [
    "GPUConfig",
    "LinkConfig",
    "scaled_config",
    "CompressionMode",
    "CompressionState",
    "DependencyDrivenSimulator",
    "EngineSpec",
    "VectorizedSimulator",
    "RelaxedSimulator",
    "RelaxedVerificationError",
    "check_relaxed_contract",
    "REFERENCE_LINK_GBPS",
    "RELAXED_COUNTER_TOLERANCE",
    "RELAXED_CYCLE_TOLERANCE",
    "ENGINES",
    "SimResult",
    "ColumnarTrace",
    "KernelTrace",
    "WarpTrace",
]
