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

The simulator ships two engines behind one front door
(:class:`~repro.gpusim.simulator.DependencyDrivenSimulator`): the default ``"vectorized"``
batched-event core (:func:`~repro.gpusim.vector_sim.run_vectorized`) and the
``"relaxed"`` frozen-order tape engine
(:func:`~repro.gpusim.vector_sim.replay_links`, whose ``verify=``
cross-checks sampled runs against the vectorized engine).  The tests
pin both against a per-access oracle kept with them; the contract is
documented in ``docs/engines.md``.  :mod:`repro.gpusim.reference`
provides a cycle-stepped reference machine used as the silicon proxy
for the Fig. 10 correlation study.
"""
